"""The family table answers a time grid exactly as it answers each time alone."""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncho import families
from ncho.cli import main
from ncho.config import ScenarioKind, build_scenario, parse_scenario_file
from ncho.energy import energy_expectation
from ncho.ermakov import ep_residual
from ncho.families import Family, Grid
from ncho.hamiltonian import nc_table
from ncho.spectrum import StateLabel

from conftest import SCENARIO_DIR, make_scenario

SCENARIOS = {
    path.stem: build_scenario(parse_scenario_file(path))
    for path in sorted(SCENARIO_DIR.glob("*.scenario"))
}
SHIPPED = tuple(SCENARIOS)
SCENARIOS["set_ii_k3"] = make_scenario(
    ScenarioKind.SET_II_K, k_exp=3, omega0=0.5, sigma=1.0, Delta=1.0, mu=1.0, enforce=False
)
SCENARIOS["set_ib_omega0_0"] = make_scenario(ScenarioKind.SET_IB, omega0=0.0)
# omega0 = 1e4 puts the SetIa series argument inside |z| < 1 until t ~ 1.15,
# so grids mix validated and unvalidated times. It stays out of the random
# sweep: just below that edge the series does not settle in 500 terms.
STEEP_IA = make_scenario(
    ScenarioKind.SET_IA, omega0=1.0e4, mu=(1.0e14 / (1.0e14 - 0.25)) ** 0.25
)
METHODS = (
    "damping", "frequency", "rho", "a", "b", "c_terms", "c", "phase_rate", "unit_phase",
    "ground_energy", "propagator",
)


def _window_end(scenario) -> float:
    """Past the reality horizon, where one exists, so complex values are covered."""
    horizon = scenario.horizon()
    return 3.0 if not horizon else min(2.0 * horizon, 40.0)


def _parts(out) -> list:
    return list(out) if isinstance(out, tuple) else [out]


def _assert_same_bits(whole, single: list, where) -> None:
    if whole is None:
        assert all(s is None for s in single), where
        return
    for k, column in enumerate(_parts(whole)):
        values = [_parts(s)[k] for s in single]
        assert all(type(v) in (float, complex, bool) for v in values), where
        assert column.shape == (len(single),), where
        assert np.array(values, dtype=column.dtype).tobytes() == column.tobytes(), (where, k)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grid_and_single_times_agree_bit_for_bit(data):
    name = data.draw(st.sampled_from(sorted(SCENARIOS)))
    family = SCENARIOS[name]
    times = data.draw(
        st.lists(st.floats(0.0, _window_end(SCENARIOS[name])), min_size=1, max_size=12)
    )
    grid = np.array(times)
    for method in METHODS:
        whole = getattr(family, method)(grid)
        _assert_same_bits(whole, [getattr(family, method)(t) for t in times], (name, method))


# What each public method answers for a float time: Python scalars only.
SINGLE_TYPES = {
    "damping": float, "frequency": float, "rho": (float, float, float), "a": (float, float),
    "b": float, "c_terms": (float, float), "c": complex, "phase_rate": complex,
    "unit_phase": (complex, bool), "ground_energy": float,
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_a_single_time_runs_as_a_one_point_grid(monkeypatch, name):
    family = SCENARIOS[name]
    t = 0.5
    seen = []

    def spy(impl):
        def spied(self, grid):
            seen.append((impl.__name__, grid))
            return impl(self, grid)

        spied.__name__ = impl.__name__
        return spied

    for method in SINGLE_TYPES:
        impl = getattr(type(family), "_" + method)
        monkeypatch.setattr(type(family), "_" + method, spy(impl))
    grid = np.array([0.25, t, 1.0])
    for method, want in SINGLE_TYPES.items():
        seen.clear()
        single = getattr(family, method)(t)
        assert seen, (name, method)
        for impl, record in seen:
            # Each implementation reads the times of its grid record as a flat float array.
            assert type(record) is Grid and record.shape is None, (name, impl)
            times = record.t
            assert type(times) is np.ndarray and times.dtype == np.float64, (name, impl)
            assert times.shape == (1,) and times[0] == t, (name, impl)
        # Python scalars, with the bits of the same time inside a grid.
        assert [type(x) for x in _parts(single)] == _parts(want), (name, method)
        whole = getattr(family, method)(grid)
        for x, column in zip(_parts(single), _parts(whole)):
            assert np.array([x], column.dtype).tobytes() == column[1:2].tobytes(), (name, method)


def test_outputs_keep_the_shape_of_the_times():
    family = SCENARIOS["set_iii"]
    grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    assert all(x.shape == (2, 3) for x in family.rho(grid))
    assert family.c(grid).shape == (2, 3) and family.c(grid).dtype == complex
    # Time-independent terms are broadcast to the grid too.
    assert family.a(grid)[1].shape == (2, 3) and not family.a(grid)[1].any()
    assert isinstance(family.b(0.5), float) and isinstance(family.c(0.5), complex)
    assert family.rho(np.array([0.5]))[0].shape == (1,)


def test_series_domain_is_reported_per_time():
    family = STEEP_IA
    edge = math.log(10.0) / 2.0  # where z = 0.1 exp(2t) reaches 1
    # Just below the edge (t = 1.14) the series does not settle, so the
    # published form stands down there too.
    times = np.array([0.0, 0.5 * edge, 0.9 * edge, 1.14, 1.01 * edge, 3.0])
    _, validated = family.unit_phase(times)
    assert validated.tolist() == [True, True, True, False, False, False]
    assert SCENARIOS["set_ia"].unit_phase(0.5)[1] is False  # z starts at 10


def test_unit_phase_answers_everywhere_and_flags_where_no_closed_form_holds():
    grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    no_closed_form = {
        "set_ia": SCENARIOS["set_ia"],  # z0 = 10
        "set_ia_omega0_0": make_scenario(ScenarioKind.SET_IA, omega0=0.0),
        "set_ii_k3": SCENARIOS["set_ii_k3"],
    }
    for name, family in no_closed_form.items():
        value, validated = family.unit_phase(grid)
        assert value.dtype == complex and value.shape == grid.shape, name
        assert validated.dtype == bool and validated.shape == grid.shape, name
        assert not validated.any(), name


@pytest.mark.parametrize(
    "argv", [("energy", "--n", "1", "--m", "2"), ("ncparams",), ("phase", "--m", "1")]
)
@pytest.mark.parametrize("name", ["set_ib", "set_ii_k2", "set_iii"])
def test_grid_commands_make_a_fixed_number_of_family_calls(monkeypatch, capsys, argv, name):
    calls = []
    original = Family._on_grid

    def counted(self, method, t, *args):
        calls.append(method.__name__)
        return original(self, method, t, *args)

    monkeypatch.setattr(Family, "_on_grid", counted)
    made = []
    for points in ("7", "700"):
        calls.clear()
        path = str(SCENARIO_DIR / f"{name}.scenario")
        assert main([*argv, "--scenario", path, "--t1", "1.5", "--points", points]) == 0
        made.append(sorted(calls))
    capsys.readouterr()
    assert made[0] and made[0] == made[1]
    if argv[0] == "ncparams":
        # One pass: the inversion and the published squares share every input.
        assert made[0] == ["_a", "_b", "_c_terms", "_damping", "_frequency"]


# Distinct maps of one call on a 300-point grid, per family: energy_expectation,
# nc_table, phase_rate and ep_residual. Each is also the number of maps made.
DISTINCT_MAPS = {
    "SetIa": (3, 3, 4, 3), "SetIb": (3, 2, 3, 3), "SetIc": (3, 3, 3, 3),
    "SetII_k": (8, 5, 8, 5), "SetIII": (2, 2, 2, 1),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_each_map_runs_once_per_call(monkeypatch, name):
    family, t = SCENARIOS[name], np.linspace(0.0, 1.0, 300)
    maps = []
    for helper in ("_exp", "_log", "_pow"):
        def counted(x, *p, helper=helper, original=getattr(families, helper)):
            maps.append((helper, p, x.tobytes()))
            return original(x, *p)

        monkeypatch.setattr(families, helper, counted)
    calls = (
        lambda: energy_expectation(family, t, StateLabel(1, 2)),
        lambda: nc_table(family, t),
        lambda: family.phase_rate(t),
        lambda: ep_residual(family, t),
    )
    made = []
    for call in calls:
        maps.clear()
        call()
        assert len(set(maps)) == len(maps), (name, maps)  # no (function, exponent, argument) twice
        made.append(len(maps))
    assert tuple(made) == DISTINCT_MAPS[family.kind.value], name


def _hexes(out) -> list:
    """Each part's type, dtype, shape and the float.hex of every real and imaginary part,
    so a signed zero or a last bit shows."""
    return [
        (type(x), np.asarray(x).dtype, np.shape(x),
         [(float(v.real).hex(), float(v.imag).hex()) for v in np.ravel(x).tolist()])
        for x in _parts(out)
    ]


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_a_shared_grid_record_answers_as_separate_calls(name):
    family = SCENARIOS[name]
    grids = (0.5, np.array(0.5), np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 6).reshape(2, 3))
    for times in grids:
        for order in (METHODS, METHODS[::-1]):
            record = family.grid(times)  # every method of one order shares its maps
            for method in order:
                shared, alone = getattr(family, method)(record), getattr(family, method)(times)
                assert _hexes(shared) == _hexes(alone), (name, method, np.shape(times))
    assert isinstance(family.b(family.grid(0.5)), float)  # Python scalars for a float


def test_no_grid_record_outlives_its_call(monkeypatch, capsys):
    records = []
    original = Grid.__init__

    def tracked(self, *args):
        records.append(weakref.ref(self))
        original(self, *args)

    monkeypatch.setattr(Grid, "__init__", tracked)
    for argv in (("energy", "--n", "1", "--m", "2"), ("ncparams",), ("verify",)):
        assert main([*argv, "--scenario", str(SCENARIO_DIR / "set_ia.scenario")]) == 0
    capsys.readouterr()
    gc.collect()
    assert records and all(ref() is None for ref in records)
