"""Each family's phase form keeps the bits of the published expression, point by point.

The five functions below are the published closed phases written as plain cmath
code at one time each, as the paper states them. ``Family.unit_phase`` builds
each form's time-independent part once per grid; here it must answer exactly
what these answer, in values and flags, or raise the same DomainError.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ncho.config import ScenarioKind
from ncho.errors import DomainError, OutOfValidatedDomain
from ncho.families import _sqrt_lower
from ncho.specfun import gauss_2f1

from conftest import make_scenario
from test_families import SCENARIOS, SHIPPED, STEEP_IA


def _set_ia(family, t: float) -> complex | None:
    c = family.constants
    mass, w0, g = c.mass_M, c.omega0, c.Gamma
    sg, dl, mu = c.sigma, c.Delta, c.mu
    if w0 == 0.0:
        return None
    z0 = dl / (mass * w0**2)
    zt = z0 * math.exp(2.0 * g * t)
    try:
        series = math.exp(-0.5 * g * t) * gauss_2f1(-0.25, 0.5, 0.75, zt) - gauss_2f1(
            -0.25, 0.5, 0.75, z0
        )
    except OutOfValidatedDomain:
        return None
    ms = mass * sg
    e_gt = math.exp(g * t)
    num = e_gt - 2.0 * ms - 2.0 * cmath.sqrt(ms * (ms - e_gt))
    den = 1.0 - 2.0 * ms - 2.0 * cmath.sqrt(ms * (ms - 1.0))
    brk1 = (
        cmath.log(num / den)
        - g * t
        - 2.0 * cmath.sqrt(ms * (ms * math.exp(-2.0 * g * t) - math.exp(-g * t)))
        + 2.0 * cmath.sqrt(ms * (ms - 1.0))
    )
    brk2 = (
        cmath.sqrt(dl / mass * e_gt - w0**2 * math.exp(-g * t))
        - cmath.sqrt(dl / mass - w0**2)
        - 2.0j * w0 * series
    )
    return w0 / (2.0 * math.sqrt(ms) * g) * brk1 + 2.0 / g * brk2 - (sg / mu**2) * t


def _set_ib(family, t: float) -> complex:
    c = family.constants
    slope = (
        -c.sigma / c.mu**2
        + cmath.sqrt((c.Delta - c.mass_M * c.omega0**2) / c.mass_M)
        + c.omega0 * cmath.sqrt(c.mass_M * c.sigma - 1.0)
    )
    return slope * t


def _set_ic(family, t: float) -> complex:
    c = family.constants
    mass, w0, g = c.mass_M, c.omega0, c.Gamma
    sg, dl, mu = c.sigma, c.Delta, c.mu
    e_neg = math.exp(-g * t)
    brk = (
        math.sqrt(dl) * g * t
        + 2.0 * cmath.sqrt(dl - mass * w0**2)
        - 2.0 * cmath.sqrt(dl - mass * w0**2 * e_neg)
        + 2.0
        * math.sqrt(dl)
        * cmath.log(
            (dl + cmath.sqrt(dl * (dl - mass * w0**2 * e_neg)))
            / (dl + cmath.sqrt(dl * (dl - mass * w0**2)))
        )
    )
    lin = sg * t / mu**2 + 2.0 / g * w0 * (math.exp(-0.5 * g * t) - 1.0) * cmath.sqrt(
        mass * sg - 1.0
    )
    return brk / (g * math.sqrt(mass)) - lin


def _set_ii_k(family, t: float) -> complex | None:
    if family.k_exp != 2:
        return None
    c = family.constants
    mass, w0, g = c.mass_M, c.omega0, c.Gamma
    sg, mu, chi = c.sigma, c.mu, c.chi
    dm = c.Delta / mass
    u = g * t + chi
    rad_u = dm * u**2 - w0**2
    rad_chi = dm * chi**2 - w0**2
    brk1 = (
        w0 * cmath.atan(w0 / cmath.sqrt(rad_u))
        + cmath.sqrt(rad_u)
        - 2.0 * sg / mu**2 * cmath.log(u / chi)
        - cmath.sqrt(rad_chi)
        - w0 * cmath.atan(w0 / cmath.sqrt(rad_chi))
    )
    brk2 = (
        cmath.sqrt(4.0 * sg * mass - chi**2) / chi
        - cmath.sqrt(4.0 * sg * mass - u**2) / u
        + 1.0j
        * cmath.log(
            (u + _sqrt_lower(u**2 - 4.0 * sg * mass))
            / (chi + _sqrt_lower(chi**2 - 4.0 * sg * mass))
        )
    )
    return brk1 / g + w0 / g * brk2


def _set_iii(family, t: float) -> complex:
    c = family.constants
    mass, w0, g = c.mass_M, c.omega0, c.Gamma
    sg, dl, mu, chi = c.sigma, c.Delta, c.mu, c.chi
    u = g * t + chi
    part1 = w0 * cmath.sqrt(mass * sg - 1.0) / g * cmath.log(u / chi) - sg * t / (
        mu**2 * chi * u
    )
    brk = (
        cmath.sqrt(dl / (mass * chi**2) - w0**2)
        - cmath.sqrt(dl / (mass * u**2) - w0**2)
        + w0
        * (
            cmath.atan(w0 * chi / cmath.sqrt(dl / mass - chi**2 * w0**2))
            - cmath.atan(w0 * u / cmath.sqrt(dl / mass - w0**2 * u**2))
        )
    )
    return part1 + brk / g


PUBLISHED = {
    ScenarioKind.SET_IA: _set_ia, ScenarioKind.SET_IB: _set_ib, ScenarioKind.SET_IC: _set_ic,
    ScenarioKind.SET_II_K: _set_ii_k, ScenarioKind.SET_III: _set_iii,
}


def _published_unit_phase(family, t: np.ndarray):
    """The published form at each time in turn, with the error that names the time."""
    values = []
    for x in t.tolist():
        try:
            values.append(PUBLISHED[family.kind](family, x))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"unit_phase(t) is not defined at t={x:g}: {exc}") from exc
    validated = np.array([v is not None for v in values], dtype=bool)
    return np.array([complex("nan") if v is None else v for v in values], complex), validated


def _outcome(route, family, t):
    """(values' bits, flags) or the exception's type and message."""
    try:
        value, validated = route(family, t)
    except (DomainError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return value.tobytes(), validated.tolist()


def _family_route(family, t):
    return family.unit_phase(t)


def _published_route(family, t):
    # Through the same grid entry, so overflows carry the same message.
    def _unit_phase(grid):
        return _published_unit_phase(family, grid.t)

    return family._on_grid(_unit_phase, t)


def _assert_same(family, t, where) -> None:
    want = _outcome(_published_route, family, t)
    assert _outcome(_family_route, family, t) == want, where


def _grids(family) -> list[np.ndarray]:
    """t = 0 alone, and grids that run from 0 across the horizon where one exists."""
    horizon = family.horizon()
    ends = [2.0, 40.0] if not horizon else [0.5 * horizon, 2.0 * horizon, min(40.0, 8.0 * horizon)]
    grids = [np.array([0.0])] + [np.linspace(0.0, end, 301) for end in ends]
    if horizon:
        grids.append(horizon + np.linspace(-1e-6, 1e-6, 11) * horizon)
    return grids


# Each family's constraint is linear in Delta: solve it from the other constants.
_DELTA = {
    ScenarioKind.SET_IA: lambda c, k: c["sigma"] / c["mu"] ** 4 + c["Gamma"] ** 2 / (4.0 * c["sigma"]),
    ScenarioKind.SET_II_K: lambda c, k: (
        (c["Gamma"] ** 2 * c["mu"] / (k + 2) ** 2 + c["sigma"] ** 2 / c["mu"] ** 3)
        / (c["sigma"] * c["mu"])
    ),
    ScenarioKind.SET_III: lambda c, k: c["sigma"] / c["mu"] ** 4,
}
_DELTA[ScenarioKind.SET_IB] = _DELTA[ScenarioKind.SET_IC] = _DELTA[ScenarioKind.SET_IA]


def _on_constraint(kind, k_exp=2, **consts):
    consts["Delta"] = _DELTA[kind](consts, k_exp)
    return make_scenario(kind, k_exp=k_exp, enforce=False, **consts)


# The shipped scenarios all have Gamma = 1, where x / Gamma and x * (1 / Gamma) agree.
_MILD = dict(mass_M=1.0, omega0=0.5, Gamma=0.37, chi=1.0, sigma=2.0, mu=1.0)
EXTRA = {
    # SetIa with z0 = 0.1 < 1: the 2F1 series route runs until z = z0 e^(2 Gamma t) nears 1.
    "steep_ia": STEEP_IA,
    "series_ia": _on_constraint(ScenarioKind.SET_IA, **{**_MILD, "omega0": 3.0}),
    **{f"gamma_{kind.name.lower()}": _on_constraint(kind, **_MILD) for kind in ScenarioKind},
}


@pytest.mark.parametrize("name", sorted(SHIPPED) + ["set_ii_k3", "set_ib_omega0_0"] + sorted(EXTRA))
def test_phase_forms_keep_the_published_bits(name):
    family = EXTRA.get(name) or SCENARIOS[name]
    for t in _grids(family):
        _assert_same(family, t, (name, t[-1]))
    if name == "steep_ia":  # validated and unvalidated times in one grid
        assert 0 < family.unit_phase(_grids(family)[1])[1].sum() < 301


def test_set_ia_off_the_series_band_forms_no_constant_it_never_used():
    # z0 = 20 >= 1: no time has the series, so a mu whose square underflows, which the
    # published form divides by only inside the band, leaves every time unvalidated.
    family = make_scenario(ScenarioKind.SET_IA, enforce=False, mass_M=1.0, omega0=1.0,
                           sigma=2.0, Delta=20.0, mu=1e-170)
    t = np.array([0.0, 0.5, 2.0])
    assert _outcome(_family_route, family, t) == _outcome(_published_route, family, t)
    assert not family.unit_phase(t)[1].any()
    # A late time still overflows exp(2 Gamma t), as the published form does.
    assert _outcome(_family_route, family, np.array([1e3]))[0] == "OverflowError"


def test_series_route_is_taken_and_k3_has_no_form():
    value, validated = STEEP_IA.unit_phase(np.linspace(0.0, 1.0, 11))
    assert validated.all() and np.isfinite(value).all()
    value, validated = SCENARIOS["set_ii_k3"].unit_phase(np.linspace(0.0, 1.0, 11))
    assert not validated.any() and np.isnan(value.real).all() and not value.imag.any()


def test_phase_forms_name_the_first_failing_time():
    # SetIII's atan pole at t = 1e20, behind valid times, and past it.
    family = SCENARIOS["set_iii"]
    for t in (np.array([0.5, 1e20, 1e25]), np.array([1e20]), np.array([1.0, 2.0, 1e20])):
        want = _outcome(_published_route, family, t)
        assert want[0] == "DomainError" and "t=1e+20" in want[1]
        assert _outcome(_family_route, family, t) == want


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(list(ScenarioKind)),
    k_exp=st.integers(1, 5),
    consts=st.fixed_dictionaries({
        "mass_M": _log_uniform(1e-3, 1e3),
        "omega0": st.one_of(st.just(0.0), _log_uniform(1e-3, 1e4)),
        "Gamma": _log_uniform(1e-300, 1e2),
        "chi": _log_uniform(1e-3, 1e3),
        "sigma": _log_uniform(1e-3, 1e7),
        "mu": _log_uniform(1e-2, 1e2),
    }),
    data=st.data(),
)
def test_phase_forms_agree_across_the_constraint_manifold(kind, k_exp, consts, data):
    try:
        family = _on_constraint(kind, k_exp, **consts)
    except (DomainError, OverflowError):
        assume(False)
    end = data.draw(_log_uniform(1e-6, 1e6))
    times = data.draw(st.lists(st.floats(0.0, end), min_size=1, max_size=8))
    _assert_same(family, np.array(times), (kind, k_exp, consts, times))
