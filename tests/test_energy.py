"""Energy expectation values: assembly, closed forms, and reality horizons."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ncho.config import ScenarioKind, build_scenario, parse_scenario_file
from ncho.energy import energy_expectation, energy_series
from ncho.errors import ToleranceNotMet
from ncho.ermakov import coefficient_a, coefficient_b, rho_eval
from ncho.hamiltonian import c_complex, in_reality_window, reality_horizon_time
from ncho.spectrum import StateLabel

from conftest import SCENARIO_DIR, make_scenario

GROUND = StateLabel(0, 0)


# ---------------------------------------------------------------------------
# Closed-form values (hand-evaluated from the family formulas)
# ---------------------------------------------------------------------------

def test_exponential_family_value(fig_ib):
    # (n+m+1) mu^2 Delta with mu=1, Delta=1e7; the assembled route carries the
    # width-velocity term Gamma^2 mu^2/(8 sigma) ~ 1e-8 on top, which the
    # family constraint folds into the closed form exactly.
    value = energy_expectation(fig_ib, 0.0, GROUND)
    assert value.real == pytest.approx(1.0e7, rel=1e-14)
    assert value.imag == 0.0
    assert energy_expectation(fig_ib, 0.0, StateLabel(1, 1)).real == pytest.approx(
        3.0e7, rel=1e-14
    )


def test_rational_family_value_at_origin(fig_ii):
    # u(0) = chi = 1: (1/2)[2(Delta mu^2 + sigma/mu^2) + mu^2 Gamma^2/(8 sigma)]
    # = 2e7 + 1/(1.6e8).
    value = energy_expectation(fig_ii, 0.0, GROUND)
    assert value.real == pytest.approx(2.0e7 + 6.25e-9, rel=1e-15)
    assert value.imag == 0.0


def test_linear_width_family_value_at_origin(fig_iii):
    # (1/2)[(Delta mu^2 + sigma/mu^2)/u^2 + mu^2 Gamma^2/sigma] = 1e7 + 5e-8.
    value = energy_expectation(fig_iii, 0.0, GROUND)
    assert value.real == pytest.approx(1.0e7 + 5.0e-8, rel=1e-15)
    assert value.imag == 0.0


def test_constant_coefficient_energy_is_constant(fig_ib):
    # b rho^2, a/rho^2 and rho'^2/a are each time-independent products here,
    # so diagonal-label energies are bit-identical across times; the coupling
    # term for n != m is constant up to roundoff in its radicals.
    base = energy_expectation(fig_ib, 0.0, StateLabel(2, 2))
    for t in (0.5, 3.0, 10.0):
        assert energy_expectation(fig_ib, t, StateLabel(2, 2)) == base
    excited = [energy_expectation(fig_ib, t, StateLabel(1, 0)) for t in (0.0, 2.0, 10.0)]
    spread = max(abs(v - excited[0]) for v in excited)
    assert spread <= 1e-12 * abs(excited[0])


def test_cross_check_is_relative_to_the_term_magnitudes():
    # Past the horizon, terms of ~4e7 cancel to ~465 here; the two routes
    # then differ by ~5e-8, rounding noise of the terms that a gate relative
    # to |E| alone rejected.
    scenario = build_scenario(parse_scenario_file(SCENARIO_DIR / "set_ia.scenario"))
    t, s = 18.890661118182727, StateLabel(1, 2)
    assert abs(energy_expectation(scenario, t, s)) < 1e3
    state = rho_eval(scenario, t)
    a, _ = coefficient_a(scenario, t)
    terms = (coefficient_b(scenario, t) * state.rho**2, a / state.rho**2, state.rho_dot**2 / a)
    scale = 0.5 * (s.n + s.m + 1) * sum(map(abs, terms)) + abs(
        (s.n - s.m) * c_complex(scenario, t)
    )
    assert scale > 1e7

    # A closed form off by 1e-8 of that scale is still caught.
    class Perturbed(type(scenario)):
        def ground_energy(self, t):
            return super().ground_energy(t) + 1e-8 * scale / (s.n + s.m + 1)

    with pytest.raises(ToleranceNotMet, match="disagree"):
        energy_expectation(Perturbed(scenario.constants, scenario.k_exp), t, s)


def test_general_exponent_is_cross_checked():
    # The rational family's energy form holds for every exponent, on and off
    # the constraint, so k = 3 is cross-checked as k = 2 is, and a closed form
    # off by 1e-8 of its value is caught.
    scenario = make_scenario(
        ScenarioKind.SET_II_K, k_exp=3, omega0=0.5, sigma=1.0, Delta=1.0, mu=1.0,
        enforce=False,
    )
    t, s = 0.5, StateLabel(1, 2)
    value = energy_expectation(scenario, t, s)
    closed = (s.n + s.m + 1) * scenario.ground_energy(t) + (s.n - s.m) * c_complex(scenario, t)
    assert abs(value - closed) <= 1e-15 * abs(value)

    class Perturbed(type(scenario)):
        def ground_energy(self, t):
            return (1.0 + 1e-8) * super().ground_energy(t)

    with pytest.raises(ToleranceNotMet, match="disagree"):
        energy_expectation(Perturbed(scenario.constants, scenario.k_exp), t, s)


# Every kind's <E_00>(t), with the k = 3 form beside k = 2.
GROUND_FORMS = {
    name: build_scenario(parse_scenario_file(SCENARIO_DIR / f"{name}.scenario"))
    for name in ("set_ia", "set_ib", "set_ic", "set_ii_k2", "set_iii")
}
GROUND_FORMS["set_ii_k3"] = make_scenario(
    ScenarioKind.SET_II_K, k_exp=3, omega0=0.5, sigma=1.0, Delta=1.0, mu=1.0, enforce=False
)


@pytest.mark.parametrize("name", sorted(GROUND_FORMS))
@pytest.mark.parametrize("s", [StateLabel(1, 1), StateLabel(1, 2)], ids=str)
def test_a_ground_energy_fault_fails_the_gate(monkeypatch, name, s):
    # The closed form is (n+m+1) <E_00> + (n-m) c; a fault of 1e-8 in <E_00> alone is
    # caught on the diagonal, where the coupling drops out, and beside the coupling.
    scenario = GROUND_FORMS[name]
    t = np.linspace(0.0, 1.0, 5)
    energy_expectation(scenario, t, s)
    family = type(scenario)
    original = family._ground_energy
    monkeypatch.setattr(
        family, "_ground_energy", lambda self, t: (1.0 + 1e-8) * original(self, t)
    )
    with pytest.raises(ToleranceNotMet, match="disagree"):
        energy_expectation(scenario, t, s)


# ---------------------------------------------------------------------------
# Reality horizons
# ---------------------------------------------------------------------------

def test_reality_horizons_match_published_bounds(fig_scenarios):
    assert reality_horizon_time(fig_scenarios["Ia"]) == pytest.approx(
        math.log(1.0e7), rel=1e-14
    )
    assert reality_horizon_time(fig_scenarios["Ib"]) is None
    assert reality_horizon_time(fig_scenarios["Ic"]) is None
    assert reality_horizon_time(fig_scenarios["II"]) == pytest.approx(
        2.0 * math.sqrt(1.0e7) - 1.0, rel=1e-14
    )
    assert reality_horizon_time(fig_scenarios["III"]) == pytest.approx(
        math.sqrt(1.0e7) / 1.0e3 - 1.0, rel=1e-14
    )


def test_energy_real_inside_window_complex_beyond(fig_iii):
    grid = [1.0, reality_horizon_time(fig_iii) + 0.5]  # inside, then beyond
    series = energy_series(fig_iii, StateLabel(1, 0), grid)
    assert series.in_window.tolist() == [True, False]
    assert series.e_im_scaled[0] == 0.0 and series.e_im_scaled[1] != 0.0
    # Equal labels drop the coupling term and stay real past the bound.
    diag = energy_series(fig_iii, StateLabel(1, 1), grid)
    assert diag.e_im_scaled.tolist() == [0.0, 0.0]
    assert diag.in_window.tolist() == [True, False]  # the reported bound is label-independent


def test_in_window_boundary_is_inclusive(fig_iii):
    horizon = reality_horizon_time(fig_iii)
    series = energy_series(fig_iii, GROUND, [horizon, math.nextafter(horizon, math.inf)])
    assert series.in_window.tolist() == [True, False]
    assert in_reality_window(None, 1.0)


def test_empty_window_flags_no_time():
    # Delta < M omega0^2 puts a root of c below zero from t = 0 on: the
    # horizon is 0.0, an empty window, and the energy is complex at t = 0.
    scenario = make_scenario(
        ScenarioKind.SET_IB, mass_M=1.0, omega0=3.0, Gamma=1.0, sigma=1.0, Delta=1.25, mu=1.0
    )
    assert reality_horizon_time(scenario) == 0.0
    series = energy_series(scenario, StateLabel(1, 0), [0.0, 0.25, 0.5])
    assert series.in_window.tolist() == [False, False, False]
    assert series.e_im_scaled[0] != 0.0
    assert not in_reality_window(0.0, 0.0)


# ---------------------------------------------------------------------------
# Series output
# ---------------------------------------------------------------------------

def test_energy_series_scaling_and_flags(fig_iii):
    grid = [0.0, 1.0, 2.0, 2.5]
    series = energy_series(fig_iii, StateLabel(1, 0), grid)
    w0 = fig_iii.constants.omega0
    gamma = fig_iii.constants.Gamma
    assert series.in_window.tolist() == [True, True, True, False]
    for i, t in enumerate(grid):
        value = energy_expectation(fig_iii, t, StateLabel(1, 0))
        assert series.t[i] == t
        assert series.gamma_t[i] == gamma * t
        assert series.e_re_scaled[i] == value.real / w0
        assert series.e_im_scaled[i] == value.imag / w0


def test_energy_series_zero_frequency_scale_is_unity():
    scenario = make_scenario(ScenarioKind.SET_IB, omega0=0.0)
    series = energy_series(scenario, GROUND, [0.0, 1.0])
    direct = energy_expectation(scenario, 0.0, GROUND)
    assert series.e_re_scaled[0] == direct.real


def test_energy_series_rejects_bad_grids(fig_ib):
    with pytest.raises(ValueError):
        energy_series(fig_ib, GROUND, [0.0, -1.0])
    with pytest.raises(ValueError):
        energy_series(fig_ib, GROUND, [1.0, 0.5])

