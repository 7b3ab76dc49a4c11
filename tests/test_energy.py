"""Energy expectation values: assembly, closed forms, and reality horizons."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from ncho.config import ScenarioKind
from ncho.energy import (
    EnergyResult,
    energy_expectation,
    energy_series,
    quadratic_expectations,
)
from ncho.ermakov import coefficient_a, rho_eval
from ncho.errors import ConstraintGuard
from ncho.hamiltonian import reality_horizon_time
from ncho.spectrum import StateLabel

from conftest import make_scenario

GROUND = StateLabel(0, 0)


# ---------------------------------------------------------------------------
# Quadratic expectation values
# ---------------------------------------------------------------------------

def test_quadratic_expectations_at_unit_width(fig_ib):
    # rho(0) = mu = 1 exactly; rho'(0) = -1/2 adds only a ~1e-15 momentum tail
    # through rho'^2/a^2 with a = 1e7.
    x2, p2, xp = quadratic_expectations(fig_ib, 0.0, GROUND)
    assert x2 == 0.5
    assert p2 == pytest.approx(0.5, rel=1e-14)
    assert xp == 0.0
    x2, p2, xp = quadratic_expectations(fig_ib, 0.0, StateLabel(1, 3))
    assert x2 == 2.5
    assert p2 == pytest.approx(2.5, rel=1e-14)
    assert xp == 1.0


@given(t=st.floats(0.0, 2.0), n=st.integers(0, 3), m=st.integers(0, 3))
@settings(max_examples=60)
def test_quadratic_expectations_track_width(t, n, m, fig_scenarios):
    for scenario in fig_scenarios.values():
        state = rho_eval(scenario, t)
        a, _ = coefficient_a(scenario, t)
        s = StateLabel(n, m)
        x2, p2, xp = quadratic_expectations(scenario, t, s)
        w = 0.5 * (n + m + 1)
        assert x2 == state.rho**2 * w
        assert p2 == (1.0 / state.rho**2 + state.rho_dot**2 / a**2) * w
        assert xp == 0.5 * (m - n)


# ---------------------------------------------------------------------------
# Closed-form values (hand-evaluated from the family formulas)
# ---------------------------------------------------------------------------

def test_exponential_family_value(fig_ib):
    # (n+m+1) mu^2 Delta with mu=1, Delta=1e7; the assembled route carries the
    # width-velocity term vartheta^2 mu^2/(8 sigma) ~ 1e-8 on top, which the
    # family constraint folds into the closed form exactly.
    res = energy_expectation(fig_ib, 0.0, GROUND)
    assert res.value.real == pytest.approx(1.0e7, rel=1e-14)
    assert res.value.imag == 0.0
    assert energy_expectation(fig_ib, 0.0, StateLabel(1, 1)).value.real == pytest.approx(
        3.0e7, rel=1e-14
    )


def test_rational_family_value_at_origin(fig_ii):
    # u(0) = chi = 1: (1/2)[2(Delta mu^2 + sigma/mu^2) + mu^2 Gamma^2/(8 sigma)]
    # = 2e7 + 1/(1.6e8).
    res = energy_expectation(fig_ii, 0.0, GROUND)
    assert res.value.real == pytest.approx(2.0e7 + 6.25e-9, rel=1e-15)
    assert res.value.imag == 0.0


def test_linear_width_family_value_at_origin(fig_iii):
    # (1/2)[(Delta mu^2 + sigma/mu^2)/u^2 + mu^2 Gamma^2/sigma] = 1e7 + 5e-8.
    res = energy_expectation(fig_iii, 0.0, GROUND)
    assert res.value.real == pytest.approx(1.0e7 + 5.0e-8, rel=1e-15)
    assert res.value.imag == 0.0


def test_constant_coefficient_energy_is_constant(fig_ib):
    # b rho^2, a/rho^2 and rho'^2/a are each time-independent products here,
    # so diagonal-label energies are bit-identical across times; the coupling
    # term for n != m is constant up to roundoff in its radicals.
    base = energy_expectation(fig_ib, 0.0, StateLabel(2, 2)).value
    for t in (0.5, 3.0, 10.0):
        assert energy_expectation(fig_ib, t, StateLabel(2, 2)).value == base
    excited = [energy_expectation(fig_ib, t, StateLabel(1, 0)).value for t in (0.0, 2.0, 10.0)]
    spread = max(abs(v - excited[0]) for v in excited)
    assert spread <= 1e-12 * abs(excited[0])


def test_closed_form_guard_for_unit_deformation_only():
    scenario = make_scenario(ScenarioKind.SET_IB, xi=1.3, enforce=False)
    with pytest.raises(ConstraintGuard):
        energy_expectation(scenario, 0.5, GROUND)


def test_general_exponent_uses_assembled_route_only():
    # No published closed form for the rational family away from exponent 2;
    # the assembled route must still evaluate cleanly.
    scenario = make_scenario(
        ScenarioKind.SET_II_K, k_exp=3, omega0=0.5, sigma=1.0, Delta=1.0, mu=1.0,
        enforce=False,
    )
    res = energy_expectation(scenario, 0.5, StateLabel(1, 2))
    assert math.isfinite(res.value.real)


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
    horizon = reality_horizon_time(fig_iii)
    inside = energy_expectation(fig_iii, 1.0, StateLabel(1, 0))
    assert inside.in_window
    assert inside.value.imag == 0.0
    beyond = energy_expectation(fig_iii, horizon + 0.5, StateLabel(1, 0))
    assert not beyond.in_window
    assert beyond.value.imag != 0.0
    # Equal labels drop the coupling term and stay real past the bound.
    diag = energy_expectation(fig_iii, horizon + 0.5, StateLabel(1, 1))
    assert diag.value.imag == 0.0
    assert not diag.in_window  # the reported bound is label-independent


def test_in_window_boundary_is_inclusive(fig_iii):
    horizon = reality_horizon_time(fig_iii)
    assert energy_expectation(fig_iii, horizon, GROUND).in_window
    assert EnergyResult(0j, 1.0, None, GROUND).in_window


# ---------------------------------------------------------------------------
# Series output
# ---------------------------------------------------------------------------

def test_energy_series_scaling_and_flags(fig_iii):
    grid = [0.0, 1.0, 2.0, 2.5]
    rows = energy_series(fig_iii, StateLabel(1, 0), grid)
    w0 = fig_iii.constants.omega0
    gamma = fig_iii.constants.Gamma
    assert [r.in_window for r in rows] == [True, True, True, False]
    for t, row in zip(grid, rows):
        res = energy_expectation(fig_iii, t, StateLabel(1, 0))
        assert row.t == t
        assert row.gamma_t == gamma * t
        assert row.e_re_scaled == res.value.real / w0
        assert row.e_im_scaled == res.value.imag / w0


def test_energy_series_zero_frequency_scale_is_unity():
    scenario = make_scenario(ScenarioKind.SET_IB, omega0=0.0)
    rows = energy_series(scenario, GROUND, [0.0, 1.0])
    direct = energy_expectation(scenario, 0.0, GROUND).value
    assert rows[0].e_re_scaled == direct.real


def test_energy_series_rejects_bad_grids(fig_ib):
    with pytest.raises(ValueError):
        energy_series(fig_ib, GROUND, [0.0, -1.0])
    with pytest.raises(ValueError):
        energy_series(fig_ib, GROUND, [1.0, 0.5])


def test_energy_uses_natural_units(fig_ii):
    # The quantum of action enters wavefunctions and matrix elements but not
    # these natural-unit energy curves.
    other = make_scenario(ScenarioKind.SET_II_K, hbar=2.0)
    for t in (0.0, 1.3):
        assert (
            energy_expectation(other, t, StateLabel(2, 1)).value
            == energy_expectation(fig_ii, t, StateLabel(2, 1)).value
        )
