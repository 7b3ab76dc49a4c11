"""Scale-function families: closed forms, residuals, and the ODE oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from ncho.config import ScenarioKind
from ncho.ermakov import (
    coefficient_a,
    coefficient_b,
    ep_residual,
    integrate_ep_numeric,
    rho_eval,
)

from conftest import make_scenario

TIMES = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


def test_rho_closed_forms_at_origin(fig_scenarios):
    for name, scenario in fig_scenarios.items():
        c = scenario.constants
        ev = rho_eval(scenario, 0.0)
        if name in ("Ia", "Ib", "Ic"):
            assert math.isclose(ev.rho, c.mu, rel_tol=1e-15)
            assert math.isclose(ev.rho_dot, -0.5 * c.Gamma * c.mu, rel_tol=1e-15)
        elif name == "II":
            assert math.isclose(ev.rho, math.sqrt(2.0 * c.mu**2 / c.chi), rel_tol=1e-15)
        else:
            assert math.isclose(ev.rho, c.mu * c.chi, rel_tol=1e-15)
            assert math.isclose(ev.rho_dot, c.mu * c.Gamma, rel_tol=1e-15)


def test_coefficient_profiles(fig_scenarios):
    for name, scenario in fig_scenarios.items():
        c = scenario.constants
        a0, _ = coefficient_a(scenario, 0.0)
        b0 = coefficient_b(scenario, 0.0)
        if name in ("Ia", "Ib", "Ic"):
            assert math.isclose(a0, c.sigma, rel_tol=1e-15)
            assert math.isclose(b0, c.Delta, rel_tol=1e-15)
        elif name == "II":
            assert math.isclose(a0, 4.0 * c.sigma / c.chi**2, rel_tol=1e-15)
            assert math.isclose(b0, c.Delta, rel_tol=1e-15)
        else:
            assert math.isclose(a0, c.sigma, rel_tol=1e-15)
            assert math.isclose(b0, c.Delta / c.chi**4, rel_tol=1e-15)


def test_exponential_family_time_dependence(fig_ia, fig_ib):
    c = fig_ia.constants
    for t in (0.3, 1.0, 1.7):
        a, _ = coefficient_a(fig_ia, t)
        assert math.isclose(a, c.sigma * math.exp(-c.Gamma * t), rel_tol=1e-14)
        assert math.isclose(coefficient_b(fig_ia, t), c.Delta * math.exp(c.Gamma * t), rel_tol=1e-14)
        ev = rho_eval(fig_ib, t)
        assert math.isclose(ev.rho, c.mu * math.exp(-0.5 * c.Gamma * t), rel_tol=1e-14)


@given(t=TIMES)
@settings(max_examples=40)
def test_rho_derivatives_consistent(t):
    # rho_dot and rho_ddot agree with central differences of rho, per family.
    h = 1e-6
    for scenario in (
        make_scenario(ScenarioKind.SET_IB),
        make_scenario(ScenarioKind.SET_II_K),
        make_scenario(ScenarioKind.SET_III),
    ):
        ev = rho_eval(scenario, t)
        lo = rho_eval(scenario, t - h).rho
        hi = rho_eval(scenario, t + h).rho
        d1 = (hi - lo) / (2.0 * h)
        d2 = (hi - 2.0 * ev.rho + lo) / h**2
        assert abs(d1 - ev.rho_dot) <= 1e-6 * max(1.0, abs(ev.rho_dot))
        assert abs(d2 - ev.rho_ddot) <= 1e-3 * max(1.0, abs(ev.rho_ddot))


@given(t=TIMES)
@settings(max_examples=40)
def test_coefficient_a_dot_consistent(t):
    h = 1e-6
    for scenario in (
        make_scenario(ScenarioKind.SET_IA),
        make_scenario(ScenarioKind.SET_II_K),
    ):
        a, a_dot = coefficient_a(scenario, t)
        lo, _ = coefficient_a(scenario, t - h)
        hi, _ = coefficient_a(scenario, t + h)
        assert abs((hi - lo) / (2.0 * h) - a_dot) <= 1e-5 * max(1.0, abs(a_dot))
        assert a > 0.0


def test_ep_residual_tiny_on_figures(fig_scenarios):
    for name, scenario in fig_scenarios.items():
        worst = max(
            ep_residual(scenario, i * 2.0 / 199).relative for i in range(200)
        )
        assert worst <= 1e-12, name


def test_ep_residual_large_when_constraint_broken():
    scenario = make_scenario(ScenarioKind.SET_IB, mu=1.05, enforce=False)
    assert ep_residual(scenario, 0.5).relative > 1e-4


def test_rk4_tracks_analytic_rho(mild_scenarios):
    windows = {"Ib": (0.0, 2.0), "II": (0.0, 5.0), "III": (0.0, 5.0)}
    for name, scenario in mild_scenarios.items():
        t0, t1 = windows[name]
        trajectory = integrate_ep_numeric(scenario, t0, t1, steps=2000)
        worst = max(
            abs(p.rho - rho_eval(scenario, p.t).rho) / rho_eval(scenario, p.t).rho
            for p in trajectory
        )
        assert worst <= 1e-8, (name, worst)


def test_rk4_rejects_bad_grid(mild_ib):
    with pytest.raises(ValueError):
        integrate_ep_numeric(mild_ib, 0.0, 1.0, steps=10)
    with pytest.raises(ValueError):
        integrate_ep_numeric(mild_ib, 1.0, 1.0, steps=500)
