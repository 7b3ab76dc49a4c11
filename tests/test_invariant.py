"""Invariant coefficient triple: construction, ODE closure, quadratic identity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncho import invariant
from ncho.config import ScenarioKind
from ncho.ermakov import coefficient_a, rho_eval
from ncho.invariant import invariant_coefficients, invariant_ode_residuals

from conftest import make_scenario

SCENARIO_KINDS = (
    ScenarioKind.SET_IA,
    ScenarioKind.SET_IB,
    ScenarioKind.SET_IC,
    ScenarioKind.SET_II_K,
    ScenarioKind.SET_III,
)


def test_coefficients_built_from_scale_function(fig_scenarios):
    for scenario in fig_scenarios.values():
        for t in (0.0, 0.6, 1.8):
            alpha, beta, gamma = invariant_coefficients(scenario, t)
            ev = rho_eval(scenario, t)
            a, _ = coefficient_a(scenario, t)
            assert alpha == ev.rho**2
            assert gamma == -2.0 * ev.rho * ev.rho_dot / a
            assert math.isclose(
                beta, (ev.rho_dot / a) ** 2 + (1.0 / ev.rho) ** 2,
                rel_tol=1e-15,
            )


@given(t=st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
@settings(max_examples=50)
def test_quadratic_identity(t):
    for kind in SCENARIO_KINDS:
        scenario = make_scenario(kind)
        alpha, beta, gamma = invariant_coefficients(scenario, t)
        got = 4.0 * alpha * beta - gamma**2
        assert abs(got - 4.0) <= 1e-12 * 4.0


def test_ode_residuals_small_on_figures(fig_scenarios):
    for name, scenario in fig_scenarios.items():
        worst = max(
            invariant_ode_residuals(scenario, t) for t in (0.05, 0.5, 1.0, 1.9)
        )
        assert worst <= 1e-12, (name, worst)


def test_ode_residuals_detect_wrong_xi():
    # xi = 1.3 with mu = 1 is xi = 1 with mu = 1/sqrt(1.3): a scale function
    # off its constraint, which the coefficient ODEs must notice.
    scenario = make_scenario(ScenarioKind.SET_IB, mu=1.0 / math.sqrt(1.3), enforce=False)
    assert invariant_ode_residuals(scenario, 0.5) > 1e-4


def test_ode_residuals_at_a_float_match_a_one_point_grid(fig_scenarios):
    # At chi = 1e-300 the width rho(0)^2 underflows to 0: a float time reads nan as the
    # grid does, where Python float division would raise; elsewhere the two agree to the bit.
    tiny_chi = make_scenario(ScenarioKind.SET_III, omega0=0.5, sigma=2.0, Delta=2.0, chi=1e-300)
    with np.errstate(all="ignore"):
        assert math.isnan(invariant_ode_residuals(tiny_chi, 0.0))
        assert math.isnan(invariant_ode_residuals(tiny_chi, np.array([0.0]))[0])
    for scenario in fig_scenarios.values():
        for t in (0.0, 0.5):
            alone = invariant_ode_residuals(scenario, t)
            grid = invariant_ode_residuals(scenario, np.array([t]))
            assert np.ndim(alone) == 0 and grid.shape == (1,)
            assert np.array([alone]).tobytes() == grid.tobytes(), (scenario.kind, t)


# One coefficient off by 1e-6 of the scale it is judged against: alpha and beta
# against themselves, gamma against sqrt(alpha beta).
FAULTS = {
    "alpha": lambda alpha, beta, gamma: (alpha * (1.0 + 1e-6), beta, gamma),
    "beta": lambda alpha, beta, gamma: (alpha, beta * (1.0 + 1e-6), gamma),
    "gamma": lambda alpha, beta, gamma: (alpha, beta, gamma + 1e-6 * np.sqrt(alpha * beta)),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_in_each_coefficient_raises_the_gap(monkeypatch, fig_ib, fault):
    t = np.linspace(0.0, 2.0, 25)
    assert np.max(invariant_ode_residuals(fig_ib, t)) <= 1e-12
    closed = invariant.invariant_coefficients
    monkeypatch.setattr(
        invariant, "invariant_coefficients",
        lambda scenario, grid: FAULTS[fault](*closed(scenario, grid)),
    )
    gap = invariant_ode_residuals(fig_ib, t)
    assert gap.shape == t.shape and np.all(gap > 0.9e-6), (fault, gap)
