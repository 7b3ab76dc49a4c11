"""Invariant coefficient triple: construction, ODE closure, quadratic identity."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

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
            co = invariant_coefficients(scenario, t)
            ev = rho_eval(scenario, t)
            a, _ = coefficient_a(scenario, t)
            assert co.alpha == ev.rho**2
            assert co.gamma == -2.0 * ev.rho * ev.rho_dot / a
            assert math.isclose(
                co.beta, (ev.rho_dot / a) ** 2 + (1.0 / ev.rho) ** 2,
                rel_tol=1e-15,
            )


@given(t=st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
@settings(max_examples=50)
def test_quadratic_identity(t):
    for kind in SCENARIO_KINDS:
        scenario = make_scenario(kind)
        co = invariant_coefficients(scenario, t)
        got = 4.0 * co.alpha * co.beta - co.gamma**2
        assert abs(got - 4.0) <= 1e-12 * 4.0


def test_ode_residuals_small_on_figures(fig_scenarios):
    for name, scenario in fig_scenarios.items():
        worst = max(
            invariant_ode_residuals(scenario, t).worst for t in (0.05, 0.5, 1.0, 1.9)
        )
        assert worst <= 1e-12, (name, worst)


def test_ode_residuals_detect_wrong_xi():
    # xi = 1.3 with mu = 1 is xi = 1 with mu = 1/sqrt(1.3): a scale function
    # off its constraint, which the coefficient ODEs must notice.
    scenario = make_scenario(ScenarioKind.SET_IB, mu=1.0 / math.sqrt(1.3), enforce=False)
    assert invariant_ode_residuals(scenario, 0.5).worst > 1e-4


def test_residual_fields_labelled(fig_ib):
    res = invariant_ode_residuals(fig_ib, 0.7)
    assert res.worst == max(res.alpha_residual, res.beta_residual, res.gamma_residual)
