"""Scale-function families: closed forms, residuals, and the Heisenberg propagator."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ncho.config import ScenarioKind, build_scenario, parse_scenario_file
from ncho.ermakov import coefficient_a, coefficient_b, ep_residual, rho_eval

from conftest import SCENARIO_DIR, make_scenario

TIMES = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)

# The propagator's scenarios: the eight shipped files, and SetII_k at k = 1, 3
# and 5 with Delta solved from the constraint
# Gamma^2 mu = (k+2)^2 (sigma Delta mu - sigma^2/mu^3) at sigma = mu = Gamma = 1.
PROPAGATED = {
    path.stem: build_scenario(parse_scenario_file(str(path)))
    for path in sorted(SCENARIO_DIR.glob("*.scenario"))
}
PROPAGATED.update(
    (f"mild_ii_k{k}", make_scenario(
        ScenarioKind.SET_II_K, k_exp=k, omega0=0.5, sigma=1.0, Delta=1.0 + 1.0 / (k + 2) ** 2
    ))
    for k in (1, 3, 5)
)


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
            ep_residual(scenario, i * 2.0 / 199) for i in range(200)
        )
        assert worst <= 1e-12, name


def test_ep_residual_large_when_constraint_broken():
    scenario = make_scenario(ScenarioKind.SET_IB, mu=1.05, enforce=False)
    assert ep_residual(scenario, 0.5) > 1e-4


def test_ep_residual_is_inf_where_its_terms_are_not_finite():
    # chi = 1e-300 leaves rho(0) = mu chi with rho^3 = 0: the terms hold inf of
    # both signs at t = 0, which math.fsum refuses; later times keep their residual.
    scenario = make_scenario(ScenarioKind.SET_III, omega0=0.5, sigma=2.0, Delta=2.0, chi=1e-300)
    with np.errstate(all="ignore"):
        res = ep_residual(scenario, np.array([0.0, 0.5]))
    assert res[0] == math.inf and res[1] <= 1e-12


def test_ep_residual_at_a_float_matches_a_one_point_grid(fig_scenarios):
    # One path serves both: at chi = 1e-300 a float time reads inf where it raised
    # ZeroDivisionError, and elsewhere the two agree to the bit.
    tiny_chi = make_scenario(ScenarioKind.SET_III, omega0=0.5, sigma=2.0, Delta=2.0, chi=1e-300)
    for scenario in (tiny_chi, *fig_scenarios.values()):
        for t in (0.0, 0.5):
            with np.errstate(all="ignore"):
                alone, grid = ep_residual(scenario, t), ep_residual(scenario, np.array([t]))
            assert np.ndim(alone) == 0 and grid.shape == (1,)
            assert np.array([alone]).tobytes() == grid.tobytes(), (scenario.kind, t)
    with np.errstate(all="ignore"):
        assert ep_residual(tiny_chi, 0.0) == math.inf


def test_propagator_is_the_identity_at_zero():
    for name, scenario in PROPAGATED.items():
        propagator = scenario.propagator
        assert propagator(0.0) == (1.0, 0.0, 0.0, 1.0), name
        assert [x[0] for x in propagator(np.array([0.0, 0.5]))] == [1.0, 0.0, 0.0, 1.0], name


@given(t=TIMES)
@settings(max_examples=30)
def test_propagator_keeps_phase_space_area(t):
    # The generator [[0, a], [-b, 0]] of x' = a p, p' = -b x has trace 0.
    for name, scenario in PROPAGATED.items():
        p11, p12, p21, p22 = scenario.propagator(t)
        det = p11 * p22 - p12 * p21
        assert abs(det - 1.0) <= 1e-14, (name, det)


@given(t=TIMES)
@settings(max_examples=30)
def test_propagator_solves_heisenbergs_equations(t):
    # Central differences of Phi against [[0, a], [-b, 0]] Phi, row by row:
    # (Phi11, Phi12)' = a (Phi21, Phi22) and (Phi21, Phi22)' = -b (Phi11, Phi12),
    # with a step of 1e-3 over the fastest frequency sqrt(ab) of the window.
    for name, family in PROPAGATED.items():
        window = np.linspace(0.0, 2.0, 21)
        h = 1e-3 / np.sqrt(family.a(window)[0] * family.b(window)).max()
        p11, p12, p21, p22 = family.propagator(np.array([t - h, t, t + h]))
        a, b = family.a(t)[0], family.b(t)
        for row, want in (((p11, p12), (a * p21[1], a * p22[1])),
                          ((p21, p22), (-b * p11[1], -b * p12[1]))):
            derivative = [(x[2] - x[0]) / (2.0 * h) for x in row]
            gap = max(abs(d - w) for d, w in zip(derivative, want))
            assert gap <= 1e-4 * max(map(abs, want)), (name, t, gap)


@given(t=TIMES)
@settings(max_examples=30)
def test_propagator_rotates_the_scale_frame(t):
    # With M = [[rho, 0], [rho'/a, 1/rho]], M(t)^-1 Phi(t) M(0) is orthogonal:
    # the motion carries the invariant's eigenstate widths along rho.
    for name, family in PROPAGATED.items():
        rho, rho_dot, _ = family.rho(t)
        rho0, rho0_dot, _ = family.rho(0.0)
        inverse = np.array([[1.0 / rho, 0.0], [-rho_dot / family.a(t)[0], rho]])
        start = np.array([[rho0, 0.0], [rho0_dot / family.a(0.0)[0], 1.0 / rho0]])
        phi = np.reshape(family.propagator(t), (2, 2))  # [[Phi11, Phi12], [Phi21, Phi22]]
        rotation = inverse @ phi @ start
        gap = np.abs(rotation @ rotation.T - np.eye(2)).max()
        assert gap <= 1e-13, (name, t, gap)
