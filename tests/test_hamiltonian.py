"""Hamiltonian coefficients, deformation parameters, and the dual-form symbol."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncho.config import ScenarioKind, build_scenario, parse_scenario_file
from ncho.ermakov import coefficient_a, rho_eval
from ncho.errors import DomainError
from ncho.hamiltonian import c_complex, nc_parameters, nc_table, reality_horizon_time

from conftest import SCENARIO_DIR, make_scenario, phase_space_symbols

COORDS = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_profiles_per_family(fig_scenarios):
    t = 0.7
    ia, ib, iii = fig_scenarios["Ia"], fig_scenarios["Ib"], fig_scenarios["III"]
    c = ia.constants
    assert ia.damping(t) == 1.0
    assert math.isclose(
        ia.frequency(t), c.omega0 * math.exp(-0.5 * c.Gamma * t), rel_tol=1e-15
    )
    assert math.isclose(ib.damping(t), math.exp(-c.Gamma * t), rel_tol=1e-15)
    assert ib.frequency(t) == c.omega0
    assert math.isclose(
        iii.frequency(t), c.omega0 / (c.Gamma * t + c.chi), rel_tol=1e-15
    )


def test_c_complex_is_real_inside_the_window(fig_scenarios):
    for scenario in fig_scenarios.values():
        horizon = reality_horizon_time(scenario)
        t_hi = 1.5 if horizon is None else min(1.5, 0.9 * horizon)
        for i in range(8):
            assert c_complex(scenario, t_hi * i / 7).imag == 0.0


WINDOW_SCENARIOS = {
    path.stem: build_scenario(parse_scenario_file(path))
    for path in sorted(SCENARIO_DIR.glob("*.scenario"))
}
# Both start with Delta < M omega0^2, so the balance root of c is complex at t = 0.
WINDOW_SCENARIOS["steep_ia"] = make_scenario(
    ScenarioKind.SET_IA, omega0=1.0e4, mu=(1.0e14 / (1.0e14 - 0.25)) ** 0.25
)
WINDOW_SCENARIOS["set_ii_k2_omega0_2"] = make_scenario(
    ScenarioKind.SET_II_K, omega0=2.0, sigma=1.0, Delta=1.0625, mu=1.0
)


@pytest.mark.parametrize("name", sorted(WINDOW_SCENARIOS))
@settings(max_examples=40, deadline=None)
@given(frac=st.floats(0.0, 1.0))
@example(frac=0.0)
def test_c_is_real_across_the_reported_window(name, frac):
    scenario = WINDOW_SCENARIOS[name]
    horizon = reality_horizon_time(scenario)
    if horizon == 0.0:
        # An empty window holds no time, and it is empty for a reason.
        assert c_complex(scenario, 0.0).imag != 0.0
        return
    t = frac * (40.0 if horizon is None else 0.99 * horizon)
    assert c_complex(scenario, t).imag == 0.0, (t, horizon)


def _c_composed(scenario, t):
    # Reference: c(t) composed from the family's radicands and frequency.
    rad1, rad2 = scenario.c_terms(t)
    weight = scenario.frequency(t)
    term2 = 0.0 if weight == 0.0 else weight * cmath.sqrt(complex(rad2))
    return cmath.sqrt(complex(rad1)) + term2


def test_family_c_and_phase_rate_are_bit_identical_to_composition(fig_scenarios):
    scenarios = dict(fig_scenarios)
    scenarios["II, k=3"] = make_scenario(
        ScenarioKind.SET_II_K, k_exp=3, omega0=0.5, sigma=1.0, Delta=1.0, mu=1.0,
        enforce=False,
    )
    scenarios["Ib, omega0=0"] = make_scenario(ScenarioKind.SET_IB, omega0=0.0)
    for name, scenario in scenarios.items():
        horizon = reality_horizon_time(scenario)
        if horizon is None:
            times = (0.0, 0.7, 3.0, 10.0)
        else:  # inside the window, at its edge and past it
            times = (0.0, 0.5 * horizon, 0.99 * horizon, 1.5 * horizon, 3.0 * horizon)
        for t in times:
            a, _ = coefficient_a(scenario, t)
            rho, _, _ = rho_eval(scenario, t)
            want_c = _c_composed(scenario, t)
            assert repr(c_complex(scenario, t)) == repr(want_c), (name, t)
            assert repr(scenario.c(t)) == repr(want_c), (name, t)
            want_rate = want_c - a / rho**2
            assert repr(scenario.phase_rate(t)) == repr(want_rate), (name, t)
        if horizon:
            assert scenario.c(1.5 * horizon).imag != 0.0, name


def test_c_complex_is_complex_beyond_horizon(fig_ia):
    assert c_complex(fig_ia, 1.2 * reality_horizon_time(fig_ia)).imag != 0.0


def test_reality_horizons_on_figures(fig_scenarios):
    # ln(M sigma)/Gamma, (2 sqrt(M sigma) - chi)/Gamma, (sqrt(Delta/M)/omega0 - chi)/Gamma
    hz = reality_horizon_time(fig_scenarios["Ia"])
    assert math.isclose(hz, math.log(1.0e7), rel_tol=1e-15)
    assert reality_horizon_time(fig_scenarios["Ib"]) is None
    assert reality_horizon_time(fig_scenarios["Ic"]) is None
    hz = reality_horizon_time(fig_scenarios["II"])
    assert math.isclose(hz, 2.0 * math.sqrt(1.0e7) - 1.0, rel_tol=1e-15)
    hz = reality_horizon_time(fig_scenarios["III"])
    assert math.isclose(hz, math.sqrt(1.0e7) / 1.0e3 - 1.0, rel_tol=1e-15)


def test_reality_horizon_edge_cases():
    # Constant-frequency family with Delta < M omega0^2: empty window.
    bad = make_scenario(ScenarioKind.SET_IB, Delta=0.5, omega0=1.0, sigma=2.0, mu=1.0, enforce=False)
    assert reality_horizon_time(bad) == 0.0
    # Zero frequency: deformation radicals never close a window.
    free = make_scenario(ScenarioKind.SET_III, omega0=0.0, sigma=2.0, Delta=2.0, enforce=False)
    assert reality_horizon_time(free) is None


def test_nc_parameters_inside_window(fig_ia):
    theta_nc, omega_nc = nc_parameters(fig_ia, 0.5)
    assert theta_nc > 0.0 and omega_nc > 0.0
    # Published closed form at t = 0: theta = (2/(M w0)) sqrt(M sigma - 1).
    c = fig_ia.constants
    theta0, _ = nc_parameters(fig_ia, 0.0)
    want = (2.0 / (c.mass_M * c.omega0)) * math.sqrt(c.mass_M * c.sigma - 1.0)
    assert math.isclose(theta0, want, rel_tol=1e-12)


def _published_nc_reference(scenario, t):
    """The published theta_nc^2 and omega_nc^2, written out family by family."""
    c = scenario.constants
    M, w0, G = c.mass_M, c.omega0, c.Gamma
    kind = scenario.kind
    if kind is ScenarioKind.SET_IA:
        theta2 = (2.0 / (M * w0)) ** 2 * math.exp(G * t) * (M * c.sigma * math.exp(-G * t) - 1.0)
        omega2 = 4.0 * M * (c.Delta * math.exp(G * t) - M * w0**2 * math.exp(-G * t))
        return theta2, omega2
    if kind is ScenarioKind.SET_IB:
        theta2 = (2.0 / (M * w0)) ** 2 * (M * c.sigma - 1.0) * math.exp(-2.0 * G * t)
        omega2 = 4.0 * math.exp(2.0 * G * t) * M * (c.Delta - M * w0**2)
        return theta2, omega2
    if kind is ScenarioKind.SET_IC:
        theta2 = (2.0 / (M * w0)) ** 2 * (M * c.sigma - 1.0) * math.exp(-G * t)
        omega2 = 4.0 * math.exp(G * t) * M * (c.Delta * math.exp(G * t) - M * w0**2)
        return theta2, omega2
    u = G * t + c.chi
    if kind is ScenarioKind.SET_II_K:
        k = float(scenario.k_exp)
        ratio = (k + 2.0) / (k * u)
        theta2 = (2.0 * u / (M * w0)) ** 2 * (M * c.sigma * ratio ** ((k + 2.0) / k) - 1.0)
        omega2 = 4.0 * (M * c.Delta * ratio ** ((k - 2.0) / k) - M**2 * w0**2 / u**2)
        return theta2, omega2
    theta2 = (2.0 * u / (M * w0)) ** 2 * (M * c.sigma - 1.0)
    omega2 = 4.0 * (M * c.Delta / u**4 - M**2 * w0**2 / u**2)
    return theta2, omega2


_EXPONENTIAL = (ScenarioKind.SET_IA, ScenarioKind.SET_IB, ScenarioKind.SET_IC)


def test_nc_squares_match_published_family_formulas(fig_scenarios, mild_scenarios):
    k3 = make_scenario(ScenarioKind.SET_II_K, k_exp=3, omega0=0.5, sigma=1.0, Delta=1.0,
                       mu=1.0, enforce=False)
    scenarios = [*fig_scenarios.values(), *mild_scenarios.values(), k3]
    for scenario in scenarios:
        horizon = reality_horizon_time(scenario)
        # nc_table gives the magnitude of each published square and its sign at
        # every time: inside the window, past the horizon and late, where the
        # exponential families leave the float range first.
        times = (0.0, 0.7, 1.9) if horizon is None else (0.0, 0.4 * horizon, 1.6 * horizon)
        times += (300.0 if scenario.kind in _EXPONENTIAL else 1e6,)
        theta, omega, theta_real, omega_real = nc_table(scenario, np.array(times))
        for i, t in enumerate(times):
            got = (
                theta[i] ** 2 if theta_real[i] else -theta[i] ** 2,
                omega[i] ** 2 if omega_real[i] else -omega[i] ** 2,
            )
            want = _published_nc_reference(scenario, t)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * abs(w), (scenario.summary(), t, g, w)


def test_nc_parameters_domain_errors(fig_ia):
    # A float and an array name the time alike, without a numpy repr.
    message = r"^deformation parameters are validated for t >= 0, got t=-0\.5$"
    for t in (-0.5, np.array([0.5, -0.5])):
        with pytest.raises(DomainError, match=message):
            nc_parameters(fig_ia, t)
    free = make_scenario(ScenarioKind.SET_III, omega0=0.0, sigma=2.0, Delta=2.0, enforce=False)
    with pytest.raises(DomainError):
        nc_parameters(free, 0.5)


def test_nc_parameters_raise_beyond_window(fig_ia):
    horizon = reality_horizon_time(fig_ia)
    with pytest.raises(DomainError, match="deformation .* has a negative radicand"):
        nc_parameters(fig_ia, 1.05 * horizon)


@given(x1=COORDS, x2=COORDS, p1=COORDS, p2=COORDS, frac=st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_bopp_and_abc_symbols_agree(x1, x2, p1, p2, frac):
    for kind in (ScenarioKind.SET_IA, ScenarioKind.SET_II_K, ScenarioKind.SET_III):
        scenario = make_scenario(kind)
        horizon = reality_horizon_time(scenario)
        t = frac * (1.5 if horizon is None else min(1.5, 0.9 * horizon))
        bopp, abc = phase_space_symbols(scenario, t, x1, x2, p1, p2)
        assert abs(bopp - abc) <= 1e-9 * max(1.0, abs(abc))
