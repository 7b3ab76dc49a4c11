"""Hamiltonian coefficients, deformation parameters, and the dual-form symbol."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from ncho.config import ScenarioKind
from ncho.errors import DomainError, OutsideRealityWindow
from ncho.hamiltonian import (
    PhaseSpacePoint,
    SymbolForm,
    c_complex,
    c_value,
    classical_symbol,
    coefficients,
    nc_parameters,
    published_nc_squared,
    reality_horizon_time,
)

from conftest import make_scenario

COORDS = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_profiles_per_family(fig_scenarios):
    t = 0.7
    ia, ib, iii = fig_scenarios["Ia"], fig_scenarios["Ib"], fig_scenarios["III"]
    c = ia.constants
    assert ia.family.damping(t) == 1.0
    assert math.isclose(
        ia.family.frequency(t), c.omega0 * math.exp(-0.5 * c.Gamma * t), rel_tol=1e-15
    )
    assert math.isclose(ib.family.damping(t), math.exp(-c.Gamma * t), rel_tol=1e-15)
    assert ib.family.frequency(t) == c.omega0
    assert math.isclose(
        iii.family.frequency(t), c.omega0 / (c.Gamma * t + c.chi), rel_tol=1e-15
    )


def test_coefficients_match_ermakov_profiles(fig_scenarios):
    from ncho.ermakov import coefficient_a, coefficient_b

    for scenario in fig_scenarios.values():
        for t in (0.0, 0.4, 1.3):
            hc = coefficients(scenario, t)
            assert hc.a == coefficient_a(scenario, t)[0]
            assert hc.b == coefficient_b(scenario, t)
            assert hc.c == c_value(scenario, t)


def test_c_value_is_real_part_of_continuation(fig_scenarios):
    for scenario in fig_scenarios.values():
        horizon = reality_horizon_time(scenario)
        t_hi = 1.5 if horizon is None else min(1.5, 0.9 * horizon)
        for i in range(8):
            t = t_hi * i / 7
            z = c_complex(scenario, t)
            assert z.imag == 0.0
            assert math.isclose(c_value(scenario, t), z.real, rel_tol=1e-14)


def test_c_errors_beyond_horizon(fig_ia):
    horizon = reality_horizon_time(fig_ia)
    with pytest.raises(OutsideRealityWindow) as excinfo:
        c_value(fig_ia, 1.2 * horizon)
    assert excinfo.value.horizon == horizon
    z = c_complex(fig_ia, 1.2 * horizon)
    assert z.imag != 0.0


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
    nc = nc_parameters(fig_ia, 0.5)
    assert nc.theta_nc > 0.0 and nc.omega_nc > 0.0
    assert nc.commutator_factor == 1.0 + nc.theta_nc * nc.omega_nc / 4.0
    # Published closed form at t = 0: theta = (2/(M w0)) sqrt(M sigma - 1).
    c = fig_ia.constants
    nc0 = nc_parameters(fig_ia, 0.0)
    want = (2.0 / (c.mass_M * c.omega0)) * math.sqrt(c.mass_M * c.sigma - 1.0)
    assert math.isclose(nc0.theta_nc, want, rel_tol=1e-12)


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


def test_nc_squares_match_published_family_formulas(fig_scenarios, mild_scenarios):
    k3 = make_scenario(ScenarioKind.SET_II_K, k_exp=3, omega0=0.5, sigma=1.0, Delta=1.0,
                       mu=1.0, enforce=False)
    scenarios = [*fig_scenarios.values(), *mild_scenarios.values(), k3]
    for scenario in scenarios:
        horizon = reality_horizon_time(scenario)
        # Inside the window, and past the horizon where nc_parameters raises
        # before its own agreement gate.
        times = (0.0, 0.7, 1.9) if horizon is None else (0.0, 0.4 * horizon, 1.6 * horizon)
        for t in times:
            got = published_nc_squared(scenario, t)
            want = _published_nc_reference(scenario, t)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * abs(w), (scenario.summary(), t, g, w)


def test_nc_parameters_domain_errors(fig_ia):
    with pytest.raises(DomainError):
        nc_parameters(fig_ia, -0.1)
    free = make_scenario(ScenarioKind.SET_III, omega0=0.0, sigma=2.0, Delta=2.0, enforce=False)
    with pytest.raises(DomainError):
        nc_parameters(free, 0.5)


def test_nc_parameters_raise_beyond_window(fig_ia):
    horizon = reality_horizon_time(fig_ia)
    with pytest.raises(OutsideRealityWindow):
        nc_parameters(fig_ia, 1.05 * horizon)


@given(x1=COORDS, x2=COORDS, p1=COORDS, p2=COORDS, frac=st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_bopp_and_abc_symbols_agree(x1, x2, p1, p2, frac):
    pt = PhaseSpacePoint(x1, x2, p1, p2)
    for kind in (ScenarioKind.SET_IA, ScenarioKind.SET_II_K, ScenarioKind.SET_III):
        scenario = make_scenario(kind)
        horizon = reality_horizon_time(scenario)
        t = frac * (1.5 if horizon is None else min(1.5, 0.9 * horizon))
        bopp = classical_symbol(scenario, t, pt, SymbolForm.BOPP_SHIFTED)
        abc = classical_symbol(scenario, t, pt, SymbolForm.ABC_FORM)
        assert abs(bopp - abc) <= 1e-9 * max(1.0, abs(abc))


def test_zero_frequency_symbol_still_agrees():
    scenario = make_scenario(ScenarioKind.SET_IB, omega0=0.0, sigma=2.0, Delta=1.0,
                             mu=(16.0 / 7.0) ** 0.25)
    pt = PhaseSpacePoint(1.0, -2.0, 0.5, 3.0)
    # theta_nc is undefined at zero frequency, so only the abc route exists;
    # it must still be finite and assemble from the coefficient triple.
    val = classical_symbol(scenario, 0.8, pt, SymbolForm.ABC_FORM)
    hc = coefficients(scenario, 0.8)
    want = (
        0.5 * hc.a * (pt.p1**2 + pt.p2**2)
        + 0.5 * hc.b * (pt.x1**2 + pt.x2**2)
        + hc.c * (pt.p1 * pt.x2 - pt.p2 * pt.x1)
    )
    assert val == want
