"""Shared scenario fixtures: figure parameter sets plus milder ones for quick runs."""

from __future__ import annotations

import pathlib

import pytest

from ncho.config import PhysicalConstants, Scenario, ScenarioKind, ScenarioSpec, build_scenario
from ncho.ermakov import coefficient_a, coefficient_b
from ncho.hamiltonian import c_complex, nc_parameters

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# Figure parameters: M=1, mu=1, Delta=sigma=1e7, omega0=1e3, Gamma=1,
# chi=1 for the rational/linear families.
FIG_BASE = dict(
    mass_M=1.0,
    omega0=1.0e3,
    Gamma=1.0,
    chi=1.0,
    sigma=1.0e7,
    Delta=1.0e7,
    mu=1.0,
)


def make_scenario(
    kind: ScenarioKind, k_exp: int = 2, enforce: bool = True, **overrides
) -> Scenario:
    values = dict(FIG_BASE)
    values.update(overrides)
    spec = ScenarioSpec(constants=PhysicalConstants(**values), kind=kind, k_exp=k_exp)
    return build_scenario(spec, enforce_constraint=enforce)


def phase_space_symbols(scenario: Scenario, t: float, x1, x2, p1, p2):
    """The classical Hamiltonian symbol at phase-space points, assembled two ways.

    Returns (Bopp-shifted form, (a, b, c) form) over arrays of points. The
    first comes from the deformation parameters, the damping and the
    frequency; the second from the coefficient triple. The two are
    algebraically identical, so their agreement checks that all of these
    tell the same story. One library call each; t must lie inside the
    reality window, where c is real.
    """
    theta_nc, omega_nc = nc_parameters(scenario, t)
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)
    c = c_complex(scenario, t)
    assert c.imag == 0.0, (scenario.kind, t, c)
    M = scenario.constants.mass_M
    f = scenario.damping(t)
    w = scenario.frequency(t)
    kin1 = p1 + 0.5 * omega_nc * x2
    kin2 = p2 - 0.5 * omega_nc * x1
    pos1 = x1 - 0.5 * theta_nc * p2
    pos2 = x2 + 0.5 * theta_nc * p1
    bopp = (f / (2.0 * M)) * (kin1**2 + kin2**2) + (M * w**2 / (2.0 * f)) * (pos1**2 + pos2**2)
    abc = 0.5 * a * (p1**2 + p2**2) + 0.5 * b * (x1**2 + x2**2) + c.real * (p1 * x2 - p2 * x1)
    return bopp, abc


@pytest.fixture(scope="session")
def fig_ia() -> Scenario:
    return make_scenario(ScenarioKind.SET_IA)


@pytest.fixture(scope="session")
def fig_ib() -> Scenario:
    return make_scenario(ScenarioKind.SET_IB)


@pytest.fixture(scope="session")
def fig_ic() -> Scenario:
    return make_scenario(ScenarioKind.SET_IC)


@pytest.fixture(scope="session")
def fig_ii() -> Scenario:
    return make_scenario(ScenarioKind.SET_II_K, k_exp=2)


@pytest.fixture(scope="session")
def fig_iii() -> Scenario:
    return make_scenario(ScenarioKind.SET_III)


@pytest.fixture(scope="session")
def fig_scenarios(fig_ia, fig_ib, fig_ic, fig_ii, fig_iii) -> dict[str, Scenario]:
    return {"Ia": fig_ia, "Ib": fig_ib, "Ic": fig_ic, "II": fig_ii, "III": fig_iii}


# Mild parameter sets: same families, O(1) stiffness, exact constraints —
# chosen so quadrature stays cheap in tests.
@pytest.fixture(scope="session")
def mild_ib() -> Scenario:
    # mu^4 (sigma*Delta - Gamma^2/4) = (16/7)(2 - 1/4) = 4 = sigma^2
    return make_scenario(
        ScenarioKind.SET_IB, omega0=1.0, sigma=2.0, Delta=1.0, mu=(16.0 / 7.0) ** 0.25
    )


@pytest.fixture(scope="session")
def mild_ii() -> Scenario:
    # Gamma^2 mu = 16 (sigma*Delta*mu - sigma^2 / mu^3): 1 = 16(17/16 - 1)
    return make_scenario(
        ScenarioKind.SET_II_K, k_exp=2, omega0=0.5, sigma=1.0, Delta=17.0 / 16.0, mu=1.0
    )


@pytest.fixture(scope="session")
def mild_iii() -> Scenario:
    # Delta*mu^4 = sigma: 2 = 2
    return make_scenario(ScenarioKind.SET_III, omega0=0.5, sigma=2.0, Delta=2.0, mu=1.0)


@pytest.fixture(scope="session")
def mild_scenarios(mild_ib, mild_ii, mild_iii) -> dict[str, Scenario]:
    return {"Ib": mild_ib, "II": mild_ii, "III": mild_iii}


@pytest.fixture(scope="session")
def steep_ia() -> Scenario:
    # omega0 = 1e4 puts the hypergeometric argument at 0.1 * exp(2t), inside
    # the validated |z| < 1 region for t < ln(10)/2 ~ 1.151, so both the
    # closed form (early grid) and the quadrature fallback (beyond) are
    # exercised. mu keeps the family constraint exact.
    mu = (1.0e14 / (1.0e14 - 0.25)) ** 0.25
    return make_scenario(ScenarioKind.SET_IA, omega0=1.0e4, mu=mu)
