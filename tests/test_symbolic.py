"""Exact proofs of the family closed forms, each tied to the code it transcribes.

Each family's rho, a and b, its published <E_00>(t) and SetIII's published
unit phase are written here in sympy, transcribed from ``families``. Under the
family's constraint, solved for Delta, each identity simplifies to 0:

- the Ermakov-Pinney residual rho'' - (a'/a) rho' + a b rho - a^2/rho^3;
- <E_00> = (b rho^2 + a/rho^2 + rho'^2/a)/2, the identity on which the energy
  gate rests: ``energy`` compares (n+m+1) <E_00> + (n-m) c with the assembled
  expectation values;
- d/dt Theta_unit = c - a/rho^2 with Theta_unit(0) = 0 (SetIII).

A proof can drift from the code it transcribes, so every expression is also
evaluated at 30 digits (mpmath) at three times and compared with the family
method to 1e-14 relative. Nothing in ``src`` imports sympy.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath
import numpy as np
import pytest
import sympy as sp

from ncho.config import ScenarioKind, build_scenario, parse_scenario_file

from conftest import SCENARIO_DIR, make_scenario

M, W0, G, CHI, SIGMA, DELTA, MU, t = sp.symbols(
    "M omega0 Gamma chi sigma Delta mu t", positive=True
)
CONSTANTS = (M, W0, G, CHI, SIGMA, DELTA, MU)
FIELDS = ("mass_M", "omega0", "Gamma", "chi", "sigma", "Delta", "mu")
U = G * t + CHI
TIMES = np.array([0.1, 0.4, 0.8])


class Forms(NamedTuple):
    """One family's closed forms and its constraint as LHS - RHS, linear in Delta."""

    rho: sp.Expr
    a: sp.Expr
    b: sp.Expr
    ground: sp.Expr
    constraint: sp.Expr


def _exponential() -> Forms:
    return Forms(
        MU * sp.exp(-G * t / 2),
        SIGMA * sp.exp(-G * t),
        DELTA * sp.exp(G * t),
        MU**2 * DELTA,
        MU**4 * (SIGMA * DELTA - G**2 / 4) - SIGMA**2,
    )


def _set_ii(k: int) -> Forms:
    k = sp.Integer(k)
    bracket = (k + 2) / k * (DELTA * MU**2 + SIGMA / MU**2) + MU**2 * G**2 / (k * (k + 2) * SIGMA)
    return Forms(
        MU * (1 + 2 / k) ** (1 / k) * U ** (-1 / k),
        SIGMA * (1 + 2 / k) ** ((k + 2) / k) * U ** (-(k + 2) / k),
        DELTA * (1 + 2 / k) ** ((k - 2) / k) * U ** (-(k - 2) / k),
        bracket / (2 * U),
        G**2 * MU - (k + 2) ** 2 * (SIGMA * DELTA * MU - SIGMA**2 / MU**3),
    )


def _set_iii() -> Forms:
    return Forms(
        MU * U,
        SIGMA,
        DELTA / U**4,
        ((DELTA * MU**2 + SIGMA / MU**2) / U**2 + MU**2 * G**2 / SIGMA) / 2,
        DELTA * MU**4 - SIGMA,
    )


# SetIII's c(t) from its radicands, and the published phase of SetIII._phase_at.
C_III = sp.sqrt(DELTA / (M * U**4) - W0**2 / U**2) + W0 / U * sp.sqrt(M * SIGMA - 1)
PHASE_III = (
    W0 * sp.sqrt(M * SIGMA - 1) / G * sp.log(U / CHI) - SIGMA * t / (MU**2 * CHI * U)
    + (
        sp.sqrt(DELTA / (M * CHI**2) - W0**2)
        - sp.sqrt(DELTA / (M * U**2) - W0**2)
        + W0 * (
            sp.atan(W0 * CHI / sp.sqrt(DELTA / M - CHI**2 * W0**2))
            - sp.atan(W0 * U / sp.sqrt(DELTA / M - W0**2 * U**2))
        )
    ) / G
)


def _shipped(*names: str) -> list:
    return [build_scenario(parse_scenario_file(SCENARIO_DIR / f"{n}.scenario")) for n in names]


def _rational(k: int):
    """M = Gamma = chi = sigma = mu = 1, with the Delta that solves the SetIIk constraint."""
    delta = 1.0 + 1.0 / (k + 2) ** 2
    return make_scenario(
        ScenarioKind.SET_II_K, k_exp=k, omega0=0.5, sigma=1.0, mu=1.0, Delta=delta
    )


# Each family's forms and the scenarios its transcription is tied on.
FAMILIES = {
    "exponential": (_exponential(), _shipped("set_ia", "set_ib", "set_ic", "mild_ib")),
    "set_ii_k1": (_set_ii(1), [_rational(1)]),
    "set_ii_k2": (_set_ii(2), _shipped("set_ii_k2", "mild_ii_k2")),
    "set_ii_k3": (_set_ii(3), [_rational(3)]),
    "set_ii_k5": (_set_ii(5), [_rational(5)]),
    "set_iii": (_set_iii(), _shipped("set_iii", "mild_iii")),
}


def _under_constraint(expr: sp.Expr, forms: Forms) -> sp.Expr:
    (delta,) = sp.solve(forms.constraint, DELTA)
    return sp.simplify(expr.subs(DELTA, delta))


def _exact(expr: sp.Expr, scenario) -> list[complex]:
    """expr at the scenario's constants and TIMES, at 30 digits."""
    f = sp.lambdify((*CONSTANTS, t), expr, modules="mpmath")
    values = [mpmath.mpf(getattr(scenario.constants, field)) for field in FIELDS]
    with mpmath.workdps(30):
        return [complex(f(*values, mpmath.mpf(x))) for x in TIMES.tolist()]


def _assert_ties(expr: sp.Expr, got, scenario, where, floor: float = 0.0) -> None:
    """got within 1e-14 of expr, relative to max(floor, |expr|)."""
    got = np.broadcast_to(got, TIMES.shape).tolist()
    for g, want in zip(got, _exact(expr, scenario)):
        assert abs(g - want) <= 1e-14 * max(floor, abs(want)), (where, g, want)


@pytest.mark.parametrize("name", FAMILIES)
def test_scale_function_solves_ermakov_pinney(name):
    forms, _ = FAMILIES[name]
    rho, a, b = forms.rho, forms.a, forms.b
    rho_dot = sp.diff(rho, t)
    residual = sp.diff(rho_dot, t) - sp.diff(a, t) / a * rho_dot + a * b * rho - a**2 / rho**3
    assert _under_constraint(residual, forms) == 0


@pytest.mark.parametrize("name", FAMILIES)
def test_ground_energy_is_the_half_sum_of_the_quadratic_terms(name):
    forms, _ = FAMILIES[name]
    rho, a, b = forms.rho, forms.a, forms.b
    half_sum = (b * rho**2 + a / rho**2 + sp.diff(rho, t) ** 2 / a) / 2
    assert _under_constraint(forms.ground - half_sum, forms) == 0


def test_set_iii_phase_is_an_antiderivative_of_the_rate():
    forms, _ = FAMILIES["set_iii"]
    rate = C_III - forms.a / forms.rho**2
    assert _under_constraint(sp.diff(PHASE_III, t) - rate, forms) == 0
    assert sp.simplify(PHASE_III.subs(t, 0)) == 0


@pytest.mark.parametrize("name", FAMILIES)
def test_transcriptions_match_the_family_methods(name):
    forms, scenarios = FAMILIES[name]
    for scenario in scenarios:
        where = (name, scenario.summary())
        rho = scenario.rho(TIMES)
        for order, got in enumerate(rho):
            _assert_ties(sp.diff(forms.rho, t, order), got, scenario, (*where, "rho", order))
        a, a_dot = scenario.a(TIMES)
        _assert_ties(forms.a, a, scenario, (*where, "a"))
        _assert_ties(sp.diff(forms.a, t), a_dot, scenario, (*where, "a'"))
        _assert_ties(forms.b, scenario.b(TIMES), scenario, (*where, "b"))
        _assert_ties(forms.ground, scenario.ground_energy(TIMES), scenario, (*where, "ground"))
        if name == "set_iii":
            _assert_ties(C_III, scenario.c(TIMES), scenario, (*where, "c"))
            phase, validated = scenario.unit_phase(TIMES)
            assert validated.all(), where
            # A difference F(u) - F(chi) of O(1) terms on mild_iii, which cancel to
            # ~1e-2 by t = 0.8, so it is judged against max(1, |phase|).
            _assert_ties(PHASE_III, phase, scenario, (*where, "phase"), floor=1.0)
