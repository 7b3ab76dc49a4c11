"""Acceptance gate: ten end-to-end criteria, one test (one pass/fail line) each.

Every criterion exercises the library through its public API with the
figure-caption parameter sets (M = 1, mu = 1, Delta = sigma = 1e7,
omega0 = 1e3, Gamma = chi = 1). The Heisenberg oracle of criterion 02 also
runs on the mild parameter variants shipped alongside them, over longer
windows.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ncho.energy import energy_expectation
from ncho.ermakov import ep_residual, heisenberg_moments, rho_eval
from ncho.hamiltonian import reality_horizon_time
from ncho.invariant import invariant_coefficients, invariant_ode_residuals
from ncho.specfun import (
    gauss_2f1,
    laguerre,
    laguerre_coefficients,
    laguerre_weighted_integral_exact,
)
from ncho.spectrum import (
    Coordinate,
    PhaseMethod,
    StateLabel,
    matrix_element_oracle,
    matrix_element_x_pow,
    matrix_element_y_pow,
    overlap,
    phase_closed_form,
    phase_quadrature,
)

from conftest import phase_space_symbols


def _grid(t0: float, t1: float, points: int) -> list[float]:
    return [t0 + (t1 - t0) * i / (points - 1) for i in range(points)]


def test_criterion_01_scale_equation_exactness(fig_scenarios):
    """Analytic scale functions satisfy their defining equation to 1e-12."""
    start = time.perf_counter()
    worst = 0.0
    for scenario in fig_scenarios.values():
        for t in _grid(0.0, 2.0, 200):
            worst = max(worst, ep_residual(scenario, t))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_heisenberg_oracle(fig_scenarios, mild_scenarios):
    """Eigenstate moments carried by Heisenberg's equations reproduce rho and the energy to 1e-8."""
    start = time.perf_counter()
    windows = [(scenario, 2.0) for scenario in fig_scenarios.values()]
    mild_windows = (("Ib", 2.0), ("II", 5.0), ("III", 5.0))
    windows += [(mild_scenarios[name], t_end) for name, t_end in mild_windows]
    worst = 0.0
    for scenario, t_end in windows:
        t = np.linspace(0.0, t_end, 40)
        rho, a, b = scenario.rho(t)[0], scenario.a(t)[0], scenario.b(t)
        for s in (StateLabel(0, 0), StateLabel(1, 2)):
            n_plus = s.n + s.m + 1
            x2, p2, _ = (n_plus * x for x in heisenberg_moments(scenario, t))
            # The Heisenberg side reads no rho(t > 0): Phi, then a, b and c.
            energy = a * p2 + b * x2 + (s.n - s.m) * scenario.c(t)
            expected = energy_expectation(scenario, t, s)
            worst = max(
                worst,
                np.max(np.abs(x2 / (0.5 * n_plus * rho**2) - 1.0)),
                np.max(np.abs(energy - expected) / np.abs(expected)),
            )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_03_invariant_closure(fig_scenarios):
    """Invariant coefficients close their ODE system and quadratic identity."""
    worst_ode = 0.0
    worst_identity = 0.0
    for scenario in fig_scenarios.values():
        for t in _grid(0.01, 2.0, 25):
            worst_ode = max(worst_ode, invariant_ode_residuals(scenario, t))
            alpha, beta, gamma = invariant_coefficients(scenario, t)
            gap = abs(4.0 * alpha * beta - gamma**2 - 4.0)
            worst_identity = max(worst_identity, gap / 4.0)
    assert worst_ode <= 1e-12
    assert worst_identity <= 1e-12


def test_criterion_04_phase_space_symbol_identity(fig_scenarios):
    """Both classical-symbol assembly routes agree at random phase-space points."""
    start = time.perf_counter()
    rng = random.Random(20260818)
    for scenario in fig_scenarios.values():
        for t in _grid(0.0, 1.8, 10):
            # 1000 points, each drawn as x1, x2, p1, p2 in that order.
            points = [[rng.uniform(-2.0, 2.0) for _ in range(4)] for _ in range(1000)]
            bopp, abc = phase_space_symbols(scenario, t, *np.array(points).T)
            err = np.abs(bopp - abc) / np.maximum(1.0, np.maximum(np.abs(bopp), np.abs(abc)))
            assert err.max() <= 1e-9, (scenario.kind, t, points[err.argmax()])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_criterion_05_phase_cross_validation(fig_scenarios, steep_ia):
    """Closed-form evolution phases match quadrature to 1e-7 everywhere defined."""
    s = StateLabel(0, 1)

    def crossval(scenario, t_end):
        for t in _grid(0.0, t_end, 50):
            cf = phase_closed_form(scenario, s, t)
            qd = phase_quadrature(scenario, s, t)
            assert cf.method is PhaseMethod.CLOSED_FORM
            err = abs(cf.value - qd.value) / max(1.0, abs(cf.value), abs(qd.value))
            assert err <= 1e-7, (scenario.kind, t, err)

    crossval(fig_scenarios["Ib"], 2.0)
    crossval(fig_scenarios["Ic"], 2.0)
    crossval(fig_scenarios["II"], 2.0)
    crossval(fig_scenarios["III"], 1.9)
    # The exponential-frequency family has a series-domain restriction: the
    # steep variant stays inside it up to t ~ 1.15 and must cross-validate
    # there; the figure parameters sit outside it for every t > 0 and must
    # fall back to quadrature transparently.
    crossval(steep_ia, 1.1)
    for t in (0.2, 1.0, 5.0):
        res = phase_closed_form(fig_scenarios["Ia"], s, t)
        assert res.method is PhaseMethod.QUADRATURE
        assert cmath.isfinite(res.value)
    for scenario in fig_scenarios.values():
        assert phase_closed_form(scenario, s, 0.0).value == 0j
        assert phase_quadrature(scenario, s, 0.0).value == 0j


def test_criterion_06_matrix_element_oracle(fig_scenarios):
    """Closed-form coordinate-power matrix elements match 2-D quadrature."""
    start = time.perf_counter()
    times = (0.3, 0.6, 0.9)
    for scenario in fig_scenarios.values():
        for t in times:
            hr2 = rho_eval(scenario, t).rho ** 2
            for n in range(4):
                for m in range(4):
                    # Diagonal second power is exact in closed form.
                    got = matrix_element_x_pow(scenario, t, n, m, m, 2)
                    assert got == complex(0.5 * hr2 * (m + n + 1))
                    for mp in range(4):
                        for k in (1, 2):
                            for coord in (Coordinate.X, Coordinate.Y):
                                closed = (
                                    matrix_element_x_pow if coord is Coordinate.X
                                    else matrix_element_y_pow
                                )(scenario, t, n, m, mp, k)
                                oracle = matrix_element_oracle(
                                    scenario, t, n, m, mp, k, coord
                                )
                                err = abs(closed - oracle) / max(1.0, abs(closed))
                                assert err <= 1e-6, (scenario.kind, t, n, m, mp, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_criterion_07_orthonormality(fig_scenarios):
    """Eigenstate overlaps reproduce the Kronecker delta for all n, m <= 3."""
    labels = [StateLabel(n, m) for n in range(4) for m in range(4)]
    for scenario, t in ((fig_scenarios["Ia"], 0.9), (fig_scenarios["III"], 0.8)):
        for i, s1 in enumerate(labels):
            for s2 in labels[i:]:
                want = 1.0 if s1 == s2 else 0.0
                assert abs(overlap(scenario, t, s1, s2) - want) <= 1e-6, (s1, s2)


def test_criterion_08_energy_shapes(fig_scenarios):
    """Energy curves show the published qualitative shapes per family."""
    # Constant-coefficient family: constant to 1e-10 relative.
    for state in (StateLabel(0, 0), StateLabel(1, 0)):
        values = [
            energy_expectation(fig_scenarios["Ib"], t, state).real
            for t in _grid(0.0, 10.0, 101)
        ]
        assert max(abs(v - values[0]) for v in values) <= 1e-10 * abs(values[0])

    # Exponential-frequency family, (n, m) = (1, 0): exactly one interior
    # minimum inside the reality window (decreases, then increases).
    horizon = reality_horizon_time(fig_scenarios["Ia"])
    values = [
        energy_expectation(fig_scenarios["Ia"], t, StateLabel(1, 0)).real
        for t in _grid(0.0, 0.999 * horizon, 400)
    ]
    diffs = [b - a for a, b in zip(values, values[1:])]
    flips = sum(1 for d1, d2 in zip(diffs, diffs[1:]) if (d1 < 0.0) != (d2 < 0.0))
    assert diffs[0] < 0.0 and diffs[-1] > 0.0
    assert flips == 1

    # Both-exponential family, (n, m) = (1, 0): nonincreasing, approaching
    # (n+1) mu^2 Delta + n sqrt(Delta/M). The coupling converges like
    # exp(-Gamma t/2) on a ~1e6 prefactor, so the limit needs t ~ 80.
    values = [
        energy_expectation(fig_scenarios["Ic"], t, StateLabel(1, 0)).real
        for t in _grid(0.0, 80.0, 201)
    ]
    tol = 1e-12 * abs(values[0])
    assert all(b <= a + tol for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(2.0e7 + math.sqrt(1.0e7), rel=1e-12)

    # Rational families: monotone decay.
    for name in ("II", "III"):
        values = [
            energy_expectation(fig_scenarios[name], t, StateLabel(0, 0)).real
            for t in _grid(0.0, 2.0, 100)
        ]
        assert all(b < a for a, b in zip(values, values[1:])), name


def test_criterion_09_reality_horizons(fig_scenarios):
    """Computed reality bounds equal the published closed forms."""
    assert reality_horizon_time(fig_scenarios["Ia"]) == pytest.approx(
        math.log(1.0e7), rel=1e-10
    )
    assert reality_horizon_time(fig_scenarios["II"]) == pytest.approx(
        2.0 * math.sqrt(1.0e7) - 1.0, rel=1e-10
    )
    assert reality_horizon_time(fig_scenarios["III"]) == pytest.approx(
        math.sqrt(1.0e7) / 1.0e3 - 1.0, rel=1e-10
    )


def test_criterion_10_special_function_suite():
    """Special-function layer: recurrence and integral identities."""
    start = time.perf_counter()

    # Recurrence evaluation vs. explicit coefficient assembly.
    for n in range(9):
        for zeta in (0, 1, 3):
            coeffs = laguerre_coefficients(n, zeta)
            for w in (-2.0, -0.5, 0.0, 1.5, 4.0):
                direct = math.fsum(float(c) * w**j for j, c in enumerate(coeffs))
                scale = max(1.0, math.fsum(abs(float(c)) * abs(w) ** j
                                           for j, c in enumerate(coeffs)))
                assert abs(laguerre(n, zeta, w) - direct) <= 1e-12 * scale

    # Orthogonality and the first-moment identity, in exact arithmetic (the
    # first argument is the full power on the weight).
    for n in range(5):
        for zeta in (0, 1, 2):
            norm = Fraction(math.factorial(n + zeta), math.factorial(n))
            assert laguerre_weighted_integral_exact(zeta, n, zeta, n, zeta) == norm
            if n >= 1:
                assert laguerre_weighted_integral_exact(zeta, n, zeta, n - 1, zeta) == 0
            assert laguerre_weighted_integral_exact(zeta + 1, n, zeta, n, zeta) == norm * (
                2 * n + zeta + 1
            )

    # Logarithmic hypergeometric identity at the series midpoint.
    got = gauss_2f1(1.0, 1.0, 2.0, 0.5)
    assert abs(got - 2.0 * math.log(2.0)) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
