"""Special-function identities against frozen oracle values and exact arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ncho.errors import NoConvergence, NonPolynomialCase, OutOfValidatedDomain
from ncho.specfun import (
    gauss_2f1,
    integrate_adaptive_full,
    laguerre,
    laguerre_coefficients,
    laguerre_weighted_integral_exact,
    tricomi_u_poly,
)

# Frozen oracle values (mpmath, 50 digits, rounded to double):
TWO_LN_TWO = 1.3862943611198906  # 2F1(1,1;2;1/2) = -ln(1-z)/z at z = 1/2
F21_POINT = 0.9827672468639657  # 2F1(-0.25, 0.5; 0.75; 0.1)
SIN_ONE = 0.8414709848078965  # integral_0^1 cos
ONE_MINUS_COS_ONE = 0.4596976941318603  # integral_0^1 sin


def _laguerre_binomial(n: int, zeta: float, w: float) -> float:
    """Independent route: explicit binomial sum for L_n^(zeta)."""
    total = 0.0
    for j in range(n + 1):
        binom = 1.0
        for i in range(n - j):
            binom *= (n + zeta - i) / (n - j - i)
        total += (-1) ** j * binom * w**j / math.factorial(j)
    return total


def test_laguerre_point_values():
    assert laguerre(0, 0, 5.0) == 1.0
    assert laguerre(1, 0, 2.0) == -1.0  # 1 - w
    assert laguerre(2, 1, 0.0) == 3.0  # C(3, 2)
    assert laguerre(1, 2, 1.0) == 2.0  # 1 + zeta - w


def test_laguerre_rejects_bad_degree():
    with pytest.raises(ValueError):
        laguerre(-1, 0, 1.0)
    with pytest.raises(ValueError):
        laguerre(1.5, 0, 1.0)


@given(
    n=st.integers(0, 8),
    zeta=st.integers(-4, 6),
    w=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)
@settings(max_examples=120)
def test_laguerre_recurrence_matches_binomial(n, zeta, w):
    got = laguerre(n, zeta, w)
    want = _laguerre_binomial(n, zeta, w)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_negative_superscript_leading_zeros():
    # L_n^(-j) has a zero of order j at w = 0 for 1 <= j <= n.
    coeffs = laguerre_coefficients(3, -2)
    assert coeffs[0] == 0 and coeffs[1] == 0
    assert coeffs[2] != 0


def test_tricomi_reduces_to_laguerre():
    for m in range(5):
        for b in (-2.0, 0.5, 1.0, 3.0):
            for w in (0.0, 0.7, 4.2):
                got = tricomi_u_poly(m, b, w)
                want = (-1) ** m * math.factorial(m) * _laguerre_binomial(m, b - 1.0, w)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_tricomi_rejects_non_polynomial():
    with pytest.raises(NonPolynomialCase):
        tricomi_u_poly(-1, 1.0, 0.5)


def test_orthogonality_exact():
    for n in range(5):
        for zeta in range(4):
            val = laguerre_weighted_integral_exact(zeta, n, zeta, n, zeta)
            assert val == Fraction(math.factorial(n + zeta), math.factorial(n))
            for n2 in range(5):
                if n2 != n:
                    assert laguerre_weighted_integral_exact(zeta, n, zeta, n2, zeta) == 0


def test_first_moment_identity():
    # integral w^(zeta+1) e^-w [L_n^(zeta)]^2 = (n+zeta)!/n! * (2n+zeta+1)
    for n in range(5):
        for zeta in range(4):
            val = laguerre_weighted_integral_exact(zeta + 1, n, zeta, n, zeta)
            want = Fraction(math.factorial(n + zeta), math.factorial(n)) * (2 * n + zeta + 1)
            assert val == want
    # the n = 1, zeta = 0 case by hand: integral w e^-w (1-w)^2 = 1 - 4 + 6
    assert laguerre_weighted_integral_exact(1, 1, 0, 1, 0) == 3


def test_weighted_integral_symmetry_and_exact_route():
    exact = laguerre_weighted_integral_exact(2, 3, 1, 2, -1)
    assert exact == laguerre_weighted_integral_exact(2, 2, -1, 3, 1)
    assert isinstance(exact, Fraction)


def test_weighted_integral_negative_q():
    # q < 0 is accepted whenever compensating zeros keep every surviving
    # power nonnegative.
    val = laguerre_weighted_integral_exact(-1, 2, -2, 2, 0)
    assert isinstance(val, Fraction)
    with pytest.raises(ValueError, match="divergent"):
        laguerre_weighted_integral_exact(-1, 2, 0, 2, 0)


@given(
    q=st.integers(0, 4),
    n1=st.integers(0, 5),
    z1=st.integers(-2, 3),
    n2=st.integers(0, 5),
    z2=st.integers(-2, 3),
)
@settings(max_examples=80)
def test_weighted_integral_vs_quadrature(q, n1, z1, n2, z2):
    exact = float(laguerre_weighted_integral_exact(q, n1, z1, n2, z2))
    # Judge against the L1 norm of the integrand (the value itself may be a
    # near-total cancellation, e.g. orthogonal pairs).
    scale = float(
        sum(
            abs(a1) * abs(a2) * math.factorial(q + j1 + j2)
            for j1, a1 in enumerate(laguerre_coefficients(n1, z1))
            for j2, a2 in enumerate(laguerre_coefficients(n2, z2))
        )
    )

    def integrand(w):
        return w**q * math.exp(-w) * laguerre(n1, z1, w) * laguerre(n2, z2, w)

    tol = 1e-10 * max(1.0, scale)
    approx, err = integrate_adaptive_full(integrand, 0.0, 80.0, tol=tol)
    assert err <= tol
    assert abs(approx.real - exact) <= 1e-8 * max(1.0, scale)


def test_2f1_log_identity_at_half():
    got = gauss_2f1(1.0, 1.0, 2.0, 0.5)
    assert abs(got - TWO_LN_TWO) <= 1e-12


def test_2f1_frozen_point():
    got = gauss_2f1(-0.25, 0.5, 0.75, 0.1)
    assert abs(got - F21_POINT) <= 1e-15


def test_2f1_against_mpmath_grid():
    for z in (0.05, 0.3 + 0.2j, -0.6, 0.85):
        got = gauss_2f1(-0.25, 0.5, 0.75, z)
        want = complex(mpmath.hyp2f1(-0.25, 0.5, 0.75, z))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_2f1_polynomial_case_any_argument():
    # Terminating series: a = -2 sums exactly even for |z| > 1.
    got = gauss_2f1(-2.0, 0.5, 0.75, 3.0)
    want = complex(mpmath.hyp2f1(-2, 0.5, 0.75, 3.0))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_2f1_domain_and_parameter_errors():
    with pytest.raises(OutOfValidatedDomain):
        gauss_2f1(-0.25, 0.5, 0.75, 1.0)
    with pytest.raises(OutOfValidatedDomain):
        gauss_2f1(-0.25, 0.5, 0.75, -1.2)
    with pytest.raises(ValueError):
        gauss_2f1(1.0, 1.0, 0.0, 0.5)
    with pytest.raises(NoConvergence):
        gauss_2f1(0.5, 0.5, 0.5, 0.999999, max_terms=10)


def test_adaptive_quadrature_frozen_values():
    val, err = integrate_adaptive_full(math.sin, 0.0, 1.0)
    assert err <= 1e-10
    assert abs(val.real - ONE_MINUS_COS_ONE) <= 1e-12
    val, err = integrate_adaptive_full(lambda t: complex(math.cos(t), math.sin(t)), 0.0, 1.0)
    assert err <= 1e-10
    assert abs(val.real - SIN_ONE) <= 1e-12
    assert abs(val.imag - ONE_MINUS_COS_ONE) <= 1e-12


def test_adaptive_quadrature_empty_interval_and_errors():
    value, err = integrate_adaptive_full(math.sin, 2.0, 2.0)
    assert value == 0.0 and err == 0.0
    with pytest.raises(ValueError):
        integrate_adaptive_full(math.sin, 0.0, 1.0, tol=0.0)
    # An integrand that cannot converge reports an error estimate above tol.
    _, err = integrate_adaptive_full(
        lambda t: math.sin(1.0 / (t + 1e-9)) / (t + 1e-9), 0.0, 1.0, tol=1e-14
    )
    assert err > 1e-14
