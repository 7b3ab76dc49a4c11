"""Special functions and integral identities behind the spectral formulas.

Everything Laguerre-shaped is evaluated two independent ways somewhere in the
test suite: a stable recurrence against an explicit binomial sum, and exact
rational-arithmetic integrals against an adaptive-quadrature oracle. The
module itself keeps the fast/exact routes; the oracles live in the callers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from scipy.integrate import quad_vec

from .errors import NoConvergence, NonPolynomialCase, OutOfValidatedDomain

DEFAULT_QUAD_TOL = 1e-10


def laguerre(n: int, zeta, w):
    """Generalized Laguerre polynomial L_n^(zeta)(w) by three-term recurrence.

    Upward recurrence in the degree:
    k*L_k = (2k-1+zeta-w)*L_{k-1} - (k-1+zeta)*L_{k-2}.
    Valid for any real superscript, including the negative integers used by
    the matrix-element sums. ``w`` may be a scalar or a numpy array.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")
    prev = w * 0 + 1.0  # L_0, broadcast-friendly
    if n == 0:
        return prev
    cur = 1.0 + zeta - w
    for k in range(2, n + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + zeta - w) * cur - (k - 1.0 + zeta) * prev) / k
    return cur


def tricomi_u_poly(m: int, b, w):
    """Tricomi confluent hypergeometric U(-m, b, w) in the polynomial case.

    Reduces to an associated Laguerre polynomial:
    U(-m, b, w) = (-1)^m * m! * L_m^(b-1)(w).
    """
    if not isinstance(m, int) or m < 0:
        raise NonPolynomialCase(
            f"U(a, b, w) is implemented only for a = -m with integer m >= 0, got -m = {-m!r}"
        )
    sign = -1.0 if m % 2 else 1.0
    return sign * math.factorial(m) * laguerre(m, b - 1, w)


def gauss_2f1(a: float, b: float, c: float, z: complex, max_terms: int = 500) -> complex:
    """Gauss hypergeometric series 2F1(a, b; c; z) by direct summation.

    Terminating (polynomial) cases are summed exactly for any z; otherwise
    the series is validated only on |z| < 1 and stops once two consecutive
    terms fall below 1e-16 of the running sum.
    """
    if float(c).is_integer() and c <= 0:
        raise ValueError(f"lower parameter must not be a nonpositive integer, got {c!r}")
    z = complex(z)

    poly_n: int | None = None
    for p in (a, b):
        if float(p).is_integer() and p <= 0:
            n = int(round(-p))
            poly_n = n if poly_n is None else min(poly_n, n)

    if poly_n is not None:
        total = complex(1.0)
        term = complex(1.0)
        for k in range(poly_n):
            term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
            total += term
        return total

    if abs(z) >= 1.0:
        raise OutOfValidatedDomain(
            f"|z| = {abs(z):.6g} >= 1 lies outside the validated direct-series domain"
        )
    total = complex(1.0)
    term = complex(1.0)
    quiet = 0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        total += term
        if abs(term) <= 1e-16 * abs(total):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise NoConvergence(f"series did not settle within {max_terms} terms at z={z!r}")


@lru_cache(maxsize=None)
def laguerre_coefficients(n: int, zeta: int) -> tuple[Fraction, ...]:
    """Exact monomial coefficients of L_n^(zeta): coefficient of w^j at index j.

    coeff_j = (-1)^j / j! * C(n+zeta, n-j), with the generalized binomial
    evaluated as a falling factorial so negative integer superscripts work
    (they produce leading zeros — the polynomial then has a zero of order
    |zeta| at w=0, which is what makes the weighted integrals below finite).
    """
    coeffs = []
    for j in range(n + 1):
        k = n - j
        num = 1
        for i in range(k):
            num *= n + zeta - i
        binom = Fraction(num, math.factorial(k))
        coeffs.append(Fraction((-1) ** j, math.factorial(j)) * binom)
    return tuple(coeffs)


def laguerre_weighted_integral_exact(q: int, n1: int, zeta1: int, n2: int, zeta2: int) -> Fraction:
    """Exact value of integral_0^inf w^q e^-w L_n1^(zeta1) L_n2^(zeta2) dw.

    Expands both polynomials and uses integral w^p e^-w dw = p!. ``q`` may be
    negative provided every monomial with a nonzero coefficient still has a
    nonnegative total power (guaranteed when negative superscripts supply
    compensating zeros at w=0); otherwise the integral diverges and a
    ValueError is raised.
    """
    c1 = laguerre_coefficients(n1, zeta1)
    c2 = laguerre_coefficients(n2, zeta2)
    total = Fraction(0)
    for j1, a1 in enumerate(c1):
        if a1 == 0:
            continue
        for j2, a2 in enumerate(c2):
            if a2 == 0:
                continue
            p = q + j1 + j2
            if p < 0:
                raise ValueError(
                    f"divergent integrand: power w^{p} survives with nonzero coefficient"
                )
            total += a1 * a2 * math.factorial(p)
    return total


def integrate_adaptive_full(
    f: Callable[[float], complex], t0: float, t1: float, tol: float = DEFAULT_QUAD_TOL
) -> tuple[complex, float]:
    """Adaptive quadrature of a (possibly complex) integrand on [t0, t1].

    Returns (value, error_estimate) without enforcing the tolerance; callers
    decide what error they accept. Gauss-Kronrod panels with adaptive
    bisection, absolute tolerance.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if t0 == t1:
        return complex(0.0), 0.0
    value, err = quad_vec(f, t0, t1, epsabs=tol, epsrel=0.0, norm="max")
    return complex(value), float(err)
