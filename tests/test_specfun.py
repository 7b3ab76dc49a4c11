"""Special-function identities against frozen oracle values and exact arithmetic."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad_vec

from ncho import specfun
from ncho.ermakov import coefficient_a, rho_eval
from ncho.errors import InvalidLabel, OutOfValidatedDomain
from ncho.hamiltonian import c_complex
from ncho.specfun import (
    gauss_2f1,
    integrate_adaptive_full,
    integrate_adaptive_many,
    laguerre,
    laguerre_coefficients,
    laguerre_weighted_integral_exact,
)
from ncho.spectrum import StateLabel, matrix_element_x_pow

# Frozen oracle values (mpmath, 50 digits, rounded to double):
TWO_LN_TWO = 1.3862943611198906  # 2F1(1,1;2;1/2) = -ln(1-z)/z at z = 1/2
F21_POINT = 0.9827672468639657  # 2F1(-0.25, 0.5; 0.75; 0.1)
SIN_ONE = 0.8414709848078965  # integral_0^1 cos
ONE_MINUS_COS_ONE = 0.4596976941318603  # integral_0^1 sin


def _laguerre_binomial(n: int, zeta: int, w: float) -> float:
    """Independent route: explicit binomial sum for L_n^(zeta), in exact rationals
    (in floats its terms cancel: at n = 8, zeta = 5, w = 17.14 it is off by 5e-10)."""
    total = Fraction(0)
    for j in range(n + 1):
        binom = Fraction(1)
        for i in range(n - j):
            binom *= Fraction(n + zeta - i, n - j - i)
        total += (-1) ** j * binom * Fraction(w) ** j / math.factorial(j)
    return float(total)


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


def _published_coefficients(n: int, zeta: int) -> list[Fraction]:
    """Exact monomial coefficients of L_n^(zeta) for any integer zeta, with
    C(n+zeta, n-j) as a falling factorial (the published superscript n - m < 0)."""
    return [
        Fraction((-1) ** j * math.prod(n + zeta - i for i in range(n - j)),
                 math.factorial(n - j) * math.factorial(j))
        for j in range(n + 1)
    ]


def test_negative_superscript_leading_zeros():
    # L_n^(-j) has a zero of order j at w = 0 for 1 <= j <= n: it is
    # (-w)^j (n-j)!/n! L_(n-j)^(j)(w), the form the exact routes serve, and they
    # refuse the negative superscript itself.
    coeffs = _published_coefficients(3, -2)
    assert coeffs[0] == 0 and coeffs[1] == 0
    assert coeffs[2] != 0
    scale = Fraction(math.factorial(1), math.factorial(3))
    assert coeffs[2:] == [scale * c for c in laguerre_coefficients(1, 2)]
    with pytest.raises(ValueError, match="n, l >= 0"):
        laguerre_coefficients(3, -2)
    for args in ((2, 2, -2, 2, 0), (2, 2, 0, 2, -1)):
        with pytest.raises(ValueError, match="n, l >= 0"):
            laguerre_weighted_integral_exact(*args)


def test_tricomi_reduces_to_laguerre():
    # U(-m, b, w) = (-1)^m m! L_m^(b-1)(w) (DLMF 13.6.19), the identity that
    # turns the published U form of the eigenstates into the Laguerre one.
    for m in range(5):
        for b in (-2.0, 0.5, 1.0, 3.0):
            for w in (0.0, 0.7, 4.2):
                want = float(mpmath.hyperu(-m, b, w))
                got = (-1) ** m * math.factorial(m) * laguerre(m, b - 1.0, w)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_tricomi_rejects_non_polynomial():
    # U(-m, b, w) is a polynomial only for integer m >= 0; m = -1 (a = 1) is
    # not, and both the state label and the Laguerre route refuse it.
    with pytest.raises(InvalidLabel):
        StateLabel(0, -1)
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, 0.5)


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
    exact = laguerre_weighted_integral_exact(2, 3, 1, 2, 0)
    assert exact == laguerre_weighted_integral_exact(2, 2, 0, 3, 1)
    assert isinstance(exact, Fraction)


def test_weighted_integral_negative_q():
    # The published pair reaches a negative power, integral w^-1 e^-w L_2^(-2) L_2^(0),
    # kept finite by L_2^(-2)(w) = w^2/2 (the zeros above). In the eigenstates'
    # form it is (1/2) integral w e^-w L_0^(2) L_2^(0), at a nonnegative power;
    # the exact route refuses the negative power itself.
    published = sum(
        a1 * a2 * math.factorial(-1 + j1 + j2)
        for j1, a1 in enumerate(_published_coefficients(2, -2))
        for j2, a2 in enumerate(_published_coefficients(2, 0))
        if a1 and a2
    )
    val = laguerre_weighted_integral_exact(1, 0, 2, 2, 0) / 2
    assert isinstance(val, Fraction) and val == published
    with pytest.raises(ValueError, match="power must be nonnegative"):
        laguerre_weighted_integral_exact(-1, 2, 0, 2, 0)


@given(
    q=st.integers(0, 4),
    n1=st.integers(0, 5),
    z1=st.integers(0, 3),
    n2=st.integers(0, 5),
    z2=st.integers(0, 3),
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
        return w**q * np.exp(-w) * laguerre(n1, z1, w) * laguerre(n2, z2, w)

    tol = 1e-10 * max(1.0, scale)
    approx, err = integrate_adaptive_full(integrand, 0.0, 80.0, tol=tol)
    assert err <= tol
    assert abs(approx.real - exact) <= 1e-8 * max(1.0, scale)


def _double_sum(q: int, n1: int, l1: int, n2: int, l2: int) -> Fraction:
    """Reference: expand both polynomials and use integral w^p e^-w dw = p!."""
    total = Fraction(0)
    for j1, a1 in enumerate(laguerre_coefficients(n1, l1)):
        for j2, a2 in enumerate(laguerre_coefficients(n2, l2)):
            total += a1 * a2 * math.factorial(q + j1 + j2)
    return total


def test_weighted_integral_is_the_double_sum():
    # The one-sum route returns the same Fraction as the double sum, so every
    # float formed from it keeps its bits; l2 > q + j reaches negative binomial tops.
    for args in itertools.product(range(6), range(5), range(5), range(5), range(5)):
        got = laguerre_weighted_integral_exact(*args)
        assert isinstance(got, Fraction) and got == _double_sum(*args), args
    assert laguerre_weighted_integral_exact(2, 200, 0, 200, 0) == _double_sum(2, 200, 0, 200, 0)


@pytest.mark.parametrize("n", [0, 1, 50, 800])
def test_large_label_diagonal_x_squared(mild_iii, n):
    # <n,0| x^2 |n,0> = (2n + 1)/2 rho^2; the double sum took about 51 s at n = 800.
    rho, _, _ = rho_eval(mild_iii, 0.0)
    assert matrix_element_x_pow(mild_iii, 0.0, n, n, n, 2) == (2 * n + 1) / 2 * rho**2


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


def test_2f1_domain_and_parameter_errors():
    with pytest.raises(OutOfValidatedDomain):
        gauss_2f1(-0.25, 0.5, 0.75, 1.0)
    with pytest.raises(OutOfValidatedDomain):
        gauss_2f1(-0.25, 0.5, 0.75, -1.2)
    with pytest.raises(ValueError):
        gauss_2f1(1.0, 1.0, 0.0, 0.5)
    with pytest.raises(OutOfValidatedDomain, match="did not settle"):
        gauss_2f1(0.5, 0.5, 0.5, 0.999999)


def _set_ia_unit_phase_integrand(scenario):
    def integrand(t):
        a, _ = coefficient_a(scenario, t)
        rho, _, _ = rho_eval(scenario, t)
        return c_complex(scenario, t) - a / rho**2

    return integrand


def _laguerre_weighted(w):
    return w * w * np.exp(-w) * laguerre(3, -1, w) * laguerre(4, 2, w)


def _oscillating(t):
    return np.sin(1.0 / (t + 1e-9)) / (t + 1e-9)


def test_adaptive_quadrature_frozen_values():
    val, err = integrate_adaptive_full(np.sin, 0.0, 1.0, tol=1e-10)
    assert err <= 1e-10
    assert abs(val.real - ONE_MINUS_COS_ONE) <= 1e-12
    val, err = integrate_adaptive_full(lambda t: np.cos(t) + 1j * np.sin(t), 0.0, 1.0, tol=1e-10)
    assert err <= 1e-10
    assert abs(val.real - SIN_ONE) <= 1e-12
    assert abs(val.imag - ONE_MINUS_COS_ONE) <= 1e-12


def test_adaptive_quadrature_empty_interval_and_errors():
    value, err = integrate_adaptive_full(np.sin, 2.0, 2.0, tol=1e-10)
    assert value == 0.0 and err == 0.0
    with pytest.raises(ValueError):
        integrate_adaptive_full(np.sin, 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        integrate_adaptive_full(np.exp, 0.0, math.inf, tol=1e-10)
    # An integrand that cannot converge reports an error estimate above tol.
    _, err = integrate_adaptive_full(_oscillating, 0.0, 1.0, tol=1e-14)
    assert err > 1e-14


# quad_vec status: 0 converged, 1 panel limit, 2 rounding floor, 3 non-finite.
@pytest.mark.parametrize(
    "name, lo, hi, tol, status",
    [
        ("sin", 0.0, 1.0, 1e-10, 0),
        ("cexp", 0.0, 7.5, 1e-10, 0),
        ("set_ia_phase", 0.0, 2.0, 1e-10, 2),
        ("laguerre_weighted", 0.0, 80.0, 1e-10, 0),
        ("oscillating", 0.0, 1.0, 1e-14, 1),
        # A non-finite integrand fails the quadrature without a numpy warning.
        pytest.param(
            "infinite", 0.0, 1.0, 1e-10, 3, marks=pytest.mark.filterwarnings("error::RuntimeWarning")
        ),
    ],
)
def test_adaptive_quadrature_is_bit_identical_to_quad_vec(name, lo, hi, tol, status, fig_ia):
    f = {
        "sin": np.sin,
        "cexp": lambda t: np.exp(1j * t),
        "set_ia_phase": _set_ia_unit_phase_integrand(fig_ia),
        "laguerre_weighted": _laguerre_weighted,
        "oscillating": _oscillating,
        "infinite": lambda t: t * 0.0 + math.inf,
    }[name]
    calls = []

    def counted(t):
        # integrate_adaptive_full passes arrays of nodes; count the nodes.
        calls.extend(np.ravel(t).tolist())
        return f(t)

    value, err = integrate_adaptive_full(counted, lo, hi, tol)
    want, want_err, info = quad_vec(
        f, lo, hi, epsabs=tol, epsrel=0.0, norm="max", full_output=True
    )
    assert info.status == status
    # repr tells every bit apart, nan included.
    assert repr(value) == repr(complex(want))
    assert repr(err) == repr(want_err)
    assert len(calls) == info.neval


def test_side_by_side_integrals_keep_their_bits(fig_ia):
    # Shared integrand calls must not change any integral: each result is
    # the one the integral gives alone, whatever runs next to it.
    rate = _set_ia_unit_phase_integrand(fig_ia)
    bounds = [(0.0, 2.0), (0.0, 0.0), (0.0, 0.37), (0.5, 3.0), (1.0, 1.0), (0.0, 7.5)]
    for f in (rate, _oscillating, lambda t: np.exp(1j * t)):
        alone = [integrate_adaptive_full(f, lo, hi, tol=1e-10) for lo, hi in bounds]
        together = integrate_adaptive_many(f, bounds, tol=1e-10)
        assert repr(together) == repr(alone)
    calls = []

    def counted(t):
        calls.append(t.size)
        return rate(t)

    integrate_adaptive_many(counted, [(0.0, x) for x in np.linspace(0.1, 2.0, 40)], tol=1e-10)
    assert len(calls) < 10 and sum(calls) % 21 == 0


def _panel_values(rng, panels: int, complex_values: bool) -> np.ndarray:
    """Integrand values on GK21 nodes over many decades, with zeros, infs and nans."""
    scale = 10.0 ** rng.integers(-300, 300, (panels, 21))
    values = rng.standard_normal((panels, 21)) * scale
    if complex_values:
        values = values + 1j * rng.standard_normal((panels, 21)) * scale
    pick = rng.random((panels, 21))
    values[pick < 0.002] = math.inf
    values[(pick > 0.3) & (pick < 0.302)] = -math.inf
    values[pick > 0.998] = math.nan
    values[(pick > 0.5) & (pick < 0.55)] = 0.0
    return values


@pytest.mark.parametrize("complex_values", (False, True))
def test_gk21_panel_pass_keeps_the_loops_bits(complex_values):
    # repr tells every bit apart, the sign of a zero and the type included.
    rng = np.random.default_rng(29 + complex_values)
    counts = list(range(1, 18)) + [64, 511, 512, 600]
    for panels in counts:
        values = _panel_values(rng, panels, complex_values)
        half = rng.standard_normal(panels) * 10.0 ** rng.integers(-12, 12, panels)
        loop = list(map(specfun._gk21_sums, values.tolist(), half.tolist()))
        assert repr(specfun._gk21_pass(values, half)) == repr(loop), panels


def test_gk21_takes_the_pass_for_every_panel_count(monkeypatch):
    passes = []
    real_pass = specfun._gk21_pass
    monkeypatch.setattr(specfun, "_gk21_pass", lambda v, h: passes.append(len(h)) or real_pass(v, h))
    for panels in (1, 7, 8, 600):
        edges = [(float(i), i + 1.0) for i in range(panels)]
        results = specfun._gk21(np.sin, edges)
        assert len(results) == panels
    assert passes == [1, 7, 8, 512, 88]


def test_gk21_one_panel_pass_raises_where_abs_overflows():
    # Finite values whose |f| is not: the pass hands the panel to the loop, whose abs raises.
    with pytest.raises(OverflowError, match="^absolute value too large$"):
        specfun._gk21(lambda x: np.full(x.shape, 1.5e308 * (1 + 1j)), [(0.0, 1.0)])
