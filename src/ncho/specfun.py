"""Special functions and integral identities behind the spectral formulas.

Everything Laguerre-shaped is evaluated two independent ways somewhere in the
test suite: a stable recurrence against an explicit binomial sum, and exact
rational-arithmetic integrals against an adaptive-quadrature oracle. The
module itself keeps the fast/exact routes; the oracles live in the callers.
The exact routes serve the eigenstates' symmetric form L_p^(l), so they take
nonnegative superscripts and powers only.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NoConvergence, OutOfValidatedDomain

DEFAULT_QUAD_TOL = 1e-10
#: Term budget of the direct 2F1 series.
_2F1_MAX_TERMS = 500


def laguerre(n: int, zeta, w):
    """Generalized Laguerre polynomial L_n^(zeta)(w) by three-term recurrence.

    Upward recurrence in the degree:
    k*L_k = (2k-1+zeta-w)*L_{k-1} - (k-1+zeta)*L_{k-2}.
    Its one caller, the eigenfunction (``spectrum._phi``), passes zeta = |l| >= 0;
    the matrix-element sums use exact integrals instead. ``w`` may be a scalar or
    a numpy array.
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


def gauss_2f1(a: float, b: float, c: float, z: complex) -> complex:
    """Gauss hypergeometric series 2F1(a, b; c; z) by direct summation.

    Validated only on |z| < 1. The sum stops once two consecutive terms fall
    below 1e-16 of the running sum, which a terminating series reaches
    exactly at its zero terms.
    """
    if float(c).is_integer() and c <= 0:
        raise ValueError(f"lower parameter must not be a nonpositive integer, got {c!r}")
    z = complex(z)
    if abs(z) >= 1.0:
        raise OutOfValidatedDomain(
            f"|z| = {abs(z):.6g} >= 1 lies outside the validated direct-series domain"
        )
    total = complex(1.0)
    term = complex(1.0)
    quiet = 0
    for k in range(_2F1_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        total += term
        if abs(term) <= 1e-16 * abs(total):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise NoConvergence(f"series did not settle within {_2F1_MAX_TERMS} terms at z={z!r}")


@lru_cache(maxsize=None)
def laguerre_coefficients(n: int, l: int) -> tuple[Fraction, ...]:  # noqa: E741
    """Exact monomial coefficients of L_n^(l), l >= 0: (-1)^j C(n+l, n-j) / j! at index j."""
    if n < 0 or l < 0:
        raise ValueError(f"L_n^(l) needs n, l >= 0, got n={n}, l={l}")
    return tuple(
        Fraction((-1) ** j * math.comb(n + l, n - j), math.factorial(j)) for j in range(n + 1)
    )


def laguerre_weighted_integral_exact(q: int, n1: int, l1: int, n2: int, l2: int) -> Fraction:
    """Exact value of integral_0^inf w^q e^-w L_n1^(l1) L_n2^(l2) dw for q, l1, l2 >= 0.

    Expands L_n1^(l1) only and integrates each term against L_n2^(l2) in closed
    form: integral w^s e^-w L_n^(l)(w) dw = s! (-1)^n C(s - l, n).
    """
    if q < 0:
        raise ValueError(f"the weight's power must be nonnegative, got w^{q}")
    if n2 < 0 or l2 < 0:
        raise ValueError(f"L_n^(l) needs n, l >= 0, got n={n2}, l={l2}")
    terms = enumerate(laguerre_coefficients(n1, l1))
    return (-1) ** n2 * sum(a * math.factorial(q + j) * _binomial(q + j - l2, n2) for j, a in terms)


def _binomial(top: int, n: int) -> int:
    """C(top, n) for any integer top: (-1)^n C(n - top - 1, n) when top < 0."""
    return math.comb(top, n) if top >= 0 else (-1) ** n * math.comb(n - top - 1, n)


# Gauss-Kronrod 21-point rule on [-1, 1]: Kronrod nodes, the 10-point Gauss
# weights (nodes at the odd Kronrod indices) and the 21-point Kronrod weights.
# Copied digit for digit from scipy.integrate._quad_vec (BSD-3-Clause,
# Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers).
_GK21_X = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0,
    -0.148874338981631210884826001129720,
    -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784,
    -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874,
    -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493,
    -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452,
    -0.995657163025808080735527280689003,
)
_GK21_W = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
    0.295524224714752870173892994651338,
    0.269266719309996355091226921569469,
    0.219086362515982043995534934228163,
    0.149451349150580593145776339657697,
    0.066671344308688137593568809893332,
)
_GK21_V = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068,
    0.142775938577060080797094273138717,
    0.134709217311473325928054001771707,
    0.123491976262065851077958109831074,
    0.109387158802297641899210590325805,
    0.093125454583697605535065465083366,
    0.075039674810919952767043140916190,
    0.054755896574351996031381300244580,
    0.032558162307964727478818972459390,
    0.011694638867371874278064396062192,
)

_GK21_NODES = np.array(_GK21_X, dtype=float)
_GK21_V_COL = np.array(_GK21_V)[:, None]
_GK21_W_COL = np.array(_GK21_W)[:, None]

#: Most panels bisected per pass, and the panel count that stops refinement.
_BATCH = 128
_PANEL_LIMIT = 10000
#: Most panels whose nodes go to one integrand call, and most integrals run
#: side by side; both bound the memory a long grid of integrals holds.
_PANELS_PER_CALL = 512
_INTEGRALS_PER_RUN = 128
#: Panels per integrand call from which one numpy pass forms their sums; under
#: it the per-panel loop costs less.
_ARRAY_PANELS = 8


def _gk21(f, edges: list[tuple[float, float]]) -> list[tuple[complex, float, float]]:
    """GK21 on each (a, b) panel: (integral, error estimate, rounding-error floor).

    The integrand is called on the nodes of up to _PANELS_PER_CALL panels
    at once. The error is QUADPACK's: the Kronrod-Gauss difference scaled
    against the integral of |f - mean|, and never below 50 eps times the
    integral of |f|. Each panel's sums run left to right, as quad_vec runs
    them, so the results keep its bits: in a Python loop per panel, or from
    _ARRAY_PANELS panels on in one numpy pass over them all.
    """
    results = []
    for start in range(0, len(edges), _PANELS_PER_CALL):
        lo, hi = np.array(edges[start:start + _PANELS_PER_CALL], dtype=float).T
        c = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = c[:, None] + half[:, None] * _GK21_NODES
        values = np.broadcast_to(f(nodes.ravel()), (nodes.size,)).reshape(nodes.shape)
        if len(half) >= _ARRAY_PANELS:
            results += _gk21_pass(values, half)
        else:
            results += map(_gk21_sums, values.tolist(), half.tolist())
    return results


@np.errstate(all="ignore")  # a non-finite panel takes the loop
def _gk21_pass(values: np.ndarray, half: np.ndarray) -> list[tuple[complex, float, float]]:
    """_gk21_sums of every panel in one numpy pass, with the same bits.

    Each sum runs left to right over the nodes on the real and imaginary
    parts, as Python's complex sums do; |f| is hypot, as in Python's complex
    abs; the error's power, min and max stay Python floats. A panel whose
    sums are not all finite takes the loop, which raises where abs overflows.
    """
    cplx = values.dtype.kind == "c"
    re, im = values.real.T, values.imag.T if cplx else np.zeros((len(_GK21_V), 1))
    k_re, k_im = _left_sum(_GK21_V_COL, re), _left_sum(_GK21_V_COL, im)
    g_re, g_im = _left_sum(_GK21_W_COL, re[1::2]), _left_sum(_GK21_W_COL, im[1::2])
    k_abs = _left_sum(_GK21_V_COL, np.hypot(re, im) if cplx else np.abs(re))
    d_abs = _left_sum(_GK21_V_COL, np.hypot(re - k_re / 2.0, im - k_im / 2.0))
    err = np.hypot((k_re - g_re) * half, (k_im - g_im) * half)
    dabs = np.abs(d_abs * half)
    round_err = np.abs(50 * sys.float_info.epsilon * half * k_abs)
    bad = ~(np.isfinite(k_abs) & np.isfinite(d_abs) & np.isfinite(err))
    value = (half * k_re).tolist()
    if cplx:  # h * s_k as Python forms it, with h as h + 0j
        value = map(complex, (half * k_re - 0.0 * k_im).tolist(), (half * k_im + 0.0 * k_re).tolist())
    rows = zip(value, half.tolist(), bad.tolist(), err.tolist(), dabs.tolist(), round_err.tolist())
    return [
        _gk21_sums(values[i].tolist(), h) if b else (x, *_gk21_error(*e))
        for i, (x, h, b, *e) in enumerate(rows)
    ]


def _left_sum(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """0.0 + w0 x0 + w1 x1 + ... down the first axis, in that order: a zero sum is +0.0."""
    return np.add.accumulate(weights * x, axis=0)[-1] + 0.0


def _gk21_sums(fv: list, h: float) -> tuple[complex, float, float]:
    """One panel's GK21 result from its 21 integrand values and half-width h."""
    s_k = 0.0
    s_k_abs = 0.0
    for v, ff in zip(_GK21_V, fv):
        s_k += v * ff
        s_k_abs += v * abs(ff)
    s_g = 0.0
    for i, w in enumerate(_GK21_W):
        s_g += w * fv[2 * i + 1]
    y0 = s_k / 2.0
    s_k_dabs = 0.0
    for v, ff in zip(_GK21_V, fv):
        s_k_dabs += v * abs(ff - y0)
    err = float(abs((s_k - s_g) * h))
    dabs = float(abs(s_k_dabs * h))
    round_err = float(abs(50 * sys.float_info.epsilon * h * s_k_abs))
    return (h * s_k, *_gk21_error(err, dabs, round_err))


def _gk21_error(err: float, dabs: float, round_err: float) -> tuple[float, float]:
    """QUADPACK's error from the raw difference, the integral of |f - mean| and the floor."""
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
    if round_err > sys.float_info.min:
        err = max(err, round_err)
    return err, round_err


class _Adaptive:
    """One integral of integrate_adaptive_many: its running sums and panels."""

    def __init__(self, a: float, b: float, first: tuple[complex, float, float]):
        self.total, self.error, self.rounding = first
        self.panels = {(a, b): self.total}
        self.heap = [(-self.error, a, b)]

    def pick(self, tol: float) -> list:
        """Pop the panels this pass bisects: the worst ones, at most _BATCH,
        and only as many as the excess over tol/8 needs."""
        batch = []
        err_sum = 0
        for j in range(_BATCH):
            if not self.heap or (j > 0 and err_sum > self.error - tol / 8):
                break
            neg_err, x1, x2 = heapq.heappop(self.heap)
            batch.append((-neg_err, x1, x2, self.panels.pop((x1, x2), None)))
            err_sum += -neg_err
        return batch

    def refine(self, batch: list, done, tol: float) -> bool:
        """Replace each picked panel by its halves; True once the integral is finished."""
        for old_err, x1, x2, old in batch:
            mid = 0.5 * (x1 + x2)
            (s1, err1, rnd1), (s2, err2, rnd2) = next(done), next(done)
            if old is None:
                old = next(done)[0]
            self.total += s1 + s2 - old
            self.error += err1 + err2 - old_err
            self.rounding += rnd1 + rnd2
            for lo, hi, s, e in ((x1, mid, s1, err1), (mid, x2, s2, err2)):
                self.panels[(lo, hi)] = s
                heapq.heappush(self.heap, (-e, lo, hi))
        if len(self.heap) >= 2 and (self.error < tol / 8 or self.error < self.rounding):
            return True
        if not (math.isfinite(self.error) and math.isfinite(self.rounding)):
            return True
        return not (self.heap and len(self.heap) < _PANEL_LIMIT)


def integrate_adaptive_full(
    f: Callable[[np.ndarray], np.ndarray], t0: float, t1: float, tol: float = DEFAULT_QUAD_TOL
) -> tuple[complex, float]:
    """Adaptive quadrature of a (possibly complex) integrand on [t0, t1].

    ``f`` takes an array of nodes and returns the integrand there, in the
    same shape; it is called once for the first panel and once per pass.

    Returns (value, error_estimate) without enforcing the tolerance; callers
    decide what error they accept. GK21 panels under global error control:
    each pass bisects the panels with the largest errors (at most 128, and
    only as many as the excess over tol/8 needs) until the summed error is
    below tol/8 or below the rounding floor, or 10000 panels exist. This is
    the path of scipy's ``quad_vec(f, t0, t1, epsabs=tol, epsrel=0,
    norm="max")`` for a scalar integrand, operation for operation, so the
    results are bit-identical to it.
    """
    return integrate_adaptive_many(f, [(t0, t1)], tol)[0]


def integrate_adaptive_many(
    f: Callable[[np.ndarray], np.ndarray], bounds, tol: float = DEFAULT_QUAD_TOL
) -> list[tuple[complex, float]]:
    """integrate_adaptive_full on each (t0, t1) of ``bounds``, run side by side.

    Up to _INTEGRALS_PER_RUN integrals at a time share their passes: each
    pass evaluates the panels of all their unfinished integrals in shared
    calls of ``f``, so a grid of integrals costs a few array calls instead of
    a few per integral. Each result is bit-identical to its integral run
    alone.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    bounds = list(bounds)
    results = []
    for start in range(0, len(bounds), _INTEGRALS_PER_RUN):
        results += _run_side_by_side(f, bounds[start:start + _INTEGRALS_PER_RUN], tol)
    return results


def _run_side_by_side(f, bounds: list, tol: float) -> list[tuple[complex, float]]:
    """integrate_adaptive_many on one group of integrals."""
    results: list = [(complex(0.0), 0.0)] * len(bounds)
    starts = []
    for i, (t0, t1) in enumerate(bounds):
        if t0 == t1:
            continue
        a, b = float(t0), float(t1)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"invalid integration bounds a={a}, b={b}")
        starts.append((i, a, b))
    firsts = _gk21(f, [(a, b) for _, a, b in starts])
    active = [(i, _Adaptive(a, b, first)) for (i, a, b), first in zip(starts, firsts)]
    while active:
        batches = [state.pick(tol) for _, state in active]
        halves = []
        for batch in batches:
            for _, x1, x2, old in batch:
                mid = 0.5 * (x1 + x2)
                halves += [(x1, mid), (mid, x2)] + ([(x1, x2)] if old is None else [])
        done = iter(_gk21(f, halves))
        unfinished = []
        for (i, state), batch in zip(active, batches):
            if state.refine(batch, done, tol):
                results[i] = (complex(state.total), float(state.error + state.rounding))
            else:
                unfinished.append((i, state))
        active = unfinished
    return results
