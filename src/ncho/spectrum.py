"""Invariant eigenfunctions, evolution phases, and coordinate-power matrix elements.

In natural units (hbar = 1), with the invariant normalised to xi = 1, the
paper writes the invariant operator's eigenfunctions in polar coordinates as

    phi_{n,m-n}(r, th) = lam_n (i rho)^m / sqrt(m!) * r^(n-m)
                         * exp(i th (m-n) - (a - i rho rho') r^2 / (2 a rho^2))
                         * U(-m, 1-m+n, r^2/rho^2),

with lam_n^2 = 1/(pi n! (rho^2)^(1+n)) taken positive. Kummer's transformation
U(a, b, w) = w^(1-b) U(a-b+1, 2-b, w) and the polynomial case
U(-p, l+1, w) = (-1)^p p! L_p^(l)(w) (DLMF 13.2.40 and 13.6.19) turn every
label pair into one symmetric Laguerre form, the one evaluated here: with
p = min(n, m), l = |m - n| and w = r^2/rho^2,

    phi_{n,m-n} = i^m (-1)^p [pi (p+l)!/p! (rho^2)^(1+l)]^(-1/2) r^l L_p^(l)(w)
                  * exp(i th (m-n) - (a - i rho rho') w / (2 a)).

Solutions of the time-dependent problem are e^{i Theta} phi with the
evolution phase

    Theta_{n,l}(t) = (n+l) * integral_0^t (c(T) - a(T)/rho^2(T)) dT,

whose closed form each scenario family publishes in the family table
(``families``), which also marks the times it holds at; quadrature is kept
as the independent cross-check, and stands in at the other times. This
module alone forms Theta from the unit phase (m = 0 carries none), names the
route of each point (``PhaseMethod``), measures the closed form against
quadrature (``phase_crosscheck``) and forms e^{i Theta} phi. The cross-check
integrates each time once; where the closed form does not hold, its closed
column is that quadrature, so the error there is 0 by construction. A single
time's rho, hbar rho^2, unit phase and oracle columns are formed once, in a
cached slice (``_Slice``) that its phase, eigenfunctions and elements share.
Matrix elements of x^k and y^k reduce to finite sums of exactly evaluated
integrals of L_p^(l) pairs, the same form: the published L_m^(n-m)(w) is
(-w)^(m-n) n!/m! L_n^(m-n)(w) for m > n. The oracle (and ``overlap``)
recomputes them from the defining 2-D integral on one tensor rule: 48-node
Gauss-Laguerre in w = r^2/rho^2, exact to degree 95 (Golub & Welsch, Math.
Comp. 23, 221 (1969)), times a 96-point trapezoid, exact below angular degree
96. A validated element has degree n + (m + m' + k)/2 <= 9 in w and
|m' - m| + k <= 7 in angle, so only rounding is left. A bound on it certifies
the oracle; its sum of |f| is separable, as each state is a 48-point radial
column times a row e^{i l theta}.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import Scenario
from .errors import DomainError, InvalidLabel, ToleranceNotMet
from .ermakov import RhoEval, coefficient_a, named_power, rho_eval
from .specfun import integrate_adaptive_many, laguerre, laguerre_weighted_integral_exact

#: Absolute tolerance of the phase quadrature.
PHASE_QUAD_TOL = 1e-10
#: Absolute tolerance of the overlaps and of the matrix-element oracle.
ORACLE_TOL = 1e-8
#: Largest labels n, m, m' and power k the matrix-element oracle is validated for.
ORACLE_MAX_LABEL = 4
ORACLE_MAX_POWER = 3
#: Relative floor applied on top of absolute tolerances: a quadrature whose
#: error estimate is below floor*(1 + |value|) is accepted regardless of the
#: absolute target (large phases/overlaps cannot beat double rounding).
_REL_FLOOR = 1e-12

# The oracle's Gauss-Laguerre rule (weight e^{-w} on [0, inf)), frozen as the
# exact doubles of scipy.special.roots_laguerre(48). Recomputing it (numpy's
# laggauss, for one) moves the weights by up to 5e-13 relative, and with them
# the last bits of every oracle sum.
_LAGUERRE_48_NODES = np.array((
    0.029811235829960116, 0.1571079906178763, 0.3862650375764556,
    0.7175746941169723, 1.1513938340264347, 1.6881858234190472,
    2.328527006653229, 3.073110861652639, 3.9227524130464806,
    4.878393355921346, 5.941108054624559, 7.112110535890744,
    8.392762599091224, 9.784583184687323, 11.289259168009528,
    12.908657778285532, 14.644840883209707, 16.500081428964585,
    18.476882386874113, 20.577998634022208, 22.806462290521374,
    25.165612156439106, 27.659128044480532, 30.291071001008568,
    33.065930662498744, 35.988681327478936, 39.06484876419777,
    42.300590362903094, 45.70279203851147, 49.27918638283679,
    53.03849808781666, 56.99062481480448, 61.14686478614023,
    65.52020692901861, 70.12570623611319, 74.98097751891132,
    80.10685735032439, 85.52831111603416, 91.27570799366809,
    97.38666771358153, 103.90883335717626, 110.90422088497627,
    118.45642504628363, 126.68342576888583, 135.7625895778643,
    145.98643270946346, 157.915612022978, 172.99632814856324,
))
_LAGUERRE_48_WEIGHTS = np.array((
    0.0742620058280286, 0.15227194980935374, 0.1904090882639105,
    0.186633059484805, 0.15342420015757793, 0.10877969280748967,
    0.06746073860921936, 0.03688119411582121, 0.01785684426915667,
    0.007677616514497527, 0.0029357859037394585, 0.0009990655378158807,
    0.0003025980169922558, 8.153871180355359e-05, 1.9531587157280668e-05,
    4.154182945052143e-06, 7.833700380277585e-07, 1.3073947749205973e-07,
    1.9270714080170156e-08, 2.5026389371262945e-09, 2.855785508771612e-10,
    2.854622412059143e-11, 2.4910106849372316e-12, 1.8903366069715402e-13,
    1.2421626859491467e-14, 7.034231520212635e-16, 3.41454914859178e-17,
    1.412315414895773e-18, 4.944218008097539e-20, 1.4539524813679322e-21,
    3.5610683650040436e-23, 7.194055996494724e-25, 1.1855372283505853e-26,
    1.573491357075583e-28, 1.657285440919459e-30, 1.361434162716305e-32,
    8.546155813963491e-35, 4.000090532481309e-37, 1.3550199911030598e-39,
    3.201636795354865e-42, 5.035869166060801e-45, 4.962487540702896e-48,
    2.823510716120364e-51, 8.268446069503922e-55, 1.0490648478211722e-58,
    4.346574422738575e-63, 3.434736438396534e-68, 1.3190660883980075e-74,
))


def _check_labels(*labels) -> None:
    """InvalidLabel naming the first (name, value) pair whose value is not a nonnegative integer."""
    for name, v in labels:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise InvalidLabel(f"{name} must be a nonnegative integer, got {v!r}")


@dataclass(frozen=True)
class StateLabel:
    """Radial/angular quantum numbers (n, m); angular momentum l = m - n."""

    n: int
    m: int

    def __post_init__(self) -> None:
        _check_labels(("n", self.n), ("m", self.m))

    @property
    def l(self) -> int:  # noqa: E743 - established symbol
        return self.m - self.n


class PhaseMethod(enum.Enum):
    CLOSED_FORM = "ClosedForm"
    QUADRATURE = "Quadrature"


class Coordinate(enum.Enum):
    X = "x"
    Y = "y"


class PhaseResult(NamedTuple):
    """Evolution phase Theta_{n,l} at one time; complex beyond the reality window."""

    value: complex
    method: PhaseMethod


# --------------------------------------------------------------------------
# Evolution phases
# --------------------------------------------------------------------------

_UNIT = StateLabel(0, 1)  # Theta of m = 1 is the unit phase


def _unit_phase_quadrature(scenario: Scenario, t: np.ndarray) -> np.ndarray:
    """integral_0^t (c - a/rho^2) dT at each time by adaptive quadrature, complex-valued.

    The integrals run side by side (integrate_adaptive_many); a time whose
    error estimate misses the tolerance raises ToleranceNotMet, and so does a
    rate that is not finite at t = 0, where every integral starts.
    """
    if not np.isfinite(scenario.phase_rate(0.0)):
        raise ToleranceNotMet("phase rate c - a/rho^2 is not finite at t=0, where quadrature starts")
    times = t.tolist()
    results = integrate_adaptive_many(
        scenario.phase_rate, [(0.0, x) for x in times], PHASE_QUAD_TOL
    )
    for x, (value, err) in zip(times, results):
        if err > max(PHASE_QUAD_TOL, _REL_FLOOR * (1.0 + abs(value))):
            raise ToleranceNotMet(f"phase quadrature error {err:.3e} exceeds tolerance at t={x:g}")
    return np.array([value for value, _ in results], dtype=complex)


def phase_grid(scenario: Scenario, s: StateLabel, t, quadrature=None) -> tuple:
    """Evolution phase on a time grid: (Theta values, method column).

    Theta = m * (unit phase), nothing evaluated for m = 0: the closed form
    where it is validated, else quadrature, integrated here or read from
    ``quadrature`` (the unit phase by quadrature at every time).
    """
    t = np.asarray(t, dtype=float)
    unit, fallback = np.zeros(t.shape, dtype=complex), np.zeros(t.shape, dtype=bool)
    if s.m:
        unit, validated = scenario.unit_phase(t)
        fallback = ~validated
        if fallback.any():
            unit[fallback] = (
                _unit_phase_quadrature(scenario, t[fallback])
                if quadrature is None else quadrature[fallback]
            )
    methods = np.where(fallback, PhaseMethod.QUADRATURE.value, PhaseMethod.CLOSED_FORM.value)
    return s.m * unit, methods


def phase_crosscheck(scenario: Scenario, s: StateLabel, t) -> tuple:
    """Both phase routes on a time grid: (closed, method column, quadrature, error).

    Each time is integrated once, and phase_grid takes that quadrature where
    the closed form does not hold, so the error there is 0 by construction.
    The error of each point is |closed - quadrature| / max(1, |closed|,
    |quadrature|), a list of floats formed with Python's abs: numpy's
    complex abs rounds differently in the last bit.
    """
    t = np.asarray(t, dtype=float)
    unit = _unit_phase_quadrature(scenario, t) if s.m else np.zeros(t.shape, dtype=complex)
    closed, methods = phase_grid(scenario, s, t, quadrature=unit)
    quad = s.m * unit
    err = [abs(c - q) / max(1.0, abs(c), abs(q)) for c, q in zip(closed.tolist(), quad.tolist())]
    return closed, methods, quad, err


def phase_quadrature(scenario: Scenario, s: StateLabel, t: float) -> PhaseResult:
    """Evolution phase by adaptive quadrature of (n+l) * (c - a/rho^2); none for m = 0."""
    theta = s.m * _unit_phase_quadrature(scenario, np.array([float(t)])) if s.m else [0j]
    return PhaseResult(complex(theta[0]), PhaseMethod.QUADRATURE)


def phase_closed_form(scenario: Scenario, s: StateLabel, t: float) -> PhaseResult:
    """Evolution phase from the family's closed form, else by quadrature.

    Where no closed form is validated (hypergeometric argument outside
    |z| < 1 or its series unsettled near |z| = 1, zero frequency, or
    k != 2) the result comes from quadrature and says so in ``method``.
    m = 0 evaluates nothing; other m scale the unit phase of the time's slice.
    """
    if not s.m:
        return PhaseResult(0j, PhaseMethod.CLOSED_FORM)
    unit = _slice(scenario, float(t)).unit
    return PhaseResult(s.m * unit.value, unit.method)


# --------------------------------------------------------------------------
# Eigenfunctions
# --------------------------------------------------------------------------

def _as_float(x, name: str, labels: str) -> float:
    """float(x) of an exact int or Fraction; an overflow names the quantity and its labels."""
    try:
        return float(x)
    except OverflowError as exc:
        raise OverflowError(f"{name} overflows a float for {labels}") from exc


# i^k as exact Gaussian units, indexed by k mod 4.
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def _phi(sl: _Slice, gauss: complex, s: StateLabel, r, angle) -> np.ndarray:
    """phi_{n,m-n} at the slice's time in the symmetric Laguerre form, with its
    Gaussian written exp(-gauss * w / 2), w = r^2/(hbar rho^2).

    ``r`` and ``angle`` are arrays (or scalars) that broadcast together. The
    eigenfunction has gauss = 1 - i rho rho'/a; the tensor quadrature passes
    gauss = 0 because its Gauss-Laguerre weight e^{-w} is |Gaussian|^2. The
    normalisation's only scale is (hbar rho^2)^(1+l): a DomainError names hbar
    rho^2 where it underflows to 0 (it decays as e^{-Gamma t} on the
    exponential families), and an overflow names that power, the label ratio
    or L_p^(l)(w).
    """
    p, l = min(s.n, s.m), abs(s.l)
    scale = named_power(sl.hr2, 1 + l, f"rho(t)^{2 + 2 * l}", sl.t)
    if scale == 0.0:  # before numpy warns on r^2/0
        raise DomainError(
            f"inputs out of numerical range: hbar rho^2 = {sl.hr2:.3g} at t={sl.t:g} "
            f"underflows the normalisation of n = {s.n}, m = {s.m}"
        )
    ratio = _as_float(
        math.perm(p + l, l), "max(n, m)!/min(n, m)!", f"n={s.n}, m={s.m} at t={sl.t:g}"
    )
    norm = 1.0 / math.sqrt(math.pi * ratio * scale)
    w = r**2 / sl.hr2
    polynomial = laguerre(p, l, w)
    if not np.isfinite(polynomial).all():  # inf - inf in the recurrence at large p and w
        raise OverflowError(f"L_{p}^({l})(w) overflows a float for n={s.n}, m={s.m} at t={sl.t:g}")
    radial = _I_POW[(s.m + 2 * p) % 4] * norm * (r**l * polynomial)  # i^m (-1)^p
    return radial * np.exp(1j * s.l * angle - gauss * w / 2.0)


def eigenfunction(scenario: Scenario, t: float, s: StateLabel, r, angle) -> np.ndarray:
    """Invariant eigenfunction phi_{n,m-n} on radii (>= 0) and angles.

    ``r`` and ``angle`` are scalars or arrays that broadcast together, e.g.
    ``r[:, None]`` against ``angle[None, :]`` for a polar grid.
    """
    sl = _slice(scenario, float(t))
    a, _ = coefficient_a(scenario, t)
    if a == 0.0:
        raise DomainError(f"inputs out of numerical range: a(t) underflows to 0 at t={t:g}")
    return _phi(sl, 1.0 - 1j * sl.st.rho * sl.st.rho_dot / a, s, r, angle)


def hamiltonian_eigenfunction(scenario: Scenario, t: float, s: StateLabel, r, angle) -> np.ndarray:
    """Solution of the time-dependent problem, e^{i Theta_{n,m-n}} phi_{n,m-n},
    on radii and angles that broadcast together."""
    theta = phase_closed_form(scenario, s, t).value
    return cmath.exp(1j * theta) * eigenfunction(scenario, t, s, r, angle)


# --------------------------------------------------------------------------
# Time slices: rho, the unit phase and the tensor rule's columns at one time
# --------------------------------------------------------------------------

class _Slice:
    """What spectrum forms at one (scenario, t), once and on first use: rho, hbar rho^2,
    the unit phase with its route, and the tensor rule's (48, 1) columns: each state's
    radial one (times its angular row, phi on the grid) and each (rho^2 w)^(k/2)."""

    def __init__(self, scenario: Scenario, t: float):
        self.scenario, self.t = scenario, t
        self._radial, self._powers = {}, {}  # keyed by StateLabel and by k

    @cached_property
    def st(self) -> RhoEval:
        return rho_eval(self.scenario, self.t)

    @cached_property
    def hr2(self) -> float:
        return self.st.power(2)

    @cached_property
    def unit(self) -> PhaseResult:
        """The unit phase and its route, as on a one-point phase_grid."""
        theta, methods = phase_grid(self.scenario, _UNIT, [self.t])
        return PhaseResult(complex(theta[0]), PhaseMethod(methods[0]))

    def radial(self, s: StateLabel) -> np.ndarray:
        """phi without its Gaussian at angle 0 on the radial nodes, a (48, 1) column."""
        if s not in self._radial:
            r = np.sqrt(self.hr2 * _LAGUERRE_48_NODES)[:, None]
            self._radial[s] = _phi(self, 0.0, s, r, 0.0)
        return self._radial[s]

    def power(self, k_pow: int) -> np.ndarray:
        """(rho^2 w)^(k/2) on the radial nodes, a (48, 1) column."""
        if k_pow not in self._powers:
            self._powers[k_pow] = (self.hr2 * _LAGUERRE_48_NODES[:, None]) ** (k_pow / 2.0)
        return self._powers[k_pow]


@lru_cache(maxsize=128)
def _slice(scenario: Scenario, t: float) -> _Slice:
    return _Slice(scenario, t)


# --------------------------------------------------------------------------
# Tensor-grid quadrature (overlaps and the matrix-element oracle)
# --------------------------------------------------------------------------

#: The oracle's angular nodes, the same for every grid.
_THETA = np.arange(96) * (2.0 * math.pi / 96)


def _angular_row(l: int) -> np.ndarray:  # noqa: E741 - established symbol
    """e^{i l theta} on the angular nodes: the angular factor of every state with this l."""
    return np.exp(1j * l * _THETA)


@lru_cache(maxsize=16)
def _angular_tile(l: int) -> np.ndarray:  # noqa: E741 - established symbol
    """_angular_row(l) on every radial node, a (48, 96) array: a (48, 1) column times
    it runs as one loop, where against the (96,) row numpy loops row by row."""
    return np.tile(_angular_row(l), (_LAGUERRE_48_NODES.size, 1))


@lru_cache(maxsize=128)
def _trig_row(k_pow: int, coordinate: Coordinate | None) -> tuple[np.ndarray, float]:
    """trig^k on the angular nodes, each entry twice for a float view, and sum_j |trig_j^k|."""
    trig = (np.sin(_THETA) if coordinate is Coordinate.Y else np.cos(_THETA)) ** k_pow
    return np.repeat(trig, 2), float(np.abs(trig).sum())


# C * eps: the rounding of a tensor integral is at most C eps sum_i wt_i sum_j
# |f_ij|, times the integral's scale factors. Each f_ij meets at most 95
# additions in its angular sum and 48 more in the radial dot product:
# gamma_144 ~ 144 eps in any order (Higham, Accuracy and Stability of
# Numerical Algorithms, sec. 4.2). C = 256 leaves 112 eps for the rounding of
# f_ij itself (both normalisations, Laguerre recurrences of degree <= 4,
# complex exponentials and products, the power and trigonometric factors, the
# final scalings). As |e^{i l theta}| = 1, that sum is exactly (sum_i wt_i |R1_i|
# |R2_i| (rho^2 w_i)^(k/2)) * sum_j |trig_j^k|, and is formed so. Measured worst
# |oracle - closed| / (eps * sum * scale) on the shipped scenarios at t = 0, 0.3
# and 1.2: 32 over the validated labels, 67 over n, m, m' <= 12 and k <= 10.
_C_EPS = 256 * 2.0**-52


def _tensor_integral(
    sl: _Slice, s1: StateLabel, s2: StateLabel, k_pow: int, coordinate: Coordinate | None,
) -> tuple[complex, float]:
    """(rho^2 / 2) * sum of conj(phi1) phi2 r^k trig^k over the tensor rule, formed on
    the full grid in the 2-D operations' order to keep their bits, and a rounding bound."""
    r1, r2, power = sl.radial(s1), sl.radial(s2), sl.power(k_pow)
    trig, trig_abs = _trig_row(k_pow, coordinate)
    # conj(r1 row1) (r2 row2), formed in place. numpy's complex multiply need not
    # commute bit for bit (its AVX-512 loop rounds A*r and r*A differently), so
    # every product keeps the operand order of that expression.
    f = r1 * _angular_tile(s1.l)
    np.conjugate(f, out=f)
    f *= r2 * _angular_tile(s2.l)
    if k_pow:  # real factors scale re and im alike, so through the float view
        scaled = f.view(float)
        scaled *= power
        scaled *= trig
    total = _LAGUERRE_48_WEIGHTS @ f.sum(axis=1)
    magnitude = (_LAGUERRE_48_WEIGHTS @ (np.abs(r1) * np.abs(r2) * power)[:, 0]) * trig_abs
    value = complex(total * (sl.hr2 / 2.0) * (2.0 * math.pi / _THETA.size))
    bound = _C_EPS * magnitude * (sl.hr2 / 2.0) * (2.0 * math.pi / _THETA.size)
    return value, bound


def _certified_integral(
    sl: _Slice, s1: StateLabel, s2: StateLabel, k_pow: int, coordinate: Coordinate | None,
) -> complex:
    """The tensor integral, its rounding bound certified against ORACLE_TOL
    (a non-finite integrand gives a non-finite bound, which fails)."""
    value, bound = _tensor_integral(sl, s1, s2, k_pow, coordinate)
    if not bound <= max(ORACLE_TOL, _REL_FLOOR * (1.0 + abs(value))):
        raise ToleranceNotMet(f"tensor quadrature rounding bound {bound:.3e} exceeds tolerance")
    return value


def overlap(scenario: Scenario, t: float, s1: StateLabel, s2: StateLabel) -> complex:
    """2-D quadrature of conj(phi_s1) phi_s2 r dr dangle (delta on both labels)."""
    return _certified_integral(_slice(scenario, float(t)), s1, s2, 0, None)


# --------------------------------------------------------------------------
# Matrix elements of coordinate powers
# --------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _element_coefficient(n: int, m: int, m_prime: int, k_pow: int) -> tuple[float, int] | None:
    """The exact, time-independent part of an element: (coefficient, r index).

    None under the selection rule, where no term survives the deltas.
    """
    diff = m_prime - m
    if abs(diff) > k_pow or (diff + k_pow) % 2:
        return None
    r_idx = (diff + k_pow) // 2
    # The published pair L_m^(n-m) L_m'^(n-m') in the eigenstates' form L_p^(l):
    # L_m^(n-m)(w) = (-w)^(m-n) n!/m! L_n^(m-n)(w) for m > n (Szego, Orthogonal
    # Polynomials, sec. 5.2), so the weight's power is (l + l' + k)/2 >= 0.
    l1, l2 = abs(m - n), abs(m_prime - n)
    integral = laguerre_weighted_integral_exact(
        (l1 + l2 + k_pow) // 2, min(n, m), l1, min(n, m_prime), l2
    )
    for label in (m, m_prime):
        if label > n:
            integral *= Fraction((-1) ** (label - n) * math.factorial(n), math.factorial(label))
    # pi/2^k * lam_n^2 rho^(2n+k+2) collapses to rho^k / (2^k n!); everything
    # else is exact rational except sqrt(m! m'!) = lo! sqrt(hi!/lo!), whose
    # lo! joins the rational, so only the root of an exact integer ratio of
    # size <= hi^k is rounded (1 on the diagonal, keeping its values exact).
    base = Fraction(math.comb(k_pow, r_idx), 2**k_pow) * integral / math.factorial(n)
    labels = f"n={n}, m={m}, m'={m_prime}, k={k_pow}"  # for an overflow's message
    lo, hi = sorted((m, m_prime))
    coeff = _as_float(base * math.factorial(lo), f"the coefficient of rho(t)^{k_pow}", labels)
    ratio = _as_float(math.perm(hi, hi - lo), "max(m, m')!/min(m, m')!", labels)
    return coeff * math.sqrt(ratio), r_idx


def _matrix_element_sum(
    scenario: Scenario, t: float, n: int, m: int, m_prime: int, k_pow: int,
    x_units: bool, invariant_basis: bool,
) -> complex:
    _check_labels(("k_pow", k_pow), ("n", n), ("m", m), ("m'", m_prime))
    exact = _element_coefficient(n, m, m_prime, k_pow)
    if exact is None:
        return 0.0 + 0.0j
    coeff, r_idx = exact
    sl = _slice(scenario, float(t))
    value = complex(coeff * sl.st.power(k_pow))
    if x_units:
        sign = -1.0 if (k_pow + r_idx) % 2 else 1.0
        value *= sign * _I_POW[-k_pow % 4]  # i^(-k)
    if m_prime != m and not invariant_basis:
        value *= cmath.exp(1j * (m_prime - m) * sl.unit.value)
    return value


def matrix_element_x_pow(
    scenario: Scenario, t: float, n: int, m: int, m_prime: int, k_pow: int,
    invariant_basis: bool = False,
) -> complex:
    """<n,m-n| x^k |n,m'-n> in the time-dependent eigenbasis.

    With invariant_basis=True the inter-level phase factors are dropped,
    giving the element between invariant eigenstates instead.
    """
    return _matrix_element_sum(scenario, t, n, m, m_prime, k_pow, True, invariant_basis)


def matrix_element_y_pow(
    scenario: Scenario, t: float, n: int, m: int, m_prime: int, k_pow: int,
    invariant_basis: bool = False,
) -> complex:
    """<n,m-n| y^k |n,m'-n>; as for x^k but without the alternating unit factor."""
    return _matrix_element_sum(scenario, t, n, m, m_prime, k_pow, False, invariant_basis)


def oracle_validated(n: int, m: int, m_prime: int, k_pow: int) -> bool:
    """Whether matrix_element_oracle is validated for these labels: n, m,
    m' <= ORACLE_MAX_LABEL and power <= ORACLE_MAX_POWER."""
    return max(n, m, m_prime) <= ORACLE_MAX_LABEL and k_pow <= ORACLE_MAX_POWER


@lru_cache(maxsize=128)
def _states(n: int, m: int, m_prime: int) -> tuple[StateLabel, StateLabel]:
    """The oracle's two states, made once per label triple its caller has checked."""
    return StateLabel(n, m), StateLabel(n, m_prime)


def matrix_element_oracle(
    scenario: Scenario, t: float, n: int, m: int, m_prime: int, k_pow: int,
    coordinate: Coordinate | str,
) -> complex:
    """Brute-force oracle: 2-D quadrature of the defining matrix-element integral."""
    _check_labels(("k_pow", k_pow), ("n", n), ("m", m), ("m'", m_prime))
    if not oracle_validated(n, m, m_prime, k_pow):
        raise InvalidLabel(
            f"oracle quadrature validated for n, m, m' <= {ORACLE_MAX_LABEL} "
            f"and power <= {ORACLE_MAX_POWER} only"
        )
    sl = _slice(scenario, float(t))
    value = _certified_integral(sl, *_states(n, m, m_prime), k_pow, Coordinate(coordinate))
    if m_prime != m:
        value *= cmath.exp(1j * (m_prime - m) * sl.unit.value)
    return value
