"""Invariant eigenfunctions, evolution phases, and coordinate-power matrix elements.

The invariant operator's eigenfunctions in polar coordinates are

    phi_{n,m-n}(r, th) = lam_n (i sqrt(hbar) rho)^m / sqrt(m!) * r^(n-m)
                         * exp(i th (m-n) - (a - i rho rho') r^2 / (2 a hbar rho^2))
                         * U(-m, 1-m+n, r^2/(hbar rho^2)),

with lam_n^2 = 1/(pi n! (hbar rho^2)^(1+n)) taken positive. Solutions of the
time-dependent problem are e^{i Theta} phi with the evolution phase

    Theta_{n,l}(t) = (n+l) * integral_0^t (c(T) - a(T)/rho^2(T)) dT,

whose closed form each scenario family publishes in the family table
(``families``); quadrature is kept as the independent cross-check, and
stands in where no closed form is validated.
Matrix elements of x^k and y^k reduce to finite sums of exactly evaluated
Laguerre-weighted integrals; a tensor-grid quadrature oracle recomputes them
from the defining 2-D integral.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import roots_laguerre

from .config import Scenario
from .errors import DomainError, InvalidLabel, ToleranceNotMet
from .ermakov import coefficient_a, rho_eval
from .hamiltonian import c_complex
from .specfun import (
    integrate_adaptive_full,
    laguerre,
    laguerre_weighted_integral_exact,
    tricomi_u_poly,
)

#: Absolute tolerance of the phase quadrature.
PHASE_QUAD_TOL = 1e-10
#: Absolute tolerance of overlaps; default of the matrix-element oracle.
ORACLE_TOL = 1e-8
#: Relative floor applied on top of absolute tolerances: a quadrature whose
#: error estimate is below floor*(1 + |value|) is accepted regardless of the
#: absolute target (large phases/overlaps cannot beat double rounding).
_REL_FLOOR = 1e-12

_ORACLE_RES = ((32, 64), (48, 96))  # (radial nodes, angular nodes), low/high


@dataclass(frozen=True)
class StateLabel:
    """Radial/angular quantum numbers (n, m); angular momentum l = m - n."""

    n: int
    m: int

    def __post_init__(self) -> None:
        for name in ("n", "m"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InvalidLabel(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def l(self) -> int:  # noqa: E743 - established symbol
        return self.m - self.n


@dataclass(frozen=True)
class PolarPoint:
    """Point in the polar plane; `angle` is the polar angle (not a deformation parameter)."""

    r: float
    angle: float

    def __post_init__(self) -> None:
        if not (self.r >= 0.0) or not math.isfinite(self.r):
            raise DomainError(f"radius must be finite and >= 0, got {self.r!r}")


class PhaseMethod(enum.Enum):
    CLOSED_FORM = "ClosedForm"
    QUADRATURE = "Quadrature"


class Coordinate(enum.Enum):
    X = "x"
    Y = "y"


@dataclass(frozen=True)
class PhaseResult:
    """Evolution phase Theta_{n,l}(t); complex beyond the reality window."""

    value: complex
    method: PhaseMethod
    t: float
    note: str | None = None


# --------------------------------------------------------------------------
# Evolution phases
# --------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _unit_phase_quadrature(scenario: Scenario, t: float) -> complex:
    """integral_0^t (c - a/rho^2) dT by adaptive quadrature, complex-valued."""
    if t == 0.0:
        return 0.0j

    def integrand(ts: float) -> complex:
        a, _ = coefficient_a(scenario, ts)
        rho = rho_eval(scenario, ts).rho
        return c_complex(scenario, ts) - a / rho**2

    value, err = integrate_adaptive_full(integrand, 0.0, t, PHASE_QUAD_TOL)
    if err > max(PHASE_QUAD_TOL, _REL_FLOOR * (1.0 + abs(value))):
        raise ToleranceNotMet(
            f"phase quadrature error {err:.3e} exceeds tolerance at t={t:g}",
            achieved=err,
        )
    return complex(value)


def _unit_phase(scenario: Scenario, t: float) -> tuple[complex, PhaseMethod]:
    """The unit phase and its route: closed form where validated, else quadrature.

    Uncached on purpose: a closed form costs about as much as hashing the
    scenario for a cache lookup. The quadrature route caches itself.
    """
    unit = scenario.family.unit_phase(t)
    if unit is None:
        return _unit_phase_quadrature(scenario, t), PhaseMethod.QUADRATURE
    return unit, PhaseMethod.CLOSED_FORM


def phase_quadrature(scenario: Scenario, s: StateLabel, t: float) -> PhaseResult:
    """Evolution phase by adaptive quadrature of (n+l) * (c - a/rho^2)."""
    if s.m == 0:
        return PhaseResult(0.0j, PhaseMethod.QUADRATURE, t)
    unit = _unit_phase_quadrature(scenario, float(t))
    return PhaseResult(s.m * unit, PhaseMethod.QUADRATURE, t)


def phase_closed_form(scenario: Scenario, s: StateLabel, t: float) -> PhaseResult:
    """Evolution phase from the family's closed form, else by quadrature.

    Where no closed form is validated (hypergeometric argument outside
    |z| < 1, or k != 2) the result comes from quadrature, says so in
    ``method`` and carries an explanatory note.
    """
    if s.m == 0:
        return PhaseResult(0.0j, PhaseMethod.CLOSED_FORM, t)
    unit, method = _unit_phase(scenario, float(t))
    note = None
    if method is PhaseMethod.QUADRATURE:
        note = "no closed form validated here (|z| >= 1 or k != 2); quadrature fallback"
    return PhaseResult(s.m * unit, method, t, note)


# --------------------------------------------------------------------------
# Eigenfunctions
# --------------------------------------------------------------------------

def _norm_lambda(n: int, hr2: float) -> float:
    return 1.0 / math.sqrt(math.pi * math.factorial(n) * hr2 ** (1 + n))


def _radial_polynomial(n: int, m: int, hr2: float, r, w):
    """r^(n-m) * U(-m, 1-m+n, w), evaluated in a form regular at r = 0.

    For n < m the apparent r^(n-m) singularity cancels against the
    polynomial's leading zeros; the reduction
    r^(n-m) U(-m, 1-m+n, w) = (-1)^n n! (w/hr2)^((m-n)/2) hr2^((n-m)/2) L_n^(m-n)(w)
    evaluates the regular factorization directly (w = r^2/hr2).
    """
    if n >= m:
        return r ** (n - m) * tricomi_u_poly(m, 1 - m + n, w)
    scale = (-1.0) ** n * math.factorial(n) * hr2 ** ((n - m) / 2.0)
    return scale * w ** ((m - n) / 2.0) * laguerre(n, m - n, w)


def _phi(hbar: float, rho: float, gauss: complex, s: StateLabel, r, angle) -> np.ndarray:
    """phi_{n,m-n} with its Gaussian written exp(-gauss * w / 2), w = r^2/(hbar rho^2).

    ``r`` and ``angle`` are arrays (or scalars) that broadcast together. The
    eigenfunction has gauss = 1 - i rho rho'/a; the tensor quadrature passes
    gauss = 0 because its Gauss-Laguerre weight e^{-w} is |Gaussian|^2.
    """
    hr2 = hbar * rho**2
    # Normalise first: rho = 0 raises ZeroDivisionError before numpy warns on r^2/0.
    pref = (
        _norm_lambda(s.n, hr2)
        * (1j * math.sqrt(hbar) * rho) ** s.m
        / math.sqrt(math.factorial(s.m))
    )
    w = r**2 / hr2
    radial = pref * _radial_polynomial(s.n, s.m, hr2, r, w)
    return radial * np.exp(1j * (s.m - s.n) * angle - gauss * w / 2.0)


def eigenfunction_grid(scenario: Scenario, t: float, s: StateLabel, r, angle) -> np.ndarray:
    """Invariant eigenfunction phi_{n,m-n} on arrays of radii (>= 0) and angles.

    ``r`` and ``angle`` broadcast together, e.g. ``r[:, None]`` against
    ``angle[None, :]`` for a polar grid.
    """
    st = rho_eval(scenario, t)
    a, _ = coefficient_a(scenario, t)
    return _phi(scenario.hbar, st.rho, 1.0 - 1j * st.rho * st.rho_dot / a, s, r, angle)


def eigenfunction(scenario: Scenario, t: float, s: StateLabel, pt: PolarPoint) -> complex:
    """Invariant eigenfunction phi_{n,m-n} at a polar point."""
    return complex(eigenfunction_grid(scenario, t, s, pt.r, pt.angle))


def hamiltonian_eigenfunction(
    scenario: Scenario, t: float, s: StateLabel, pt: PolarPoint
) -> complex:
    """Solution of the time-dependent problem: e^{i Theta_{n,m-n}} phi_{n,m-n}."""
    theta = phase_closed_form(scenario, s, t).value
    return cmath.exp(1j * theta) * eigenfunction(scenario, t, s, pt)


# --------------------------------------------------------------------------
# Tensor-grid quadrature (overlaps and the matrix-element oracle)
# --------------------------------------------------------------------------

class _QuadGrid:
    """Cached tensor evaluation state for one (scenario, t).

    Radial direction: Gauss-Laguerre in w = r^2/(hbar rho^2) (the e^{-w}
    weight is exactly the Gaussian left over by phi* phi'); angular
    direction: uniform trapezoid, exact for the trigonometric content.
    """

    def __init__(self, scenario: Scenario, t: float):
        self.hbar = scenario.hbar
        self.rho = rho_eval(scenario, t).rho
        self.hr2 = self.hbar * self.rho**2
        self._nodes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._stripped: dict[tuple[int, int, int], np.ndarray] = {}

    def nodes(self, res: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if res not in self._nodes:
            n_rad, n_ang = _ORACLE_RES[res]
            w, wt = roots_laguerre(n_rad)
            theta = np.arange(n_ang) * (2.0 * math.pi / n_ang)
            self._nodes[res] = (w, wt, theta)
        return self._nodes[res]

    def stripped(self, s: StateLabel, res: int) -> np.ndarray:
        """phi without its Gaussian factor on the (w, theta) grid."""
        key = (s.n, s.m, res)
        if key not in self._stripped:
            w, _, theta = self.nodes(res)
            r = np.sqrt(self.hr2 * w)
            self._stripped[key] = _phi(self.hbar, self.rho, 0.0, s, r[:, None], theta[None, :])
        return self._stripped[key]


@lru_cache(maxsize=128)
def _quad_grid(scenario: Scenario, t: float) -> _QuadGrid:
    return _QuadGrid(scenario, t)


def _tensor_integral(
    grid: _QuadGrid, s1: StateLabel, s2: StateLabel, k_pow: int,
    coordinate: Coordinate | None, res: int,
) -> complex:
    """(hbar rho^2 / 2) * sum of conj(phi1) phi2 r^k trig^k over the tensor rule."""
    w, wt, theta = grid.nodes(res)
    f = np.conjugate(grid.stripped(s1, res)) * grid.stripped(s2, res)
    if k_pow:
        trig = np.cos(theta) if coordinate is Coordinate.X else np.sin(theta)
        f = f * (grid.hr2 * w[:, None]) ** (k_pow / 2.0) * trig[None, :] ** k_pow
    total = wt @ f.sum(axis=1)
    return complex(total * (grid.hr2 / 2.0) * (2.0 * math.pi / theta.size))


def _certified_integral(
    scenario: Scenario, t: float, s1: StateLabel, s2: StateLabel, k_pow: int,
    coordinate: Coordinate | None, tol: float,
) -> complex:
    """The high-resolution tensor integral, certified against the low one to tol."""
    grid = _quad_grid(scenario, float(t))
    lo = _tensor_integral(grid, s1, s2, k_pow, coordinate, 0)
    hi = _tensor_integral(grid, s1, s2, k_pow, coordinate, 1)
    err = abs(hi - lo)
    if err > max(tol, _REL_FLOOR * (1.0 + abs(hi))):
        raise ToleranceNotMet(
            f"tensor quadrature disagreement {err:.3e} between resolutions",
            achieved=err,
        )
    return hi


def overlap(scenario: Scenario, t: float, s1: StateLabel, s2: StateLabel) -> complex:
    """2-D quadrature of conj(phi_s1) phi_s2 r dr dangle (delta on both labels)."""
    return _certified_integral(scenario, t, s1, s2, 0, None, ORACLE_TOL)


# --------------------------------------------------------------------------
# Matrix elements of coordinate powers
# --------------------------------------------------------------------------

def _element_labels(n: int, m: int, m_prime: int, k_pow: int) -> tuple[StateLabel, StateLabel]:
    """The bra and ket labels of <n,m-n| coord^k |n,m'-n>, with k_pow validated."""
    if not isinstance(k_pow, int) or isinstance(k_pow, bool) or k_pow < 0:
        raise InvalidLabel(f"k_pow must be a nonnegative integer, got {k_pow!r}")
    return StateLabel(n, m), StateLabel(n, m_prime)


# i^(-k) as exact Gaussian units, indexed by k mod 4.
_INV_I_POW = (1 + 0j, -1j, -1 + 0j, 1j)


def _matrix_element_sum(
    scenario: Scenario, t: float, n: int, m: int, m_prime: int, k_pow: int,
    x_units: bool, invariant_basis: bool,
) -> complex:
    _element_labels(n, m, m_prime, k_pow)
    diff = m_prime - m
    if abs(diff) > k_pow or (diff + k_pow) % 2:
        return 0.0 + 0.0j  # selection rule: no term survives the deltas
    r_idx = (diff + k_pow) // 2
    integral = laguerre_weighted_integral_exact(
        n - m - r_idx + k_pow, m, n - m, m_prime, n - m_prime
    )
    # pi/2^k * lam_n^2 (sqrt(hbar) rho)^(2n+k+2) collapses to
    # hbar^(k/2) rho^k / (2^k n!); everything else is exact rational except
    # sqrt(m! m'!), which is extracted exactly when it is a perfect square
    # (in particular on the diagonal, keeping published diagonal values exact).
    base = Fraction(math.comb(k_pow, r_idx), 2**k_pow) * integral / math.factorial(n)
    sq_arg = math.factorial(m) * math.factorial(m_prime)
    root = math.isqrt(sq_arg)
    if root * root == sq_arg:
        coeff = float(base * root)
    else:
        coeff = float(base) * math.sqrt(sq_arg)
    st = rho_eval(scenario, float(t))
    value = complex(coeff * scenario.hbar ** (k_pow / 2.0) * st.rho**k_pow)
    if x_units:
        sign = -1.0 if (k_pow + r_idx) % 2 else 1.0
        value *= sign * _INV_I_POW[k_pow % 4]
    if diff and not invariant_basis:
        value *= cmath.exp(1j * diff * _unit_phase(scenario, float(t))[0])
    return value


def matrix_element_x_pow(
    scenario: Scenario, t: float, n: int, m: int, m_prime: int, k_pow: int,
    invariant_basis: bool = False,
) -> complex:
    """<n,m-n| x^k |n,m'-n> in the time-dependent eigenbasis.

    With invariant_basis=True the inter-level phase factors are dropped,
    giving the element between invariant eigenstates instead.
    """
    return _matrix_element_sum(
        scenario, t, n, m, m_prime, k_pow, x_units=True, invariant_basis=invariant_basis
    )


def matrix_element_y_pow(
    scenario: Scenario, t: float, n: int, m: int, m_prime: int, k_pow: int,
    invariant_basis: bool = False,
) -> complex:
    """<n,m-n| y^k |n,m'-n>; as for x^k but without the alternating unit factor."""
    return _matrix_element_sum(
        scenario, t, n, m, m_prime, k_pow, x_units=False, invariant_basis=invariant_basis
    )


def matrix_element_oracle(
    scenario: Scenario, t: float, n: int, m: int, m_prime: int, k_pow: int,
    coordinate: Coordinate | str, tol: float = ORACLE_TOL,
) -> complex:
    """Brute-force oracle: 2-D quadrature of the defining matrix-element integral."""
    s1, s2 = _element_labels(n, m, m_prime, k_pow)
    if n > 4 or m > 4 or m_prime > 4 or k_pow > 3:
        raise InvalidLabel(
            "oracle quadrature validated for n, m, m' <= 4 and power <= 3 only"
        )
    value = _certified_integral(scenario, t, s1, s2, k_pow, Coordinate(coordinate), tol)
    diff = m_prime - m
    if diff:
        value *= cmath.exp(1j * diff * _unit_phase(scenario, float(t))[0])
    return value
