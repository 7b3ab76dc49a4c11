"""The family table: every closed form that depends on the scenario kind.

The paper's five setups each pair a damping factor f(t) and a frequency
omega(t) with one analytic solution of the auxiliary (Ermakov-Pinney)
equation. Each pairing is one class, and a scenario is an instance of it,
bound to the constants and checked by ``config.build_scenario``:

============  ==========  ============================  =======================
class         damping     frequency                     scale-function family
============  ==========  ============================  =======================
``SetIa``     f = 1       omega0*exp(-Gamma*t/2)        exponential
``SetIb``     exp(-G t)   omega0 (constant)             exponential
``SetIc``     exp(-G t)   omega0*exp(-Gamma*t/2)        exponential
``SetIIk``    f = 1       omega0/(Gamma*t + chi)        rational, exponent k
``SetIII``    f = 1       omega0/(Gamma*t + chi)        linear ("elementary")
============  ==========  ============================  =======================

Every class names its ``kind`` and the optional scenario keys it reads
(``OPTIONAL_KEYS``), and answers damping(t), frequency(t), check() (the
domain conditions), constraint() as (LHS, RHS, term magnitudes) of the
relation named CONSTRAINT, rho(t) as (rho, rho', rho''), a(t) as (a, a'),
b(t), c_terms(t) as the two radicands (rad1, rad2) of c = sqrt(rad1) +
omega(t) sqrt(rad2), horizon() (None: unbounded, 0.0: empty),
ground_energy(t), the published <E_00>(t) (``energy`` adds the labels and
the coupling), _change(t), which makes Heisenberg's motion harmonic, and
unit_phase(t), the integral of c - a/rho^2, as (value, validated): the flag
marks the times the published form holds at, and value is nan at the others.
The SetIIk energy is the published k = 2 form written for every k; no phase
form is published for k != 2. The SetIa series holds only while |z| < 1 and
where it settles, and not at zero frequency. The base class assembles c(t),
phase_rate(t) = c - a/rho^2, propagator(t), constraint_residual and
summary() from those.

Every time-dependent method takes a float, an array of times or their grid record
(``Family.grid``) and answers in the shape of the times (Python scalars for a
float). There is one path: ``Family._on_grid`` runs each closed form on the
record's times as a flat float array, a float as a one-point grid, so a time
alone and inside a grid agree to the bit. Each closed form is written once, as
+ - * / on float arrays, with exp, log and pow mapped from math over the
elements (``_exp``, ``_log``, ``_pow``), each map at most once per grid record
(a caller that needs several quantities on one grid passes one record to each;
it lives no longer than that call), and numpy's complex square root, which
rounds as cmath.sqrt does (``_sq``). Each complex phase form is cmath code
(``_phase_form``), built once per grid with its time-independent terms and
mapped over the times. That keeps the committed figure data under out/
byte-identical: numpy's own exp, log, pow and arctan and its fused complex
products and divisions round differently in the last bit, in their noise columns.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, OutOfValidatedDomain
from .specfun import gauss_2f1

if TYPE_CHECKING:
    from .config import PhysicalConstants


class ScenarioKind(enum.Enum):
    SET_IA = "SetIa"
    SET_IB = "SetIb"
    SET_IC = "SetIc"
    SET_II_K = "SetII_k"
    SET_III = "SetIII"


def _exp(x):
    """math.exp of each element of an array."""
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


def _log(x):
    """math.log of each element of an array."""
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _pow(x, p: float):
    """x**p for each element of an array, as Python's power; x**0 is 1 for every x."""
    if p == 0.0:
        return np.ones(x.size)
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(p)), float, x.size)


def _sq(x):
    """Principal-branch square root of each element of an array, or of a
    time-independent float (a constant radicand, as in SetIb); complex for a
    negative radicand. numpy's complex square root rounds as cmath.sqrt does."""
    return np.sqrt(np.asarray(x, dtype=complex))


def _sqrt_lower(x: complex) -> complex:
    """Square root on the branch with nonpositive imaginary part."""
    r = cmath.sqrt(x)
    return -r if r.imag > 0.0 else r


class Grid:
    """A per-call grid record: the caller's times, checked once against the family's
    domain, as the flat float array ``t`` (a float as a one-point grid), and each map of
    ``_exp``, ``_log`` or ``_pow`` formed on them, keyed by function, argument bytes, exponent."""

    def __init__(self, family: Family, times):
        self.shape = None if isinstance(times, (int, float)) else np.shape(times)
        self.t, self._maps = np.asarray(times, dtype=float).reshape(-1), {}
        family._check_times(self.t)

    def map(self, fn, x, *p):
        """fn(x, *p) for one of the maps, formed on the first call with these arguments."""
        key = (fn, x.tobytes(), *p)
        if key not in self._maps:
            self._maps[key] = fn(x, *p)
        return self._maps[key]

    def shaped(self, value):
        """One output on the flat grid in the caller's shape, or a Python scalar for a float."""
        value = np.asarray(value)
        if self.shape is None:
            return value.item()
        if value.shape != self.t.shape:
            value = np.full(self.t.size, value)  # a time-independent term
        return value.reshape(self.shape)


@dataclass(frozen=True)
class Family:
    """A scenario: one family's closed forms bound to its constants, immutable and
    hashable; ``k_exp`` is read by SetIIk only.

    The public time-dependent methods take a float, an array of times or their
    grid record and answer in the shape of the times. Each runs its ``_name``
    implementation once on the grid record (``_on_grid``); implementations call
    each other directly, on the same record.
    """

    OPTIONAL_KEYS = ()  # scenario keys read beyond the required ones; not a field
    _PHASE_GAPS = False  # whether the phase form answers None at some times; not a field

    constants: PhysicalConstants
    k_exp: int = 2

    @property
    def constraint_residual(self) -> float:
        """Relative residual of the family constraint, against the largest of |LHS|, |RHS|
        and the term magnitudes: at figure-sized parameters terms ~1e14 cancel to noise."""
        try:
            lhs, rhs, terms = self.constraint()
        except OverflowError as exc:  # a constant's power leaves the float range
            raise OverflowError(f"family constraint {self.CONSTRAINT} overflows a float") from exc
        scale = max(1.0, abs(lhs), abs(rhs), *[abs(x) for x in terms])
        return abs(lhs - rhs) / scale

    def summary(self) -> str:
        c = self.constants
        return " ".join([
            f"kind={self.kind.value}",
            f"M={c.mass_M:g}", f"omega0={c.omega0:g}", f"Gamma={c.Gamma:g}",
            f"chi={c.chi:g}", f"sigma={c.sigma:g}", f"Delta={c.Delta:g}", f"mu={c.mu:g}",
        ])

    def damping(self, t):
        return self._on_grid(self._damping, t)

    def frequency(self, t):
        return self._on_grid(self._frequency, t)

    def rho(self, t):
        return self._on_grid(self._rho, t)

    def a(self, t):
        return self._on_grid(self._a, t)

    def b(self, t):
        return self._on_grid(self._b, t)

    def c_terms(self, t):
        return self._on_grid(self._c_terms, t)

    def c(self, t):
        """c(t) continued past the reality window with principal-branch roots."""
        return self._on_grid(self._c, t)

    def phase_rate(self, t):
        """c - a/rho^2, the integrand of the unit phase."""
        return self._on_grid(self._phase_rate, t)

    def ground_energy(self, t):
        """The published <E_00>(t); every level is (n+m+1) times it plus (n-m) c(t)."""
        return self._on_grid(self._ground_energy, t)

    def unit_phase(self, t):
        return self._on_grid(self._unit_phase, t)

    def propagator(self, t):
        """Phi(t), the exact map of (x, p) from time 0 to t, as (Phi11, Phi12, Phi21, Phi22)."""
        return self._on_grid(self._propagator, t)

    def horizon(self) -> float | None:
        """Last time the roots of c stay real; None (unbounded) at zero frequency,
        0.0 (an empty window) where a radicand of c is negative at t = 0."""
        if self.constants.omega0 == 0.0:
            return None
        rad1, rad2 = self.c_terms(0.0)
        return 0.0 if rad1 < 0.0 or rad2 < 0.0 else self._horizon()

    def grid(self, t) -> Grid:
        """The grid record of the times ``t``, to pass in their place; a record passes as it is."""
        return t if isinstance(t, Grid) else Grid(self, t)

    def _on_grid(self, method, t):
        """Run ``method`` once on the grid record of ``t``; answer in the shape of ``t``,
        with Python scalars for a float. Names an overflow."""
        grid = self.grid(t)
        try:
            out = method(grid)
        except OverflowError as exc:
            name = method.__name__[1:]
            raise OverflowError(f"{name}(t) overflows a float for t up to {grid.t.max():g}") from exc
        return tuple(map(grid.shaped, out)) if isinstance(out, tuple) else grid.shaped(out)

    def _check_times(self, t) -> None:
        """Raise DomainError for times outside the family's domain (none here)."""

    def _damping(self, grid):
        return 1.0

    def _c(self, grid):
        rad1, rad2 = self._c_terms(grid)
        # At zero frequency the deformation root drops out: 0 * sqrt(rad2) = 0.
        return _sq(rad1) + self._frequency(grid) * _sq(rad2)

    def _phase_rate(self, grid):
        return self._c(grid) - self._a(grid)[0] / grid.map(_pow, self._rho(grid)[0], 2.0)

    def _propagator(self, grid):
        """T(t) R T(0)^-1: R is the cos/sin flow of y_ss + omega^2 y = 0 over s(t) - s(0), and
        T takes (y, y_s) to (x, p) = (g y, kappa (eta y + y_s)); eta = g'/(g s'), kappa = g s'/a."""
        omega2, g, eta, s, kappa = self._change(grid)
        _, g0, eta0, _, kappa0 = self._change(Grid(self, 0.0))
        if not omega2 > 0.0:  # overdamped: only a SetIIk off its constraint
            raise DomainError(f"Heisenberg's motion does not oscillate: omega^2 = {omega2:g}")
        omega = math.sqrt(omega2)
        cos, sin = np.cos(omega * s), np.sin(omega * s) / omega
        return (g / g0 * (cos - eta0 * sin), g / kappa0 * sin,
                kappa / g0 * ((eta - eta0) * cos - (omega2 + eta * eta0) * sin),
                kappa / kappa0 * (cos + eta * sin))

    def _unit_phase(self, grid):
        """The phase form over the times; a math domain error (SetIII's atan pole at 1e20) or
        a division by zero (chi underflowing mu^2 chi u) names the first time it fails at."""
        times, values = grid.t.tolist(), []
        try:
            form = self._phase_form() if times else None
            if form:
                values.extend(map(form, times))  # keeps the values formed before a failure
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"unit_phase(t) is not defined at t={times[len(values)]:g}: {exc}") from exc
        if not values:
            return np.full(grid.t.size, complex("nan")), np.zeros(grid.t.size, dtype=bool)
        if not self._PHASE_GAPS:
            return np.array(values, complex), np.ones(grid.t.size, dtype=bool)
        validated = np.array([v is not None for v in values], dtype=bool)
        return np.array([complex("nan") if v is None else v for v in values], complex), validated


class _Exponential(Family):
    CONSTRAINT = "mu^4*(sigma*Delta - Gamma^2/4) = sigma^2"

    def _frequency(self, grid):
        c = self.constants
        return c.omega0 * grid.map(_exp, -c.Gamma * grid.t / 2.0)

    def check(self) -> None:
        c = self.constants
        if c.sigma * c.Delta <= c.Gamma**2 / 4.0:
            raise DomainError(
                "exponential family needs sigma*Delta > Gamma^2/4 "
                f"(got sigma*Delta={c.sigma * c.Delta:g}, Gamma^2/4={c.Gamma**2 / 4.0:g})"
            )

    def constraint(self) -> tuple[float, float, tuple[float, ...]]:
        c = self.constants
        lhs = c.mu**4 * (c.sigma * c.Delta - c.Gamma**2 / 4.0)
        rhs = c.sigma**2
        return lhs, rhs, (c.mu**4 * c.sigma * c.Delta, c.mu**4 * c.Gamma**2 / 4.0, rhs)

    def _change(self, grid):
        """x = exp(-Gamma t/2) y(t), as (omega^2, g, eta, s - s(0), kappa)."""
        c = self.constants
        g = grid.map(_exp, -c.Gamma * grid.t / 2.0)
        return c.sigma * c.Delta - c.Gamma**2 / 4.0, g, -0.5 * c.Gamma, grid.t, g / self._a(grid)[0]

    def _rho(self, grid):
        c = self.constants
        rho = c.mu * grid.map(_exp, -c.Gamma * grid.t / 2.0)
        return rho, -0.5 * c.Gamma * rho, 0.25 * c.Gamma**2 * rho

    def _a(self, grid):
        c = self.constants
        a = c.sigma * grid.map(_exp, -c.Gamma * grid.t)
        return a, -c.Gamma * a

    def _b(self, grid):
        c = self.constants
        return c.Delta * grid.map(_exp, c.Gamma * grid.t)

    def _ground_energy(self, grid):
        return self.constants.mu**2 * self.constants.Delta


class SetIa(_Exponential):
    kind = ScenarioKind.SET_IA
    _PHASE_GAPS = True

    def _c_terms(self, grid):
        c = self.constants
        M, w0, G = c.mass_M, c.omega0, c.Gamma
        e_up, e_dn = grid.map(_exp, G * grid.t), grid.map(_exp, -G * grid.t)
        return (c.Delta * e_up - M * w0**2 * e_dn) / M, M * c.sigma * e_dn - 1.0

    def _horizon(self) -> float:
        """The deformation root closes the window; the balance root only grows."""
        c = self.constants
        return math.log(c.mass_M * c.sigma) / c.Gamma

    def _phase_form(self):
        """None at zero frequency; the form answers None once the hypergeometric
        argument z = z0 exp(2 Gamma t) >= z0 leaves |z| < 1, and where the series
        does not settle near |z| = 1."""
        c = self.constants
        mass, w0, g = c.mass_M, c.omega0, c.Gamma
        sg, dl, mu = c.sigma, c.Delta, c.mu
        if w0 == 0.0:
            return None
        z0 = dl / (mass * w0**2)
        try:
            series0 = gauss_2f1(-0.25, 0.5, 0.75, z0)
        except OutOfValidatedDomain:
            # No time has the series, but exp(2 Gamma t) still overflows at late times.
            return lambda t: math.exp(2.0 * g * t) and None
        ms, w0_sq, dl_m = mass * sg, w0**2, dl / mass
        root1 = cmath.sqrt(ms * (ms - 1.0))
        den, end1, end2 = 1.0 - 2.0 * ms - 2.0 * root1, 2.0 * root1, cmath.sqrt(dl_m - w0_sq)
        pre1, pre2, rate, i2w0 = w0 / (2.0 * math.sqrt(ms) * g), 2.0 / g, sg / mu**2, 2.0j * w0

        def form(t):
            zt = z0 * math.exp(2.0 * g * t)
            try:
                series = math.exp(-0.5 * g * t) * gauss_2f1(-0.25, 0.5, 0.75, zt) - series0
            except OutOfValidatedDomain:
                return None
            e_gt, e_neg = math.exp(g * t), math.exp(-g * t)
            num = e_gt - 2.0 * ms - 2.0 * cmath.sqrt(ms * (ms - e_gt))
            brk1 = (
                cmath.log(num / den) - g * t
                - 2.0 * cmath.sqrt(ms * (ms * math.exp(-2.0 * g * t) - e_neg)) + end1
            )
            # The hypergeometric pair integrates the frequency-like radical; with
            # principal-branch roots its prefactor is -2i*w0 (the antiderivative
            # identity d/dw[w^(-1/4) 2F1(-1/4,1/2;3/4;w)] = -(1/4) w^(-5/4) (1-w)^(-1/2)
            # fixes the sign, and quadrature confirms it).
            brk2 = cmath.sqrt(dl_m * e_gt - w0_sq * e_neg) - end2 - i2w0 * series
            return pre1 * brk1 + pre2 * brk2 - rate * t

        return form


class _ExpDamped(_Exponential):
    """SetIb and SetIc: roots of c real at t = 0 stay real, so the window is empty or unbounded."""

    def _damping(self, grid):
        return grid.map(_exp, -self.constants.Gamma * grid.t)

    def _horizon(self) -> None:
        return None


class SetIb(_ExpDamped):
    kind = ScenarioKind.SET_IB

    def _frequency(self, grid):
        return self.constants.omega0

    def _c_terms(self, grid):
        c = self.constants
        M, w0 = c.mass_M, c.omega0
        return (c.Delta - M * w0**2) / M, M * c.sigma - 1.0

    def _phase_form(self):
        """Linear in t."""
        c = self.constants
        slope = (
            -c.sigma / c.mu**2
            + cmath.sqrt((c.Delta - c.mass_M * c.omega0**2) / c.mass_M)
            + c.omega0 * cmath.sqrt(c.mass_M * c.sigma - 1.0)
        )
        return slope.__mul__


class SetIc(_ExpDamped):
    kind = ScenarioKind.SET_IC

    def _c_terms(self, grid):
        c = self.constants
        M, w0, G = c.mass_M, c.omega0, c.Gamma
        return (c.Delta - M * w0**2 * grid.map(_exp, -G * grid.t)) / M, M * c.sigma - 1.0

    def _phase_form(self):
        c = self.constants
        mass, w0, g = c.mass_M, c.omega0, c.Gamma
        sg, dl, mu = c.sigma, c.Delta, c.mu
        slope, mw_sq, pre_log = math.sqrt(dl) * g, mass * w0**2, 2.0 * math.sqrt(dl)
        end, den = 2.0 * cmath.sqrt(dl - mw_sq), dl + cmath.sqrt(dl * (dl - mw_sq))
        mu_sq, pre_exp, root = mu**2, 2.0 / g * w0, cmath.sqrt(mass * sg - 1.0)
        scale = g * math.sqrt(mass)

        def form(t):
            rad = dl - mw_sq * math.exp(-g * t)
            brk = (
                slope * t + end - 2.0 * cmath.sqrt(rad)
                + pre_log * cmath.log((dl + cmath.sqrt(dl * rad)) / den)
            )
            lin = sg * t / mu_sq + pre_exp * (math.exp(-0.5 * g * t) - 1.0) * root
            return brk / scale - lin

        return form


class _Rational(Family):
    """Unit damping and omega0/u with u = Gamma*t + chi, which must stay positive."""

    OPTIONAL_KEYS = ("chi",)

    def _u(self, t):
        return self.constants.Gamma * t + self.constants.chi

    def _check_times(self, t) -> None:
        u = self._u(t)
        bad = u <= 0.0
        if bad.any():
            i = np.argmax(bad)
            raise DomainError(
                f"rational/linear family needs Gamma*t + chi > 0, got {u[i]:g} at t={t[i]:g}"
            )

    def _frequency(self, grid):
        return self.constants.omega0 / self._u(grid.t)

    def check(self) -> None:
        if self.constants.chi <= 0.0:
            raise DomainError(
                "rational/linear families need chi > 0 so that Gamma*t + chi > 0 on t >= 0; "
                f"got chi={self.constants.chi!r}"
            )


class SetIIk(_Rational):
    kind = ScenarioKind.SET_II_K
    OPTIONAL_KEYS = ("chi", "k_exp")
    CONSTRAINT = "Gamma^2*mu = (k+2)^2*(sigma*Delta*mu - sigma^2/mu^3)"

    def check(self) -> None:
        if not isinstance(self.k_exp, int) or self.k_exp < 1:
            raise DomainError(
                f"rational-family exponent k_exp must be an integer >= 1, got {self.k_exp!r}"
            )
        super().check()

    def summary(self) -> str:
        return f"{super().summary()} k_exp={self.k_exp}"

    def constraint(self) -> tuple[float, float, tuple[float, ...]]:
        c = self.constants
        kk = float(self.k_exp)
        lhs = c.Gamma**2 * c.mu
        rhs = (kk + 2.0) ** 2 * (c.sigma * c.Delta * c.mu - c.sigma**2 / c.mu**3)
        terms = (
            lhs,
            (kk + 2.0) ** 2 * c.sigma * c.Delta * c.mu,
            (kk + 2.0) ** 2 * c.sigma**2 / c.mu**3,
        )
        return lhs, rhs, terms

    def _change(self, grid):
        """x = u^(-1/k) y(ln u), as (omega^2, g, eta, s - s(0), kappa)."""
        c, k, u = self.constants, float(self.k_exp), self._u(grid.t)
        g = grid.map(_pow, u, -1.0 / k)
        omega2 = (c.sigma * c.Delta * (k + 2) ** 2 / c.Gamma**2 - 1.0) / k**2
        return omega2, g, -1.0 / k, grid.map(_log, u / c.chi), g * c.Gamma / (u * self._a(grid)[0])

    def _rho(self, grid):
        c = self.constants
        k = float(self.k_exp)
        u = self._u(grid.t)
        amp = c.mu * (1.0 + 2.0 / k) ** (1.0 / k)
        rho = amp * grid.map(_pow, u, -1.0 / k)
        rho_dot = -(c.Gamma / k) * amp * grid.map(_pow, u, -1.0 / k - 1.0)
        rho_ddot = (c.Gamma**2 * (k + 1.0) / k**2) * amp * grid.map(_pow, u, -1.0 / k - 2.0)
        return rho, rho_dot, rho_ddot

    def _a(self, grid):
        c = self.constants
        k = float(self.k_exp)
        u = self._u(grid.t)
        power = (k + 2.0) / k
        a = c.sigma * (1.0 + 2.0 / k) ** power * grid.map(_pow, u, -power)
        return a, -power * c.Gamma * a / u

    def _b(self, grid):
        c = self.constants
        k = float(self.k_exp)
        power = (k - 2.0) / k
        return c.Delta * (1.0 + 2.0 / k) ** power * grid.map(_pow, self._u(grid.t), -power)

    def _c_terms(self, grid):
        c = self.constants
        M, w0 = c.mass_M, c.omega0
        k = float(self.k_exp)
        u = self._u(grid.t)
        ratio = (k + 2.0) / (k * u)
        balance = (c.Delta / M) * grid.map(_pow, ratio, (k - 2.0) / k)
        frequency2 = w0**2 / grid.map(_pow, u, 2.0)
        deformation = M * c.sigma * grid.map(_pow, ratio, (k + 2.0) / k)
        return balance - frequency2, deformation - 1.0

    def _horizon(self) -> float:
        c = self.constants
        k = float(self.k_exp)
        u_max = ((k + 2.0) / k) * (c.mass_M * c.sigma) ** (k / (k + 2.0))
        return max(0.0, (u_max - c.chi) / c.Gamma)

    def _ground_energy(self, grid):
        """The published k = 2 form, written for every k: at k = 2 the factors are 2 and 8."""
        const = self.constants
        k = float(self.k_exp)
        bracket = (
            (k + 2.0) / k * (const.Delta * const.mu**2 + const.sigma / const.mu**2)
            + const.mu**2 * const.Gamma**2 / (k * (k + 2.0) * const.sigma)
        )
        return bracket / (2.0 * self._u(grid.t))

    def _phase_form(self):
        """Published for k = 2 only."""
        if self.k_exp != 2:
            return None
        c = self.constants
        mass, w0, g = c.mass_M, c.omega0, c.Gamma
        sg, mu, chi = c.sigma, c.mu, c.chi
        dm, w0_sq, pre_log, pre2 = c.Delta / mass, w0**2, 2.0 * sg / mu**2, w0 / g
        rad_chi = dm * chi**2 - w0_sq
        end_root, end_atan = cmath.sqrt(rad_chi), w0 * cmath.atan(w0 / cmath.sqrt(rad_chi))
        m4 = 4.0 * sg * mass
        end2, den = cmath.sqrt(m4 - chi**2) / chi, chi + _sqrt_lower(chi**2 - m4)

        def form(t):
            u = g * t + chi
            u_sq = u**2
            root_u = cmath.sqrt(dm * u_sq - w0_sq)
            brk1 = (
                w0 * cmath.atan(w0 / root_u) + root_u
                - pre_log * cmath.log(u / chi) - end_root - end_atan
            )
            # The log pairs with the deformation radical; the lower-half-plane root
            # makes the closed form an exact antiderivative of c - a/rho^2 (the
            # principal branch flips the real part inside the reality window).
            brk2 = (
                end2 - cmath.sqrt(m4 - u_sq) / u
                + 1.0j * cmath.log((u + _sqrt_lower(u_sq - m4)) / den)
            )
            return brk1 / g + pre2 * brk2

        return form


class SetIII(_Rational):
    kind = ScenarioKind.SET_III
    CONSTRAINT = "Delta*mu^4 = sigma"

    def constraint(self) -> tuple[float, float, tuple[float, ...]]:
        c = self.constants
        lhs = c.Delta * c.mu**4
        return lhs, c.sigma, (lhs, c.sigma)

    def _change(self, grid):
        """x = u y(1/u), as (omega^2, g, eta, s - s(0), kappa)."""
        c, u = self.constants, self._u(grid.t)
        return c.sigma * c.Delta / c.Gamma**2, u, -u, 1.0 / u - 1.0 / c.chi, -c.Gamma / c.sigma / u

    def _rho(self, grid):
        c = self.constants
        return c.mu * self._u(grid.t), c.mu * c.Gamma, 0.0

    def _a(self, grid):
        return self.constants.sigma, 0.0

    def _b(self, grid):
        return self.constants.Delta / grid.map(_pow, self._u(grid.t), 4.0)

    def _c_terms(self, grid):
        c = self.constants
        M, w0 = c.mass_M, c.omega0
        u = self._u(grid.t)
        balance = c.Delta / (M * grid.map(_pow, u, 4.0))
        frequency2 = w0**2 / grid.map(_pow, u, 2.0)
        return balance - frequency2, M * c.sigma - 1.0

    def _horizon(self) -> float:
        """The coordinate-coefficient root closes the window."""
        c = self.constants
        u_max = math.sqrt(c.Delta / c.mass_M) / c.omega0
        return max(0.0, (u_max - c.chi) / c.Gamma)

    def _ground_energy(self, grid):
        const, u2 = self.constants, grid.map(_pow, self._u(grid.t), 2.0)
        bracket = (
            (const.Delta * const.mu**2 + const.sigma / const.mu**2) / u2
            + const.mu**2 * const.Gamma**2 / const.sigma
        )
        return 0.5 * bracket

    def _phase_form(self):
        c = self.constants
        mass, w0, g = c.mass_M, c.omega0, c.Gamma
        sg, dl, mu, chi = c.sigma, c.Delta, c.mu, c.chi
        pre_log = w0 * cmath.sqrt(mass * sg - 1.0) / g
        mu_chi, w0_sq, dl_m = mu**2 * chi, w0**2, dl / mass
        end = cmath.sqrt(dl / (mass * chi**2) - w0_sq)
        end_atan = cmath.atan(w0 * chi / cmath.sqrt(dl_m - chi**2 * w0_sq))

        def form(t):
            u = g * t + chi
            part1 = pre_log * cmath.log(u / chi) - sg * t / (mu_chi * u)
            u_sq = u**2
            brk = (
                end - cmath.sqrt(dl / (mass * u_sq) - w0_sq)
                + w0 * (end_atan - cmath.atan(w0 * u / cmath.sqrt(dl_m - w0_sq * u_sq)))
            )
            return part1 + brk / g

        return form
