"""The family table: every closed form that depends on the scenario kind.

The paper's five setups each pair a damping factor f(t) and a frequency
omega(t) with one analytic solution of the auxiliary (Ermakov-Pinney)
equation. Each pairing is one class, bound to the scenario's constants:

============  ==========  ============================  =======================
class         damping     frequency                     scale-function family
============  ==========  ============================  =======================
``SetIa``     f = 1       omega0*exp(-Gamma*t/2)        exponential
``SetIb``     exp(-G t)   omega0 (constant)             exponential
``SetIc``     exp(-G t)   omega0*exp(-Gamma*t/2)        exponential
``SetIIk``    f = 1       omega0/(Gamma*t + chi)        rational, exponent k
``SetIII``    f = 1       omega0/(Gamma*t + chi)        linear ("elementary")
============  ==========  ============================  =======================

Every class answers damping(t), frequency(t), check() (the domain
conditions), constraint() as (name, LHS, RHS, term magnitudes), rho(t) as
(rho, rho', rho''), a(t) as (a, a'), b(t), c_terms(t) as the radicands and
scales (rad1, s1, rad2, s2) of c = sqrt(rad1) + omega(t) sqrt(rad2),
horizon() (None: unbounded), energy(t, n+m+1, n-m, c) and unit_phase(t),
the integral of c - a/rho^2; the last two return None where no closed form
is published or validated. The base class assembles c(t) itself and the
phase integrand phase_rate(t) = c - a/rho^2 from those.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConstraintGuard, DomainError
from .specfun import gauss_2f1

if TYPE_CHECKING:
    from .config import PhysicalConstants


def _sqrt_lower(x: complex) -> complex:
    """Square root on the branch with nonpositive imaginary part."""
    r = cmath.sqrt(complex(x))
    return -r if r.imag > 0.0 else r


def _sq(x) -> complex:
    return cmath.sqrt(complex(x))


@dataclass(frozen=True)
class Family:
    """Closed forms of one scenario family; ``k_exp`` is read by SetIIk only."""

    constants: PhysicalConstants
    k_exp: int = 2

    def damping(self, t: float) -> float:
        return 1.0

    def horizon(self) -> float | None:
        """Last time the roots of c stay real; None (unbounded) at zero frequency."""
        return None if self.constants.omega0 == 0.0 else self._horizon()

    def c(self, t: float) -> complex:
        """c(t) continued past the reality window with principal-branch roots."""
        rad1, _, rad2, _ = self.c_terms(t)
        weight = self.frequency(t)
        term2 = 0.0 if weight == 0.0 else weight * _sq(rad2)
        return _sq(rad1) + term2

    def phase_rate(self, t: float) -> complex:
        """c - a/rho^2, the integrand of the unit phase."""
        return self.c(t) - self.a(t)[0] / self.rho(t)[0] ** 2


class _Exponential(Family):
    def frequency(self, t: float) -> float:
        c = self.constants
        return c.omega0 * math.exp(-c.Gamma * t / 2.0)

    def check(self) -> None:
        c = self.constants
        if c.sigma * c.Delta <= c.vartheta**2 / 4.0:
            raise DomainError(
                "exponential family needs sigma*Delta > vartheta^2/4 "
                f"(got sigma*Delta={c.sigma * c.Delta:g}, vartheta^2/4={c.vartheta**2 / 4.0:g})"
            )
        if not math.isclose(c.vartheta, c.Gamma, rel_tol=1e-12, abs_tol=0.0):
            raise DomainError(
                "the closed forms for the exponential-family scenarios are derived with "
                f"vartheta == Gamma; got vartheta={c.vartheta!r}, Gamma={c.Gamma!r}"
            )

    def constraint(self) -> tuple[str, float, float, tuple[float, ...]]:
        c = self.constants
        lhs = c.mu**4 * (c.sigma * c.Delta - c.vartheta**2 / 4.0)
        rhs = c.xi**2 * c.sigma**2
        terms = (c.mu**4 * c.sigma * c.Delta, c.mu**4 * c.vartheta**2 / 4.0, rhs)
        return "mu^4*(sigma*Delta - vartheta^2/4) = xi^2*sigma^2", lhs, rhs, terms

    def rho(self, t: float) -> tuple[float, float, float]:
        c = self.constants
        rho = c.mu * math.exp(-c.vartheta * t / 2.0)
        return rho, -0.5 * c.vartheta * rho, 0.25 * c.vartheta**2 * rho

    def a(self, t: float) -> tuple[float, float]:
        c = self.constants
        a = c.sigma * math.exp(-c.vartheta * t)
        return a, -c.vartheta * a

    def b(self, t: float) -> float:
        c = self.constants
        return c.Delta * math.exp(c.vartheta * t)

    def energy(self, t: float, n_plus: int, n_minus: int, c: complex) -> complex:
        const = self.constants
        if const.xi != 1.0:
            raise ConstraintGuard(
                "the exponential-family closed-form energy assumes xi = 1, "
                f"got xi={const.xi!r}"
            )
        return n_plus * const.mu**2 * const.Delta + n_minus * c


class SetIa(_Exponential):
    def c_terms(self, t: float) -> tuple[float, float, float, float]:
        c = self.constants
        M, w0, G = c.mass_M, c.omega0, c.Gamma
        e_up, e_dn = math.exp(G * t), math.exp(-G * t)
        rad1 = (c.Delta * e_up - M * w0**2 * e_dn) / M
        s1 = (c.Delta * e_up + M * w0**2 * e_dn) / M
        rad2 = M * c.sigma * e_dn - 1.0
        s2 = M * c.sigma * e_dn + 1.0
        return rad1, s1, rad2, s2

    def _horizon(self) -> float:
        c = self.constants
        m_sigma = c.mass_M * c.sigma
        if m_sigma < 1.0:
            return 0.0
        return math.log(m_sigma) / c.Gamma

    def unit_phase(self, t: float) -> complex | None:
        """None once the hypergeometric argument leaves |z| < 1, where the
        series representation is not validated."""
        c = self.constants
        mass, w0, g = c.mass_M, c.omega0, c.Gamma
        sg, dl, mu = c.sigma, c.Delta, c.mu
        if w0 == 0.0:
            return None
        z0 = dl / (mass * w0**2)
        zt = z0 * math.exp(2.0 * g * t)
        if not (abs(z0) < 1.0 and abs(zt) < 1.0):
            return None
        ms = mass * sg
        e_gt = math.exp(g * t)
        num = e_gt - 2.0 * ms - 2.0 * _sq(ms * (ms - e_gt))
        den = 1.0 - 2.0 * ms - 2.0 * _sq(ms * (ms - 1.0))
        brk1 = (
            cmath.log(num / den)
            - g * t
            - 2.0 * _sq(ms * (ms * math.exp(-2.0 * g * t) - math.exp(-g * t)))
            + 2.0 * _sq(ms * (ms - 1.0))
        )
        # The hypergeometric pair integrates the frequency-like radical; with
        # principal-branch roots its prefactor is -2i*w0 (the antiderivative
        # identity d/dw[w^(-1/4) 2F1(-1/4,1/2;3/4;w)] = -(1/4) w^(-5/4) (1-w)^(-1/2)
        # fixes the sign, and quadrature confirms it).
        brk2 = (
            _sq(dl / mass * e_gt - w0**2 * math.exp(-g * t))
            - _sq(dl / mass - w0**2)
            - 2.0j
            * w0
            * (
                math.exp(-0.5 * g * t) * gauss_2f1(-0.25, 0.5, 0.75, zt)
                - gauss_2f1(-0.25, 0.5, 0.75, z0)
            )
        )
        return w0 / (2.0 * math.sqrt(ms) * g) * brk1 + 2.0 / g * brk2 - (sg / mu**2) * t


class _ExpDamped(_Exponential):
    """SetIb and SetIc: roots of c real at t = 0 stay real, so the window is empty or unbounded."""

    def damping(self, t: float) -> float:
        return math.exp(-self.constants.Gamma * t)

    def _horizon(self) -> float | None:
        c = self.constants
        ok = (c.Delta - c.mass_M * c.omega0**2 >= 0.0) and (c.mass_M * c.sigma >= 1.0)
        return None if ok else 0.0


class SetIb(_ExpDamped):
    def frequency(self, t: float) -> float:
        return self.constants.omega0

    def c_terms(self, t: float) -> tuple[float, float, float, float]:
        c = self.constants
        M, w0 = c.mass_M, c.omega0
        rad1 = (c.Delta - M * w0**2) / M
        s1 = (c.Delta + M * w0**2) / M
        return rad1, s1, M * c.sigma - 1.0, M * c.sigma + 1.0

    def unit_phase(self, t: float) -> complex:
        """Linear in t."""
        c = self.constants
        slope = (
            -c.sigma / c.mu**2
            + _sq((c.Delta - c.mass_M * c.omega0**2) / c.mass_M)
            + c.omega0 * _sq(c.mass_M * c.sigma - 1.0)
        )
        return slope * t


class SetIc(_ExpDamped):
    def c_terms(self, t: float) -> tuple[float, float, float, float]:
        c = self.constants
        M, w0, G = c.mass_M, c.omega0, c.Gamma
        e_dn = math.exp(-G * t)
        rad1 = (c.Delta - M * w0**2 * e_dn) / M
        s1 = (c.Delta + M * w0**2 * e_dn) / M
        return rad1, s1, M * c.sigma - 1.0, M * c.sigma + 1.0

    def unit_phase(self, t: float) -> complex:
        c = self.constants
        mass, w0, g = c.mass_M, c.omega0, c.Gamma
        sg, dl, mu = c.sigma, c.Delta, c.mu
        e_neg = math.exp(-g * t)
        brk = (
            math.sqrt(dl) * g * t
            + 2.0 * _sq(dl - mass * w0**2)
            - 2.0 * _sq(dl - mass * w0**2 * e_neg)
            + 2.0
            * math.sqrt(dl)
            * cmath.log(
                (dl + _sq(dl * (dl - mass * w0**2 * e_neg)))
                / (dl + _sq(dl * (dl - mass * w0**2)))
            )
        )
        lin = sg * t / mu**2 + 2.0 / g * w0 * (math.exp(-0.5 * g * t) - 1.0) * _sq(
            mass * sg - 1.0
        )
        return brk / (g * math.sqrt(mass)) - lin


class _Rational(Family):
    """Unit damping and omega0/u with u = Gamma*t + chi, which must stay positive."""

    def _u(self, t: float) -> float:
        c = self.constants
        u = c.Gamma * t + c.chi
        if u <= 0.0:
            raise DomainError(f"rational/linear family needs Gamma*t + chi > 0, got {u:g} at t={t:g}")
        return u

    def frequency(self, t: float) -> float:
        return self.constants.omega0 / self._u(t)

    def check(self) -> None:
        if self.constants.chi <= 0.0:
            raise DomainError(
                "rational/linear families need chi > 0 so that Gamma*t + chi > 0 on t >= 0; "
                f"got chi={self.constants.chi!r}"
            )


class SetIIk(_Rational):
    def check(self) -> None:
        if not isinstance(self.k_exp, int) or self.k_exp < 1:
            raise DomainError(
                f"rational-family exponent k_exp must be an integer >= 1, got {self.k_exp!r}"
            )
        super().check()

    def constraint(self) -> tuple[str, float, float, tuple[float, ...]]:
        c = self.constants
        kk = float(self.k_exp)
        lhs = c.Gamma**2 * c.mu
        rhs = (kk + 2.0) ** 2 * (c.sigma * c.Delta * c.mu - c.xi**2 * c.sigma**2 / c.mu**3)
        terms = (
            lhs,
            (kk + 2.0) ** 2 * c.sigma * c.Delta * c.mu,
            (kk + 2.0) ** 2 * c.xi**2 * c.sigma**2 / c.mu**3,
        )
        return "Gamma^2*mu = (k+2)^2*(sigma*Delta*mu - xi^2*sigma^2/mu^3)", lhs, rhs, terms

    def rho(self, t: float) -> tuple[float, float, float]:
        c = self.constants
        k = float(self.k_exp)
        u = self._u(t)
        amp = c.mu * (1.0 + 2.0 / k) ** (1.0 / k)
        rho = amp * u ** (-1.0 / k)
        rho_dot = -(c.Gamma / k) * amp * u ** (-1.0 / k - 1.0)
        rho_ddot = (c.Gamma**2 * (k + 1.0) / k**2) * amp * u ** (-1.0 / k - 2.0)
        return rho, rho_dot, rho_ddot

    def a(self, t: float) -> tuple[float, float]:
        c = self.constants
        k = float(self.k_exp)
        u = self._u(t)
        power = (k + 2.0) / k
        a = c.sigma * (1.0 + 2.0 / k) ** power * u ** (-power)
        return a, -power * c.Gamma * a / u

    def b(self, t: float) -> float:
        c = self.constants
        k = float(self.k_exp)
        u = self._u(t)
        power = (k - 2.0) / k
        return c.Delta * (1.0 + 2.0 / k) ** power * u ** (-power)

    def c_terms(self, t: float) -> tuple[float, float, float, float]:
        c = self.constants
        M, w0 = c.mass_M, c.omega0
        k = float(self.k_exp)
        u = self._u(t)
        ratio = (k + 2.0) / (k * u)
        rad1 = (c.Delta / M) * ratio ** ((k - 2.0) / k) - w0**2 / u**2
        s1 = (c.Delta / M) * ratio ** ((k - 2.0) / k) + w0**2 / u**2
        rad2 = M * c.sigma * ratio ** ((k + 2.0) / k) - 1.0
        s2 = M * c.sigma * ratio ** ((k + 2.0) / k) + 1.0
        return rad1, s1, rad2, s2

    def _horizon(self) -> float:
        c = self.constants
        k = float(self.k_exp)
        u_max = ((k + 2.0) / k) * (c.mass_M * c.sigma) ** (k / (k + 2.0))
        return max(0.0, (u_max - c.chi) / c.Gamma)

    def energy(self, t: float, n_plus: int, n_minus: int, c: complex) -> complex | None:
        """Published for k = 2 only."""
        if self.k_exp != 2:
            return None
        const = self.constants
        u = self._u(t)
        bracket = (
            2.0 * (const.Delta * const.mu**2 + const.sigma / const.mu**2)
            + const.mu**2 * const.Gamma**2 / (8.0 * const.sigma)
        )
        return n_plus / (2.0 * u) * bracket + n_minus * c

    def unit_phase(self, t: float) -> complex | None:
        """Published for k = 2 only."""
        if self.k_exp != 2:
            return None
        c = self.constants
        mass, w0, g = c.mass_M, c.omega0, c.Gamma
        sg, mu, chi = c.sigma, c.mu, c.chi
        dm = c.Delta / mass
        u = g * t + chi
        rad_u = dm * u**2 - w0**2
        rad_chi = dm * chi**2 - w0**2
        brk1 = (
            w0 * cmath.atan(w0 / _sq(rad_u))
            + _sq(rad_u)
            - 2.0 * sg / mu**2 * cmath.log(u / chi)
            - _sq(rad_chi)
            - w0 * cmath.atan(w0 / _sq(rad_chi))
        )
        # The log pairs with the deformation radical; the lower-half-plane root
        # makes the closed form an exact antiderivative of c - a/rho^2 (the
        # principal branch flips the real part inside the reality window).
        brk2 = (
            _sq(4.0 * sg * mass - chi**2) / chi
            - _sq(4.0 * sg * mass - u**2) / u
            + 1.0j
            * cmath.log(
                (u + _sqrt_lower(u**2 - 4.0 * sg * mass))
                / (chi + _sqrt_lower(chi**2 - 4.0 * sg * mass))
            )
        )
        return brk1 / g + w0 / g * brk2


class SetIII(_Rational):
    def constraint(self) -> tuple[str, float, float, tuple[float, ...]]:
        c = self.constants
        lhs = c.Delta * c.mu**4
        rhs = c.xi**2 * c.sigma
        return "Delta*mu^4 = xi^2*sigma", lhs, rhs, (lhs, rhs)

    def rho(self, t: float) -> tuple[float, float, float]:
        c = self.constants
        u = self._u(t)
        return c.mu * u, c.mu * c.Gamma, 0.0

    def a(self, t: float) -> tuple[float, float]:
        return self.constants.sigma, 0.0

    def b(self, t: float) -> float:
        u = self._u(t)
        return self.constants.Delta / u**4

    def c_terms(self, t: float) -> tuple[float, float, float, float]:
        c = self.constants
        M, w0 = c.mass_M, c.omega0
        u = self._u(t)
        rad1 = c.Delta / (M * u**4) - w0**2 / u**2
        s1 = c.Delta / (M * u**4) + w0**2 / u**2
        return rad1, s1, M * c.sigma - 1.0, M * c.sigma + 1.0

    def _horizon(self) -> float:
        """The coordinate-coefficient root closes the window."""
        c = self.constants
        if c.mass_M * c.sigma < 1.0:
            return 0.0
        u_max = math.sqrt(c.Delta / c.mass_M) / c.omega0
        return max(0.0, (u_max - c.chi) / c.Gamma)

    def energy(self, t: float, n_plus: int, n_minus: int, c: complex) -> complex:
        const = self.constants
        u = self._u(t)
        bracket = (
            (const.Delta * const.mu**2 + const.sigma / const.mu**2) / u**2
            + const.mu**2 * const.Gamma**2 / const.sigma
        )
        return 0.5 * n_plus * bracket + n_minus * c

    def unit_phase(self, t: float) -> complex:
        c = self.constants
        mass, w0, g = c.mass_M, c.omega0, c.Gamma
        sg, dl, mu, chi = c.sigma, c.Delta, c.mu, c.chi
        u = g * t + chi
        part1 = w0 * _sq(mass * sg - 1.0) / g * cmath.log(u / chi) - sg * t / (
            mu**2 * chi * u
        )
        brk = (
            _sq(dl / (mass * chi**2) - w0**2)
            - _sq(dl / (mass * u**2) - w0**2)
            + w0
            * (
                cmath.atan(w0 * chi / _sq(dl / mass - chi**2 * w0**2))
                - cmath.atan(w0 * u / _sq(dl / mass - w0**2 * u**2))
            )
        )
        return part1 + brk / g
