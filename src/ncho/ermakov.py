"""Scale-function families, their defining nonlinear equation, and a dynamical oracle.

The invariant machinery rests on a scale function rho(t) obeying

    rho'' - (a'/a) rho' + a*b*rho = a^2 / rho^3,

where a(t), b(t) are the quadratic Hamiltonian coefficients, in natural units
(hbar = 1). The constant xi^2 that the general equation carries on the right
is fixed at 1: any other value rescales rho by 1/sqrt(xi) and the invariant
by xi, leaving its eigenstates and every Hamiltonian coefficient as they are.
`rho_eval`, `coefficient_a` and `coefficient_b` read the analytic family
(exponential, rational with integer exponent k, linear) from the family
table; `ep_residual` measures how well a scenario satisfies the equation
itself and `heisenberg_moments`, the independent oracle, carries an
eigenstate's moments along the exact flow of x' = a p, p' = -b x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Scenario


@dataclass(frozen=True)
class RhoEval:
    """Scale function and derivatives at one time."""

    rho: float
    rho_dot: float
    rho_ddot: float
    t: float

    def power(self, k: int) -> float:
        """rho^k; an overflow names rho(t)^k and the time."""
        return named_power(self.rho, k, f"rho(t)^{k}", self.t)


def named_power(base, k, name: str, t: float):
    """base**k; an OverflowError names the power (``name``) and the time t."""
    try:
        return base**k
    except OverflowError as exc:
        raise OverflowError(f"{name} overflows a float at t={t:g}") from exc


@dataclass(frozen=True)
class EPResidual:
    """Residual of the scale-function equation and the scale it lives on.

    Fields are floats for one time and arrays for a time grid.
    """

    value: float
    scale: float

    @property
    def relative(self) -> float:
        """|value| / max(scale, 1), and inf where the value is inf."""
        scale = np.where(np.isinf(self.value), 1.0, self.scale)  # not inf / inf = nan
        return np.abs(self.value) / np.maximum(scale, 1.0)


def rho_eval(scenario: Scenario, t: float) -> RhoEval:
    """Analytic rho, rho', rho'' of the scenario's family at time t."""
    return RhoEval(*scenario.rho(t), t)


def coefficient_a(scenario: Scenario, t: float) -> tuple[float, float]:
    """Family momentum coefficient a(t) and its time derivative."""
    return scenario.a(t)


def coefficient_b(scenario: Scenario, t: float) -> float:
    """Family coordinate coefficient b(t)."""
    return scenario.b(t)


def ep_residual(scenario: Scenario, t) -> EPResidual:
    """Residual rho'' - (a'/a) rho' + a*b*rho - a^2/rho^3 at a time or a grid.

    The scale is the largest magnitude among the four contributing terms, so
    `relative` reports cancellation against the dominant physics rather than
    against 1. Each point's four terms are summed exactly (math.fsum); a point
    whose terms are not all finite has residual inf.
    """
    t = np.asarray(t, dtype=float)  # a float runs as a 0-d grid: its divisions read inf too
    ev = rho_eval(scenario, t)
    a, a_dot = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)
    terms = np.stack(
        np.broadcast_arrays(
            ev.rho_ddot,
            -(a_dot / a) * ev.rho_dot,
            a * b * ev.rho,
            -(a * a) / (ev.rho * ev.rho * ev.rho),
        ),
        axis=-1,
    )
    rows = terms.reshape(-1, 4)
    finite = np.isfinite(rows).all(axis=1).tolist()
    value = np.array([math.fsum(r) if ok else math.inf for r, ok in zip(rows.tolist(), finite)])
    scale = np.abs(terms).max(axis=-1)
    return EPResidual(value=value.reshape(scale.shape)[()], scale=scale[()])


def heisenberg_moments(scenario: Scenario, t, n_plus: int):
    """<x_j^2>, <p_j^2> and <(x_j p_j + p_j x_j)/2> in |n, m> (n_plus = n+m+1) at a time or on
    a grid: the covariance n_plus/2 M M^T at t = 0, M = [[rho, 0], [rho'/a, 1/rho]], goes to t
    as Phi M (Phi M)^T, and Family.propagator's Phi rests on a and b alone. M M^T is the
    invariant's [[alpha, -gamma/2], [-gamma/2, beta]]."""
    rho, rho_dot, _ = scenario.rho(0.0)
    phi, v = scenario.propagator(t), rho_dot / scenario.a(0.0)[0]
    left, right = phi[..., 0] * rho + phi[..., 1] * v, phi[..., 1] / rho  # the columns of Phi M
    moments = 0.5 * n_plus * (left**2 + right**2)
    cross = 0.5 * n_plus * (left[..., 0] * left[..., 1] + right[..., 0] * right[..., 1])
    return moments[..., 0][()], moments[..., 1][()], cross[()]
