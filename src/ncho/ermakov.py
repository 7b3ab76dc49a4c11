"""Scale-function families, their defining nonlinear equation, and an ODE oracle.

The invariant machinery rests on a scale function rho(t) obeying

    rho'' - (a'/a) rho' + a*b*rho = a^2 / rho^3,

where a(t), b(t) are the quadratic Hamiltonian coefficients, in natural units
(hbar = 1). The constant xi^2 that the general equation carries on the right
is fixed at 1: any other value rescales rho by 1/sqrt(xi) and the invariant
by xi, leaving its eigenstates and every Hamiltonian coefficient as they are.
`rho_eval`, `coefficient_a` and `coefficient_b` read the analytic family
(exponential, rational with integer exponent k, linear) from the family
table; `ep_residual` measures how well a scenario satisfies the equation
itself and `integrate_ep_numeric` re-solves it with a fixed-step RK4
integrator as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Scenario
from .errors import StepUnderflow


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


def named_power(base, k, name: str, t: float | None = None):
    """base**k; an OverflowError names the power (``name``) and, if given, the time t."""
    try:
        return base**k
    except OverflowError as exc:
        at = "" if t is None else f" at t={t:g}"
        raise OverflowError(f"{name} overflows a float{at}") from exc


@dataclass(frozen=True)
class EPResidual:
    """Residual of the scale-function equation and the scale it lives on.

    Fields are floats for one time and arrays for a time grid.
    """

    value: float
    scale: float

    @property
    def relative(self) -> float:
        return np.abs(self.value) / np.maximum(self.scale, 1.0)


def rho_eval(scenario: Scenario, t: float) -> RhoEval:
    """Analytic rho, rho', rho'' of the scenario's family at time t."""
    return RhoEval(*scenario.family.rho(t), t)


def coefficient_a(scenario: Scenario, t: float) -> tuple[float, float]:
    """Family momentum coefficient a(t) and its time derivative."""
    return scenario.family.a(t)


def coefficient_b(scenario: Scenario, t: float) -> float:
    """Family coordinate coefficient b(t)."""
    return scenario.family.b(t)


def ep_residual(scenario: Scenario, t) -> EPResidual:
    """Residual rho'' - (a'/a) rho' + a*b*rho - a^2/rho^3 at a time or a grid.

    The scale is the largest magnitude among the four contributing terms, so
    `relative` reports cancellation against the dominant physics rather than
    against 1. Each point's four terms are summed exactly (math.fsum).
    """
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
    value = np.array(list(map(math.fsum, terms.reshape(-1, 4).tolist())))
    scale = np.abs(terms).max(axis=-1)
    return EPResidual(value=value.reshape(scale.shape)[()], scale=scale[()])


def integrate_ep_numeric(scenario: Scenario, t0: float, t1: float, steps: int) -> list[RhoEval]:
    """Fixed-step RK4 integration of the scale-function equation.

    Initial data are the analytic rho(t0), rho'(t0); the returned trajectory
    (including both endpoints) is meant to be compared against the analytic
    family. Raises StepUnderflow if rho stops being positive inside a step.
    """
    if not isinstance(steps, int) or steps < 100:
        raise ValueError(f"steps must be an integer >= 100, got {steps!r}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0!r}, {t1!r}]")
    h = (t1 - t0) / steps
    starts = t0 + np.arange(steps) * h
    # (t, a, a', b) at each RK4 stage time, from one family call per stage.
    begin, mid, end, after = (
        list(zip(times.tolist(), *(x.tolist() for x in coefficient_a(scenario, times)),
                 coefficient_b(scenario, times).tolist()))
        for times in (starts, starts + h / 2.0, starts + h, t0 + np.arange(1, steps + 1) * h)
    )

    def rhs(stage, rho: float, v: float) -> tuple[float, float]:
        t, a, a_dot, b = stage
        if not rho > 0.0:
            raise StepUnderflow(f"rho = {rho:g} <= 0 reached near t = {t:g}")
        return v, (a_dot / a) * v - a * b * rho + a**2 / rho**3

    start = rho_eval(scenario, t0)
    rho, v = start.rho, start.rho_dot
    out = [RhoEval(rho, v, rhs(begin[0], rho, v)[1], t0)]
    for i in range(steps):
        k1r, k1v = rhs(begin[i], rho, v)
        k2r, k2v = rhs(mid[i], rho + h / 2.0 * k1r, v + h / 2.0 * k1v)
        k3r, k3v = rhs(mid[i], rho + h / 2.0 * k2r, v + h / 2.0 * k2v)
        k4r, k4v = rhs(end[i], rho + h * k3r, v + h * k3v)
        rho += h / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        out.append(RhoEval(rho, v, rhs(after[i], rho, v)[1], after[i][0]))
    return out
