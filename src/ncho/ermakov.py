"""Scale-function families, their defining nonlinear equation, and an ODE oracle.

The invariant machinery rests on a scale function rho(t) obeying

    rho'' - (a'/a) rho' + a*b*rho = xi^2 * a^2 / rho^3,

where a(t), b(t) are the quadratic Hamiltonian coefficients. `rho_eval`,
`coefficient_a` and `coefficient_b` read the analytic family (exponential,
rational with integer exponent k, linear) from the family table;
`ep_residual` measures how well a scenario satisfies the equation itself and
`integrate_ep_numeric` re-solves it with a fixed-step RK4 integrator as an
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import Scenario
from .errors import StepUnderflow


@dataclass(frozen=True)
class RhoEval:
    """Scale function and derivatives at one time."""

    rho: float
    rho_dot: float
    rho_ddot: float
    t: float


@dataclass(frozen=True)
class EPResidual:
    """Residual of the scale-function equation and the scale it lives on."""

    value: float
    scale: float
    t: float

    @property
    def relative(self) -> float:
        return abs(self.value) / max(self.scale, 1.0)


def rho_eval(scenario: Scenario, t: float) -> RhoEval:
    """Analytic rho, rho', rho'' of the scenario's family at time t."""
    return RhoEval(*scenario.family.rho(t), t)


def coefficient_a(scenario: Scenario, t: float) -> tuple[float, float]:
    """Family momentum coefficient a(t) and its time derivative."""
    return scenario.family.a(t)


def coefficient_b(scenario: Scenario, t: float) -> float:
    """Family coordinate coefficient b(t)."""
    return scenario.family.b(t)


def ep_residual(scenario: Scenario, t: float) -> EPResidual:
    """Residual rho'' - (a'/a) rho' + a*b*rho - xi^2*a^2/rho^3 at time t.

    The scale is the largest magnitude among the four contributing terms, so
    `relative` reports cancellation against the dominant physics rather than
    against 1.
    """
    c = scenario.constants
    ev = rho_eval(scenario, t)
    a, a_dot = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)
    terms = (
        ev.rho_ddot,
        -(a_dot / a) * ev.rho_dot,
        a * b * ev.rho,
        -c.xi**2 * a**2 / ev.rho**3,
    )
    value = math.fsum(terms)
    scale = max(abs(x) for x in terms)
    return EPResidual(value=value, scale=scale, t=t)


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
    xi2 = scenario.constants.xi**2

    def rhs(t: float, rho: float, v: float) -> tuple[float, float]:
        if not rho > 0.0:
            raise StepUnderflow(f"rho = {rho:g} <= 0 reached near t = {t:g}")
        a, a_dot = coefficient_a(scenario, t)
        b = coefficient_b(scenario, t)
        return v, (a_dot / a) * v - a * b * rho + xi2 * a**2 / rho**3

    start = rho_eval(scenario, t0)
    rho, v = start.rho, start.rho_dot
    h = (t1 - t0) / steps
    out = [RhoEval(rho, v, rhs(t0, rho, v)[1], t0)]
    for i in range(steps):
        t = t0 + i * h
        k1r, k1v = rhs(t, rho, v)
        k2r, k2v = rhs(t + h / 2.0, rho + h / 2.0 * k1r, v + h / 2.0 * k1v)
        k3r, k3v = rhs(t + h / 2.0, rho + h / 2.0 * k2r, v + h / 2.0 * k2v)
        k4r, k4v = rhs(t + h, rho + h * k3r, v + h * k3v)
        rho += h / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t_next = t0 + (i + 1) * h
        out.append(RhoEval(rho, v, rhs(t_next, rho, v)[1], t_next))
    return out
