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

import numpy as np

from .config import Scenario


def named_power(base, k, name: str, t: float):
    """base**k; an OverflowError names the power (``name``) and the time t."""
    try:
        return base**k
    except OverflowError as exc:
        raise OverflowError(f"{name} overflows a float at t={t:g}") from exc


def rho_eval(scenario: Scenario, t: float) -> tuple[float, float, float]:
    """Analytic (rho, rho', rho'') of the scenario's family at time t: scenario.rho(t)."""
    return scenario.rho(t)


def coefficient_a(scenario: Scenario, t: float) -> tuple[float, float]:
    """Family momentum coefficient a(t) and its time derivative."""
    return scenario.a(t)


def coefficient_b(scenario: Scenario, t: float) -> float:
    """Family coordinate coefficient b(t)."""
    return scenario.b(t)


def ep_residual(scenario: Scenario, t):
    """Relative residual of rho'' - (a'/a) rho' + a*b*rho - a^2/rho^3 at a time or a grid.

    The residual is judged against max(1, the largest magnitude among the four
    contributing terms), so it reports cancellation against the dominant
    physics rather than against 1. Each point's four terms are summed exactly
    (math.fsum); a point whose terms are not all finite has residual inf.
    """
    grid = scenario.grid(np.asarray(t, dtype=float))  # a float as a 0-d grid reads inf too
    rho, rho_dot, rho_ddot = rho_eval(scenario, grid)
    a, a_dot = coefficient_a(scenario, grid)
    b = coefficient_b(scenario, grid)
    terms = np.stack(
        np.broadcast_arrays(
            rho_ddot,
            -(a_dot / a) * rho_dot,
            a * b * rho,
            -(a * a) / (rho * rho * rho),
        ),
        axis=-1,
    )
    rows = terms.reshape(-1, 4)
    finite = np.isfinite(rows).all(axis=1).tolist()
    value = np.array([math.fsum(r) if ok else math.inf for r, ok in zip(rows.tolist(), finite)])
    value = value.reshape(terms.shape[:-1])
    scale = np.where(np.isinf(value), 1.0, np.abs(terms).max(axis=-1))  # not inf / inf = nan
    return (np.abs(value) / np.maximum(scale, 1.0))[()]


def heisenberg_moments(scenario: Scenario, t):
    """<x_j^2>, <p_j^2> and <(x_j p_j + p_j x_j)/2> in |0, 0> at a time or on a grid; in |n, m>
    each is n+m+1 times as large. The covariance M M^T / 2 at t = 0, M = [[rho, 0],
    [rho'/a, 1/rho]], goes to t as Phi M (Phi M)^T / 2, and Family.propagator's Phi rests on
    a and b alone. M M^T is the invariant's [[alpha, -gamma/2], [-gamma/2, beta]]."""
    rho, rho_dot, _ = scenario.rho(0.0)
    v = rho_dot / scenario.a(0.0)[0]
    # Arrays for a float too, so a width that underflows to 0 reads nan there as on a grid.
    p11, p12, p21, p22 = map(np.asarray, scenario.propagator(t))
    x_left, p_left = p11 * rho + p12 * v, p21 * rho + p22 * v  # the columns of Phi M
    x_right, p_right = p12 / rho, p22 / rho
    return (
        0.5 * (x_left * x_left + x_right * x_right),
        0.5 * (p_left * p_left + p_right * p_right),
        0.5 * (x_left * p_left + x_right * p_right),
    )
