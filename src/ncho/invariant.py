"""Quadratic dynamical-invariant coefficients and their defining ODEs.

The invariant is the quadratic form

    I(t) = alpha (p1^2 + p2^2) + beta (x1^2 + x2^2) + gamma (x1 p1 + p2 x2),

whose coefficients must satisfy alpha' = -a*gamma, beta' = b*gamma and
gamma' = 2(b*alpha - a*beta) for I to be conserved. With alpha = rho^2 the
system collapses onto the scale-function equation, giving the closed forms
evaluated here, in natural units (hbar = 1). They are normalised to
4*alpha*beta - gamma^2 = 4, the auxiliary constant xi = 1 of Lewis &
Riesenfeld (J. Math. Phys. 10, 1458 (1969)): another xi multiplies I by xi
and keeps its eigenstates.
`invariant_ode_residuals` re-checks the three ODEs by central differencing,
which is the computable surrogate for dI/dt = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Scenario
from .ermakov import coefficient_a, coefficient_b, rho_eval

#: Step of the central differences in invariant_ode_residuals.
ODE_STEP = 1e-5


@dataclass(frozen=True)
class InvariantCoeffs:
    """Invariant coefficients at a time or on a grid; 4*alpha*beta - gamma^2 = 4."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class OdeResiduals:
    """Relative residuals of the three coefficient ODEs at a time or on a grid."""

    alpha_residual: float
    beta_residual: float
    gamma_residual: float

    @property
    def worst(self) -> float:
        return np.maximum(np.maximum(self.alpha_residual, self.beta_residual), self.gamma_residual)


def invariant_coefficients(scenario: Scenario, t) -> InvariantCoeffs:
    """alpha = rho^2, gamma = -2 rho rho'/a, beta = rho'^2/a^2 + 1/rho^2."""
    ev = rho_eval(scenario, t)
    a, _ = coefficient_a(scenario, t)
    velocity, width = ev.rho_dot / a, 1.0 / ev.rho
    alpha = ev.rho * ev.rho
    gamma = -2.0 * ev.rho * ev.rho_dot / a
    beta = velocity * velocity + width * width
    return InvariantCoeffs(alpha=alpha, beta=beta, gamma=gamma)


def invariant_ode_residuals(scenario: Scenario, t) -> OdeResiduals:
    """Central-difference check of the coefficient ODEs at a time or on a grid.

    Each residual is |numerical derivative - ODE right side| divided by the
    largest magnitude among the derivative, the right side, its constituent
    terms, and 1 — so cancellations (e.g. gamma' = 0 for families with
    constant gamma) are judged against the physics scale, not against 0.
    """
    h = ODE_STEP
    t = np.asarray(t, dtype=float)[()]
    minus = invariant_coefficients(scenario, t - h)
    plus = invariant_coefficients(scenario, t + h)
    here = invariant_coefficients(scenario, t)
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)

    d_alpha = (plus.alpha - minus.alpha) / (2.0 * h)
    d_beta = (plus.beta - minus.beta) / (2.0 * h)
    d_gamma = (plus.gamma - minus.gamma) / (2.0 * h)

    rhs_alpha = -a * here.gamma
    rhs_beta = b * here.gamma
    rhs_gamma = 2.0 * (b * here.alpha - a * here.beta)

    def residual(derivative, rhs, *terms):
        scale = np.max(np.abs(np.broadcast_arrays(derivative, rhs, *terms)), axis=0)
        return (np.abs(derivative - rhs) / np.maximum(scale, 1.0))[()]

    res_alpha = residual(d_alpha, rhs_alpha)
    res_beta = residual(d_beta, rhs_beta)
    res_gamma = residual(d_gamma, rhs_gamma, 2.0 * b * here.alpha, 2.0 * a * here.beta)
    return OdeResiduals(res_alpha, res_beta, res_gamma)
