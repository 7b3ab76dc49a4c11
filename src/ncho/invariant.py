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
The three ODEs say that C = [[alpha, -gamma/2], [-gamma/2, beta]] moves as
Phi C Phi^T under Heisenberg's x' = a p, p' = -b x, so they hold exactly when
the closed coefficients equal that transport of their values at t = 0.
`invariant_ode_residuals` checks this against the exact propagator
(`ermakov.heisenberg_moments`), which reads a, b, rho(0) and rho'(0) only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Scenario
from .ermakov import coefficient_a, heisenberg_moments, rho_eval


@dataclass(frozen=True)
class InvariantCoeffs:
    """Invariant coefficients at a time or on a grid; 4*alpha*beta - gamma^2 = 4."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class OdeResiduals:
    """Relative gaps between the closed coefficients and their exact transport, per time."""

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
    """The coefficient ODEs checked against the exact flow at a time or on a grid.

    At n+m+1 = 1 the propagated covariance is [[alpha, -gamma/2], [-gamma/2, beta]] / 2.
    alpha and beta are judged against themselves, gamma against sqrt(alpha beta),
    which is at least 1 because 4 alpha beta - gamma^2 = 4.
    """
    co = invariant_coefficients(scenario, t)
    x2, p2, cross = heisenberg_moments(scenario, t, 1)
    return OdeResiduals(
        np.abs(2.0 * x2 / co.alpha - 1.0)[()],
        np.abs(2.0 * p2 / co.beta - 1.0)[()],
        (np.abs(co.gamma + 4.0 * cross) / np.sqrt(co.alpha * co.beta))[()],
    )
