"""Quadratic dynamical-invariant coefficients and their defining ODEs.

The invariant is the quadratic form

    I(t) = alpha (p1^2 + p2^2) + beta (x1^2 + x2^2) + gamma (x1 p1 + p2 x2),

whose coefficients must satisfy alpha' = -a*gamma, beta' = b*gamma and
gamma' = 2(b*alpha - a*beta) for I to be conserved. With alpha = rho^2 the
system collapses onto the scale-function equation, giving the closed forms
evaluated here; `invariant_ode_residuals` re-checks the three ODEs by
central differencing, which is the computable surrogate for dI/dt = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import Scenario
from .ermakov import coefficient_a, coefficient_b, rho_eval


@dataclass(frozen=True)
class InvariantCoeffs:
    """Invariant coefficients at one time; 4*alpha*beta - gamma^2 = 4*xi^2."""

    alpha: float
    beta: float
    gamma: float
    t: float

    @property
    def quadratic_identity(self) -> float:
        """4*alpha*beta - gamma^2 (equals 4*xi^2 for a consistent scenario)."""
        return 4.0 * self.alpha * self.beta - self.gamma**2


@dataclass(frozen=True)
class OdeResiduals:
    """Relative residuals of the three coefficient ODEs at one time."""

    alpha_residual: float
    beta_residual: float
    gamma_residual: float
    t: float
    h: float

    @property
    def worst(self) -> float:
        return max(self.alpha_residual, self.beta_residual, self.gamma_residual)


def invariant_coefficients(scenario: Scenario, t: float) -> InvariantCoeffs:
    """alpha = rho^2, gamma = -2 rho rho'/a, beta = rho'^2/a^2 + xi^2/rho^2."""
    xi = scenario.constants.xi
    ev = rho_eval(scenario, t)
    a, _ = coefficient_a(scenario, t)
    alpha = ev.rho**2
    gamma = -2.0 * ev.rho * ev.rho_dot / a
    beta = (ev.rho_dot / a) ** 2 + (xi / ev.rho) ** 2
    return InvariantCoeffs(alpha=alpha, beta=beta, gamma=gamma, t=t)


def invariant_ode_residuals(scenario: Scenario, t: float, h: float = 1e-5) -> OdeResiduals:
    """Central-difference check of the coefficient ODEs at time t.

    Each residual is |numerical derivative - ODE right side| divided by the
    largest magnitude among the derivative, the right side, its constituent
    terms, and 1 — so cancellations (e.g. gamma' = 0 for families with
    constant gamma) are judged against the physics scale, not against 0.
    """
    if h <= 0.0:
        raise ValueError(f"step h must be positive, got {h!r}")
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

    res_alpha = abs(d_alpha - rhs_alpha) / max(abs(d_alpha), abs(rhs_alpha), 1.0)
    res_beta = abs(d_beta - rhs_beta) / max(abs(d_beta), abs(rhs_beta), 1.0)
    res_gamma = abs(d_gamma - rhs_gamma) / max(
        abs(d_gamma), 2.0 * abs(b * here.alpha), 2.0 * abs(a * here.beta), 1.0
    )
    return OdeResiduals(res_alpha, res_beta, res_gamma, t=t, h=h)
