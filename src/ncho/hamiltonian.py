"""Hamiltonian coefficients, noncommutativity parameters, and the shift identity.

The oscillator on noncommutative phase space maps, through the standard
linear shift of canonical variables, onto a commutative Hamiltonian

    H = (a/2)(p1^2 + p2^2) + (b/2)(x1^2 + x2^2) + c (p1 x2 - p2 x1),

with a = f/M + M w^2 th^2/(4f), b = f Om^2/(4M) + M w^2/f and
c = (f Om/M + M w^2 th/f)/2, where f is the damping factor, w the frequency
profile, and (th, Om) the coordinate/momentum deformation parameters. This
module inverts those relations (the deformation parameters that realize the
scenario's analytic a, b), assembles c from the two radicands that each
family publishes in its table (``families``), and exposes the two
equivalent classical symbols for the identity check.

Several square roots go complex past a scenario-dependent time; the 'reality
horizon' of those roots comes from the family table and is attached to the
errors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .config import Scenario
from .errors import DomainError, OutsideRealityWindow
from .ermakov import coefficient_a, coefficient_b

RADICAND_CLAMP = 1e-12  # negative radicands within this relative margin snap to 0
_AGREE_RTOL = 1e-12  # generic-inversion vs closed-form agreement gate


@dataclass(frozen=True)
class HamCoeffs:
    """Quadratic Hamiltonian coefficients at one time.

    a multiplies momenta^2 (units 1/mass), b coordinates^2 (mass/time^2),
    c the angular-momentum cross term (1/time).
    """

    a: float
    b: float
    c: float
    t: float


@dataclass(frozen=True)
class NCParams:
    """Deformation parameters at one time.

    theta_nc is the coordinate-coordinate deformation (length^2), omega_nc
    the momentum-momentum one (momentum^2). The canonical commutator picks
    up the factor 1 + theta_nc*omega_nc/4.
    """

    theta_nc: float
    omega_nc: float
    t: float

    @property
    def commutator_factor(self) -> float:
        return 1.0 + self.theta_nc * self.omega_nc / 4.0


@dataclass(frozen=True)
class PhaseSpacePoint:
    x1: float
    x2: float
    p1: float
    p2: float


class SymbolForm(enum.Enum):
    BOPP_SHIFTED = "BoppShifted"
    ABC_FORM = "ABCForm"


def reality_horizon_time(scenario: Scenario) -> float | None:
    """Largest t for which every square root in c (and th, Om) stays real.

    None means unbounded; 0.0 means the window is empty (the reality
    conditions fail already at t = 0).
    """
    return scenario.family.horizon()


def _real_sqrt(radicand: float, scale: float, what: str, scenario: Scenario) -> float:
    """sqrt with a clamp for boundary noise and a windowed error beyond it."""
    if radicand >= 0.0:
        return math.sqrt(radicand)
    if radicand >= -RADICAND_CLAMP * max(scale, 1.0):
        return 0.0
    raise OutsideRealityWindow(
        f"{what} has negative radicand {radicand:.6g}; quantity is complex here",
        horizon=reality_horizon_time(scenario),
    )


def c_value(scenario: Scenario, t: float) -> float:
    """Closed-form cross-term coefficient c(t); real inside the window only."""
    rad1, s1, rad2, s2 = scenario.family.c_terms(t)
    term1 = _real_sqrt(rad1, s1, "the frequency-balance root of c(t)", scenario)
    weight = scenario.family.frequency(t)
    if weight == 0.0:
        return term1  # the deformation term is weighted by omega and drops out
    term2 = _real_sqrt(rad2, s2, "the deformation root of c(t)", scenario)
    return term1 + weight * term2


def c_complex(scenario: Scenario, t: float) -> complex:
    """c(t) continued past the reality window with principal-branch roots."""
    return scenario.family.c(t)


def coefficients(scenario: Scenario, t: float) -> HamCoeffs:
    """The triple (a, b, c) at time t; errors once c would be complex."""
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)
    return HamCoeffs(a=a, b=b, c=c_value(scenario, t), t=t)


def nc_parameters(scenario: Scenario, t: float) -> NCParams:
    """Deformation parameters (theta_nc, omega_nc) at time t.

    Computed from the generic inversion
        theta_nc = sqrt(4 f (M a - f)) / (M omega),
        omega_nc = sqrt(4 M (b f - M omega^2)) / f,
    then checked against the scenario's published closed form (squared
    comparison, so the gate stays meaningful where the radicand vanishes).
    """
    if t < 0.0:
        raise DomainError(f"deformation parameters are validated for t >= 0, got t={t!r}")
    c = scenario.constants
    M = c.mass_M
    f = scenario.family.damping(t)
    w = scenario.family.frequency(t)
    if w == 0.0:
        raise DomainError("theta_nc is undefined at zero frequency (omega(t) = 0)")
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)

    rad_theta = 4.0 * f * (M * a - f)
    scale_theta = 4.0 * f * (M * a + f)
    theta = _real_sqrt(rad_theta, scale_theta, "the coordinate deformation theta_nc", scenario) / (M * w)

    rad_omega = 4.0 * M * (b * f - M * w**2)
    scale_omega = 4.0 * M * (b * f + M * w**2)
    omega = _real_sqrt(rad_omega, scale_omega, "the momentum deformation omega_nc", scenario) / f

    theta_pub2, omega_pub2 = published_nc_squared(scenario, t)
    if abs(theta * theta - theta_pub2) > _AGREE_RTOL * max(scale_theta / (M * w) ** 2, 1e-300):
        raise RuntimeError(
            f"generic inversion disagrees with the closed form for theta_nc at t={t:g}"
        )
    if abs(omega * omega - omega_pub2) > _AGREE_RTOL * max(scale_omega / f**2, 1e-300):
        raise RuntimeError(
            f"generic inversion disagrees with the closed form for omega_nc at t={t:g}"
        )
    return NCParams(theta_nc=theta, omega_nc=omega, t=t)


def published_nc_squared(scenario: Scenario, t: float) -> tuple[float, float]:
    """Published theta_nc^2 = (2f/(M w))^2 rad2 and omega_nc^2 = (2M/f)^2 rad1.

    rad1, rad2 are the radicands of c; past the horizon a square may be negative.
    """
    M = scenario.constants.mass_M
    f = scenario.family.damping(t)
    w = scenario.family.frequency(t)
    rad1, _, rad2, _ = scenario.family.c_terms(t)
    return (2.0 * f / (M * w)) ** 2 * rad2, (2.0 * M / f) ** 2 * rad1


def classical_symbol(scenario: Scenario, t: float, pt: PhaseSpacePoint, form: SymbolForm) -> float:
    """The classical Hamiltonian symbol at a phase-space point.

    The two forms are algebraically identical; evaluating both is the
    numerical check that the deformation parameters, the damping/frequency
    profiles, and (a, b, c) all tell the same story.
    """
    if form is SymbolForm.ABC_FORM:
        hc = coefficients(scenario, t)
        return (
            0.5 * hc.a * (pt.p1**2 + pt.p2**2)
            + 0.5 * hc.b * (pt.x1**2 + pt.x2**2)
            + hc.c * (pt.p1 * pt.x2 - pt.p2 * pt.x1)
        )
    nc = nc_parameters(scenario, t)
    c = scenario.constants
    f = scenario.family.damping(t)
    w = scenario.family.frequency(t)
    kin1 = pt.p1 + 0.5 * nc.omega_nc * pt.x2
    kin2 = pt.p2 - 0.5 * nc.omega_nc * pt.x1
    pos1 = pt.x1 - 0.5 * nc.theta_nc * pt.p2
    pos2 = pt.x2 + 0.5 * nc.theta_nc * pt.p1
    return (f / (2.0 * c.mass_M)) * (kin1**2 + kin2**2) + (
        c.mass_M * w**2 / (2.0 * f)
    ) * (pos1**2 + pos2**2)
