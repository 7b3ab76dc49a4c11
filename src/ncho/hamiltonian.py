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
from dataclasses import dataclass

import numpy as np

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


def in_reality_window(horizon: float | None, t):
    """Whether each time lies in the reality window [0, horizon].

    A horizon of 0.0 is an empty window, not the single point t = 0.
    """
    if horizon is None:
        return np.full(np.shape(t), True)[()]
    return (horizon > 0.0) & (np.asarray(t) <= horizon)


def _outside(radicand, scale):
    """Points whose radicand is negative beyond the clamp for boundary noise (or nan)."""
    return ~(radicand >= -RADICAND_CLAMP * np.maximum(scale, 1.0))


def _real_sqrt(radicand, scale, what: str, scenario: Scenario):
    """sqrt with a clamp for boundary noise and a windowed error beyond it."""
    outside = _outside(radicand, scale)
    if np.any(outside):
        first = np.ravel(radicand)[np.argmax(np.ravel(outside))]
        raise OutsideRealityWindow(
            f"{what} has negative radicand {first:.6g}; quantity is complex here",
            horizon=reality_horizon_time(scenario),
        )
    return np.sqrt(np.maximum(radicand, 0.0))


def c_value(scenario: Scenario, t):
    """Closed-form cross-term coefficient c(t); real inside the window only."""
    rad1, s1, rad2, s2 = scenario.family.c_terms(t)
    weight = scenario.family.frequency(t)
    term1 = _real_sqrt(rad1, s1, "the frequency-balance root of c(t)", scenario)
    # The deformation root is weighted by omega and drops out where omega is 0.
    rad2 = np.where(weight == 0.0, 0.0, rad2)
    term2 = _real_sqrt(rad2, s2, "the deformation root of c(t)", scenario)
    return term1 + weight * term2


def c_complex(scenario: Scenario, t):
    """c(t) continued past the reality window with principal-branch roots."""
    return scenario.family.c(t)


def coefficients(scenario: Scenario, t) -> HamCoeffs:
    """The triple (a, b, c) at time t; errors once c would be complex."""
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)
    return HamCoeffs(a=a, b=b, c=c_value(scenario, t), t=t)


def _nc_inversion(scenario: Scenario, t):
    """theta_nc and omega_nc by the generic inversion, on a time or a grid.

    Returns (theta, omega, theta_outside, omega_outside): the outside masks
    mark points whose radicand is negative beyond the clamp, where the value
    is meaningless. Points inside both windows are checked against the
    published squares and a disagreement raises RuntimeError.
    """
    if np.any(np.asarray(t) < 0.0):
        raise DomainError(f"deformation parameters are validated for t >= 0, got t={np.min(t)!r}")
    M = scenario.constants.mass_M
    f = scenario.family.damping(t)
    w = scenario.family.frequency(t)
    if scenario.constants.omega0 == 0.0:
        raise DomainError("theta_nc is undefined at zero frequency (omega(t) = 0)")
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)

    rad_theta = 4.0 * f * (M * a - f)
    scale_theta = 4.0 * f * (M * a + f)
    theta = np.sqrt(np.maximum(rad_theta, 0.0)) / (M * w)
    rad_omega = 4.0 * M * (b * f - M * w**2)
    scale_omega = 4.0 * M * (b * f + M * w**2)
    omega = np.sqrt(np.maximum(rad_omega, 0.0)) / f
    theta_out = _outside(rad_theta, scale_theta)
    omega_out = _outside(rad_omega, scale_omega)

    theta_pub2, omega_pub2 = published_nc_squared(scenario, t)
    inside = ~(theta_out | omega_out)
    for name, value, published, scale in (
        ("theta_nc", theta, theta_pub2, scale_theta / (M * w) ** 2),
        ("omega_nc", omega, omega_pub2, scale_omega / f**2),
    ):
        bad = inside & (np.abs(value * value - published) > _AGREE_RTOL * np.maximum(scale, 1e-300))
        if np.any(bad):
            when = np.ravel(np.broadcast_to(t, np.shape(bad)))[np.argmax(np.ravel(bad))]
            raise RuntimeError(
                f"generic inversion disagrees with the closed form for {name} at t={when:g}"
            )
    return theta, omega, theta_out, omega_out


def nc_parameters(scenario: Scenario, t) -> NCParams:
    """Deformation parameters (theta_nc, omega_nc) at a time or on a grid.

    Computed from the generic inversion
        theta_nc = sqrt(4 f (M a - f)) / (M omega),
        omega_nc = sqrt(4 M (b f - M omega^2)) / f,
    then checked against the scenario's published closed form (squared
    comparison, so the gate stays meaningful where the radicand vanishes).
    Raises OutsideRealityWindow if any point lies beyond the window.
    """
    theta, omega, theta_out, omega_out = _nc_inversion(scenario, t)
    for what, outside in (
        ("the coordinate deformation theta_nc", theta_out),
        ("the momentum deformation omega_nc", omega_out),
    ):
        if np.any(outside):
            raise OutsideRealityWindow(
                f"{what} has a negative radicand; quantity is complex here",
                horizon=reality_horizon_time(scenario),
            )
    return NCParams(theta_nc=theta, omega_nc=omega, t=t)


def nc_table(scenario: Scenario, t) -> tuple:
    """The ncparams columns on a time grid: (theta_nc, omega_nc, theta_real, omega_real).

    Inside the window the values are the checked generic inversion, flagged
    real. Beyond it they are magnitudes of the (now complex) published
    closed forms, flagged per column by the sign of the published square;
    never nan.
    """
    theta, omega, theta_out, omega_out = _nc_inversion(scenario, t)
    theta2, omega2 = published_nc_squared(scenario, t)
    outside = theta_out | omega_out
    return (
        np.where(outside, np.sqrt(np.abs(theta2)), theta),
        np.where(outside, np.sqrt(np.abs(omega2)), omega),
        ~outside | (theta2 >= 0.0),
        ~outside | (omega2 >= 0.0),
    )


def published_nc_squared(scenario: Scenario, t):
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
