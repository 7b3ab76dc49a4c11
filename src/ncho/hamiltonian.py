"""Noncommutativity parameters, the cross-term coefficient c(t), and reality bounds.

The oscillator on noncommutative phase space maps, through the standard
linear shift of canonical variables (the Bopp shift), onto a commutative
Hamiltonian

    H = (a/2)(p1^2 + p2^2) + (b/2)(x1^2 + x2^2) + c (p1 x2 - p2 x1),

with a = f/M + M w^2 th^2/(4f), b = f Om^2/(4M) + M w^2/f and
c = (f Om/M + M w^2 th/f)/2, where f is the damping factor, w the frequency
profile, and (th, Om) the coordinate/momentum deformation parameters. This
module inverts those relations (the deformation parameters that realize the
scenario's analytic a, b) and checks the inversion against the published
squares, which the family table (``families``) gives through the two
radicands of c. c(t) itself is the family table's ``Family.c``.

Several square roots go complex past a scenario-dependent time; the 'reality
horizon' of those roots comes from the family table.
"""

from __future__ import annotations

import numpy as np

from .config import Scenario
from .errors import DomainError, ToleranceNotMet
from .ermakov import coefficient_a, coefficient_b

RADICAND_CLAMP = 1e-12  # negative radicands within this relative margin snap to 0
_AGREE_RTOL = 1e-12  # generic-inversion vs closed-form agreement gate


def reality_horizon_time(scenario: Scenario) -> float | None:
    """Largest t for which every square root in c (and th, Om) stays real.

    None means unbounded; 0.0 means the window is empty (the reality
    conditions fail already at t = 0).
    """
    return scenario.horizon()


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


def c_complex(scenario: Scenario, t):
    """c(t) continued past the reality window with principal-branch roots."""
    return scenario.c(t)


def _nc_inversion(scenario: Scenario, t):
    """theta_nc and omega_nc by the generic inversion, on a time or a grid.

    Returns (theta, omega, theta2, omega2, theta_outside, omega_outside).
    theta2 and omega2 are the published squares
        theta_nc^2 = (2f/(M w))^2 rad2,  omega_nc^2 = (2M/f)^2 rad1,
    with rad1, rad2 the radicands of c; past the horizon a square may be
    negative. The outside masks mark points whose inversion radicand is
    negative beyond the clamp, where the inversion is meaningless. Points
    inside both windows are checked against the published squares and a
    disagreement raises ToleranceNotMet. Each family method runs once.
    """
    if np.any(np.asarray(t) < 0.0):
        raise DomainError(f"deformation parameters are validated for t >= 0, got t={np.min(t):g}")
    M = scenario.constants.mass_M
    f = scenario.damping(t)
    w = scenario.frequency(t)
    if scenario.constants.omega0 == 0.0:
        raise DomainError("theta_nc is undefined at zero frequency (omega(t) = 0)")
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)
    rad1, rad2 = scenario.c_terms(t)

    rad_theta = 4.0 * f * (M * a - f)
    scale_theta = 4.0 * f * (M * a + f)
    theta = np.sqrt(np.maximum(rad_theta, 0.0)) / (M * w)
    rad_omega = 4.0 * M * (b * f - M * w**2)
    scale_omega = 4.0 * M * (b * f + M * w**2)
    omega = np.sqrt(np.maximum(rad_omega, 0.0)) / f
    theta_out = _outside(rad_theta, scale_theta)
    omega_out = _outside(rad_omega, scale_omega)
    theta2 = (2.0 * f / (M * w)) ** 2 * rad2
    omega2 = (2.0 * M / f) ** 2 * rad1

    inside = ~(theta_out | omega_out)
    for name, value, published, scale in (
        ("theta_nc", theta, theta2, scale_theta / (M * w) ** 2),
        ("omega_nc", omega, omega2, scale_omega / f**2),
    ):
        bad = inside & (np.abs(value * value - published) > _AGREE_RTOL * np.maximum(scale, 1e-300))
        if np.any(bad):
            when = np.ravel(np.broadcast_to(t, np.shape(bad)))[np.argmax(np.ravel(bad))]
            raise ToleranceNotMet(
                f"generic inversion disagrees with the closed form for {name} at t={when:g}"
            )
    return theta, omega, theta2, omega2, theta_out, omega_out


def nc_parameters(scenario: Scenario, t) -> tuple:
    """Deformation parameters (theta_nc, omega_nc) at a time or on a grid.

    theta_nc is the coordinate-coordinate deformation (length^2), omega_nc
    the momentum-momentum one (momentum^2).

    Computed from the generic inversion
        theta_nc = sqrt(4 f (M a - f)) / (M omega),
        omega_nc = sqrt(4 M (b f - M omega^2)) / f,
    then checked against the scenario's published closed form (squared
    comparison, so the gate stays meaningful where the radicand vanishes).
    Raises DomainError naming the deformation if any point lies beyond the window.
    """
    theta, omega, _, _, theta_out, omega_out = _nc_inversion(scenario, t)
    for what, outside in (
        ("the coordinate deformation theta_nc", theta_out),
        ("the momentum deformation omega_nc", omega_out),
    ):
        if np.any(outside):
            raise DomainError(f"{what} has a negative radicand; quantity is complex here")
    return theta, omega


def nc_table(scenario: Scenario, t) -> tuple:
    """The ncparams columns on a time grid: (theta_nc, omega_nc, theta_real, omega_real).

    Inside the window the values are the checked generic inversion, flagged
    real. Beyond it they are magnitudes of the (now complex) published
    closed forms, flagged per column by the sign of the published square;
    never nan.
    """
    theta, omega, theta2, omega2, theta_out, omega_out = _nc_inversion(scenario, t)
    outside = theta_out | omega_out
    return (
        np.where(outside, np.sqrt(np.abs(theta2)), theta),
        np.where(outside, np.sqrt(np.abs(omega2)), omega),
        ~outside | (theta2 >= 0.0),
        ~outside | (omega2 >= 0.0),
    )
