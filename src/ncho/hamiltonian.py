"""Noncommutativity parameters, the cross-term coefficient c(t), and reality bounds.

The oscillator on noncommutative phase space maps, through the standard
linear shift of canonical variables (the Bopp shift), onto a commutative
Hamiltonian

    H = (a/2)(p1^2 + p2^2) + (b/2)(x1^2 + x2^2) + c (p1 x2 - p2 x1),

with a = f/M + M w^2 th^2/(4f), b = f Om^2/(4M) + M w^2/f and
c = (f Om/M + M w^2 th/f)/2, where f is the damping factor, w the frequency
profile, and (th, Om) the coordinate/momentum deformation parameters. The
deformation parameters have one route: the published squares, which the
family table (``families``) gives through the two radicands of c. Inverting
the first two relations for th^2 and Om^2 from the scenario's analytic a and
b is their gate, checked at every time: the identity between the two is
algebraic, so it holds past the reality window too. c(t) itself is the
family table's ``Family.c``.

Several square roots go complex past a scenario-dependent time; the 'reality
horizon' of those roots comes from the family table.
"""

from __future__ import annotations

import numpy as np

from .config import Scenario
from .errors import DomainError, ToleranceNotMet
from .ermakov import coefficient_a, coefficient_b

RADICAND_CLAMP = 1e-12  # squares negative within this margin of their scale count as 0
_AGREE_RTOL = 1e-12  # published squares vs generic-inversion agreement gate


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


def c_complex(scenario: Scenario, t):
    """c(t) continued past the reality window with principal-branch roots."""
    return scenario.c(t)


def nc_squares(scenario: Scenario, t) -> tuple:
    """theta_nc^2 and omega_nc^2 on a time or a grid, with their scales and their gaps.

    Returns (squares, scales, gaps), each a (theta_nc, omega_nc) pair. The
    squares are the published ones,
        theta_nc^2 = (2f/(M w))^2 rad2,  omega_nc^2 = (2M/f)^2 rad1,
    with rad1, rad2 the radicands of c; past the horizon a square is
    negative. The scales are 4f(Ma + f)/(M w)^2 and 4M(bf + M w^2)/f^2, the
    sizes of the terms of the generic inversion
        theta_nc^2 = 4f(Ma - f)/(M w)^2,  omega_nc^2 = 4M(bf - M w^2)/f^2,
    and each gap is |inversion - published square| / scale. Each family
    method runs once.
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

    squares = ((2.0 * f / (M * w)) ** 2 * rad2, (2.0 * M / f) ** 2 * rad1)
    scales = (4.0 * f * (M * a + f) / (M * w) ** 2, 4.0 * M * (b * f + M * w**2) / f**2)
    inversions = (4.0 * f * (M * a - f) / (M * w) ** 2, 4.0 * M * (b * f - M * w**2) / f**2)
    gaps = tuple(
        np.abs(inversion - square) / np.maximum(scale, 1e-300)
        for inversion, square, scale in zip(inversions, squares, scales)
    )
    return squares, scales, gaps


def _gated(scenario: Scenario, t) -> tuple:
    """The published squares and their reality flags, square >= -RADICAND_CLAMP * scale.

    A gap above _AGREE_RTOL, at any time, raises ToleranceNotMet naming the
    parameter and the first such time.
    """
    squares, scales, gaps = nc_squares(scenario, t)
    for name, gap in zip(("theta_nc", "omega_nc"), gaps):
        bad = gap > _AGREE_RTOL
        if np.any(bad):
            when = np.ravel(np.broadcast_to(t, np.shape(bad)))[np.argmax(np.ravel(bad))]
            raise ToleranceNotMet(
                f"generic inversion disagrees with the closed form for {name} at t={when:g}"
            )
    return squares, [square >= -RADICAND_CLAMP * scale for square, scale in zip(squares, scales)]


def nc_parameters(scenario: Scenario, t) -> tuple:
    """Deformation parameters (theta_nc, omega_nc) at a time or on a grid.

    theta_nc is the coordinate-coordinate deformation (length^2), omega_nc
    the momentum-momentum one (momentum^2): the roots of the published
    squares, gated by the generic inversion (nc_squares). A square negative
    within its clamp reads 0. Raises DomainError naming the deformation if
    any point lies beyond the window.
    """
    squares, real = _gated(scenario, t)
    for what, inside in zip(
        ("the coordinate deformation theta_nc", "the momentum deformation omega_nc"), real
    ):
        if not np.all(inside):
            raise DomainError(f"{what} has a negative radicand; quantity is complex here")
    return tuple(np.sqrt(np.maximum(square, 0.0)) for square in squares)


def nc_table(scenario: Scenario, t) -> tuple:
    """The ncparams columns on a time grid: (theta_nc, omega_nc, theta_real, omega_real).

    Each value is the root of the magnitude of its published square, gated by
    the generic inversion at every time, and flagged real where the square is
    not negative beyond its clamp; never nan.
    """
    squares, real = _gated(scenario, t)
    return (*(np.sqrt(np.abs(square)) for square in squares), *real)
