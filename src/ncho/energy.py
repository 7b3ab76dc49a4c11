"""Energy expectation values in the time-dependent eigenstates.

In the state with labels (n, m) the quadratic expectation values are

    <x_j^2> = rho^2 (n+m+1)/2,
    <p_j^2> = (1/rho^2 + rho'^2/a^2) (n+m+1)/2,
    <x_j p_k> = eps_{jk} (m-n)/2,

(natural units, hbar = 1, and the invariant normalised to xi = 1, which
makes 1/rho^2 the width term) which assemble into

    <E_{n,m-n}> = (n+m+1)/2 * [b rho^2 + a/rho^2 + rho'^2/a] + (n-m) c(t).

This is the value printed. Every family publishes the same level structure,
the invariant's (Lewis & Riesenfeld, J. Math. Phys. 10, 1458 (1969)):

    <E_{n,m-n}> = (n+m+1) <E_00>(t) + (n-m) c(t),

and the family table (``families``) holds only <E_00>(t), as
``ground_energy``; the labels and the coupling are added here, once. The
two routes are compared on every evaluation (the closed form is algebra on
the family's analytic rho, so disagreement means a transcription bug, not
physics). Past a family-dependent horizon the coupling c(t) goes complex and
so does the energy; ``energy_series`` reports that bound alongside the value,
as its in_window column, rather than raising an error.
"""

from __future__ import annotations

import numpy as np

from .config import Scenario
from .errors import ToleranceNotMet
from .ermakov import coefficient_a, coefficient_b, rho_eval
from .hamiltonian import c_complex, in_reality_window, reality_horizon_time
from .spectrum import StateLabel

#: Relative tolerance for the assembled-vs-closed-form agreement assertion.
_CROSS_RTOL = 1e-10


def energy_expectation(scenario: Scenario, t, s: StateLabel):
    """<E_{n,m-n}> at a time, on a time grid or on its record (``Family.grid``), assembled
    from expectation values and cross-checked against (n+m+1) <E_00>(t) + (n-m) c(t).

    The assembled route and that closed form must agree to 1e-10
    relative to the summed term magnitudes at every point (the identity is
    algebraic in the family's analytic rho and holds beyond the reality
    horizon as well); a mismatch raises ToleranceNotMet.
    """
    grid = scenario.grid(t)  # one record: each map is formed once for all five quantities
    rho, rho_dot, _ = rho_eval(scenario, grid)
    a, _ = coefficient_a(scenario, grid)
    b = coefficient_b(scenario, grid)
    c = c_complex(scenario, grid)
    rho2 = rho * rho
    terms = (b * rho2, a / rho2, rho_dot * rho_dot / a)
    n_plus, n_minus = s.n + s.m + 1, s.n - s.m
    assembled = 0.5 * n_plus * (terms[0] + terms[1] + terms[2]) + n_minus * c
    closed = n_plus * scenario.ground_energy(grid) + n_minus * c
    # Judged against the term magnitudes, not |assembled|: past the horizon terms of
    # ~1e7 can cancel to ~1e2, leaving rounding noise that is large against the result
    # but not against the terms.
    scale = 0.5 * n_plus * sum(map(np.abs, terms)) + np.abs(n_minus * c)
    mismatch = np.abs(assembled - closed) / np.maximum(1.0, scale)
    bad = np.ravel(mismatch > _CROSS_RTOL)
    if bad.any():
        i = np.argmax(bad)
        at = (assembled, closed, mismatch, grid.t)
        got, want, rel, when = (np.ravel(x)[i].item() for x in at)
        raise ToleranceNotMet(
            f"assembled energy {got!r} and closed form {want!r} "
            f"disagree (rel {rel:.3e}) at t={when:g}"
        )
    return assembled


def energy_series(scenario: Scenario, s: StateLabel, t_grid) -> tuple[np.ndarray, ...]:
    """Scaled energy table over a sorted, nonnegative time grid: one array per column
    of ``cli.ENERGY_TABLE``, (t, gamma_t, e_re_scaled, e_im_scaled, in_window).

    Values are scaled by 1/omega0 (dimensionless, as plotted); when omega0
    is zero the scale is 1. ``in_window`` flags the times inside the reality
    window, inclusive at the horizon; it does not depend on the labels: for
    m = n the coupling term drops out and the value stays real past it.
    """
    t = np.asarray(t_grid, dtype=float)
    # Against a leading 0, one difference test covers sign and order.
    if np.any(np.diff(t, prepend=0.0) < 0.0):
        raise ValueError("time grid must be nonnegative and sorted ascending")
    w0 = scenario.constants.omega0
    scale = w0 if w0 > 0.0 else 1.0
    value = energy_expectation(scenario, t, s)
    gamma_t = scenario.constants.Gamma * t
    in_window = in_reality_window(reality_horizon_time(scenario), t)
    return (t, gamma_t, value.real / scale, value.imag / scale, in_window)
