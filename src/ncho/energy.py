"""Energy expectation values in the time-dependent eigenstates.

In the state with labels (n, m) the quadratic expectation values are

    <x_j^2> = rho^2 (n+m+1)/2,
    <p_j^2> = (1/rho^2 + rho'^2/a^2) (n+m+1)/2,
    <x_j p_k> = eps_{jk} (m-n)/2,

(natural units, hbar = 1, and the invariant normalised to xi = 1, which
makes 1/rho^2 the width term) which assemble into

    <E_{n,m-n}> = (n+m+1)/2 * [b rho^2 + a/rho^2 + rho'^2/a] + (n-m) c(t).

Each scenario family also publishes a closed form for this quantity, held in
the family table (``families``); the two routes are compared on every
evaluation (the closed form is algebra on the family's analytic rho, so
disagreement means a transcription bug, not physics). Past a family-dependent
horizon the coupling c(t) goes complex and so does the energy; that bound is
reported alongside the value rather than raised as an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Scenario
from .errors import ToleranceNotMet
from .ermakov import coefficient_a, coefficient_b, rho_eval
from .hamiltonian import c_complex, in_reality_window, reality_horizon_time
from .spectrum import StateLabel

#: Relative tolerance for the assembled-vs-closed-form agreement assertion.
_CROSS_RTOL = 1e-10


@dataclass(frozen=True)
class EnergyResult:
    """Energy expectation value at a time or on a time grid; complex past the reality horizon.

    ``real_horizon`` (None if unbounded, 0.0 if the window is empty) does
    not depend on the labels: for m = n the coupling term drops out and the
    value stays real past it.
    """

    value: complex
    t: float
    real_horizon: float | None

    @property
    def in_window(self):
        return in_reality_window(self.real_horizon, self.t)


class EnergySeries(NamedTuple):
    """A scaled energy table (figure-style output): one array per column, in column order."""

    t: np.ndarray
    gamma_t: np.ndarray
    e_re_scaled: np.ndarray
    e_im_scaled: np.ndarray
    in_window: np.ndarray


def energy_expectation(scenario: Scenario, t, s: StateLabel) -> EnergyResult:
    """<E_{n,m-n}> at a time or on a time grid, assembled from expectation
    values and cross-checked per family.

    The assembled route and the family closed form must agree to 1e-10
    relative to the summed term magnitudes at every point (the identity is
    algebraic in the family's analytic rho and holds beyond the reality
    horizon as well); a mismatch raises ToleranceNotMet.
    """
    st = rho_eval(scenario, t)
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)
    c = c_complex(scenario, t)
    rho2 = st.rho * st.rho
    terms = (b * rho2, a / rho2, st.rho_dot * st.rho_dot / a)
    assembled = 0.5 * (s.n + s.m + 1) * (terms[0] + terms[1] + terms[2]) + (s.n - s.m) * c
    closed = scenario.energy(t, s.n + s.m + 1, s.n - s.m, c)
    # Judged against the term magnitudes, not |assembled|: past the horizon terms of
    # ~1e7 can cancel to ~1e2, leaving rounding noise that is large against the result
    # but not against the terms. Their sum bounds |assembled|, so it is formed only
    # where that bound fails.
    diff = np.abs(assembled - closed)
    suspect = diff > _CROSS_RTOL * np.maximum(1.0, np.abs(assembled))
    if np.any(suspect):
        scale = 0.5 * (s.n + s.m + 1) * sum(map(np.abs, terms)) + np.abs((s.n - s.m) * c)
        mismatch = diff / np.maximum(1.0, scale)
        bad = np.ravel(suspect & (mismatch > _CROSS_RTOL))
        if bad.any():
            i = np.argmax(bad)
            at = (assembled, closed, mismatch, t)
            got, want, rel, when = (np.ravel(x)[i].item() for x in at)
            raise ToleranceNotMet(
                f"assembled energy {got!r} and closed form {want!r} "
                f"disagree (rel {rel:.3e}) at t={when:g}"
            )
    return EnergyResult(assembled, t, reality_horizon_time(scenario))


def energy_series(scenario: Scenario, s: StateLabel, t_grid) -> EnergySeries:
    """Scaled energy table over a sorted, nonnegative time grid.

    Values are scaled by 1/omega0 (dimensionless, as plotted); when omega0
    is zero the scale is 1.
    """
    t = np.asarray(t_grid, dtype=float)
    # Against a leading 0, one difference test covers sign and order.
    if np.any(np.diff(t, prepend=0.0) < 0.0):
        raise ValueError("time grid must be nonnegative and sorted ascending")
    w0 = scenario.constants.omega0
    scale = w0 if w0 > 0.0 else 1.0
    res = energy_expectation(scenario, t, s)
    gamma_t = scenario.constants.Gamma * t
    return EnergySeries(t, gamma_t, res.value.real / scale, res.value.imag / scale, res.in_window)
