"""Energy expectation values in the time-dependent eigenstates.

In the state with labels (n, m) the quadratic expectation values are

    <x_j^2> = rho^2 (n+m+1)/2,
    <p_j^2> = (1/rho^2 + rho'^2/a^2) (n+m+1)/2,
    <x_j p_k> = eps_{jk} (m-n)/2,

(natural units) which assemble into

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

from .config import Scenario
from .ermakov import coefficient_a, coefficient_b, rho_eval
from .hamiltonian import c_complex, reality_horizon_time
from .spectrum import StateLabel

#: Relative tolerance for the assembled-vs-closed-form agreement assertion.
_CROSS_RTOL = 1e-10


@dataclass(frozen=True)
class EnergyResult:
    """Energy expectation value at one time; complex past the reality horizon.

    ``real_horizon`` (None if unbounded, 0.0 if the window is empty) does
    not depend on the labels: for m = n the coupling term drops out and the
    value stays real past it.
    """

    value: complex
    t: float
    real_horizon: float | None
    state: StateLabel

    @property
    def in_window(self) -> bool:
        # A horizon of 0.0 is an empty window, not the single point t = 0.
        return self.real_horizon is None or (self.real_horizon > 0.0 and self.t <= self.real_horizon)


class EnergySample(NamedTuple):
    """One row of a scaled energy table (figure-style output), in column order."""

    t: float
    gamma_t: float
    e_re_scaled: float
    e_im_scaled: float
    in_window: bool


def energy_expectation(scenario: Scenario, t: float, s: StateLabel) -> EnergyResult:
    """<E_{n,m-n}(t)> assembled from expectation values, cross-checked per family.

    The assembled route and the family closed form must agree to 1e-10
    relative to the summed term magnitudes (the identity is algebraic in the
    family's analytic rho and holds beyond the reality horizon as well); a
    mismatch raises RuntimeError.
    """
    st = rho_eval(scenario, t)
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)
    c = c_complex(scenario, t)
    bracket = b * st.rho**2 + a / st.rho**2 + st.rho_dot**2 / a
    assembled = 0.5 * (s.n + s.m + 1) * bracket + (s.n - s.m) * c
    closed = scenario.family.energy(t, s.n + s.m + 1, s.n - s.m, c)
    if closed is not None:
        # Judged against the term magnitudes, not |assembled|: past the
        # horizon terms of ~1e7 can cancel to ~1e2, leaving rounding noise
        # that is large against the result but not against the terms. Their
        # sum bounds |assembled|, so it is formed only when that bound fails.
        diff = abs(assembled - closed)
        if diff > _CROSS_RTOL * max(1.0, abs(assembled)):
            terms = (b * st.rho**2, a / st.rho**2, st.rho_dot**2 / a)
            scale = 0.5 * (s.n + s.m + 1) * sum(map(abs, terms)) + abs((s.n - s.m) * c)
            mismatch = diff / max(1.0, scale)
            if mismatch > _CROSS_RTOL:
                raise RuntimeError(
                    f"assembled energy {assembled!r} and closed form {closed!r} "
                    f"disagree (rel {mismatch:.3e}) at t={t:g}"
                )
    return EnergyResult(complex(assembled), t, reality_horizon_time(scenario), s)


def energy_series(
    scenario: Scenario, s: StateLabel, t_grid
) -> list[EnergySample]:
    """Scaled energy table over a sorted, nonnegative time grid.

    Values are scaled by 1/omega0 (dimensionless, as plotted); when omega0
    is zero the scale is 1.
    """
    grid = [float(t) for t in t_grid]
    if any(t < 0.0 for t in grid):
        raise ValueError("time grid must be nonnegative")
    if any(t2 < t1 for t1, t2 in zip(grid, grid[1:])):
        raise ValueError("time grid must be sorted ascending")
    w0 = scenario.constants.omega0
    scale = w0 if w0 > 0.0 else 1.0
    gamma = scenario.constants.Gamma
    rows = []
    for t in grid:
        res = energy_expectation(scenario, t, s)
        rows.append(
            EnergySample(
                t=t,
                gamma_t=gamma * t,
                e_re_scaled=res.value.real / scale,
                e_im_scaled=res.value.imag / scale,
                in_window=res.in_window,
            )
        )
    return rows
