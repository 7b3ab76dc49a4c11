"""Command-line front end: load scenarios, run verification suites, emit CSV data.

Subcommands
-----------
verify     -- run the cross-validation suites (constraint, scale-function
              residual, invariant ODEs, phase closed-form vs quadrature,
              matrix-element oracle, orthonormality) and print a pass/fail
              table; exit 0 iff everything passes.
energy     -- energy-expectation table over a time grid (Figs-style, scaled
              by 1/omega0).
phase      -- evolution phase over a time grid, with the method per row.
matelem    -- one matrix element over a time grid, closed form next to the
              quadrature oracle.
ncparams   -- deformation parameters over a time grid with reality flags.
wavefield  -- |psi|^2 sampled on an (r, angle) grid at fixed time.

CSV goes to stdout: comma separated, header row, %.12e numbers, LF endings,
flags as 0/1 integers (never NaN). Exit codes: 0 success, 1 a verification
or cross-check failed, 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import CONSTRAINT_RTOL, Scenario, build_scenario, parse_scenario_file
from .energy import energy_series
from .errors import NchoError, OutsideRealityWindow, ToleranceNotMet
from .ermakov import ep_residual, rho_eval
from .hamiltonian import nc_parameters, published_nc_squared, reality_horizon_time
from .invariant import invariant_coefficients, invariant_ode_residuals
from .spectrum import (
    Coordinate,
    StateLabel,
    eigenfunction_grid,
    matrix_element_oracle,
    matrix_element_x_pow,
    matrix_element_y_pow,
    overlap,
    phase_closed_form,
    phase_quadrature,
)

_FMT = "%.12e"

_GNUPLOT_ENERGY = """\
# Plot script for the energy CSV. Redirect stdout to energy.csv, then run
#   gnuplot -p <this file>
set datafile separator ','
set key autotitle columnhead
set xlabel 'Gamma * t'
set ylabel 'energy (scaled by 1/omega0)'
plot 'energy.csv' using 2:3 with lines title 'Re, scaled', \\
     'energy.csv' using 2:4 with lines dashtype 2 title 'Im, scaled'
"""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verify check."""

    name: str
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def _linspace(t0: float, t1: float, points: int) -> list[float]:
    if points == 1:
        return [t0]
    step = (t1 - t0) / (points - 1)
    return [t0 + i * step for i in range(points)]


def _load_scenario(path: str, enforce_constraint: bool = True) -> Scenario:
    return build_scenario(parse_scenario_file(path), enforce_constraint=enforce_constraint)


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be a finite number, got {value!r}")
    return value


def _time_grid(args) -> list[float]:
    if args.points < 1:
        raise ValueError(f"--points must be a positive integer, got {args.points}")
    _finite("--t0", args.t0)
    _finite("--t1", args.t1)
    if args.t1 < args.t0:
        raise ValueError(f"need --t1 >= --t0, got [{args.t0:g}, {args.t1:g}]")
    return _linspace(args.t0, args.t1, args.points)


def _state(args) -> StateLabel:
    return StateLabel(args.n, args.m)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_window(scenario: Scenario) -> tuple[float, float]:
    """Time window for the verify grids: [0, 2], shrunk inside any horizon."""
    t_end = 2.0
    horizon = reality_horizon_time(scenario)
    if horizon is not None and horizon > 0.0:
        t_end = min(t_end, 0.9 * horizon)
    return 0.0, t_end


# Each check returns its worst residual over the verify window [t0, t1].

def _check_ep(scenario: Scenario, t0: float, t1: float) -> float:
    return max(ep_residual(scenario, t).relative for t in _linspace(t0, t1, 200))


def _check_invariant_ode(scenario: Scenario, t0: float, t1: float) -> float:
    grid = _linspace(max(t0, 0.01), t1, 25)
    return max(invariant_ode_residuals(scenario, t).worst for t in grid)


def _check_invariant_identity(scenario: Scenario, t0: float, t1: float) -> float:
    target = 4.0 * scenario.constants.xi**2
    return max(
        abs(invariant_coefficients(scenario, t).quadratic_identity - target)
        / max(1.0, target)
        for t in _linspace(t0, t1, 25)
    )


def _check_phase(scenario: Scenario, t0: float, t1: float) -> float:
    s = StateLabel(0, 1)
    worst = 0.0
    for t in _linspace(t0, t1, 50):
        cf = phase_closed_form(scenario, s, t).value
        qd = phase_quadrature(scenario, s, t).value
        worst = max(worst, abs(cf - qd) / max(1.0, abs(cf), abs(qd)))
    return worst


def _check_matrix_oracle(scenario: Scenario, t0: float, t1: float) -> float:
    times = (t0 + 0.3 * (t1 - t0), t0 + 0.8 * (t1 - t0))
    worst = 0.0
    for t in times:
        for n in (0, 1):
            for m in (0, 1):
                for mp in (0, 1):
                    for k in (1, 2):
                        closed_x = matrix_element_x_pow(scenario, t, n, m, mp, k)
                        oracle_x = matrix_element_oracle(scenario, t, n, m, mp, k, Coordinate.X)
                        closed_y = matrix_element_y_pow(scenario, t, n, m, mp, k)
                        oracle_y = matrix_element_oracle(scenario, t, n, m, mp, k, Coordinate.Y)
                        worst = max(
                            worst,
                            abs(closed_x - oracle_x) / max(1.0, abs(closed_x)),
                            abs(closed_y - oracle_y) / max(1.0, abs(closed_y)),
                        )
    return worst


def _check_orthonormality(scenario: Scenario, t0: float, t1: float) -> float:
    t = t0 + 0.5 * (t1 - t0)
    labels = [StateLabel(n, m) for n in range(3) for m in range(3)]
    worst = 0.0
    for i, s1 in enumerate(labels):
        for s2 in labels[i:]:
            want = 1.0 if s1 == s2 else 0.0
            worst = max(worst, abs(overlap(scenario, t, s1, s2) - want))
    return worst


# (name, default tolerance, check); a --tol override replaces every tolerance.
_VERIFY_CHECKS = (
    ("family-constraint", CONSTRAINT_RTOL, lambda scenario, t0, t1: scenario.constraint_residual),
    ("ep-residual", 1e-12, _check_ep),
    ("invariant-ode", 1e-6, _check_invariant_ode),
    ("invariant-identity", 1e-12, _check_invariant_identity),
    ("phase-crossval", 1e-7, _check_phase),
    ("matrix-oracle", 1e-6, _check_matrix_oracle),
    ("orthonormality", 1e-6, _check_orthonormality),
)


def cmd_verify(args) -> int:
    scenario = _load_scenario(args.scenario, enforce_constraint=False)
    t0, t1 = _verify_window(scenario)
    results: list[CheckResult] = []
    for name, default_tol, check in _VERIFY_CHECKS:
        try:
            worst = check(scenario, t0, t1)
        except NchoError:
            # A failed quadrature certification or a reality-window breach is
            # a failed check, not a usage error.
            worst = math.inf
        results.append(CheckResult(name, worst, default_tol if args.tol is None else args.tol))

    print(f"scenario: {scenario.summary()}")
    print(f"{'check':<22} {'worst':>12} {'tolerance':>12}   status")
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name:<22} {res.worst:>12.3e} {res.tolerance:>12.3e}   {status}")
    passed = sum(res.passed for res in results)
    failed = len(results) - passed
    worst = max(res.worst for res in results)
    print(f"{len(results)} checks: {passed} passed, {failed} failed; worst residual {worst:.3e}")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------

def _emit(header: str, rows: list[str]) -> None:
    # Fields are %.12e numbers, 0/1 flags and method names, so only a
    # non-finite number prints as inf or nan.
    body = "".join(row + "\n" for row in rows)
    if "inf" in body or "nan" in body:
        raise ArithmeticError("a value is not finite; no table written")
    sys.stdout.write(header + "\n" + body)


def cmd_energy(args) -> int:
    scenario = _load_scenario(args.scenario)
    grid = _time_grid(args)
    samples = energy_series(scenario, _state(args), grid)
    rows = [
        ",".join(
            (
                _FMT % sample.t,
                _FMT % sample.gamma_t,
                _FMT % sample.e_re_scaled,
                _FMT % sample.e_im_scaled,
                str(int(sample.in_window)),
            )
        )
        for sample in samples
    ]
    _emit("t,Gamma_t,E_re_scaled,E_im_scaled,in_window", rows)
    if args.gnuplot:
        sys.stderr.write(_GNUPLOT_ENERGY)
    return 0


def cmd_phase(args) -> int:
    scenario = _load_scenario(args.scenario)
    s = _state(args)
    rows = []
    for t in _time_grid(args):
        res = phase_closed_form(scenario, s, t)
        rows.append(
            ",".join(
                (_FMT % t, _FMT % res.value.real, _FMT % res.value.imag, res.method.value)
            )
        )
    _emit("t,theta_re,theta_im,method", rows)
    return 0


def cmd_matelem(args) -> int:
    scenario = _load_scenario(args.scenario)
    m_prime = args.m if args.mprime is None else args.mprime
    closed_fn = matrix_element_x_pow if args.coord == "x" else matrix_element_y_pow
    tol = args.tol if args.tol is not None else 1e-8
    rows = []
    for t in _time_grid(args):
        closed = closed_fn(scenario, t, args.n, args.m, m_prime, args.k)
        oracle = matrix_element_oracle(scenario, t, args.n, args.m, m_prime, args.k, args.coord, tol=tol)
        rows.append(
            ",".join(
                (
                    _FMT % t,
                    _FMT % closed.real,
                    _FMT % closed.imag,
                    _FMT % oracle.real,
                    _FMT % oracle.imag,
                    _FMT % abs(closed - oracle),
                )
            )
        )
    _emit("t,closed_re,closed_im,oracle_re,oracle_im,abs_err", rows)
    return 0


def cmd_ncparams(args) -> int:
    scenario = _load_scenario(args.scenario)
    rows = []
    for t in _time_grid(args):
        try:
            nc = nc_parameters(scenario, t)
            theta, omega = nc.theta_nc, nc.omega_nc
            theta_real, omega_real = 1, 1
        except OutsideRealityWindow:
            # Beyond the window report magnitudes of the (now complex)
            # closed forms, flagged per column; never NaN.
            theta2, omega2 = published_nc_squared(scenario, t)
            theta, omega = math.sqrt(abs(theta2)), math.sqrt(abs(omega2))
            theta_real, omega_real = int(theta2 >= 0.0), int(omega2 >= 0.0)
        rows.append(
            ",".join(
                (_FMT % t, _FMT % theta, _FMT % omega, str(theta_real), str(omega_real))
            )
        )
    _emit("t,theta_nc,omega_nc,theta_real,omega_real", rows)
    return 0


def cmd_wavefield(args) -> int:
    scenario = _load_scenario(args.scenario)
    s = _state(args)
    if args.points < 1:
        raise ValueError(f"--points must be a positive integer, got {args.points}")
    t = _finite("--t0", args.t0)
    st = rho_eval(scenario, t)
    # Radius capturing the bulk of the state (the Gaussian scale times the
    # label-dependent spread), so the grid needs no extra flag.
    r_max = 4.0 * math.sqrt(scenario.hbar * st.rho**2 * (s.n + s.m + 1))
    n_grid = args.points
    r = r_max * np.arange(1, n_grid + 1) / n_grid
    angle = 2.0 * math.pi * np.arange(n_grid) / n_grid
    # psi = e^{i Theta} phi, with the same phase as the `phase` subcommand.
    psi_phase = cmath.exp(1j * phase_closed_form(scenario, s, t).value)
    psi = psi_phase * eigenfunction_grid(scenario, t, s, r[:, None], angle[None, :])
    density = np.abs(psi) ** 2
    rows = [
        ",".join((_FMT % ri, _FMT % aj, _FMT % dij))
        for ri, row in zip(r.tolist(), density.tolist())
        for aj, dij in zip(angle.tolist(), row)
    ]
    _emit("r,angle,psi_abs_sq", rows)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _add_scenario(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, metavar="FILE", help="scenario file path")


def _add_state(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=0, help="radial-type label (default 0)")
    p.add_argument("--m", type=int, default=0, help="second label (default 0)")


def _add_grid(p: argparse.ArgumentParser, points: int = 100) -> None:
    p.add_argument("--t0", type=float, default=0.0, help="grid start (default 0)")
    p.add_argument("--t1", type=float, default=1.0, help="grid end (default 1)")
    p.add_argument("--points", type=int, default=points, help=f"grid size (default {points})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncho",
        description="Damped oscillator on a time-dependent noncommutative "
        "phase space: verification suites and figure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all cross-validation checks")
    _add_scenario(p)
    p.add_argument("--tol", type=float, default=None, help="override every check tolerance")

    p = sub.add_parser("energy", help="energy expectation table (CSV)")
    _add_scenario(p)
    _add_state(p)
    _add_grid(p)
    p.add_argument("--gnuplot", action="store_true", help="emit a plot script on stderr")

    p = sub.add_parser("phase", help="evolution phase table (CSV)")
    _add_scenario(p)
    _add_state(p)
    _add_grid(p)

    p = sub.add_parser("matelem", help="matrix element vs oracle table (CSV)")
    _add_scenario(p)
    _add_state(p)
    _add_grid(p, points=10)
    p.add_argument("--mprime", type=int, default=None, help="column label (default: --m, the diagonal)")
    p.add_argument("--k", type=int, default=2, help="coordinate power (default 2)")
    p.add_argument("--coord", choices=("x", "y"), default="x", help="coordinate (default x)")
    p.add_argument("--tol", type=float, default=None, help="oracle certification tolerance")

    p = sub.add_parser("ncparams", help="deformation parameter table (CSV)")
    _add_scenario(p)
    _add_grid(p)

    p = sub.add_parser("wavefield", help="|psi|^2 on an (r, angle) grid (CSV)")
    _add_scenario(p)
    _add_state(p)
    p.add_argument("--t0", type=float, default=0.0, help="evaluation time (default 0)")
    p.add_argument("--points", type=int, default=32, help="grid size per axis (default 32)")

    return parser


_DISPATCH = {
    "verify": cmd_verify,
    "energy": cmd_energy,
    "phase": cmd_phase,
    "matelem": cmd_matelem,
    "ncparams": cmd_ncparams,
    "wavefield": cmd_wavefield,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.command](args)
    except BrokenPipeError:
        return 0
    except ToleranceNotMet as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # Cross-route disagreement (dual-form gates inside the modules).
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except NchoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # e.g. a finite time of 1e308 overflows
        print(f"error: inputs out of numerical range: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
