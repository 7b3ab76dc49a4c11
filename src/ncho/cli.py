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

CSV goes to stdout, one header row and then one comma-separated row per
point: numbers as %.12e, flags as 0/1 integers, phase methods by name
(ClosedForm, Quadrature), LF line endings. Time grids are numpy arrays,
t0 + i*step: energy, ncparams and phase evaluate the whole grid with one
call per family method, apply every per-point cross-check as a mask, and
hand whole columns to format_table, which writes every table and the figure
data of scripts/. A value that is not finite is refused with exit 2 and
nothing written; a huge finite --t1 ends there or in an OverflowError (exit
2), with numpy's floating-point warnings silenced. --points is capped at
10**6 time points (MAX_POINTS) and 1000 per wavefield axis
(MAX_AXIS_POINTS). phase notes on stderr when rows lie outside the reality
window, and verify prints the window it checked. Exit codes: 0 success, 1 a
verification or cross-check failed, 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import CONSTRAINT_RTOL, Scenario, build_scenario, parse_scenario_file
from .energy import energy_series
from .errors import NchoError, ToleranceNotMet
from .ermakov import ep_residual, rho_eval
from .hamiltonian import in_reality_window, nc_table, reality_horizon_time
from .invariant import invariant_coefficients, invariant_ode_residuals
from .spectrum import (
    Coordinate,
    StateLabel,
    hamiltonian_eigenfunction_grid,
    matrix_element_oracle,
    matrix_element_x_pow,
    matrix_element_y_pow,
    overlap,
    phase_crosscheck,
    phase_grid,
)

# Largest --points: time points per grid, and points per wavefield axis.
MAX_POINTS = 10**6
MAX_AXIS_POINTS = 1000

# Rows per %-operation in format_table.
_FORMAT_BLOCK = 4096

# Each CSV table as (header, row format): one %-string formats a whole row.
ENERGY_TABLE = ("t,Gamma_t,E_re_scaled,E_im_scaled,in_window", "%.12e,%.12e,%.12e,%.12e,%d")
PHASE_TABLE = ("t,theta_re,theta_im,method", "%.12e,%.12e,%.12e,%s")
MATELEM_TABLE = (
    "t,closed_re,closed_im,oracle_re,oracle_im,abs_err",
    "%.12e,%.12e,%.12e,%.12e,%.12e,%.12e",
)
NCPARAMS_TABLE = ("t,theta_nc,omega_nc,theta_real,omega_real", "%.12e,%.12e,%.12e,%d,%d")
WAVEFIELD_TABLE = ("r,angle,psi_abs_sq", "%.12e,%.12e,%.12e")

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


def _linspace(t0: float, t1: float, points: int) -> np.ndarray:
    """t0 + i*step; unlike np.linspace the last point is not pinned to t1."""
    if points == 1:
        return np.array([t0], dtype=float)
    step = (t1 - t0) / (points - 1)
    return t0 + np.arange(points) * step


def _load_scenario(path: str, enforce_constraint: bool = True) -> Scenario:
    return build_scenario(parse_scenario_file(path), enforce_constraint=enforce_constraint)


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be a finite number, got {value!r}")
    return value


def _start_time(value: float) -> float:
    """--t0, finite and not negative: the families are defined for t >= 0 only."""
    if _finite("--t0", value) < 0.0:
        raise ValueError(f"--t0 must be >= 0, got {value:g}")
    return value


def _positive(flag: str, value: float) -> float:
    # nan compares false with everything: as a tolerance it would certify any oracle.
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{flag} must be a finite positive number, got {value!r}")
    return value


def _points(value: int, limit: int) -> int:
    """--points, checked before any grid is built."""
    if not 1 <= value <= limit:
        raise ValueError(f"--points must be an integer from 1 to {limit}, got {value}")
    return value


def _time_grid(args) -> np.ndarray:
    _points(args.points, MAX_POINTS)
    _start_time(args.t0)
    _finite("--t1", args.t1)
    if args.t1 < args.t0:
        raise ValueError(f"need --t1 >= --t0, got [{args.t0:g}, {args.t1:g}]")
    return _linspace(args.t0, args.t1, args.points)


def _state(args) -> StateLabel:
    return StateLabel(args.n, args.m)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify_window(scenario: Scenario) -> tuple[float, float]:
    """Time window for the verify grids and the phase scan: [0, 2], shrunk
    inside any horizon. An empty reality window (horizon 0) keeps [0, 2]."""
    t_end = 2.0
    horizon = reality_horizon_time(scenario)
    if horizon is not None and horizon > 0.0:
        t_end = min(t_end, 0.9 * horizon)
    return 0.0, t_end


# Each check returns its worst residual over the verify window [t0, t1].

def _check_ep(scenario: Scenario, t0: float, t1: float) -> float:
    return float(np.max(ep_residual(scenario, _linspace(t0, t1, 200)).relative))


def _check_invariant_ode(scenario: Scenario, t0: float, t1: float) -> float:
    grid = _linspace(max(t0, 0.01), t1, 25)
    return float(np.max(invariant_ode_residuals(scenario, grid).worst))


def _check_invariant_identity(scenario: Scenario, t0: float, t1: float) -> float:
    target = 4.0 * scenario.constants.xi**2
    identity = invariant_coefficients(scenario, _linspace(t0, t1, 25)).quadratic_identity
    return float(np.max(np.abs(identity - target)) / max(1.0, target))


def _check_phase(scenario: Scenario, t0: float, t1: float) -> float:
    return float(np.max(phase_crosscheck(scenario, StateLabel(0, 1), _linspace(t0, t1, 50))[3]))


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
    if args.tol is not None:
        _positive("--tol", args.tol)
    scenario = _load_scenario(args.scenario, enforce_constraint=False)
    t0, t1 = verify_window(scenario)
    results: list[CheckResult] = []
    for name, default_tol, check in _VERIFY_CHECKS:
        try:
            worst = check(scenario, t0, t1)
        except (NchoError, ArithmeticError):
            # A failed quadrature certification, a reality-window breach or an
            # overflow is a failed check, not a usage error.
            worst = math.inf
        results.append(CheckResult(name, worst, default_tol if args.tol is None else args.tol))

    print(f"scenario: {scenario.summary()}")
    print(f"window: t in [{t0:g}, {t1:g}]")
    if reality_horizon_time(scenario) == 0.0:
        print("reality window: empty (horizon 0); c(t) is complex on the whole window")
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

def format_table(table: tuple[str, str], columns) -> str:
    """The CSV text of a (header, row format) table over whole columns.

    ``columns`` holds one array or sequence per field, in table order, all
    of one length. Raises ArithmeticError if any value is not finite.
    """
    header, row_format = table
    line = row_format + "\n"
    rows = len(columns[0]) if len(columns) else 0
    parts = [header + "\n"]
    # One %-operation per block of rows; blocks bound the per-value temporaries.
    for start in range(0, rows, _FORMAT_BLOCK):
        block = [c[start:start + _FORMAT_BLOCK] for c in columns]
        values = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
        text = (line * len(values[0])) % tuple(itertools.chain.from_iterable(zip(*values)))
        # Fields are %.12e numbers, 0/1 flags and method names, so only a
        # non-finite number prints as inf or nan.
        if "inf" in text or "nan" in text:
            raise ArithmeticError("a value is not finite; no table written")
        parts.append(text)
    return "".join(parts)


def cmd_energy(args) -> int:
    scenario = _load_scenario(args.scenario)
    grid = _time_grid(args)
    sys.stdout.write(format_table(ENERGY_TABLE, energy_series(scenario, _state(args), grid)))
    if args.gnuplot:
        sys.stderr.write(_GNUPLOT_ENERGY)
    return 0


def cmd_phase(args) -> int:
    scenario = _load_scenario(args.scenario)
    t = _time_grid(args)
    theta, methods = phase_grid(scenario, _state(args), t)
    table = format_table(PHASE_TABLE, (t, theta.real, theta.imag, methods))
    horizon = reality_horizon_time(scenario)
    outside = np.count_nonzero(~in_reality_window(horizon, t))
    if outside:
        print(
            f"note: {outside} of {t.size} rows lie outside the reality window "
            f"(horizon {horizon:g}), where the phase is complex",
            file=sys.stderr,
        )
    sys.stdout.write(table)
    return 0


def cmd_matelem(args) -> int:
    scenario = _load_scenario(args.scenario)
    m_prime = args.m if args.mprime is None else args.mprime
    closed_fn = matrix_element_x_pow if args.coord == "x" else matrix_element_y_pow
    tol = 1e-8 if args.tol is None else _positive("--tol", args.tol)
    t = _time_grid(args)
    # The oracle is one certified 2-D quadrature per time.
    labels = (args.n, args.m, m_prime, args.k)
    closed = np.array([closed_fn(scenario, ti, *labels) for ti in t.tolist()])
    oracle = np.array(
        [matrix_element_oracle(scenario, ti, *labels, args.coord, tol=tol) for ti in t.tolist()]
    )
    columns = (t, closed.real, closed.imag, oracle.real, oracle.imag, np.abs(closed - oracle))
    sys.stdout.write(format_table(MATELEM_TABLE, columns))
    return 0


def cmd_ncparams(args) -> int:
    scenario = _load_scenario(args.scenario)
    t = _time_grid(args)
    sys.stdout.write(format_table(NCPARAMS_TABLE, (t, *nc_table(scenario, t))))
    return 0


def cmd_wavefield(args) -> int:
    scenario = _load_scenario(args.scenario)
    s = _state(args)
    n_grid = _points(args.points, MAX_AXIS_POINTS)
    t = _start_time(args.t0)
    st = rho_eval(scenario, t)
    # Radius capturing the bulk of the state (the Gaussian scale times the
    # label-dependent spread), so the grid needs no extra flag.
    r_max = 4.0 * math.sqrt(scenario.hbar * st.rho**2 * (s.n + s.m + 1))
    r = r_max * np.arange(1, n_grid + 1) / n_grid
    angle = 2.0 * math.pi * np.arange(n_grid) / n_grid
    # psi = e^{i Theta} phi, with the same phase as the `phase` subcommand.
    psi = hamiltonian_eigenfunction_grid(scenario, t, s, r[:, None], angle[None, :])
    density = np.abs(psi) ** 2
    columns = (np.repeat(r, n_grid), np.tile(angle, n_grid), density.ravel())
    sys.stdout.write(format_table(WAVEFIELD_TABLE, columns))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ncho`` parser, built once per process.

    Reuse is safe: each ``parse_args`` call fills a fresh namespace, and
    every default is immutable.
    """
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
        # Overflow on a huge finite time gives inf/nan, which format_table
        # refuses; numpy's warnings about it would only repeat that on stderr.
        with np.errstate(all="ignore"):
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
