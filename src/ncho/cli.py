"""Command-line front end: load scenarios, run verification suites, emit CSV data.

Subcommands
-----------
verify     -- run the cross-validation suites (constraint, scale-function
              residual, invariant ODEs and energy against the exact motion,
              phase closed form vs quadrature, matrix-element oracle and
              orthonormality on one tensor rule, deformation parameters'
              squares vs their inversion); print a pass/fail table, exit 0
              iff all pass.
energy     -- energy-expectation table over a time grid (Figs-style, scaled
              by 1/omega0).
phase      -- evolution phase over a time grid, with the method per row.
matelem    -- one matrix element over a time grid, closed form next to the
              exact-rule quadrature oracle, certified by its rounding bound;
              past the oracle's validated labels the closed form alone, with
              a note on stderr. Each time's rho and unit phase are formed
              once, shared by the closed form and the oracle.
ncparams   -- deformation parameters over a time grid with reality flags.
wavefield  -- |psi|^2 sampled on an (r, angle) grid at fixed time.

CSV goes to stdout, one header row and then one comma-separated row per
point: numbers as %.12e, flags as 0/1 integers, phase methods by name
(ClosedForm, Quadrature), LF line endings. Time grids are numpy arrays,
t0 + i*step: energy, ncparams and phase evaluate the whole grid with one
call per family method, apply every per-point cross-check as a mask, and
hand whole columns to format_table, which writes every table and the figure
data of scripts/ with a numpy kernel that prints the same bytes as %. A
value that is not finite is refused with exit 2 and nothing written; a huge
finite --t1 ends there or in an OverflowError that names the quantity and
the time (exit 2), with numpy's floating-point warnings silenced. --points
is capped at 10**6 time points (MAX_POINTS) and 1000 per wavefield axis
(MAX_AXIS_POINTS). phase notes on stderr when rows lie outside the reality
window, and verify prints the window it checked. Exit codes: 0 success, 1 a
verification or cross-check failed, 2 usage/config errors.

main parses an argv that starts with a subcommand name with that
subcommand's parser alone, and reports what it leaves over through the
top-level parser, so every namespace, usage line and error is the one the
top-level parser gives; any other argv (none, -h, an unknown command, an
option before the command) goes to the top-level parser. A scenario file is
read on every call, so an edit shows at once; each distinct text (with its
path and whether the constraint is enforced) is parsed and built once per
process, as a Scenario is frozen. A file that fails is not remembered.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

import numpy as np

from .config import CONSTRAINT_RTOL, Scenario, build_scenario, parse_scenario_text
from .energy import energy_expectation, energy_series
from .errors import NchoError, ToleranceNotMet
from .ermakov import ep_residual, heisenberg_moments, rho_eval
from .hamiltonian import in_reality_window, nc_squares, nc_table, reality_horizon_time
from .invariant import invariant_ode_residuals
from .spectrum import (
    ORACLE_MAX_LABEL,
    ORACLE_MAX_POWER,
    Coordinate,
    StateLabel,
    hamiltonian_eigenfunction,
    matrix_element_oracle,
    matrix_element_x_pow,
    matrix_element_y_pow,
    oracle_validated,
    overlap,
    phase_crosscheck,
    phase_grid,
)

# Largest --points: time points per grid, and points per wavefield axis.
MAX_POINTS = 10**6
MAX_AXIS_POINTS = 1000

# Rows per block in format_table; blocks under _KERNEL_MIN_ROWS rows go
# through % alone, where the vector kernel's fixed cost would dominate.
_FORMAT_BLOCK = 4096
_KERNEL_MIN_ROWS = 64

# Each CSV table as (header, row format); the format joins %.12e, %d and %s
# fields with commas.
ENERGY_TABLE = ("t,Gamma_t,E_re_scaled,E_im_scaled,in_window", "%.12e,%.12e,%.12e,%.12e,%d")
PHASE_TABLE = ("t,theta_re,theta_im,method", "%.12e,%.12e,%.12e,%s")
MATELEM_TABLE = (
    "t,closed_re,closed_im,oracle_re,oracle_im,abs_err",
    "%.12e,%.12e,%.12e,%.12e,%.12e,%.12e",
)
# matelem past the oracle's validated labels: the closed form alone.
MATELEM_CLOSED_TABLE = ("t,closed_re,closed_im", "%.12e,%.12e,%.12e")
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


def _linspace(t0: float, t1: float, points: int) -> np.ndarray:
    """t0 + i*step; unlike np.linspace the last point is not pinned to t1."""
    if points == 1:
        return np.array([t0], dtype=float)
    step = (t1 - t0) / (points - 1)
    return t0 + np.arange(points) * step


def _load_scenario(path: str, enforce_constraint: bool = True) -> Scenario:
    """The scenario in the file at ``path``. The file is read on every call, so
    an edit shows at once; each distinct text is parsed and built once."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return _built_scenario(text, str(path), enforce_constraint)


@functools.lru_cache(maxsize=16)
def _built_scenario(text: str, source: str, enforce_constraint: bool) -> Scenario:
    # A Scenario is frozen, so one object serves every call with this text.
    # lru_cache keeps no exception: a bad file fails the same way every time.
    return build_scenario(parse_scenario_text(text, source), enforce_constraint=enforce_constraint)


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
    # nan compares false with everything: as verify's tolerance it would fail every check.
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
    return float(np.max(ep_residual(scenario, _linspace(t0, t1, 200))))


def _check_invariant_ode(scenario: Scenario, t0: float, t1: float) -> float:
    return float(np.max(invariant_ode_residuals(scenario, _linspace(t0, t1, 25))))


def _check_heisenberg(scenario: Scenario, t0: float, t1: float) -> float:
    """energy_expectation of (n, m) = (0, 0), (1, 2), (2, 0) against (n+m+1)(a<p^2> + b<x^2>)
    + (n-m)c, the moments propagated once at n+m+1 = 1, relative to the two terms' sizes."""
    grid = scenario.grid(_linspace(t0, t1, 25))  # one record for every quantity below
    x2, p2, _ = heisenberg_moments(scenario, grid)
    quadratic, c = scenario.a(grid)[0] * p2 + scenario.b(grid) * x2, scenario.c(grid)
    residuals = []
    for s in (StateLabel(0, 0), StateLabel(1, 2), StateLabel(2, 0)):
        terms = ((s.n + s.m + 1) * quadratic, (s.n - s.m) * c)
        gap = energy_expectation(scenario, grid, s) - sum(terms)
        residuals.append(np.abs(gap) / np.maximum(sum(map(np.abs, terms)), 1.0))
    return float(np.max(residuals))


def _check_phase(scenario: Scenario, t0: float, t1: float) -> float:
    return float(np.max(phase_crosscheck(scenario, StateLabel(0, 1), _linspace(t0, t1, 50))[3]))


# Residuals are folded with np.max, which keeps a nan: max(0.0, nan) is 0.0.

def _check_matrix_oracle(scenario: Scenario, t0: float, t1: float) -> float:
    """x^k and y^k elements against the tensor oracle at two times, and the overlaps of
    the nine states n, m <= 2 at mid-window on the same rule."""
    times = (t0 + 0.3 * (t1 - t0), t0 + 0.8 * (t1 - t0))
    residuals = []
    for t, n, m, mp, k in itertools.product(times, (0, 1), (0, 1), (0, 1), (1, 2)):
        closed_x = matrix_element_x_pow(scenario, t, n, m, mp, k)
        oracle_x = matrix_element_oracle(scenario, t, n, m, mp, k, Coordinate.X)
        closed_y = matrix_element_y_pow(scenario, t, n, m, mp, k)
        oracle_y = matrix_element_oracle(scenario, t, n, m, mp, k, Coordinate.Y)
        residuals += (
            abs(closed_x - oracle_x) / max(1.0, abs(closed_x)),
            abs(closed_y - oracle_y) / max(1.0, abs(closed_y)),
        )
    t = t0 + 0.5 * (t1 - t0)
    labels = [StateLabel(n, m) for n in range(3) for m in range(3)]
    residuals += [
        abs(overlap(scenario, t, s1, s2) - (1.0 if s1 == s2 else 0.0))
        for i, s1 in enumerate(labels)
        for s2 in labels[i:]
    ]
    return float(np.max(residuals))


def _check_deformation(scenario: Scenario, t0: float, t1: float) -> float:
    _, _, gaps = nc_squares(scenario, _linspace(t0, t1, 25))
    return float(np.max(gaps))


# (name, default tolerance, check); a --tol override replaces every tolerance.
_VERIFY_CHECKS = (
    ("family-constraint", CONSTRAINT_RTOL, lambda scenario, t0, t1: scenario.constraint_residual),
    ("ep-residual", 1e-12, _check_ep),
    ("invariant-ode", 1e-12, _check_invariant_ode),
    ("heisenberg", 1e-12, _check_heisenberg),
    ("phase-crossval", 1e-7, _check_phase),
    ("matrix-oracle", 1e-6, _check_matrix_oracle),
    ("deformation", 1e-12, _check_deformation),
)


def cmd_verify(args) -> int:
    if args.tol is not None:
        _positive("--tol", args.tol)
    scenario = _load_scenario(args.scenario, enforce_constraint=False)
    t0, t1 = verify_window(scenario)
    results = []  # (name, worst, tolerance)
    for name, default_tol, check in _VERIFY_CHECKS:
        try:
            worst = check(scenario, t0, t1)
        except (NchoError, ArithmeticError):
            # A failed certification, a reality-window breach, an overflow or a
            # dual-form gate's disagreement is a failed check, not a usage error.
            worst = math.inf
        worst = math.inf if math.isnan(worst) else worst  # a residual that is not a number
        results.append((name, worst, default_tol if args.tol is None else args.tol))

    print(f"scenario: {scenario.summary()}")
    print(f"window: t in [{t0:g}, {t1:g}]")
    if reality_horizon_time(scenario) == 0.0:
        print("reality window: empty (horizon 0); c(t) is complex on the whole window")
    print(f"{'check':<22} {'worst':>12} {'tolerance':>12}   status")
    for name, worst, tol in results:
        print(f"{name:<22} {worst:>12.3e} {tol:>12.3e}   {'PASS' if worst <= tol else 'FAIL'}")
    passed = sum(worst <= tol for _, worst, tol in results)
    failed = len(results) - passed
    worst = max(worst for _, worst, _ in results)
    print(f"{len(results)} checks: {passed} passed, {failed} failed; worst residual {worst:.3e}")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------

def format_table(table: tuple[str, str], columns) -> str:
    """The CSV text of a (header, row format) table over whole columns.

    ``columns`` holds one array or sequence per field, in table order, all
    of one length. The row format joins ``%.12e``, ``%d`` and ``%s`` fields
    with commas. The text is byte for byte what ``%`` prints. Raises
    ArithmeticError if any ``%.12e`` value is not finite.
    """
    header, row_format = table
    specs = row_format.split(",")
    floats = np.array([c for f, c in zip(specs, columns) if f == "%.12e"], dtype=float)
    if not np.isfinite(floats).all():
        raise ArithmeticError("a value is not finite; no table written")
    float_rows = iter(floats)
    columns = [next(float_rows) if f == "%.12e" else c for f, c in zip(specs, columns)]
    line = row_format + "\n"
    rows = len(columns[0]) if columns else 0
    parts = [header + "\n"]
    # Blocks bound the temporaries; a small block costs less through % alone.
    for start in range(0, rows, _FORMAT_BLOCK):
        block = [c[start:start + _FORMAT_BLOCK] for c in columns]
        text = _format_block(specs, block) if len(block[0]) >= _KERNEL_MIN_ROWS else None
        if text is None:
            values = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
            text = "".join([line % row for row in zip(*values)])
        parts.append(text)
    return "".join(parts)


@functools.cache
def _digit_words() -> tuple[np.ndarray, ...]:
    """Lookup tables of 4-byte ASCII words and the scaling powers of ten.

    head[100*sign + d0d1] = [- or NUL, d0, '.', d1]; quad[dddd] = four
    digits; tail[ddd] = [d, d, d, 'e']; expo[e + 99] = [sign, e1, e0, NUL];
    scale[e + 99] = fl(10**(12 - e)).
    """
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    pairs = np.stack([np.repeat(digits, 10), np.tile(digits, 10)], axis=1)
    quad = np.concatenate([np.repeat(pairs, 100, axis=0), np.tile(pairs, (100, 1))], axis=1)
    head = np.zeros((2, 100, 4), dtype=np.uint8)
    head[1, :, 0] = ord("-")
    head[:, :, 1] = pairs[:, 0]
    head[:, :, 2] = ord(".")
    head[:, :, 3] = pairs[:, 1]
    tail = np.concatenate([quad[:1000, 1:], np.full((1000, 1), ord("e"), np.uint8)], axis=1)
    expo = np.zeros((199, 4), dtype=np.uint8)
    expo[:, 0] = ord("-")
    expo[99:, 0] = ord("+")
    expo[:, 1:3] = pairs[np.abs(np.arange(-99, 100))]
    # The parser rounds correctly, so each power carries one rounding.
    scale = np.array([float(f"1e{12 - e}") for e in range(-99, 100)])
    words = [np.ascontiguousarray(w).view(np.uint32).ravel() for w in (head, quad, tail, expo)]
    return (*words, scale)


def _sci_words(x: np.ndarray) -> np.ndarray:
    """The %.12e text of finite doubles as NUL-padded ASCII, 5 or 6 uint32 words each.

    A value is scaled to y = |x| fl(10**(12 - e)) with e = floor(log10 |x|),
    as computed in floating point, clipped to +-99: two roundings, so y
    lies within 2.3e-3 of the exact product. rint(y) is then the correctly
    rounded 13-digit mantissa whenever y is 0.497 or less from it and
    1e12 <= y, rint(y) < 1e13. An e one too high (log10 rounding up just
    under a power of ten, or the clip for |x| < 1e-99) leaves y under 1e12,
    or so close above that %.12e rounds up to 1.000000000000 too; one too
    low leaves rint(y) >= 1e13. Every other value (a near tie, an e off by
    one, a three-digit exponent or a subnormal) goes to '%.12e' % v, once
    per distinct value; an unsigned one after a NUL, so that its text lines
    up with the kernel's words, whose first byte is the sign or NUL. The
    last byte of each value's words is NUL.
    """
    head, quad, tail, expo, scale = _digit_words()
    a = np.abs(x)
    zero = a == 0.0
    # floor(log10|x|) + 99 clipped to 0..198: truncation floors every value
    # the clip keeps. Zeros take e = 0 and print 0.000000000000e+00.
    e = np.minimum(np.maximum((np.log10(a + zero) + 99.0).astype(np.intp), 0), 198)
    y = a * scale[e]
    mantissa = np.rint(y)
    exact = zero | ((np.abs(y - mantissa) <= 0.497) & (y >= 1e12) & (mantissa < 1e13))
    mantissa *= exact
    # Digit groups in floating point: every step is exact below 2**53.
    groups = []
    for unit in (1e11, 1e7, 1e3):
        group = np.floor(mantissa / unit)
        mantissa -= group * unit
        groups.append(group.astype(np.intp))
    inexact = np.flatnonzero(~exact)
    distinct, where = np.unique(x.ravel()[inexact].view(np.uint64), return_inverse=True)
    fallback = ["%.12e" % v if v < 0.0 else "\0%.12e" % v for v in distinct.view(float).tolist()]
    size = 24 if any(len(text) > 19 for text in fallback) else 20
    words = np.zeros(x.shape + (size // 4,), dtype=np.uint32)
    words[..., 0] = head[groups[0] + 100 * np.signbit(x)]
    words[..., 1] = quad[groups[1]]
    words[..., 2] = quad[groups[2]]
    words[..., 3] = tail[mantissa.astype(np.intp)]
    words[..., 4] = expo[e]
    text = np.array(fallback, dtype=f"S{size}")
    words.reshape(-1, size // 4)[inexact] = text.view(np.uint32).reshape(-1, size // 4)[where]
    return words


def _flag_bytes(column) -> np.ndarray | None:
    """The %d text of bool or integer flags 0 to 9, one byte each; None otherwise."""
    a = np.asarray(column)
    if a.dtype.kind not in "biu" or a.min() < 0 or a.max() > 9:
        return None
    return (a.astype(np.uint8) + ord("0"))[:, None]


def _text_bytes(column) -> np.ndarray | None:
    """The %s text of an array or list of ASCII str, NUL-padded; None otherwise."""
    a = np.ascontiguousarray(column)
    if a.dtype.kind != "U" or not a.dtype.isnative:
        return None
    codes = a.view(np.uint32).reshape(len(a), -1)
    return codes.astype(np.uint8) if codes.max() < 128 else None


def _format_block(specs: list[str], block: list) -> str | None:
    """The rows of one block through the vector kernel; None when a %d or
    %s column is not one it takes, and the block goes through % instead.

    Each row is laid out in a zeroed uint8 buffer, one cell per field with
    its separator in the cell's last byte. A float column with no sign bit
    set leaves out its sign byte. The NUL padding is deleted from the
    finished text; a buffer with no NUL left is the text as it stands.
    """
    floats = np.array([c for s, c in zip(specs, block) if s == "%.12e"], float).reshape(-1, len(block[0]))
    words, signed = iter(_sci_words(floats)), iter(np.signbit(floats).any(axis=1))
    cells = []  # (bytes per row, bytes the cell and its separator take)
    for spec, column in zip(specs, block):
        if spec == "%.12e":
            cell = next(words).view(np.uint8)
            cell = cell if next(signed) else cell[:, 1:]
            cells.append((cell, cell.shape[1]))  # the last byte is NUL
            continue
        cell = _flag_bytes(column) if spec == "%d" else _text_bytes(column)
        if cell is None:
            return None
        cells.append((cell, cell.shape[1] + 1))
    buf = np.zeros((len(block[0]), sum(span for _, span in cells)), dtype=np.uint8)
    seps = []
    offset = 0
    for cell, span in cells:
        buf[:, offset:offset + cell.shape[1]] = cell
        offset += span
        seps.append(offset - 1)
    buf[:, seps] = np.frombuffer(b"," * (len(seps) - 1) + b"\n", dtype=np.uint8)
    if buf.all():
        return str(buf.data, "ascii")
    return buf.tobytes().translate(None, b"\0").decode("ascii")


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
    t = _time_grid(args)
    labels = (args.n, args.m, m_prime, args.k)
    validated = oracle_validated(*labels)
    # At each time the closed form, then the oracle (an exact, rounding-certified 2-D rule).
    closed, oracle = np.array([
        (closed_fn(scenario, ti, *labels),
         matrix_element_oracle(scenario, ti, *labels, args.coord) if validated else 0j)
        for ti in t.tolist()
    ]).T
    if not validated:
        print(
            f"note: the oracle is validated for n, m, m' <= {ORACLE_MAX_LABEL} and "
            f"k <= {ORACLE_MAX_POWER} only; printing the closed form alone",
            file=sys.stderr,
        )
        sys.stdout.write(format_table(MATELEM_CLOSED_TABLE, (t, closed.real, closed.imag)))
        return 0
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
    # Radius capturing the bulk of the state (the Gaussian scale times the
    # label-dependent spread), so the grid needs no extra flag.
    r_max = 4.0 * math.sqrt(rho_eval(scenario, t).power(2) * (s.n + s.m + 1))
    r = r_max * np.arange(1, n_grid + 1) / n_grid
    angle = 2.0 * math.pi * np.arange(n_grid) / n_grid
    # psi = e^{i Theta} phi, with the same phase as the `phase` subcommand.
    psi = hamiltonian_eigenfunction(scenario, t, s, r[:, None], angle[None, :])
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


def build_parser() -> argparse.ArgumentParser:
    """The ``ncho`` parser, built once per process.

    Reuse is safe: each ``parse_args`` call fills a fresh namespace, and
    every default is immutable.
    """
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``ncho`` parser and its subcommand parsers by name."""
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

    p = sub.add_parser("ncparams", help="deformation parameter table (CSV)")
    _add_scenario(p)
    _add_grid(p)

    p = sub.add_parser("wavefield", help="|psi|^2 on an (r, angle) grid (CSV)")
    _add_scenario(p)
    _add_state(p)
    p.add_argument("--t0", type=float, default=0.0, help="evaluation time (default 0)")
    p.add_argument("--points", type=int, default=32, help="grid size per axis (default 32)")

    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one argparse pass when argv[0] names a
    subcommand: the top-level parser would hand every later argument to that
    subcommand's parser, and report what it leaves over as unrecognized."""
    command = _parsers()[1].get(argv[0]) if argv else None
    if command is None:  # no argv, -h, an unknown command or an option before it
        return build_parser().parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


_DISPATCH = {
    "verify": cmd_verify,
    "energy": cmd_energy,
    "phase": cmd_phase,
    "matelem": cmd_matelem,
    "ncparams": cmd_ncparams,
    "wavefield": cmd_wavefield,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # Overflow on a huge finite time gives inf/nan, which format_table
        # refuses; numpy's warnings about it would only repeat that on stderr.
        with np.errstate(all="ignore"):
            return _DISPATCH[args.command](args)
    except BrokenPipeError:
        return 0
    except ToleranceNotMet as exc:  # a missed tolerance or a dual-form gate's disagreement
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
