"""Output checks for benchmark operations.

Every check returns a list of problems; an empty list means the operation
passed. A failed check counts the operation as failed in the benchmark's
result, so `failed / attempted` is the run's failed fraction.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from workloads import ENERGY_SCRIPT, Op

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# `matelem` certifies its oracle to 1e-8 by default; the closed form must
# agree with it to that tolerance, relative to max(1, |closed|) as `verify`
# measures its matrix-oracle check.
MATELEM_TOL = 1e-8
FLAG_COLUMNS = frozenset({"in_window", "theta_real", "omega_real"})
METHODS = frozenset({"ClosedForm", "Quadrature"})
VERIFY_CHECKS = 7


def load_reference() -> dict:
    with REFERENCE_PATH.open() as fh:
        return json.load(fh)


def digest(rc, out: str) -> str:
    """Fingerprint of an operation's observable result (exit code and stdout)."""
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def csv_rows(out: str) -> list[str]:
    """Data rows of a CSV output (header dropped); [] if there is no header."""
    lines = out.split("\n")
    return lines[1:-1] if len(lines) > 1 else []


def _check_csv(op: Op, out: str) -> list[str]:
    lines = out.split("\n")
    if lines[0] != op.header:
        return [f"header {lines[0]!r}, expected {op.header!r}"]
    if lines[-1] != "":
        return ["output does not end with a newline"]
    rows = lines[1:-1]
    if len(rows) != op.rows:
        return [f"{len(rows)} rows, expected {op.rows}"]
    columns = op.header.split(",")
    problems = []
    for i, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != len(columns):
            problems.append(f"row {i}: {len(fields)} fields, expected {len(columns)}")
            continue
        for col, text in zip(columns, fields):
            if col in FLAG_COLUMNS:
                ok = text in ("0", "1")
            elif col == "method":
                ok = text in METHODS
            else:
                try:
                    ok = math.isfinite(float(text))
                except ValueError:
                    ok = False
            if not ok:
                problems.append(f"row {i}: bad {col} value {text!r}")
        if op.command == "matelem" and not problems:
            v = [float(x) for x in fields]
            closed = abs(complex(v[1], v[2]))
            if v[5] > MATELEM_TOL * max(1.0, closed):
                problems.append(f"row {i}: abs_err {v[5]:.3e} above oracle tolerance")
        if len(problems) >= 5:
            break
    return problems


def _check_verify(out: str) -> list[str]:
    lines = out.split("\n")
    passed = sum(1 for line in lines if line.rstrip().endswith("PASS"))
    summary = f"{VERIFY_CHECKS} checks: {VERIFY_CHECKS} passed, 0 failed"
    problems = []
    if passed != VERIFY_CHECKS:
        problems.append(f"{passed}/{VERIFY_CHECKS} checks PASS")
    if not any(line.startswith(summary) for line in lines):
        problems.append("verify summary line missing or not all passed")
    return problems


def check_op(op: Op, rc, out: str, err: str) -> list[str]:
    """Check one `ncho` call's exit code and output (scripts: see check_script)."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if "Traceback" in out or "Traceback" in err:
        problems.append("traceback printed")
    if op.command == "--help":
        if not out.startswith("usage: ncho"):
            problems.append("help text missing")
    elif op.command == "verify":
        problems += _check_verify(out)
    elif op.header is not None:
        problems += _check_csv(op, out)
    return problems


def check_script(op: Op, rc, out: str, err: str, out_dir: Path, sha256: dict) -> tuple[list[str], int]:
    """Check a figure script: exit code, and every file it wrote against the
    SHA-256 of the committed `out/` file of that name. Returns (problems, CSV rows written)."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if "Traceback" in out or "Traceback" in err:
        problems.append("traceback printed")
    prefix = "energy_" if op.script == ENERGY_SCRIPT else "phase_"
    expected = sorted(name for name in sha256 if name.startswith(prefix))
    written = sorted(p.name for p in out_dir.glob(prefix + "*.csv"))
    if written != expected:
        problems.append(f"wrote {len(written)} files, expected {len(expected)}")
    rows = 0
    for name in expected:
        path = out_dir / name
        if not path.is_file():
            continue
        data = path.read_bytes()
        rows += data.count(b"\n") - 1
        if hashlib.sha256(data).hexdigest() != sha256[name]:
            problems.append(f"{name} differs from the committed figure data")
    return problems, rows


def sample_indices(n: int) -> list[int]:
    """Row indices recorded in the reference subsample of an n-row output."""
    return sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1}) if n else []


def _pair(col: str) -> str:
    """Column name with its _re/_im part removed, so both parts share a scale."""
    return re.sub(r"_(re|im)(?=_|$)", "", col)


def compare_rows(header: str, got: list[str], want: list[list], rtol: float, skip) -> list[str]:
    """Compare sampled rows with the reference: flags and labels exactly,
    numbers within rtol of the larger of the two values and of the column's
    scale (its largest reference magnitude, shared by a _re/_im pair)."""
    columns = header.split(",")
    scale = {}
    for _, row in want:
        for col, text in zip(columns, row.split(",")):
            if col in FLAG_COLUMNS or col == "method":
                continue
            scale[_pair(col)] = max(scale.get(_pair(col), 0.0), abs(float(text)))
    problems = []
    for index, row in want:
        if index >= len(got):
            problems.append(f"reference row {index} missing")
            continue
        for col, w, g in zip(columns, row.split(","), got[index].split(",")):
            if col in skip:
                continue
            if col in FLAG_COLUMNS or col == "method":
                if w != g:
                    problems.append(f"row {index}: {col} {g!r}, reference {w!r}")
                continue
            wv, gv = float(w), float(g)
            if not abs(gv - wv) <= rtol * max(abs(gv), abs(wv), scale[_pair(col)]):
                problems.append(f"row {index}: {col} {g}, reference {w}")
    return problems
