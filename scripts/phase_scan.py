#!/usr/bin/env python3
"""Scan evolution phases across scenarios, comparing both evaluation routes.

For each shipped scenario the script tabulates the closed-form phase and the
adaptive-quadrature phase of the (0, 1) state on a time grid, records which
method the closed-form entry actually used (families without a valid series
representation fall back to quadrature), and prints the worst disagreement.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ncho.cli import format_table, verify_window
from ncho.config import build_scenario, parse_scenario_file
from ncho.spectrum import StateLabel, phase_crosscheck

STATE = StateLabel(0, 1)
TABLE = (
    "t,closed_re,closed_im,quad_re,quad_im,method,rel_err",
    "%.12e,%.12e,%.12e,%.12e,%.12e,%s,%.12e",
)


def scan(scenario, name: str, out_dir: pathlib.Path, points: int) -> float:
    _, t_end = verify_window(scenario)
    t = t_end * np.arange(points) / (points - 1)
    cf, methods, qd, err = phase_crosscheck(scenario, STATE, t)
    worst = max(err)
    path = out_dir / f"phase_{name}.csv"
    columns = (t, cf.real, cf.imag, qd.real, qd.imag, methods, err)
    path.write_text(format_table(TABLE, columns), newline="\n")
    print(f"wrote {path}  worst rel err {worst:.3e}")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenarios", default=None,
        help="directory of .scenario files (default: ../scenarios)",
    )
    parser.add_argument("--out", default=None, help="output directory (default: ../out)")
    parser.add_argument("--points", type=int, default=60, help="grid size (default 60)")
    args = parser.parse_args(argv)

    root = pathlib.Path(__file__).resolve().parent.parent
    scenario_dir = pathlib.Path(args.scenarios) if args.scenarios else root / "scenarios"
    out_dir = pathlib.Path(args.out) if args.out else root / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    worst = 0.0
    for path in sorted(scenario_dir.glob("*.scenario")):
        scenario = build_scenario(parse_scenario_file(path))
        worst = max(worst, scan(scenario, path.stem, out_dir, args.points))
    print(f"overall worst rel err {worst:.3e}")
    return 0 if worst <= 1e-7 else 1


if __name__ == "__main__":
    raise SystemExit(main())
