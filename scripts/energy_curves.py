#!/usr/bin/env python3
"""Generate scaled energy-expectation curves for every shipped scenario.

Writes one CSV per scenario/state combination into the output directory,
mirroring the published figure layout: the abscissa is the dimensionless
Gamma*t and the ordinate the energy in units of omega0. Rows past the
reality horizon carry a nonzero imaginary column and in_window = 0.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ncho.cli import ENERGY_TABLE, format_table
from ncho.config import build_scenario, parse_scenario_file
from ncho.energy import energy_series
from ncho.hamiltonian import reality_horizon_time
from ncho.spectrum import StateLabel

STATES = (StateLabel(0, 0), StateLabel(1, 0), StateLabel(1, 2))


def write_curve(scenario, name: str, state: StateLabel, out_dir: pathlib.Path) -> pathlib.Path:
    horizon = reality_horizon_time(scenario)
    # Past a horizon to show the complex branch; an unbounded or an empty
    # window (horizon None or 0.0) takes [0, 2].
    t_end = min(1.5 * horizon, 40.0) if horizon else 2.0
    grid = t_end * np.arange(401) / 400
    path = out_dir / f"energy_{name}_n{state.n}_m{state.m}.csv"
    path.write_text(format_table(ENERGY_TABLE, energy_series(scenario, state, grid)), newline="\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenarios", default=None,
        help="directory of .scenario files (default: ../scenarios)",
    )
    parser.add_argument(
        "--out", default=None, help="output directory (default: ../out)"
    )
    args = parser.parse_args(argv)

    root = pathlib.Path(__file__).resolve().parent.parent
    scenario_dir = pathlib.Path(args.scenarios) if args.scenarios else root / "scenarios"
    out_dir = pathlib.Path(args.out) if args.out else root / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    for path in sorted(scenario_dir.glob("*.scenario")):
        scenario = build_scenario(parse_scenario_file(path))
        for state in STATES:
            written = write_curve(scenario, path.stem, state, out_dir)
            print(f"wrote {written}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
