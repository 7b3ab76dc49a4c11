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

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ncho.config import build_scenario, parse_scenario_file
from ncho.energy import energy_series
from ncho.hamiltonian import reality_horizon_time
from ncho.spectrum import StateLabel

STATES = (StateLabel(0, 0), StateLabel(1, 0), StateLabel(1, 2))
FMT = "%.12e"


def write_curve(scenario, name: str, state: StateLabel, out_dir: pathlib.Path) -> pathlib.Path:
    horizon = reality_horizon_time(scenario)
    t_end = 2.0 if horizon is None else min(1.5 * horizon, 40.0)
    grid = [t_end * i / 400 for i in range(401)]
    rows = energy_series(scenario, state, grid)
    path = out_dir / f"energy_{name}_n{state.n}_m{state.m}.csv"
    with path.open("w", newline="\n") as fh:
        fh.write("t,Gamma_t,E_re_scaled,E_im_scaled,in_window\n")
        for row in rows:
            fh.write(
                ",".join(
                    (FMT % row.t, FMT % row.gamma_t, FMT % row.e_re_scaled,
                     FMT % row.e_im_scaled, str(int(row.in_window)))
                )
                + "\n"
            )
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
