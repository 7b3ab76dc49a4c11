"""Interleaved warm in-process A/B rounds of one benchmark workload: parent vs this tree.

    python3 tools/ab_rounds.py --parent ../parent --workload grid --seed 5 --reps 20

The `ncho` packages under `--parent/src/ncho` and this tree's `src/ncho` are
loaded into one process under two package names (`ncho_parent` and
`ncho_change`; the package imports itself only relatively). Each round runs
the workload's CLI operations (the seeded lists of perfbench/workloads.py,
read and never changed; the figure scripts of `cold` are left out, as in
tools/op_hashes.py) through one tree's `cli.main`, from the root of this
tree, so both sides read the same scenario files. The two trees alternate
which goes first in each pair of rounds, after one untimed warm-up round
each.

It prints each side's median round time and median op p50 (the median op
time of a round), the change's ratios to the parent, and in how many pairs
the change's round was faster. It exits 1 if any operation's exit code,
stdout or stderr differs between the trees.

These are warm rounds in one long-lived process, not perfbench's fresh
worker process per round, so import, set-up and first-call costs do not
show. It sizes a change side by side on a drifting host; it does not
replace the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from worker import run_op  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


def load_cli(tree: Path, name: str):
    """`cli` of the package at tree/src/ncho, imported as package `name`."""
    package = tree.resolve() / "src" / "ncho"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_round(cli, argvs) -> tuple[float, list[float], list[str]]:
    """(round time, op times, output hashes) of one pass over the operations."""
    times, digests = [], []
    start = time.perf_counter()
    for argv in argvs:
        t = time.perf_counter()
        result = run_op(cli, argv)
        times.append(time.perf_counter() - t)
        digests.append(hashlib.sha256(json.dumps(result).encode()).hexdigest())
    return time.perf_counter() - start, times, digests


def ab_rounds(parent_cli, change_cli, workload: str, seed: int, reps: int, size: str = "full") -> dict:
    """Alternate `reps` pairs of rounds; each side's round times and op p50s, the
    change's wins, and the operations whose output differs between the trees."""
    ops = [op for op in make_ops(workload, seed, size) if not op.script]
    argvs = [op.argv for op in ops]
    sides = {"parent": parent_cli, "change": change_cli}
    rounds = {name: [] for name in sides}
    p50s = {name: [] for name in sides}
    digests = {name: run_round(cli, argvs)[2] for name, cli in sides.items()}  # warm-up
    for rep in range(reps):
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for name in order:
            wall, times, _ = run_round(sides[name], argvs)
            rounds[name].append(wall)
            p50s[name].append(statistics.median(times))
    differ = [op.key for op, a, b in zip(ops, digests["parent"], digests["change"]) if a != b]
    wins = sum(c < p for p, c in zip(rounds["parent"], rounds["change"]))
    return {"rounds": rounds, "op_p50": p50s, "wins": wins, "differ": differ}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="repository root of the parent tree")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=10, help="pairs of rounds (default 10)")
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error("--reps must be at least 1")

    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    result = ab_rounds(load_cli(args.parent, "ncho_parent"), load_cli(ROOT, "ncho_change"),
                       args.workload, args.seed, args.reps)
    medians = {}
    for name in ("parent", "change"):
        medians[name] = (statistics.median(result["rounds"][name]),
                         statistics.median(result["op_p50"][name]))
        round_s, op_s = medians[name]
        print(f"{name}: median round {round_s * 1e3:.2f} ms, median op p50 {op_s * 1e3:.3f} ms")
    ratios = [c / p for p, c in zip(medians["parent"], medians["change"])]
    print(f"change/parent: round {ratios[0]:.3f}, op p50 {ratios[1]:.3f}; "
          f"change faster in {result['wins']} of {args.reps} pairs")
    for key in result["differ"]:
        print(f"differs: {key}")
    return 1 if result["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
