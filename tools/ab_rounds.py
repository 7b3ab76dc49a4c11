"""Parent vs this tree on the benchmark's CLI operations: every output compared, then warm A/B rounds.

    python3 tools/ab_rounds.py --parent ../parent --workload grid crosscheck cold --seeds 0 3 --reps 0
    python3 tools/ab_rounds.py --parent ../parent --workload grid --seeds 5 --reps 20

The `ncho` packages under `--parent/src/ncho` and this tree's `src/ncho` are
loaded into one process under two package names (`ncho_parent` and
`ncho_change`; the package imports itself only relatively). For each workload
and seed, the workload's CLI operations (the seeded lists of
perfbench/workloads.py, read and never changed) run through each tree's
`cli.main`. The two figure scripts of `cold` are left out: tests/test_scripts.py
pins their files byte for byte. Both trees run from the root of this tree, so
both read this tree's scenario files; a change to `scenarios/` shows in those
pinned files, not here.

The first round of each tree is untimed: it hashes each operation's exit
code, stdout and stderr, and prints each operation whose hash differs between
the trees. Then `--reps` pairs of timed rounds follow, the trees alternating
which goes first, and each side's median round time and median op p50 (the
median op time of a round), the change's ratios to the parent, and in how many
pairs the change's round was faster; then, per subcommand, each side's median
op time over all its timed operations and the change's ratio, so a change shows
which commands moved. `--reps 0` checks the outputs only. Last
come the count of operations and of those that differ, then the differing
ones per subcommand. It exits 1 if any operation differs.

These are warm rounds in one long-lived process, not perfbench's fresh
worker process per round, so import, set-up and first-call costs do not
show. It sizes a change side by side on a drifting host; it does not
replace the benchmark.
"""

from __future__ import annotations

import argparse
import collections
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
    """One untimed round per tree, then `reps` alternating pairs: the operation
    count, the "<workload> seed <s> op <i>: <argv>" keys of the operations whose
    output differs, each side's round times, op p50s and op times by subcommand,
    and the change's wins."""
    ops = [(i, op) for i, op in enumerate(make_ops(workload, seed, size)) if not op.script]
    argvs = [op.argv for _, op in ops]
    sides = {"parent": parent_cli, "change": change_cli}
    rounds = {name: [] for name in sides}
    p50s = {name: [] for name in sides}
    by_command = {name: collections.defaultdict(list) for name in sides}
    digests = {name: run_round(cli, argvs)[2] for name, cli in sides.items()}  # warm-up
    for rep in range(reps):
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for name in order:
            wall, times, _ = run_round(sides[name], argvs)
            rounds[name].append(wall)
            p50s[name].append(statistics.median(times))
            for argv, op_s in zip(argvs, times):
                by_command[name][argv[0]].append(op_s)
    differ = [f"{workload} seed {seed} op {i}: {op.key}"
              for (i, op), a, b in zip(ops, digests["parent"], digests["change"]) if a != b]
    wins = sum(c < p for p, c in zip(rounds["parent"], rounds["change"]))
    return {"ops": len(ops), "differ": differ, "rounds": rounds, "op_p50": p50s,
            "by_command": by_command, "wins": wins}


def count_by_command(keys: list[str]) -> list[str]:
    """"<subcommand> <count>" of the operation keys, by subcommand name."""
    counts = collections.Counter(key.split(": ", 1)[1].split()[0] for key in keys)
    return [f"{command} {count}" for command, count in sorted(counts.items())]


def print_timing(label: str, result: dict, reps: int) -> None:
    """Each side's median round and op p50, the change's ratios and its wins, then
    each side's median op time per subcommand and the change's ratio."""
    medians = {}
    for name in ("parent", "change"):
        medians[name] = (statistics.median(result["rounds"][name]),
                         statistics.median(result["op_p50"][name]))
        round_s, op_s = medians[name]
        print(f"{label} {name}: median round {round_s * 1e3:.2f} ms, median op p50 {op_s * 1e3:.3f} ms")
    ratios = [c / p for p, c in zip(medians["parent"], medians["change"])]
    print(f"{label} change/parent: round {ratios[0]:.3f}, op p50 {ratios[1]:.3f}; "
          f"change faster in {result['wins']} of {reps} pairs", flush=True)
    for command, parent_s in sorted(result["by_command"]["parent"].items()):
        p, c = statistics.median(parent_s), statistics.median(result["by_command"]["change"][command])
        print(f"{label} {command}: median op parent {p * 1e3:.3f} ms, change {c * 1e3:.3f} ms, "
              f"change/parent {c / p:.3f}", flush=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="repository root of the parent tree")
    p.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=["grid"])
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--reps", type=int, default=10, help="pairs of timed rounds (default 10)")
    args = p.parse_args(argv)
    if args.reps < 0:
        p.error("--reps must not be negative")

    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    parent, change = load_cli(args.parent, "ncho_parent"), load_cli(ROOT, "ncho_change")
    total, differ = 0, []
    for workload in args.workload:
        for seed in args.seeds:
            result = ab_rounds(parent, change, workload, seed, args.reps)
            total += result["ops"]
            differ += result["differ"]
            for key in result["differ"]:
                print(f"differs: {key}", flush=True)
            if args.reps:
                print_timing(f"{workload} seed {seed}", result, args.reps)
    print("\n".join([f"{total} operations, {len(differ)} differ", *count_by_command(differ)]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
