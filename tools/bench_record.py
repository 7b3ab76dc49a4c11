"""Append perfbench end-to-end results to the checked-in trajectory files BENCH_<workload>.json.

    python3 tools/bench_record.py --workload grid crosscheck cold --seed 0 --seconds 8
    python3 tools/bench_record.py --tree ../parent --workload crosscheck --seed 0 --seconds 8

For each workload, `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0` runs from the root of `--tree` (default: this tree), on that tree's
code, and right after it the same run with `--trace 1`; one record is appended
to BENCH_<workload>.json at the root of this tree. A record holds the tree's
commit, whether its tracked or untracked files other than the BENCH_*.json
files differ from that commit (`dirty`), the UTC date, the seed, the run
length, the untraced run's `correct`, `attempted` and `failed` and its five
end-to-end metrics of BENCHMARK.json, `calibration_s`, and `per_layer`: the
traced run's per-layer metrics of BENCHMARK.json (call counts, self time per
call, import times, ratios and the trace overhead). A run that reports no
metrics (a worker process failed) is not recorded, and the tool exits 1.
Records from before the traced run have no `per_layer`.

`calibration_s` is the best of 5 runs of a fixed loop in this process (10**6
Python float additions, then one np.exp over 10**6 doubles), timed just before
each perfbench run: a measure of the host's speed at that moment, so records
from different sessions compare as ratios to it. Older records have none.

A change is sized against its parent by recording the parent tree and this
one in turn, alternating the two, on one host; the host's speed drifts, so
only records taken side by side compare directly.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])
PER_LAYER = tuple(m["name"] for m in BENCHMARK["per_layer"])


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True, check=True).stdout


def commit_of(tree: Path) -> tuple[str, bool]:
    """(HEAD commit, whether any file other than the trajectory files differs from it)."""
    changed = git(tree, "status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json")
    return git(tree, "rev-parse", "HEAD").strip(), bool(changed.strip())


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """perfbench's JSON result, the last line it prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def calibration_s() -> float:
    """Best of 5 runs of 10**6 Python float additions and one np.exp over 10**6 doubles."""
    x = np.linspace(0.0, 1.0, 10**6)
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0.0
        for _ in range(10**6):
            total += 1.5
        np.exp(x)
        runs.append(time.perf_counter() - start)
    return min(runs)


def make_record(commit: str, dirty: bool, seed: int, seconds: float, result: dict,
                traced: dict, calibration: float) -> dict:
    """One trajectory record from an untraced and a traced result; KeyError if the first
    lacks an end-to-end metric or the second a per-layer one."""
    return {
        "commit": commit,
        "dirty": dirty,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": seed,
        "seconds": seconds,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name]["value"] for name in METRICS},
        "calibration_s": calibration,
        "per_layer": {name: traced["metrics"][name]["value"] for name in PER_LAYER},
    }


def append_record(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.is_file() else []
    records.append(record)
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--tree", type=Path, default=ROOT, help="checkout whose code runs (default: this one)")
    args = p.parse_args(argv)

    commit, dirty = commit_of(args.tree)
    status = 0
    for workload in args.workload:
        calibration = calibration_s()
        result = run_perfbench(args.tree, workload, args.seed, args.seconds, 0)
        traced = run_perfbench(args.tree, workload, args.seed, args.seconds, 1)
        try:
            record = make_record(commit, dirty, args.seed, args.seconds, result, traced, calibration)
        except KeyError:
            print(f"{workload}: no end-to-end or per-layer metrics (a worker process failed); "
                  "nothing recorded", file=sys.stderr)
            status = 1
            continue
        append_record(ROOT / f"BENCH_{workload}.json", record)
        metrics = " ".join(f"{name} {value:.6g}" for name, value in record["metrics"].items())
        print(f"{workload} {commit[:12]}{' dirty' if dirty else ''}: "
              f"failed {record['failed']}/{record['attempted']}, {metrics}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
