"""Benchmark for the ncho package: dense grids, cross-checks and cold CLI calls.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0

Run from the repository root. Workloads (see perfbench/README.md):

  grid        in-process `ncho.cli.main` calls over long seeded time grids
  crosscheck  in-process verify, SetIa quadrature phases, matrix-element sweep
  cold        fresh `python -m ncho.cli` processes and the two scripts/

A run repeats its workload's fixed round of operations, one at a time, until
`--seconds` is spent. grid and crosscheck run each round in a fresh worker
process, so no cache carries over between rounds. Every output is checked.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced rounds and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import make_ops  # noqa: E402

WORKLOADS = ("grid", "crosscheck", "cold")
MIN_ROUNDS = 2
SETUP_PROBES = 2   # cold: fresh set-up-only processes per round
IMPORT_PROBES = 3  # traced runs: `python -X importtime -c "import ncho.cli"`
TMP_DIR = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"   # raw spans of the latest traced round
# Per-layer ratios: (metric, numerator counter, denominator counter, unit).
RATIOS = (
    ("spectrum.phase.repeat_frac", "phase_repeats", "phase_calls", "ratio"),
    ("specfun.laguerre_weighted_integral_exact.repeat_frac", "exact_repeats", "exact_calls", "ratio"),
    ("spectrum.phase_closed_form.closed_frac", "closed_form_rows", "closed_form_calls", "ratio"),
    ("specfun.integrate_adaptive_full.evals_per_call", "quad_evals", "quad_calls", "count"),
)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], stem: Path) -> dict:
    """Run one process to completion with stdout/stderr in files next to `stem`.

    Returns its exit code, wall seconds, peak RSS (MB), start time (epoch)
    and output text.
    """
    out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
    with out_path.open("w") as out, err_path.open("w") as err:
        spawned = time.time()
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode, "s": seconds, "rss_mb": usage.ru_maxrss / 1024.0,
        "spawned": spawned, "out": out_path.read_text(), "err": err_path.read_text(),
    }


def worker_cmd(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *args]


def setup_probe(tmp: Path, i: str) -> float | None:
    result = tmp / f"setup{i}.json"
    proc = run_child(worker_cmd("--setup-only", "--result", str(result)), tmp / f"setup{i}")
    if proc["rc"] != 0:
        sys.stderr.write(proc["err"])
        return None
    return json.loads(result.read_text())["ready"] - proc["spawned"]


def import_probe(tmp: Path, i: int) -> dict:
    """Cumulative import seconds of ncho.cli, ncho.spectrum and ncho.specfun."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import ncho.cli"], tmp / f"imp{i}")
    found = {}
    for line in proc["err"].splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
        if m and m[2] in ("ncho.cli", "ncho.spectrum", "ncho.specfun"):
            found[m[2].split(".")[1]] = int(m[1]) / 1e6
    return found


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def in_process_round(workload, seed, size, traced, tmp: Path, r: int) -> dict:
    result = tmp / f"round{r}.json"
    args = ["--workload", workload, "--seed", str(seed), "--size", size,
            "--trace", str(int(traced)), "--result", str(result)]
    if traced:
        args += ["--spans", str(Path(OUT_DIR) / f"spans-{workload}.npz")]
    proc = run_child(worker_cmd(*args), tmp / f"round{r}")
    if proc["rc"] != 0 or not result.is_file():
        sys.stderr.write(proc["err"])
        return {"crashed": True, "setup_s": None, "ops": []}
    res = json.loads(result.read_text())
    res["setup_s"] = res.pop("ready") - proc["spawned"]
    res["trace"] = [res["trace"]] if traced else []
    return res


def cold_round(ops, traced, tmp: Path, r: int, sha256: dict) -> dict:
    res = {"wall_s": 0.0, "rss_mb": 0.0, "ops": [], "trace": []}
    for i, op in enumerate(ops):
        stem = tmp / f"cold{r}-{i}"
        out_dir = tmp / f"cold{r}-{i}-files"
        if op.script:
            target = [op.script, *op.argv, "--out", str(out_dir)]
        else:
            target = ["-m", "ncho.cli", *op.argv]
        if traced:
            summary = stem.with_suffix(".trace.json")
            raw = Path(OUT_DIR) / f"spans-cold-op{i}.npz"
            cmd = [sys.executable, str(HERE / "child.py"), str(summary), str(raw), "--", *target]
        else:
            cmd = [sys.executable, *target]
        proc = run_child(cmd, stem)
        out, err = proc["out"], proc["err"]
        if op.script:
            problems, rows = checks.check_script(op, proc["rc"], out, err, out_dir, sha256)
            out = out.replace(str(out_dir), "OUT")
        else:
            problems = checks.check_op(op, proc["rc"], out, err)
            rows = len(checks.csv_rows(out)) if op.header else 0
        if traced and summary.is_file():
            res["trace"].append(json.loads(summary.read_text()))
        elif traced:
            problems.append("traced child wrote no span summary")
        res["wall_s"] += proc["s"]
        res["rss_mb"] = max(res["rss_mb"], proc["rss_mb"])
        res["ops"].append({"key": op.key, "s": proc["s"], "rows": rows, "problems": problems,
                           "digest": checks.digest(proc["rc"], out)})
    return res


def run_rounds(workload, seed, seconds, trace, size, tmp: Path) -> tuple[list, list]:
    """Run rounds until the next one would overrun `seconds` (at least
    MIN_ROUNDS). Traced runs alternate untraced and traced rounds. An untraced
    `cold` run takes SETUP_PROBES set-up samples before each round, outside
    the measured time. Returns (rounds, set-up samples)."""
    rounds, setups = [], []
    cold = workload == "cold"
    if cold:
        ops = make_ops("cold", seed, size)
        sha256 = checks.load_reference()["sha256"]
    spent = 0.0
    while True:
        r = len(rounds)
        traced = bool(trace) and r % 2 == 1
        if cold and not trace:
            setups += [setup_probe(tmp, f"{r}-{i}") for i in range(SETUP_PROBES)]
        start = time.perf_counter()
        if cold:
            res = cold_round(ops, traced, tmp, r, sha256)
        else:
            res = in_process_round(workload, seed, size, traced, tmp, r)
            setups.append(res["setup_s"])
        spent += time.perf_counter() - start
        res["traced"] = traced
        rounds.append(res)
        if res.get("crashed"):
            break
        if len(rounds) >= MIN_ROUNDS and spent * (len(rounds) + 1) / len(rounds) > seconds:
            break
    return rounds, setups


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def count_failures(rounds: list, expected_ops: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages). An op fails its output check, or its
    output differs from the same op in the first round (rounds repeat the same
    inputs, and a traced round must print exactly what an untraced one does)."""
    attempted = failed = 0
    messages = []
    first = rounds[0]["ops"]
    for r, res in enumerate(rounds):
        if res.get("crashed"):
            attempted += expected_ops
            failed += expected_ops
            messages.append(f"round {r}: worker process failed")
            continue
        for i, op in enumerate(res["ops"]):
            attempted += 1
            problems = list(op["problems"])
            if i < len(first) and op["digest"] != first[i]["digest"]:
                problems.append("output differs from round 0")
            if problems:
                failed += 1
                if len(messages) < 20:
                    messages.append(f"round {r} op {i} [{op['key']}]: {'; '.join(problems[:3])}")
    return attempted, failed, messages


def end_to_end(rounds: list, setups: list) -> dict:
    walls = [r["wall_s"] for r in rounds]
    rows = [sum(o["rows"] for o in r["ops"]) for r in rounds]
    op_s = [o["s"] for r in rounds for o in r["ops"]]
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "rows_per_s": (statistics.median(n / w for n, w in zip(rows, walls)), "rows/s", len(walls)),
        "op_p50_s": (statistics.median(op_s), "s", len(op_s)),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB", len(rounds)),
    }


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rounds: list, imports: list[dict]) -> tuple[dict, list[str]]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    merged = spans.merge([s for r in traced for s in r["trace"]])
    n = len(traced)
    metrics, notes = {}, []
    for name in ("cli", "spectrum", "specfun"):
        values = [found[name] for found in imports if name in found]
        metrics[f"{name}.import_s"] = (statistics.median(values) if values else 0.0, "s")
        if not values:
            notes.append(f"{name}.import_s: ncho.{name} is not imported by `import ncho.cli`")
    for name in spans.SPAN_NAMES:
        calls, self_s = merged["spans"][name]
        if name == "cli.main":
            metrics["cli.main.self_s"] = (self_s / n, "s")
            continue
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_us"] = (1e6 * _frac(self_s, calls), "us")
        if name in merged["missing"]:
            notes.append(f"{name}: not defined by the package")
        elif not calls:
            notes.append(f"{name}.self_us: no calls on this workload")
    c = merged["counters"]
    for key, num, den, unit in RATIOS:
        metrics[key] = (_frac(c[num], c[den]), unit)
        notes.append(f"{key}: {c[num] / n:g} / {c[den] / n:g} per round")
    untraced = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_frac"] = (
        (statistics.median(r["wall_s"] for r in traced) - untraced) / untraced, "ratio")
    return metrics, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_benchmark(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    Path(TMP_DIR).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_DIR))
    try:
        if trace:
            Path(OUT_DIR).mkdir(exist_ok=True)
        rounds, setups = run_rounds(workload, seed, seconds, trace, size, tmp)
        imports = [import_probe(tmp, i) for i in range(IMPORT_PROBES)] if trace else []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    expected = len(make_ops(workload, seed, size))
    attempted, failed, messages = count_failures(rounds, expected)
    setups = [s for s in setups if s is not None]
    crashed = any(r.get("crashed") for r in rounds) or not (trace or setups)

    print(f"workload {workload}, seed {seed}, size {size}, trace {trace}: "
          f"{len(rounds)} rounds of {expected} ops")
    for line in messages:
        print(f"  FAILED {line}")
    print(f"  failed_frac {_frac(failed, attempted):.4g} ({failed}/{attempted} ops)")
    if crashed:
        metrics, notes = {}, ["no metrics: a worker process failed"]
    elif trace:
        metrics, notes = per_layer(rounds, imports)
    else:
        e2e = end_to_end(rounds, setups)
        metrics = {k: (v, unit) for k, (v, unit, _) in e2e.items()}
        notes = [f"{k}: median of {n} samples" for k, (_, _, n) in e2e.items()]
        notes.append("wall_s per round: " + " ".join(f"{r['wall_s']:.4g}" for r in rounds))
        op_s = sorted(o["s"] for r in rounds for o in r["ops"])
        if len(op_s) >= 100:
            notes.append(f"op_p90_s: {statistics.quantiles(op_s, n=10)[-1]:.6g} s "
                         f"({len(op_s)} samples)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    return {
        "correct": failed == 0 and not crashed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (Path("src/ncho/cli.py").is_file() and Path("scenarios").is_dir()):
        print("error: run from the root of an ncho checkout (src/ncho and scenarios/ not found)",
              file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
