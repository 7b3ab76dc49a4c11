"""One round of an in-process workload, in a fresh process.

The worker imports `ncho.cli`, parses every shipped scenario and notes the
time (set-up ends there), then runs the workload's operations one after
another through `ncho.cli.main(argv)`, with stdout and stderr captured.
After the timed loop it checks every output and writes a JSON result.

    python3 perfbench/worker.py --workload grid --seed 0 --result r.json
    python3 perfbench/worker.py --setup-only --result r.json

Run from the repository root with `src` on PYTHONPATH; run.py does this.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

from workloads import SCENARIOS, make_ops


def set_up():
    import ncho.cli
    from ncho.config import build_scenario, parse_scenario_file

    for name in SCENARIOS:
        build_scenario(parse_scenario_file(f"scenarios/{name}.scenario"))
    return ncho.cli


def run_op(cli, argv) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:  # an escaped exception is a failed op, not a harness crash
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def run_round(cli, workload: str, seed: int, size: str, rec=None) -> dict:
    import checks

    ops = make_ops(workload, seed, size)
    outputs, times = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if rec is not None:
            rec.current_op = i
        t = time.perf_counter()
        outputs.append(run_op(cli, op.argv))
        times.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = checks.load_reference()
    ref_rows = ref["rows"][workload] if (seed == ref["seed"] and size == "full") else None
    results = []
    for op, (rc, out, err), dt in zip(ops, outputs, times):
        problems = checks.check_op(op, rc, out, err)
        rows = checks.csv_rows(out) if op.header else []
        if ref_rows is not None and op.header and not problems:
            want = ref_rows.get(op.key)
            if want is None:
                problems.append("no reference rows recorded for this operation")
            else:
                problems += checks.compare_rows(op.header, rows, want, ref["rtol"], ref["skip_columns"])
        results.append({
            "key": op.key, "s": dt, "rows": len(rows),
            "problems": problems, "digest": checks.digest(rc, out),
        })
    return {"wall_s": wall, "rss_mb": rss_mb, "ops": results}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("grid", "crosscheck"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="where a traced round writes its raw spans")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    cli = set_up()
    result = {"ready": time.time()}
    if not args.setup_only:
        rec = None
        if args.trace:
            import spans

            rec = spans.Recorder()
            spans.install(rec)
        result.update(run_round(cli, args.workload, args.seed, args.size, rec))
        if rec is not None:
            result["trace"] = spans.summarize(rec)
            if args.spans:
                spans.dump(rec, args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
