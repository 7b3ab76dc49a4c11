"""Record perfbench/reference.json from the current checkout.

    PYTHONPATH=src python3 perfbench/record_reference.py

Stores, for the default seed, a subsample of the CSV rows every `grid` and
`crosscheck` operation prints, and the SHA-256 of each committed `out/*.csv`
file the two scripts must reproduce. Re-record only when a change to the
published numbers is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from worker import run_op, set_up  # noqa: E402
from workloads import make_ops  # noqa: E402

SEED = 0
RTOL = 1e-9
# abs_err is |closed - oracle|, quadrature noise rather than a published value.
SKIP_COLUMNS = ["abs_err"]


def main() -> int:
    cli = set_up()
    rows = {}
    for workload in ("grid", "crosscheck"):
        rows[workload] = {}
        for op in make_ops(workload, SEED):
            if op.header is None:
                continue
            rc, out, err = run_op(cli, op.argv)
            problems = checks.check_op(op, rc, out, err)
            if problems:
                raise SystemExit(f"{op.key}: {problems}")
            data = checks.csv_rows(out)
            rows[workload][op.key] = [[i, data[i]] for i in checks.sample_indices(len(data))]
    sha256 = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path("out").glob("*.csv"))
    }
    ref = {"seed": SEED, "rtol": RTOL, "skip_columns": SKIP_COLUMNS,
           "sha256": sha256, "rows": rows}
    with checks.REFERENCE_PATH.open("w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
