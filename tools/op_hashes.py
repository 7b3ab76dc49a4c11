"""SHA-256 of each benchmark CLI operation's exit code, stdout and stderr.

    python3 tools/op_hashes.py --tree . --seeds 0 3 > change.json
    python3 tools/op_hashes.py --tree ../parent --seeds 0 3 > parent.json
    python3 tools/op_hashes.py --compare parent.json change.json

Every `ncho` operation of the `grid`, `crosscheck` and `cold` workloads (the
seeded lists of perfbench/workloads.py, read and never changed) runs
in-process through `ncho.cli.main` of the package under `--tree/src`, from
the root of that tree, one after another in one process; the hashes go to
stdout as JSON. The two figure scripts of `cold` are not run here:
tests/test_scripts.py pins their files byte for byte. `--compare A B` prints
each operation whose hash differs or that only one file holds, then the
count of such operations per subcommand, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from worker import run_op  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


def hash_ops(workloads, seeds, size: str = "full") -> dict[str, str]:
    """{"<workload> seed <s> op <i>: <argv>": sha256 hex} over every CLI operation.

    Scenario paths in the operations are relative: run from a tree's root.
    """
    from ncho import cli

    hashes = {}
    for workload in workloads:
        for seed in seeds:
            for i, op in enumerate(make_ops(workload, seed, size)):
                if op.script:
                    continue
                digest = hashlib.sha256(json.dumps(run_op(cli, op.argv)).encode()).hexdigest()
                hashes[f"{workload} seed {seed} op {i}: {op.key}"] = digest
    return hashes


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One line per operation whose hash differs or that only one side holds."""
    lines = [f"differs: {key}" for key in a if key in b and a[key] != b[key]]
    lines += [f"only in A: {key}" for key in a if key not in b]
    lines += [f"only in B: {key}" for key in b if key not in a]
    return lines


def count_by_command(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """"<subcommand> <count>" of the operations compare lists, by subcommand name."""
    keys = [key for key in {**a, **b} if a.get(key) != b.get(key)]
    counts = collections.Counter(key.split(": ", 1)[1].split()[0] for key in keys)
    return [f"{command} {count}" for command, count in sorted(counts.items())]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tree", type=Path, default=PERFBENCH.parent,
                   help="repository root whose src/ncho runs (default: this one)")
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = p.parse_args(argv)

    if args.compare:
        a, b = (json.loads(path.read_text())["hashes"] for path in args.compare)
        lines = compare(a, b)
        total = f"{len(a)} vs {len(b)} operations, {len(lines)} differ"
        print("\n".join(lines + [total] + count_by_command(a, b)))
        return 1 if lines else 0

    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    os.chdir(tree)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    import ncho

    if not Path(ncho.__file__).resolve().is_relative_to(tree / "src"):
        p.error(f"ncho was imported from {ncho.__file__}, not from {tree / 'src'}")
    hashes = hash_ops(WORKLOADS, args.seeds)
    print(json.dumps({"tree": str(tree), "seeds": args.seeds, "hashes": hashes}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
