"""tools/op_hashes.py hashes every benchmark CLI operation's output reproducibly, and
tools/ab_rounds.py runs two trees' rounds side by side."""

from __future__ import annotations

import importlib.util
import json
import re
import sys

import pytest

from conftest import SCENARIO_DIR

ROOT = SCENARIO_DIR.parent


def _load_op_hashes(monkeypatch):
    return _load_tool(monkeypatch, "op_hashes")


def _load_tool(monkeypatch, name):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench/ on it
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_of_a_workload_hash_equal(monkeypatch, tmp_path, capsys):
    op_hashes = _load_op_hashes(monkeypatch)
    monkeypatch.chdir(ROOT)
    first = op_hashes.hash_ops(["grid"], [0], "tiny")
    second = op_hashes.hash_ops(["grid"], [0], "tiny")
    assert len(first) == 41 and first == second
    assert len(set(first.values())) == len(first)  # every operation printed its own table

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    key = next(iter(second))
    second[key] = "0" * 64
    for path, hashes in zip(paths, (first, second)):
        path.write_text(json.dumps({"hashes": hashes}))
    assert op_hashes.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert op_hashes.main(["--compare", *map(str, paths)]) == 1
    out = capsys.readouterr().out
    command = key.split(": ", 1)[1].split()[0]
    assert out.endswith(f"differs: {key}\n41 vs 41 operations, 1 differ\n{command} 1\n")


def test_compare_counts_the_differing_operations_per_subcommand(monkeypatch):
    op_hashes = _load_op_hashes(monkeypatch)
    a = {"grid seed 0 op 0: verify --scenario s": "0", "grid seed 0 op 1: energy --n 1": "0",
         "grid seed 0 op 2: verify --scenario t": "0", "cold seed 0 op 0: --help": "0"}
    b = {**a, "grid seed 0 op 0: verify --scenario s": "1", "grid seed 0 op 2: verify --scenario t": "1"}
    del b["grid seed 0 op 1: energy --n 1"]
    b["cold seed 0 op 1: phase --m 1"] = "0"
    assert op_hashes.count_by_command(a, b) == ["energy 1", "phase 1", "verify 2"]
    assert op_hashes.count_by_command(a, a) == []


def test_operations_run_through_the_benchmark_worker(monkeypatch):
    # One run_op for both, so a hash and the benchmark see the same captured output.
    op_hashes = _load_op_hashes(monkeypatch)
    assert op_hashes.run_op is sys.modules["worker"].run_op


@pytest.fixture
def two_package_names():
    """Drop the packages ab_rounds loads under its own names once the test is done."""
    yield
    for name in [m for m in sys.modules if m.split(".")[0] in ("ncho_parent", "ncho_change")]:
        del sys.modules[name]


def test_ab_rounds_runs_two_trees_under_two_names(monkeypatch, two_package_names):
    ab = _load_tool(monkeypatch, "ab_rounds")
    monkeypatch.chdir(ROOT)
    parent, change = ab.load_cli(ROOT, "ncho_parent"), ab.load_cli(ROOT, "ncho_change")
    assert parent.__name__ == "ncho_parent.cli" and change.__name__ == "ncho_change.cli"
    assert parent.main is not change.main and parent.format_table is not change.format_table
    result = ab.ab_rounds(parent, change, "grid", 0, 3, "tiny")
    assert [len(result[k][side]) for k in ("rounds", "op_p50") for side in ("parent", "change")] == [3] * 4
    assert 0 <= result["wins"] <= 3 and result["differ"] == []
    # Output that differs between the trees is named, operation by operation.
    real_main = change.main
    monkeypatch.setattr(change, "main", lambda argv: print("extra") or real_main(argv))
    result = ab.ab_rounds(parent, change, "grid", 0, 1, "tiny")
    assert len(result["differ"]) == 41


def test_ab_rounds_prints_medians_ratios_and_wins(monkeypatch, capsys, two_package_names):
    ab = _load_tool(monkeypatch, "ab_rounds")
    monkeypatch.chdir(ROOT)  # main runs from the tree's root
    tiny = ab.make_ops
    monkeypatch.setattr(ab, "make_ops", lambda workload, seed, size: tiny(workload, seed, "tiny"))
    assert ab.main(["--parent", str(ROOT), "--workload", "crosscheck", "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["parent", "change", "change/parent"]
    assert re.fullmatch(
        r"change/parent: round \d+\.\d{3}, op p50 \d+\.\d{3}; change faster in [012] of 2 pairs",
        lines[2],
    )
