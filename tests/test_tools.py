"""tools/ab_rounds.py hashes every benchmark CLI operation's output reproducibly, names
the operations whose output differs between two trees, and times their rounds side by side.
tools/bench_record.py appends perfbench's end-to-end and per-layer results to the BENCH_*.json
files."""

from __future__ import annotations

import importlib.util
import json
import re
import sys

import pytest

from conftest import SCENARIO_DIR

ROOT = SCENARIO_DIR.parent


def _load_tool(monkeypatch, name="ab_rounds"):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench/ on it
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def two_package_names():
    """Drop the packages ab_rounds loads under its own names once the test is done."""
    yield
    for name in [m for m in sys.modules if m.split(".")[0] in ("ncho_parent", "ncho_change")]:
        del sys.modules[name]


def _tiny(monkeypatch, ab):
    """ab_rounds on the workloads' `tiny` size, run from the tree's root as main runs."""
    monkeypatch.chdir(ROOT)
    full = ab.make_ops
    monkeypatch.setattr(ab, "make_ops", lambda workload, seed, size: full(workload, seed, "tiny"))
    return ab


def test_two_runs_of_a_workload_hash_equal(monkeypatch, capsys, two_package_names):
    ab = _tiny(monkeypatch, _load_tool(monkeypatch))
    cli = ab.load_cli(ROOT, "ncho_change")
    argvs = [op.argv for op in ab.make_ops("grid", 0, "tiny") if not op.script]
    first, second = ab.run_round(cli, argvs)[2], ab.run_round(cli, argvs)[2]
    assert len(first) == 41 and first == second
    assert len(set(first)) == len(first)  # every operation printed its own table

    # A changed output is named, then counted by subcommand, and main exits 1.
    command = argvs[0][0]
    load_cli = ab.load_cli

    def load_with_extra_line(tree, name):
        cli = load_cli(tree, name)
        if name == "ncho_change":
            real_main = cli.main
            monkeypatch.setattr(cli, "main", lambda argv: argv[0] == command and print("extra")
                                or real_main(argv))
        return cli

    monkeypatch.setattr(ab, "load_cli", load_with_extra_line)
    assert ab.main(["--parent", str(ROOT), "--reps", "0"]) == 1
    changed = [f"differs: grid seed 0 op {i}: {' '.join(argv)}"
               for i, argv in enumerate(argvs) if argv[0] == command]
    out = capsys.readouterr().out.splitlines()
    assert out == changed + [f"41 operations, {len(changed)} differ", f"{command} {len(changed)}"]


def test_compare_counts_the_differing_operations_per_subcommand(monkeypatch):
    ab = _load_tool(monkeypatch)
    keys = ["grid seed 0 op 0: verify --scenario s", "grid seed 0 op 1: energy --n 1",
            "grid seed 3 op 2: verify --scenario t", "cold seed 0 op 1: phase --m 1"]
    assert ab.count_by_command(keys) == ["energy 1", "phase 1", "verify 2"]
    assert ab.count_by_command([]) == []


def test_operations_run_through_the_benchmark_worker(monkeypatch):
    # One run_op for both, so a hash and the benchmark see the same captured output.
    ab = _load_tool(monkeypatch)
    assert ab.run_op is sys.modules["worker"].run_op


def test_ab_rounds_runs_two_trees_under_two_names(monkeypatch, two_package_names):
    ab = _load_tool(monkeypatch)
    monkeypatch.chdir(ROOT)
    parent, change = ab.load_cli(ROOT, "ncho_parent"), ab.load_cli(ROOT, "ncho_change")
    assert parent.__name__ == "ncho_parent.cli" and change.__name__ == "ncho_change.cli"
    assert parent.main is not change.main and parent.format_table is not change.format_table
    result = ab.ab_rounds(parent, change, "grid", 0, 3, "tiny")
    assert [len(result[k][side]) for k in ("rounds", "op_p50") for side in ("parent", "change")] == [3] * 4
    assert result["ops"] == 41 and 0 <= result["wins"] <= 3 and result["differ"] == []
    # Output that differs between the trees is named, operation by operation.
    real_main = change.main
    monkeypatch.setattr(change, "main", lambda argv: print("extra") or real_main(argv))
    result = ab.ab_rounds(parent, change, "grid", 0, 1, "tiny")
    assert len(result["differ"]) == 41 and result["differ"][0].startswith("grid seed 0 op 0: ")


def test_ab_rounds_prints_medians_ratios_and_wins(monkeypatch, capsys, two_package_names):
    ab = _tiny(monkeypatch, _load_tool(monkeypatch))
    assert ab.main(["--parent", str(ROOT), "--workload", "crosscheck", "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "crosscheck seed 0 parent", "crosscheck seed 0 change", "crosscheck seed 0 change/parent"]
    assert re.fullmatch(
        r"crosscheck seed 0 change/parent: round \d+\.\d{3}, op p50 \d+\.\d{3}; "
        r"change faster in [012] of 2 pairs",
        lines[2],
    )
    # Then one line per subcommand, in name order: each side's median op time and the ratio.
    commands = sorted({op.argv[0] for op in ab.make_ops("crosscheck", 0, "tiny") if not op.script})
    assert commands == ["matelem", "phase", "verify"]
    assert [line.split(":")[0] for line in lines[3:-1]] == [f"crosscheck seed 0 {c}" for c in commands]
    for line in lines[3:-1]:
        assert re.fullmatch(
            r"crosscheck seed 0 \w+: median op parent \d+\.\d{3} ms, change \d+\.\d{3} ms, "
            r"change/parent \d+\.\d{3}",
            line,
        ), line
    assert re.fullmatch(r"\d+ operations, 0 differ", lines[-1]) and len(lines) == 4 + len(commands)


def test_reps_zero_checks_every_workload_only(monkeypatch, capsys, two_package_names):
    ab = _tiny(monkeypatch, _load_tool(monkeypatch))
    workloads = ["grid", "crosscheck", "cold"]
    count = sum(not op.script for w in workloads for op in ab.make_ops(w, 0, "tiny"))
    assert ab.main(["--parent", str(ROOT), "--workload", *workloads, "--reps", "0"]) == 0
    assert capsys.readouterr().out == f"{count} operations, 0 differ\n"


def test_negative_reps_is_refused(monkeypatch, capsys):
    ab = _load_tool(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        ab.main(["--parent", str(ROOT), "--reps", "-1"])
    assert exit_info.value.code == 2
    assert "--reps must not be negative" in capsys.readouterr().err


_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
_END_TO_END = [m["name"] for m in _BENCHMARK["end_to_end"]]
_PER_LAYER = [m["name"] for m in _BENCHMARK["per_layer"]]


def test_every_bench_record_names_a_commit_and_the_end_to_end_metrics():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert [p.name for p in paths] == ["BENCH_cold.json", "BENCH_crosscheck.json", "BENCH_grid.json"]
    for path in paths:
        records = json.loads(path.read_text())
        assert records, path.name
        for record in records:
            assert re.fullmatch(r"[0-9a-f]{40}", record["commit"]), (path.name, record)
            assert isinstance(record["dirty"], bool) and isinstance(record["seed"], int)
            assert 0 <= record["failed"] <= record["attempted"], (path.name, record)
            assert list(record["metrics"]) == _END_TO_END, (path.name, record)
            assert record.get("calibration_s", 1.0) > 0.0, (path.name, record)  # older records lack it
            if "per_layer" in record:  # older records lack it too
                assert list(record["per_layer"]) == _PER_LAYER, (path.name, record)


def _perfbench_result(metrics):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": 1.5, "unit": "s"} for name in metrics}}


def test_bench_record_appends_one_record_per_workload(monkeypatch, tmp_path, capsys):
    tool = _load_tool(monkeypatch, "bench_record")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "commit_of", lambda tree: ("a" * 40, False))
    ran = []

    def fake_run(tree, workload, seed, seconds, trace):
        ran.append((tree, workload, seed, seconds, trace))
        if trace:
            return _perfbench_result(_PER_LAYER)
        return _perfbench_result(_END_TO_END if workload != "cold" else _END_TO_END[:-1])

    monkeypatch.setattr(tool, "run_perfbench", fake_run)
    argv = ["--workload", "grid", "cold", "--seed", "3", "--seconds", "2", "--tree", str(ROOT)]
    assert tool.main(argv) == 1  # cold reported no peak_rss_mb: not recorded
    assert tool.main(argv[:2] + argv[3:]) == 0
    # Each workload runs untraced, then traced with the same seed and length.
    assert ran == [(ROOT, w, 3, 2.0, trace) for w in ("grid", "cold", "grid") for trace in (0, 1)]
    assert "cold: no end-to-end or per-layer metrics" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_grid.json"]
    records = json.loads((tmp_path / "BENCH_grid.json").read_text())
    assert len(records) == 2
    assert {k: v for k, v in records[0].items() if k not in ("date", "calibration_s")} == {
        "commit": "a" * 40, "dirty": False, "seed": 3, "seconds": 2.0,
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": dict.fromkeys(_END_TO_END, 1.5),
        "per_layer": dict.fromkeys(_PER_LAYER, 1.5),
    }
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", records[1]["date"])
    assert all(record["calibration_s"] > 0.0 for record in records)


def test_bench_record_reads_the_commit_and_a_dirty_tree(monkeypatch):
    tool = _load_tool(monkeypatch, "bench_record")
    commit, _ = tool.commit_of(ROOT)
    assert re.fullmatch(r"[0-9a-f]{40}", commit)
    answers = {"rev-parse": "f" * 40 + "\n", "status": " M src/ncho/cli.py\n"}
    monkeypatch.setattr(tool, "git", lambda tree, command, *args: answers[command])
    assert tool.commit_of(ROOT) == ("f" * 40, True)
    answers["status"] = ""
    assert tool.commit_of(ROOT) == ("f" * 40, False)
