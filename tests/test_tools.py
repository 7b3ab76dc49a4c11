"""tools/op_hashes.py hashes every benchmark CLI operation's output reproducibly."""

from __future__ import annotations

import importlib.util
import json
import sys

from conftest import SCENARIO_DIR

ROOT = SCENARIO_DIR.parent


def _load_op_hashes(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench/ on it
    spec = importlib.util.spec_from_file_location("op_hashes", ROOT / "tools" / "op_hashes.py")
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
