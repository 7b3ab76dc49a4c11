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
    assert out.endswith(f"differs: {key}\n41 vs 41 operations, 1 differ\n")
