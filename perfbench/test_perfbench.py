"""Self-tests of the benchmark. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import ENERGY_HEADER, MATELEM_HEADER, WORKLOADS, Op, make_ops  # noqa: E402

E2E = {"wall_s", "setup_s", "rows_per_s", "op_p50_s", "peak_rss_mb"}


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload,trace", [
    ("grid", 0), ("crosscheck", 0), ("grid", 1), ("crosscheck", 1), ("cold", 1),
])
def test_workload_runs_at_tiny_size(in_root, workload, trace):
    result = run.run_benchmark(workload, seed=3, seconds=0.1, trace=trace, size="tiny")
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    if trace:
        names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        assert set(metrics) == names
        assert metrics["cli.main.self_s"]["value"] > 0
    else:
        assert set(metrics) == E2E
        assert all(m["value"] > 0 for m in metrics.values())


def test_cold_untraced_reports_end_to_end(in_root):
    result = run.run_benchmark("cold", seed=3, seconds=0.1, trace=0)
    assert result["correct"], result
    assert set(result["metrics"]) == E2E


def test_seed_changes_only_generated_argv():
    for workload in WORKLOADS:
        a, b = make_ops(workload, 1), make_ops(workload, 2)
        assert a == make_ops(workload, 1)
        assert a != b
        shape = [[(op.command, op.header, op.rows, op.script) for op in ops] for ops in (a, b)]
        assert shape[0] == shape[1]


def test_output_check_flags_corruption(in_root):
    from worker import run_op, set_up

    cli = set_up()
    op = Op(("energy", "--scenario", "scenarios/mild_iii.scenario", "--n", "1", "--m", "2",
             "--t0", "0.1", "--t1", "2.5", "--points", "5"), ENERGY_HEADER, 5)
    rc, out, err = run_op(cli, op.argv)
    assert checks.check_op(op, rc, out, err) == []

    lines = out.split("\n")
    fields = lines[2].split(",")
    assert checks.check_op(op, rc, out.replace(fields[2], "nan", 1), err)
    assert checks.check_op(op, 2, out, err)
    assert checks.check_op(op, rc, out, "Traceback (most recent call last):\n")
    assert checks.check_op(op, rc, "\n".join(lines[:-2]) + "\n", err)  # a row missing

    rows = checks.csv_rows(out)
    want = [[i, rows[i]] for i in checks.sample_indices(len(rows))]
    assert checks.compare_rows(op.header, rows, want, 1e-9, ()) == []
    digit = fields[2][3]
    changed = fields[2][:3] + ("1" if digit != "1" else "2") + fields[2][4:]
    corrupt = list(rows)
    corrupt[1] = rows[1].replace(fields[2], changed)
    assert checks.compare_rows(op.header, corrupt, want, 1e-9, ())

    verify = Op(("verify", "--scenario", "scenarios/mild_iii.scenario"))
    rc, out, err = run_op(cli, verify.argv)
    assert checks.check_op(verify, rc, out, err) == []
    assert checks.check_op(verify, rc, out.replace("PASS", "FAIL", 1), err)

    matelem = Op(("matelem", "--scenario", "scenarios/set_iii.scenario", "--n", "1", "--m", "0",
                  "--mprime", "2", "--points", "3"), MATELEM_HEADER, 3)
    rc, out, err = run_op(cli, matelem.argv)
    assert checks.check_op(matelem, rc, out, err) == []
    head, first, *rest = out.split("\n")
    bad = ",".join(first.split(",")[:5] + ["1.0e-03"])
    assert checks.check_op(matelem, rc, "\n".join([head, bad, *rest]), err)


def test_changed_output_between_rounds_counts_as_failed():
    op = {"key": "k", "s": 0.1, "rows": 1, "problems": []}
    rounds = [{"ops": [dict(op, digest="a")]}, {"ops": [dict(op, digest="b")]}]
    attempted, failed, _ = run.count_failures(rounds, 1)
    assert (attempted, failed) == (2, 1)


def test_self_time_subtracts_direct_children():
    rec = spans.Recorder()
    # outer [0, 10] holds middle [1, 7], which holds inner [2, 3].
    for name_id, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 7.0), (2, 1, 2.0, 3.0)):
        rec.name_id.append(name_id)
        rec.parent.append(parent)
        rec.op.append(0)
        rec.start.append(start)
        rec.end.append(end)
    summary = spans.summarize(rec)["spans"]
    names = spans.SPAN_NAMES
    assert summary[names[0]] == [1, 4.0]
    assert summary[names[1]] == [1, 5.0]
    assert summary[names[2]] == [1, 1.0]


def test_wrappers_reach_every_namespace(in_root):
    import ncho.cli
    import ncho.ermakov
    import ncho.spectrum

    originals = (ncho.cli.main, ncho.ermakov.rho_eval)
    rec = spans.Recorder()
    patched = spans.install(rec)
    try:
        assert ncho.spectrum.rho_eval is ncho.ermakov.rho_eval is not originals[1]
        assert ncho.cli.main is not originals[0]
        assert rec.missing == []
        assert len(rec.start) == 0  # installing records nothing
        ncho.spectrum.rho_eval(ncho.cli._load_scenario("scenarios/set_iii.scenario"), 0.5)
        assert spans.summarize(rec)["spans"]["ermakov.rho_eval"][0] == 1
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
    assert ncho.ermakov.rho_eval is originals[1]


@pytest.mark.skipif(not (ROOT / "out").is_dir(), reason="no committed out/ data in this checkout")
def test_reference_hashes_match_committed_figure_data():
    sha = checks.load_reference()["sha256"]
    on_disk = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (ROOT / "out").glob("*.csv")}
    assert on_disk == sha


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
