"""The figure scripts reproduce the committed `out/` data byte for byte."""

from __future__ import annotations

import subprocess
import sys

from conftest import SCENARIO_DIR

ROOT = SCENARIO_DIR.parent
SCRIPTS = ("energy_curves.py", "phase_scan.py")


def test_scripts_regenerate_committed_figure_data(tmp_path):
    for script in SCRIPTS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    golden = sorted(p.name for p in (ROOT / "out").glob("*.csv"))
    assert len(golden) == 32
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == golden
    changed = [
        name for name in golden
        if (tmp_path / name).read_bytes() != (ROOT / "out" / name).read_bytes()
    ]
    assert changed == []


def test_energy_curves_span_an_empty_reality_window(tmp_path):
    # Delta < M omega0^2: a root of c is complex from t = 0 on, the horizon
    # is 0.0, and the curve covers [0, 2] as for an unbounded window.
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "empty.scenario").write_text(
        "kind = SetIb\nM = 1\nomega0 = 3\nGamma = 1\nsigma = 1\nDelta = 1.25\nmu = 1\n"
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "energy_curves.py"),
         "--scenarios", str(scenarios), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (out / "energy_empty_n1_m0.csv").read_text().splitlines()[1:]
    times = [float(row.split(",")[0]) for row in rows]
    assert len(times) == 401
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[-1] == 2.0
    assert {row.split(",")[-1] for row in rows} == {"0"}
