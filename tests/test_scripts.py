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
