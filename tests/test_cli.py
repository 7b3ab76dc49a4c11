"""Command-line interface: subcommands, CSV contracts, and exit codes."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys

import pytest

from ncho.cli import main
from ncho.config import build_scenario, parse_scenario_file
from ncho.ermakov import rho_eval
from ncho.spectrum import PolarPoint, StateLabel, hamiltonian_eigenfunction

from conftest import SCENARIO_DIR

IB = str(SCENARIO_DIR / "set_ib.scenario")
IA = str(SCENARIO_DIR / "set_ia.scenario")
III = str(SCENARIO_DIR / "set_iii.scenario")
MILD_II = str(SCENARIO_DIR / "mild_ii_k2.scenario")

_SCI = r"-?\d\.\d{12}e[+-]\d{2,3}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = out.strip("\n").split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_shipped_scenarios(capsys):
    for path in (IB, MILD_II, III):
        code, out, _ = run_cli(capsys, "verify", "--scenario", path)
        assert code == 0
        assert "7 checks: 7 passed, 0 failed" in out
        assert out.count("PASS") == 7
        assert "FAIL" not in out
        assert out.startswith("scenario:")


def test_verify_fails_on_broken_width_parameter(capsys, tmp_path):
    text = (SCENARIO_DIR / "set_iii.scenario").read_text()
    broken = tmp_path / "broken.scenario"
    broken.write_text(text.replace("mu = 1", "mu = 1.05"))
    code, out, _ = run_cli(capsys, "verify", "--scenario", str(broken))
    assert code == 1
    assert "FAIL" in out
    assert re.search(r"7 checks: \d+ passed, [1-9]\d* failed", out)


def test_verify_tolerance_override_forces_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scenario", IB, "--tol", "1e-300")
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_csv_contract(capsys):
    code, out, err = run_cli(
        capsys, "energy", "--scenario", IB, "--t0", "0", "--t1", "2", "--points", "5"
    )
    assert code == 0
    assert err == ""
    header, rows = csv_rows(out)
    assert header == "t,Gamma_t,E_re_scaled,E_im_scaled,in_window"
    assert len(rows) == 5
    for row in rows:
        assert len(row) == 5
        for cell in row[:4]:
            assert re.fullmatch(_SCI, cell), cell
        assert row[4] == "1"
    # Constant-coefficient family: the scaled value column is constant.
    assert len({row[2] for row in rows}) == 1
    assert {row[3] for row in rows} == {"0.000000000000e+00"}


def test_energy_window_flag_flips_beyond_horizon(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--scenario", III, "--n", "1", "--m", "0",
        "--t0", "0", "--t1", "4", "--points", "9",
    )
    assert code == 0
    _, rows = csv_rows(out)
    flags = [row[4] for row in rows]
    assert flags[0] == "1" and flags[-1] == "0"
    assert flags == sorted(flags, reverse=True)  # single flip
    beyond = [row for row in rows if row[4] == "0"]
    assert any(float(row[3]) != 0.0 for row in beyond)


def test_energy_gnuplot_script_on_stderr(capsys):
    code, out, err = run_cli(
        capsys, "energy", "--scenario", IB, "--points", "3", "--gnuplot"
    )
    assert code == 0
    assert "plot" in err and "energy.csv" in err
    assert "using 2:3" in err and "using 2:4" in err
    assert "plot" not in out


def test_energy_deterministic_output(capsys):
    args = ("energy", "--scenario", MILD_II, "--t1", "3", "--points", "40")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------

def test_phase_csv_methods(capsys):
    code, out, _ = run_cli(
        capsys, "phase", "--scenario", IB, "--m", "1", "--t1", "2", "--points", "4"
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "t,theta_re,theta_im,method"
    assert [row[3] for row in rows] == ["ClosedForm"] * 4
    assert {row[2] for row in rows} == {"0.000000000000e+00"}
    assert float(rows[0][1]) == 0.0  # phase vanishes at t = 0


def test_phase_quadrature_fallback_method_column(capsys):
    # Figure-Ia parameters sit outside the series domain of the closed form.
    code, out, _ = run_cli(
        capsys, "phase", "--scenario", IA, "--m", "1", "--t1", "1", "--points", "3"
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert {row[3] for row in rows} == {"Quadrature"}


def test_phase_rational_k3_falls_back_to_quadrature(capsys, tmp_path):
    # k = 3 has no published closed form; Gamma^2 mu = 25 (sigma Delta mu - sigma^2/mu^3)
    # holds with Delta = 1.04.
    k3 = tmp_path / "k3.scenario"
    k3.write_text(
        "kind = SetII_k\nk_exp = 3\nM = 1\nomega0 = 0.5\nGamma = 1\nchi = 1\n"
        "sigma = 1\nDelta = 1.04\nmu = 1\n"
    )
    code, out, _ = run_cli(
        capsys, "phase", "--scenario", str(k3), "--m", "1", "--t1", "0.5", "--points", "4"
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 4
    assert {row[3] for row in rows} == {"Quadrature"}


# ---------------------------------------------------------------------------
# matelem
# ---------------------------------------------------------------------------

def test_matelem_diagonal_certifies_against_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "matelem", "--scenario", IB, "--n", "1", "--m", "1",
        "--t0", "0.2", "--t1", "1.0", "--points", "3",
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "t,closed_re,closed_im,oracle_re,oracle_im,abs_err"
    assert len(rows) == 3
    for row in rows:
        assert float(row[5]) <= 1e-8
        assert float(row[1]) > 0.0


def test_matelem_off_diagonal_and_coordinate_flags(capsys):
    code, out, _ = run_cli(
        capsys, "matelem", "--scenario", MILD_II, "--m", "0", "--mprime", "2",
        "--k", "2", "--coord", "y", "--t0", "0.3", "--t1", "0.9", "--points", "2",
    )
    assert code == 0
    _, rows = csv_rows(out)
    for row in rows:
        assert float(row[5]) <= 1e-8
        assert (float(row[1]), float(row[2])) != (0.0, 0.0)


def test_matelem_certification_floor(capsys):
    # The two-resolution certification floors the tolerance at numerical
    # precision, so roundoff-level disagreement can never fail an
    # arbitrarily tight request; genuine failures surface through verify.
    code, out, _ = run_cli(
        capsys, "matelem", "--scenario", MILD_II, "--m", "0", "--mprime", "2",
        "--k", "2", "--t0", "0.3", "--t1", "0.9", "--points", "2", "--tol", "1e-300",
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert all(float(row[5]) <= 1e-12 for row in rows)


# ---------------------------------------------------------------------------
# ncparams
# ---------------------------------------------------------------------------

def test_ncparams_reality_flags_flip_at_horizon(capsys):
    code, out, _ = run_cli(
        capsys, "ncparams", "--scenario", IA, "--t0", "15.8", "--t1", "16.4",
        "--points", "7",
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "t,theta_nc,omega_nc,theta_real,omega_real"
    flags = [row[3] for row in rows]
    assert flags[0] == "1" and flags[-1] == "0"
    for row in rows:
        assert float(row[1]) > 0.0 and float(row[2]) > 0.0


# ---------------------------------------------------------------------------
# wavefield
# ---------------------------------------------------------------------------

def test_wavefield_grid_shape(capsys):
    code, out, _ = run_cli(
        capsys, "wavefield", "--scenario", IB, "--n", "0", "--m", "1",
        "--t0", "0.5", "--points", "8",
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == "r,angle,psi_abs_sq"
    assert len(rows) == 64
    assert all(float(row[2]) >= 0.0 for row in rows)
    assert max(float(row[2]) for row in rows) > 0.0


@pytest.mark.parametrize("n, m", [(1, 2), (2, 0)])
def test_wavefield_matches_scalar_eigenfunction(capsys, n, m):
    # The grid is evaluated in one array call; the scalar route is the reference.
    # t lies past the reality horizon (~1.83), where |e^{i Theta}| != 1.
    path = SCENARIO_DIR / "mild_iii.scenario"
    scenario = build_scenario(parse_scenario_file(path))
    t, points = 2.2, 64
    code, out, _ = run_cli(
        capsys, "wavefield", "--scenario", str(path), "--n", str(n), "--m", str(m),
        "--t0", str(t), "--points", str(points),
    )
    assert code == 0
    _, rows = csv_rows(out)
    r_max = 4.0 * math.sqrt(scenario.hbar * rho_eval(scenario, t).rho ** 2 * (n + m + 1))
    # Radial index 0 is the smallest radius, r_max / points, next to the origin.
    for i, j in ((0, 0), (0, 5), (1, 17), (20, 40), (points // 2, 3), (points - 1, points - 1)):
        r, angle = r_max * (i + 1) / points, 2.0 * math.pi * j / points
        row = rows[i * points + j]
        assert row[:2] == ["%.12e" % r, "%.12e" % angle]
        psi = hamiltonian_eigenfunction(scenario, t, StateLabel(n, m), PolarPoint(r, angle))
        want = abs(psi) ** 2
        assert abs(float(row[2]) - want) <= 1e-12 * want, (i, j, row[2], want)


# ---------------------------------------------------------------------------
# Exit codes and plumbing
# ---------------------------------------------------------------------------

def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "energy")[0] == 2  # missing --scenario
    assert run_cli(capsys, "nosuch", "--scenario", IB)[0] == 2
    assert run_cli(capsys, "energy", "--scenario", IB, "--points", "0")[0] == 2
    assert run_cli(capsys, "energy", "--scenario", "/nonexistent.scenario")[0] == 2
    for cmd, flag, value in (
        ("energy", "--t0", "nan"),
        ("ncparams", "--t0", "nan"),
        ("energy", "--t1", "inf"),
        ("phase", "--t1", "nan"),
        ("wavefield", "--t0", "nan"),
        ("wavefield", "--t0", "inf"),
    ):
        code, out, err = run_cli(capsys, cmd, "--scenario", IB, flag, value)
        assert code == 2, (cmd, flag, value)
        assert out == "" and "must be a finite number" in err
    # Finite but huge times overflow or underflow the closed forms; the CLI
    # reports that instead of a traceback or a table holding inf/nan.
    for argv in (
        ("energy", "--scenario", IB, "--t1", "1e308"),
        ("ncparams", "--scenario", IB, "--t1", "1e308"),
        ("energy", "--scenario", III, "--t1", "1e308"),
        ("wavefield", "--scenario", IB, "--t0", "1e308"),
        ("matelem", "--scenario", IB, "--t1", "1e308"),
        ("phase", "--scenario", IB, "--m", "1", "--t1", "1e308"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "error: inputs out of numerical range" in err, argv
        assert "Traceback" not in err, argv


def test_malformed_scenario_reports_line_number(capsys, tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("kind = SetIb\nM = 1.0\nM 2.0\n")
    code, _, err = run_cli(capsys, "verify", "--scenario", str(bad))
    assert code == 2
    assert ":3:" in err and "key = value" in err


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "energy", "--help")[0] == 0


def test_module_entry_point():
    # The child finds the checkout's package even when neither an installed
    # copy nor PYTHONPATH provides it (pytest adds src/ only in-process).
    paths = (str(SCENARIO_DIR.parent / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-m", "ncho.cli", "verify", "--scenario", III],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "7 passed" in proc.stdout
