"""Command-line interface: subcommands, CSV contracts, and exit codes."""

from __future__ import annotations

import collections
import contextlib
import cProfile
import importlib.util
import io
import json
import math
import os
import pstats
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncho import cli, energy, families, spectrum
from ncho.cli import build_parser, main
from ncho.config import build_scenario, parse_scenario_file
from ncho.ermakov import rho_eval
from ncho.errors import InvalidLabel
from ncho.spectrum import PhaseMethod, StateLabel, hamiltonian_eigenfunction

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
# CSV writer
# ---------------------------------------------------------------------------

TABLES = (
    cli.ENERGY_TABLE, cli.PHASE_TABLE, cli.MATELEM_TABLE, cli.MATELEM_CLOSED_TABLE,
    cli.NCPARAMS_TABLE, cli.WAVEFIELD_TABLE,
)
# Each field spec, formatted the way the per-field row joins did it.
_PER_FIELD = {"%.12e": lambda x: "%.12e" % x, "%d": lambda flag: str(int(flag)), "%s": str}
_EXTREMES = (0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -1e308,
             1.7976931348623157e308, -1.7976931348623157e308)
_FIELD_VALUES = {
    "%.12e": st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES),
    "%d": st.sampled_from((0, 1, False, True)),
    "%s": st.sampled_from([method.value for method in PhaseMethod]),
}
# Both sides of the cutover to the vector kernel and of a block boundary.
_ROW_COUNTS = (
    0, 1, 3, cli._KERNEL_MIN_ROWS - 1, cli._KERNEL_MIN_ROWS,
    cli._FORMAT_BLOCK - 1, cli._FORMAT_BLOCK, cli._FORMAT_BLOCK + 1,
)


def _columns(rows, width):
    """The rows of a table as its columns, what format_table takes."""
    return [[row[i] for row in rows] for i in range(width)]


def _per_field_csv(table, rows):
    header, row_format = table
    fields = row_format.split(",")
    return header + "\n" + "".join(
        ",".join(_PER_FIELD[f](v) for f, v in zip(fields, row)) + "\n" for row in rows
    )


def _adversarial_doubles(rng, size):
    """Finite doubles that stress a 13-significant-digit writer.

    Decimal ties at the 13th digit and their neighbours, exact binary ties
    (D + 1/2) 2**j, 9.9999999999995e+-k, exponents around +-99/+-100 and
    at the ends of the range, subnormals, signed zeros and plain values.
    """
    digits = rng.integers(10**12, 10**13, size)
    shift = rng.integers(-320, 296, size)
    ties = np.array([float(f"{d}5e{k}") for d, k in zip(digits.tolist(), shift.tolist())])
    nudged = np.nextafter(ties, np.where(rng.random(size) < 0.5, -np.inf, np.inf))
    binary = (digits + 0.5) * np.ldexp(1.0, rng.integers(-60, 4, size))
    edges = np.array([float(f"{m}e{k}") for m in ("1", "9.9999999999995", "9.99999999999949")
                      for k in (-324, -310, -308, -101, -100, -99, -98, -1, 0, 1, 98, 99, 100, 307)])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    special = np.array(_EXTREMES)
    plain = rng.standard_normal(size) * 10.0 ** rng.integers(-110, 110, size)
    subnormal = rng.integers(1, 2**52, size).view(np.float64)
    pool = np.concatenate([ties, nudged, binary, edges, special, plain, subnormal])
    pool = pool[np.isfinite(pool)]
    values = rng.choice(pool, size)
    return np.where(rng.random(size) < 0.5, -values, values)


def _unsigned_with_negative_zeros(rng, size):
    column = np.abs(_adversarial_doubles(rng, size))
    column[rng.random(size) < 0.05] = -0.0  # a sign bit: the column keeps its sign byte
    return column


def _wavefield_radii(rng, size):
    """r_max k/n, each repeated n times, as wavefield prints its radii: near ties recur."""
    n = int(rng.integers(1, 200))
    r_max = rng.random() * 10.0 ** rng.integers(-5, 5)
    return np.resize(np.repeat(r_max * np.arange(1, n + 1) / n, n), size)


# Float columns of either sign, with no sign bit set, all negative (zeros as -0.0),
# with -0.0 among unsigned values, and recurring near ties.
_FLOAT_COLUMNS = {
    "mixed": _adversarial_doubles,
    "unsigned": lambda rng, size: np.abs(_adversarial_doubles(rng, size)),
    "negative": lambda rng, size: -np.abs(_adversarial_doubles(rng, size)),
    "negative_zeros": _unsigned_with_negative_zeros,
    "radii": _wavefield_radii,
}


def _drawn_column(data, rng, spec, size):
    """One column of a spec, as a list or an array: bool and int flags,
    str lists and arrays, float lists and arrays."""
    if spec == "%.12e":
        column = _FLOAT_COLUMNS[data.draw(st.sampled_from(sorted(_FLOAT_COLUMNS)))](rng, size)
        return column if data.draw(st.booleans()) else column.tolist()
    if spec == "%d":
        flags = rng.random(size) < 0.5
        return data.draw(st.sampled_from((flags, flags.astype(np.int64), flags.tolist())))
    methods = np.array([method.value for method in PhaseMethod])[rng.integers(0, 2, size)]
    return methods if data.draw(st.booleans()) else methods.tolist()


def _python_rows(columns):
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def _float_rows(specs, block):
    """The block's %.12e columns stacked, one row each, as format_table hands them on."""
    return np.array([c for f, c in zip(specs, block) if f == "%.12e"], float).reshape(-1, len(block[0]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_format_table_matches_per_field_join(data):
    table = data.draw(st.sampled_from(TABLES))
    fields = table[1].split(",")
    assert len(fields) == len(table[0].split(","))
    size = data.draw(st.sampled_from(_ROW_COUNTS))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    columns = [_drawn_column(data, rng, f, size) for f in fields]
    rows = _python_rows(columns)
    # A few drawn rows land anywhere in the table, block boundaries included.
    for row in data.draw(st.lists(st.tuples(*(_FIELD_VALUES[f] for f in fields)), max_size=4)):
        if rows:
            rows[data.draw(st.integers(0, len(rows) - 1))] = row
    columns = [
        np.array(col) if isinstance(orig, np.ndarray) else list(col)
        for orig, col in zip(columns, zip(*rows) if rows else [()] * len(fields))
    ]
    assert cli.format_table(table, columns) == _per_field_csv(table, rows)


def test_format_table_kernel_takes_every_table():
    # The kernel, not the % fallback, writes blocks of the shipped tables.
    rng = np.random.default_rng(7)
    size = cli._KERNEL_MIN_ROWS
    for table in TABLES:
        specs = table[1].split(",")
        block = [
            rng.standard_normal(size) if f == "%.12e"
            else rng.random(size) < 0.5 if f == "%d"
            else np.where(rng.random(size) < 0.5, "ClosedForm", "Quadrature")
            for f in specs
        ]
        text = cli._format_block(specs, block, _float_rows(specs, block))
        assert text is not None, table
        assert table[0] + "\n" + text == _per_field_csv(table, _python_rows(block))
    # A table with no %.12e column: format_table slices an empty float stack.
    table = ("a,b", "%d,%s")
    block = [rng.random(size) < 0.5, np.where(rng.random(size) < 0.5, "ClosedForm", "Quadrature")]
    assert cli._format_block(["%d", "%s"], block, _float_rows(["%d", "%s"], block)) is not None
    assert cli.format_table(table, block) == _per_field_csv(table, _python_rows(block))


def _calls_translate(specs, block) -> tuple[str, bool]:
    """_format_block's text, and whether it ran the NUL pass (bytes.translate)."""
    floats = _float_rows(specs, block)
    profile = cProfile.Profile()
    profile.enable()
    text = cli._format_block(specs, block, floats)
    profile.disable()
    names = {name for _, _, name in pstats.Stats(profile).stats}
    return text, "<method 'translate' of 'bytes' objects>" in names


def test_format_block_without_sign_bits_skips_the_nul_pass():
    rng = np.random.default_rng(29)
    size = 3000
    for table in TABLES:
        specs = table[1].split(",")
        block = [
            np.abs(_adversarial_doubles(rng, size)) if f == "%.12e"
            else rng.random(size) < 0.5 if f == "%d"
            else np.where(rng.random(size) < 0.5, "ClosedForm", "Quadrature")
            for f in specs
        ]
        # Three-digit exponents and subnormals take 24-byte cells, which keep NULs.
        for column, f in zip(block, specs):
            if f == "%.12e":
                column[(column != 0.0) & ((column < 1e-99) | (column >= 9.9e99))] = 1.0
        want = _per_field_csv(table, _python_rows(block))
        text, translated = _calls_translate(specs, block)
        assert table[0] + "\n" + text == want and not translated, table
        first = specs.index("%.12e")
        block[first][5] = -block[first][5] or -0.0  # one sign bit brings the sign byte back
        text, translated = _calls_translate(specs, block)
        assert table[0] + "\n" + text == _per_field_csv(table, _python_rows(block)) and translated


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_format_table_refuses_non_finite_values(bad):
    finite = {"%.12e": 1.5, "%d": 1, "%s": "ClosedForm"}
    for table in TABLES:
        fields = table[1].split(",")
        row = [finite[f] for f in fields]
        for i, f in enumerate(fields):
            if f != "%.12e":
                continue
            rows = [tuple(row), tuple(row[:i] + [bad] + row[i + 1:])]
            with pytest.raises(ArithmeticError):
                cli.format_table(table, _columns(rows, len(fields)))
            # Past the first block, in a table the kernel writes.
            columns = [np.full(6000, v) for v in row]
            columns[i][5000] = bad
            with pytest.raises(ArithmeticError):
                cli.format_table(table, columns)


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
    # rho(0) with the wrong mu, carried by the exact motion, misses rho(t) by ~20%.
    assert re.search(r"^invariant-ode +2\.\d{3}e-01 +1\.000e-12 +FAIL$", out, re.MULTILINE), out


def test_verify_fails_the_heisenberg_check_on_overdamped_motion(capsys, tmp_path):
    # Off its constraint a SetII_k scenario with sigma*Delta < Gamma^2/(k+2)^2
    # does not oscillate; the propagator refuses it and the row fails.
    text = (SCENARIO_DIR / "mild_ii_k2.scenario").read_text()
    overdamped = tmp_path / "overdamped.scenario"
    overdamped.write_text(text.replace("Delta = 1.0625", "Delta = 0.01"))
    code, out, err = run_cli(capsys, "verify", "--scenario", str(overdamped))
    assert code == 1 and err == ""
    assert re.search(r"^heisenberg +inf +1\.000e-12 +FAIL$", out, re.MULTILINE), out


def test_verify_tolerance_override_forces_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scenario", IB, "--tol", "1e-300")
    assert code == 1
    assert "FAIL" in out


# Delta < M omega0^2: a root of c is imaginary from t = 0 on, so the
# reality window is empty (horizon 0.0).
_EMPTY_WINDOW = (
    "kind = SetIb\nM = 1\nomega0 = 3\nGamma = 1\nvartheta = 1\n"
    "sigma = 1\nDelta = 1.25\nmu = 1\nxi = 1\n"
)


def test_verify_reports_its_window_and_an_empty_reality_window(capsys, tmp_path):
    empty = tmp_path / "empty.scenario"
    empty.write_text(_EMPTY_WINDOW)
    code, out, _ = run_cli(capsys, "verify", "--scenario", str(empty))
    lines = out.splitlines()
    assert "window: t in [0, 2]" in lines
    notice = [line for line in lines if line.startswith("reality window: empty")]
    assert len(notice) == 1 and not notice[0].rstrip().endswith("PASS")
    # Only the seven check rows end in PASS, whatever their outcome here.
    assert sum(line.rstrip().endswith("PASS") for line in lines) <= 7
    assert code in (0, 1)

    code, out, _ = run_cli(capsys, "verify", "--scenario", III)
    assert code == 0
    assert not any(line.startswith("reality window:") for line in out.splitlines())
    assert "window: t in [0, 1.94605]" in out.splitlines()  # 0.9 * horizon


def test_verify_counts_an_overflow_as_a_failed_check(capsys, tmp_path):
    # c(t) has an imaginary part near 1000 here, so exp(i Theta) overflows
    # in the matrix-element check; the steep SetIa scenario below does the
    # same, but its phase check integrates 22 fallback times of size ~1e7,
    # about 3 s of quadrature.
    deep = tmp_path / "deep.scenario"
    deep.write_text(_EMPTY_WINDOW.replace("omega0 = 3", "omega0 = 1000"))
    code, out, err = run_cli(capsys, "verify", "--scenario", str(deep))
    assert code == 1 and err == ""
    status = {
        line.split()[0]: line.split()[1:]
        for line in out.splitlines()
        if line.endswith(("PASS", "FAIL"))
    }
    assert len(status) == 7
    assert status["matrix-oracle"] == ["inf", "1.000e-06", "FAIL"]
    assert re.search(r"7 checks: \d passed, [1-7] failed; worst residual inf", out)


def test_verify_fails_a_nan_residual(capsys, monkeypatch):
    # Python's max(0.0, nan) is 0.0; the residual fold must keep the nan,
    # and the row prints it as inf, as it prints a check that raised.
    monkeypatch.setattr(cli, "overlap", lambda *args: complex(math.nan, 0.0))
    code, out, _ = run_cli(capsys, "verify", "--scenario", IB)
    assert code == 1
    assert re.search(r"^matrix-oracle +inf +1\.000e-06 +FAIL$", out, re.MULTILINE), out
    assert "6 passed, 1 failed; worst residual inf" in out


def test_verify_counts_a_dual_form_disagreement_as_a_failed_check(capsys, monkeypatch):
    # energy_expectation raises ToleranceNotMet when its two routes disagree; inside
    # verify that fails the heisenberg row and the table is still printed.
    original = families.SetIII._ground_energy
    monkeypatch.setattr(
        families.SetIII, "_ground_energy", lambda self, t: (1.0 + 1e-6) * original(self, t)
    )
    code, out, err = run_cli(capsys, "verify", "--scenario", III)
    assert code == 1 and err == ""
    assert re.search(r"^heisenberg +inf +1\.000e-12 +FAIL$", out, re.MULTILINE), out
    assert "7 checks: 6 passed, 1 failed; worst residual inf" in out


def _scale_rho_dot(monkeypatch):
    # Each class that defines _rho, its rho' scaled and rho and rho'' kept.
    for family in (families._Exponential, families.SetIIk, families.SetIII):
        def scaled(self, t, original=family._rho):
            rho, rho_dot, rho_ddot = original(self, t)
            return rho, 1.01 * rho_dot, rho_ddot

        monkeypatch.setattr(family, "_rho", scaled)


def _scale_c(monkeypatch):
    original = families.Family._c
    monkeypatch.setattr(families.Family, "_c", lambda self, t: (1.0 + 1e-4) * original(self, t))


def _scale_element_coefficient(monkeypatch):
    original = spectrum._element_coefficient

    def scaled(*labels):
        exact = original(*labels)
        return None if exact is None else ((1.0 + 1e-4) * exact[0], exact[1])

    monkeypatch.setattr(spectrum, "_element_coefficient", scaled)


def _drop_coupling(monkeypatch):
    monkeypatch.setattr(energy, "c_complex", lambda scenario, t: 0j)


def _scale_b(monkeypatch):
    for family in (families._Exponential, families.SetIIk, families.SetIII):
        def scaled(self, t, original=family._b):
            return (1.0 + 1e-4) * original(self, t)

        monkeypatch.setattr(family, "_b", scaled)


def _scale_phi(monkeypatch):
    original = spectrum._phi
    monkeypatch.setattr(spectrum, "_phi", lambda *args: (1.0 + 1e-4) * original(*args))


def _scale_damping(monkeypatch):
    for family in (families.Family, families._ExpDamped):
        def scaled(self, t, original=family._damping):
            return (1.0 + 1e-4) * original(self, t)

        monkeypatch.setattr(family, "_damping", scaled)


def _scale_constraint_lhs(monkeypatch):
    for family in (families._Exponential, families.SetIIk, families.SetIII):
        def scaled(self, original=family.constraint):
            lhs, rhs, terms = original(self)
            return (1.0 + 1e-4) * lhs, rhs, terms

        monkeypatch.setattr(family, "constraint", scaled)


# Each fault is a monkeypatch of one closed form, with the verify row that must fail
# on it; every row fails on at least one. Not here, because no row catches it yet:
# the chirp sign of spectrum.eigenfunction.
MUTANTS = {
    "rho_dot": (_scale_rho_dot, "invariant-ode"),
    "c": (_scale_c, "phase-crossval"),
    "element_coefficient": (_scale_element_coefficient, "matrix-oracle"),
    "coupling": (_drop_coupling, "heisenberg"),
    "b": (_scale_b, "ep-residual"),
    "phi": (_scale_phi, "matrix-oracle"),
    "constraint_lhs": (_scale_constraint_lhs, "family-constraint"),
    "damping": (_scale_damping, "deformation"),
}


@pytest.mark.parametrize("fault", MUTANTS)
def test_verify_fails_the_named_row_on_each_fault(capsys, monkeypatch, fault):
    patch, row = MUTANTS[fault]
    patch(monkeypatch)
    for name in ("mild_iii", "set_iii", "set_ib"):
        spectrum._slice.cache_clear()  # slices cached without the fault, or with it
        try:
            code, out, _ = run_cli(capsys, "verify", "--scenario", str(SCENARIO_DIR / f"{name}.scenario"))
        finally:
            spectrum._slice.cache_clear()
        assert code == 1, (name, out)
        assert re.search(rf"^{row} +\S+ +\S+ +FAIL$", out, re.MULTILINE), (name, out)


def test_every_verify_row_fails_on_a_fault():
    assert {row for _, row in MUTANTS.values()} == {name for name, _, _ in cli._VERIFY_CHECKS}


# SetIa with omega0 = 1e4: the series argument z = 0.1 exp(2t) nears 1 at
# t ~ 1.15, where its series stops settling. mu keeps the constraint exact.
_STEEP_IA = (
    "kind = SetIa\nM = 1\nomega0 = 1e4\nGamma = 1\nvartheta = 1\n"
    f"sigma = 1e7\nDelta = 1e7\nmu = {(1e14 / (1e14 - 0.25)) ** 0.25!r}\nxi = 1\n"
)


def test_phase_notes_rows_outside_the_reality_window(capsys, tmp_path):
    empty = tmp_path / "empty.scenario"
    empty.write_text(_EMPTY_WINDOW)
    code, out, err = run_cli(
        capsys, "phase", "--scenario", str(empty), "--m", "1", "--points", "3"
    )
    assert code == 0
    assert len(csv_rows(out)[1]) == 3
    assert err.count("\n") == 1
    assert err.startswith("note: 3 of 3 rows lie outside the reality window (horizon 0)")

    # Inside the window there is nothing to say.
    code, _, err = run_cli(capsys, "phase", "--scenario", III, "--m", "1", "--points", "3")
    assert code == 0 and err == ""
    code, _, err = run_cli(
        capsys, "phase", "--scenario", III, "--m", "1", "--t1", "3", "--points", "3"
    )
    assert err.startswith("note: 1 of 3 rows lie outside the reality window (horizon 2.16228)")


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


def test_energy_past_horizon_cancellation_passes_cross_check(capsys):
    # Terms of ~4e7 cancel to ~465 at t = 18.89; the closed-form cross-check
    # must judge the rounding left over against the terms, not the result.
    code, out, err = run_cli(
        capsys, "energy", "--scenario", IA, "--n", "1", "--m", "2",
        "--t0", "0.16397829", "--t1", "23.0682694", "--points", "3000",
    )
    assert code == 0, err
    assert err == ""
    assert len(csv_rows(out)[1]) == 3000


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


def test_phase_falls_back_where_the_series_does_not_settle(capsys, tmp_path):
    steep = tmp_path / "steep_ia.scenario"
    steep.write_text(_STEEP_IA)
    code, out, err = run_cli(
        capsys, "phase", "--scenario", str(steep), "--m", "1",
        "--t0", "1.10", "--t1", "1.16", "--points", "7",
    )
    # c(0) is already complex here (Delta < M omega0^2), so the reality window is empty.
    assert code == 0
    assert err.startswith("note: 7 of 7 rows lie outside the reality window (horizon 0)")
    _, rows = csv_rows(out)
    assert [row[3] for row in rows] == ["ClosedForm"] * 3 + ["Quadrature"] * 4


def test_phase_of_m0_is_zero_and_never_integrates(capsys, monkeypatch):
    calls = []
    original = spectrum.integrate_adaptive_many

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectrum, "integrate_adaptive_many", spy)
    code, out, _ = run_cli(capsys, "phase", "--scenario", IA, "--m", "0", "--points", "50")
    assert code == 0 and calls == []
    _, rows = csv_rows(out)
    assert len(rows) == 50
    assert {row[1] for row in rows} | {row[2] for row in rows} == {"0.000000000000e+00"}
    assert {row[3] for row in rows} == {"ClosedForm"}
    # The spy sees the quadrature that m = 1 needs on the same grid.
    assert run_cli(capsys, "phase", "--scenario", IA, "--m", "1", "--points", "50")[0] == 0
    assert calls


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
    # The oracle's rule is exact for these labels, so closed form and oracle
    # agree to rounding, far inside the 1e-8 the oracle is certified to.
    code, out, _ = run_cli(
        capsys, "matelem", "--scenario", MILD_II, "--m", "0", "--mprime", "2",
        "--k", "2", "--t0", "0.3", "--t1", "0.9", "--points", "2",
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert all(float(row[5]) <= 1e-12 for row in rows)


def test_late_time_underflow_is_named(capsys):
    # At t = 1000 a(t) = sigma e^(-Gamma t) and hbar rho^2 are both 0.0 on
    # the exponential families; the error says which, and when.
    prefix = "error: inputs out of numerical range: "
    for argv, want in (
        (("wavefield", "--t0", "1000", "--points", "4"), "a(t) underflows to 0 at t=1000\n"),
        (("matelem", "--t0", "1000", "--t1", "1001"), "hbar rho^2 = 0 at t=1000 underflows"),
    ):
        code, out, err = run_cli(capsys, argv[0], "--scenario", IB, *argv[1:])
        assert code == 2 and out == "", argv
        assert err.startswith(prefix + want), (argv, err)


@pytest.mark.parametrize(
    "name", ["set_ia", "set_ib", "set_ic", "set_ii_k2", "set_iii", "mild_iii"]
)
def test_huge_finite_time_names_the_quantity_that_overflows(capsys, name):
    path = str(SCENARIO_DIR / f"{name}.scenario")
    huge = ("--t0", "1e300", "--t1", "1e300")
    commands = [("energy", "--n", "1", "--m", "2", "--t1", "1e300"), ("ncparams", "--t1", "1e300")]
    if name not in ("set_ib", "set_ic"):  # their phases stay finite at t = 1e300
        commands.append(("phase", "--m", "1", "--t1", "1e300"))
    if name in ("set_iii", "mild_iii"):
        # rho^k formed outside the family table: the closed element, the
        # oracle's tensor rule (reached first at k = 1) and the wavefield radius.
        commands += [("matelem", *huge), ("matelem", "--k", "1", *huge)]
        commands.append(("wavefield", "--t0", "1e300"))
    for argv in commands:
        code, out, err = run_cli(capsys, *argv, "--scenario", path)
        assert code == 2 and out == "", argv
        assert re.match(
            r"error: inputs out of numerical range: (\w+\(t\) overflows a float "
            r"for t up to |rho\(t\)\^\d overflows a float at t=)1e\+300\n$", err
        ), (argv, err)
        assert "math range error" not in err and "(34," not in err, argv
    if name == "set_ii_k2":  # rho stays finite here, and so does the element
        assert run_cli(capsys, "matelem", "--scenario", path, *huge)[0] == 0
    # The normalisation's (hbar rho^2)^(1+l) of the oracle's tensor rule, at l = 3:
    # rho is huge on set_iii at t = 1e80, tiny on set_ii_k2 at 1e200.
    power = {
        "set_iii": ("1e80", r"rho\(t\)\^8 overflows a float at t=1e\+80"),
        "set_ii_k2": ("1e200", r"hbar rho\^2 = 2e-200 at t=1e\+200 underflows the normalisation "
                               r"of n = 0, m = 3"),
    }
    if name in power:
        t, want = power[name]
        labels = ("--n", "0", "--m", "3", "--mprime", "4", "--k", "2", "--points", "1")
        code, out, err = run_cli(capsys, "matelem", "--scenario", path, *labels, "--t0", t, "--t1", t)
        assert code == 2 and out == ""
        assert re.fullmatch(rf"error: inputs out of numerical range: {want}\n", err), err


@pytest.mark.parametrize("argv, message", [
    (("wavefield", "set_iii", "--n", "200", "--m", "200", "--points", "2"),
     "L_200^(0)(w) overflows a float for n=200, m=200 at t=0"),
    (("matelem", "set_iii", "--k", "400"),
     "the coefficient of rho(t)^400 overflows a float for n=0, m=0, m'=0, k=400"),
    (("wavefield", "set_iii", "--n", "0", "--m", "400", "--points", "2"),
     "max(n, m)!/min(n, m)! overflows a float for n=0, m=400 at t=0"),
])
def test_huge_labels_name_the_quantity_that_overflows(capsys, argv, message):
    # The exact coefficient of the closed element, the label ratio of the
    # eigenfunction's normalisation and L_200(w) at the wavefield's outer radii
    # (inf - inf in its recurrence) leave the float range.
    command, name, *flags = argv
    path = str(SCENARIO_DIR / f"{name}.scenario")
    if command == "matelem":
        flags += ["--points", "1"]
    code, out, err = run_cli(capsys, command, "--scenario", path, *flags)
    assert (code, out) == (2, "")
    assert err == f"error: inputs out of numerical range: {message}\n"


def test_large_labels_print_the_finite_element(capsys):
    # sqrt(m! m'!) leaves the float range at m = 171; the element is sqrt(172)/2 rho(0).
    path = str(SCENARIO_DIR / "mild_iii.scenario")
    labels = ("--n", "0", "--m", "171", "--mprime", "172", "--k", "1", "--points", "1")
    code, out, err = run_cli(capsys, "matelem", "--scenario", path, *labels)
    assert code == 0 and err.startswith("note: the oracle is validated for")
    assert out.splitlines()[1:] == ["0.000000000000e+00,0.000000000000e+00,6.557438524302e+00"]


_HUGE_SIGMA = {"sigma = 1e7": "sigma = 1e300", "Delta = 1e7": "Delta = 1e300"}
_EXPONENTIAL = "mu^4*(sigma*Delta - Gamma^2/4) = sigma^2"


@pytest.mark.parametrize("name, edits, constraint", [
    ("set_ia", _HUGE_SIGMA, _EXPONENTIAL),
    ("set_ib", _HUGE_SIGMA, _EXPONENTIAL),
    ("set_ic", _HUGE_SIGMA, _EXPONENTIAL),
    ("set_ii_k2", _HUGE_SIGMA, "Gamma^2*mu = (k+2)^2*(sigma*Delta*mu - sigma^2/mu^3)"),
    ("set_iii", {"mu = 1": "mu = 1e100"}, "Delta*mu^4 = sigma"),
])
def test_overflowing_constraint_names_the_family_constraint(capsys, tmp_path, name, edits, constraint):
    # A constant's power in the constraint leaves the float range before any
    # closed form runs; the error names the relation, not errno 34.
    text = (SCENARIO_DIR / f"{name}.scenario").read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    huge = tmp_path / "huge.scenario"
    huge.write_text(text)
    for command in ("verify", "energy"):
        code, out, err = run_cli(capsys, command, "--scenario", str(huge))
        assert (code, out) == (2, ""), command
        assert f"family constraint {constraint} overflows a float" in err, (command, err)
        assert "(34," not in err, command


def test_closed_form_phase_pole_names_the_time(capsys):
    # SetIII's atan argument rounds to exactly -i at t = 1e20, the pole of cmath.atan.
    # The message names the first time that fails, not the grid's last one, also
    # where the times before it have their phases.
    path = str(SCENARIO_DIR / "set_iii.scenario")
    for at in (("--t0", "1e20", "--t1", "1e20", "--points", "1"),
               ("--t0", "1e20", "--t1", "1e25", "--points", "4"),
               ("--t0", "0", "--t1", "1e20", "--points", "2")):
        for argv in (("phase", "--m", "1"), ("matelem", "--mprime", "1", "--k", "1")):
            code, out, err = run_cli(capsys, *argv, "--scenario", path, *at)
            assert code == 2 and out == "", (argv, at)
            assert err == "error: unit_phase(t) is not defined at t=1e+20: math domain error\n", (argv, at)


# A SetIII scenario on its constraint whose chi = 1e-300 makes chi u and chi^2 underflow to 0.
_TINY_CHI = (
    "kind = SetIII\nM = 1\nomega0 = 0.5\nGamma = 1\nchi = 1e-300\n"
    "sigma = 2\nDelta = 2\nmu = 1\n"
)


def test_verify_prints_its_table_where_residual_terms_are_not_finite(capsys, tmp_path):
    # At t = 0 the scale equation's terms hold inf of both signs, where math.fsum
    # raised; that row reads inf, and so do the rows whose residual is nan there.
    # The phase rate is nan at t = 0, so phase-crossval fails before its quadratures,
    # which would bisect toward the near-pole at t = -chi until the panel limit.
    path = tmp_path / "tiny_chi.scenario"
    path.write_text(_TINY_CHI)
    code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
    assert code == 1 and err == ""
    rows = [line.split() for line in out.splitlines() if line.endswith(("PASS", "FAIL"))]
    assert [row[0] for row in rows if row[-1] == "PASS"] == ["family-constraint"]
    assert [row[1] for row in rows if row[-1] == "FAIL"] == ["inf"] * 6
    assert "7 checks: 1 passed, 6 failed; worst residual inf" in out


def test_closed_form_phase_division_by_zero_names_the_time(capsys, tmp_path):
    path = tmp_path / "tiny_chi.scenario"
    path.write_text(_TINY_CHI)
    for argv in (("phase", "--m", "1", "--points", "3"),
                 ("matelem", "--mprime", "1", "--k", "1", "--points", "2")):
        code, out, err = run_cli(capsys, *argv, "--scenario", str(path))
        assert code == 2 and out == "", argv
        assert err == "error: unit_phase(t) is not defined at t=0: float division by zero\n", argv


def test_matelem_past_the_oracle_range_prints_the_closed_form(capsys):
    # The closed form is exact for any labels; the oracle is validated for
    # n, m, m' <= 4 and k <= 3 only, so past that the table drops its columns.
    for labels in (("--n", "5"), ("--k", "4"), ("--m", "1", "--mprime", "5", "--k", "4")):
        code, out, err = run_cli(
            capsys, "matelem", "--scenario", IB, *labels, "--t1", "0.5", "--points", "2"
        )
        assert code == 0, labels
        header, rows = csv_rows(out)
        assert header == cli.MATELEM_CLOSED_TABLE[0] == "t,closed_re,closed_im"
        assert len(rows) == 2 and all(re.fullmatch(_SCI, f) for row in rows for f in row)
        assert err == (
            "note: the oracle is validated for n, m, m' <= 4 and k <= 3 only; "
            "printing the closed form alone\n"
        )
    for argv in (("--n", "-1"), ("--k", "-1"), ("--m", "-2", "--k", "4")):
        code, out, err = run_cli(capsys, "matelem", "--scenario", IB, *argv, "--points", "2")
        assert code == 2 and out == "" and err.startswith("error: "), argv
    # A bad column label is named as m', not as m.
    code, out, err = run_cli(capsys, "matelem", "--scenario", III, "--mprime", "-1")
    assert (code, out, err) == (2, "", "error: m' must be a nonnegative integer, got -1\n")
    with pytest.raises(InvalidLabel):
        spectrum.matrix_element_oracle(build_scenario(parse_scenario_file(IB)), 0.5, 5, 5, 5, 2, "x")


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


@pytest.mark.parametrize("name, t", [("mild_iii", "1e6"), ("set_iii", "2e9")])
def test_ncparams_flags_a_late_negative_square_against_its_scale(capsys, name, t):
    # Omega_nc's square is negative here, and its terms are ~1e-12: the flag
    # reads it against the terms' scale, and the gate passes.
    path = str(SCENARIO_DIR / f"{name}.scenario")
    code, out, err = run_cli(capsys, "ncparams", "--scenario", path, "--t0", t, "--t1", t, "--points", "1")
    assert (code, err) == (0, "")
    assert [row[3:] for row in csv_rows(out)[1]] == [["1", "0"]]


def test_ncparams_prints_a_vanishing_square_as_zero(capsys):
    # Delta = M omega0^2 makes Omega_nc's square exactly 0, with no root of noise.
    path = str(SCENARIO_DIR / "mild_ib.scenario")
    code, out, _ = run_cli(capsys, "ncparams", "--scenario", path, "--t1", "5", "--points", "2001")
    assert code == 0
    rows = csv_rows(out)[1]
    assert len(rows) == 2001 and {row[2] for row in rows} == {"0.000000000000e+00"}
    assert {row[4] for row in rows} == {"1"}


def test_ncparams_gates_past_the_horizon(capsys, monkeypatch):
    # The generic inversion checks the published squares at every time, so a
    # wrong damping factor fails a grid that lies wholly past the horizon.
    _scale_damping(monkeypatch)
    for name, t0, t1 in (("mild_iii", "3", "5"), ("set_iii", "3", "5"), ("set_ia", "17", "20")):
        path = str(SCENARIO_DIR / f"{name}.scenario")
        code, out, err = run_cli(capsys, "ncparams", "--scenario", path, "--t0", t0, "--t1", t1)
        assert (code, out) == (1, ""), name
        assert err == (
            f"check failed: generic inversion disagrees with the closed form for theta_nc at t={t0}\n"
        ), name


def test_verify_fails_the_deformation_row_at_zero_frequency(capsys, tmp_path):
    # theta_nc is undefined at omega0 = 0: ncparams exits 2, and the verify row
    # fails like any row whose check raises.
    path = tmp_path / "free.scenario"
    path.write_text("kind = SetIII\nM = 1\nomega0 = 0\nGamma = 1\nchi = 1\nsigma = 2\nDelta = 2\nmu = 1\n")
    code, out, err = run_cli(capsys, "ncparams", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert err == "error: theta_nc is undefined at zero frequency (omega(t) = 0)\n"
    code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
    assert code == 1 and err == ""
    assert re.search(r"^deformation +inf +1\.000e-12 +FAIL$", out, re.MULTILINE), out


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
    # The grid is evaluated in one array call; the same function at single
    # points is the reference.
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
    rho, _, _ = rho_eval(scenario, t)
    r_max = 4.0 * math.sqrt(rho**2 * (n + m + 1))
    # Radial index 0 is the smallest radius, r_max / points, next to the origin.
    for i, j in ((0, 0), (0, 5), (1, 17), (20, 40), (points // 2, 3), (points - 1, points - 1)):
        r, angle = r_max * (i + 1) / points, 2.0 * math.pi * j / points
        row = rows[i * points + j]
        assert row[:2] == ["%.12e" % r, "%.12e" % angle]
        psi = hamiltonian_eigenfunction(scenario, t, StateLabel(n, m), r, angle)
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
    # The families are defined for t >= 0 only; every time flag says so.
    for argv in (
        ("energy", "--scenario", IB, "--t0", "-1"),
        ("ncparams", "--scenario", IB, "--t0", "-1"),
        ("phase", "--scenario", str(SCENARIO_DIR / "set_ii_k2.scenario"), "--m", "1",
         "--t0", "-0.9", "--t1", "-0.5", "--points", "2"),
        ("matelem", "--scenario", IB, "--t0", "-1", "--points", "2"),
        ("wavefield", "--scenario", IB, "--t0", "-1", "--points", "2"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        t0 = argv[argv.index("--t0") + 1]
        assert out == "" and err == f"error: --t0 must be >= 0, got {t0}\n", argv
    # A tolerance must be finite and positive: nan would fail every check.
    for argv in (
        ("verify", "--scenario", IB, "--tol", "nan"),
        ("verify", "--scenario", IB, "--tol", "-1"),
        ("verify", "--scenario", IB, "--tol", "inf"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: --tol must be a finite positive number"), argv
    # matelem takes no --tol: its oracle is certified by its rounding bound.
    code, out, err = run_cli(capsys, "matelem", "--scenario", IB, "--tol", "1e-8")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --tol 1e-8" in err and "Traceback" not in err
    # Grid sizes are capped before any grid is built.
    huge = "100000000000000000000"
    for argv in (
        ("energy", "--scenario", IB, "--points", huge),
        ("ncparams", "--scenario", IB, "--points", huge),
        ("phase", "--scenario", IB, "--m", "1", "--points", huge),
        ("matelem", "--scenario", IB, "--points", huge),
        ("wavefield", "--scenario", IB, "--points", huge),
        ("energy", "--scenario", IB, "--points", str(cli.MAX_POINTS + 1)),
        ("wavefield", "--scenario", IB, "--points", str(cli.MAX_AXIS_POINTS + 1)),
        ("wavefield", "--scenario", IB, "--points", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: --points must be an integer from 1 to "), argv
    assert cli._points(cli.MAX_POINTS, cli.MAX_POINTS) == cli.MAX_POINTS
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


# The CSV subcommands and the tables they may print on success.
_CSV_COMMANDS = {
    "energy": (cli.ENERGY_TABLE,),
    "phase": (cli.PHASE_TABLE,),
    "matelem": (cli.MATELEM_TABLE, cli.MATELEM_CLOSED_TABLE),
    "ncparams": (cli.NCPARAMS_TABLE,),
    "wavefield": (cli.WAVEFIELD_TABLE,),
}
_FIELD_TEXT = {"%.12e": _SCI, "%d": "[01]", "%s": "|".join(m.value for m in PhaseMethod)}
_TIMES = st.floats(0.0, 30.0) | st.sampled_from((-1.0, 1e3, 1e308, math.inf, math.nan))


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(sorted(_CSV_COMMANDS)),
    scenario=st.sampled_from(sorted(SCENARIO_DIR.glob("*.scenario"))),
    t0=_TIMES, t1=_TIMES, points=st.integers(1, 200),
    n=st.integers(0, 6), m=st.integers(0, 6),
)
def test_csv_subcommands_keep_the_contract_on_drawn_arguments(command, scenario, t0, t1, points, n, m):
    argv = [command, "--scenario", str(scenario), "--t0", repr(t0), "--points", str(points)]
    if command != "wavefield":
        argv += ["--t1", repr(t1)]
    if command != "ncparams":
        argv += ["--n", str(n), "--m", str(m)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an uncaught exception would be a traceback
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code != 0:
        assert out.getvalue() == "", argv
        return
    header, rows = csv_rows(out.getvalue())
    (table,) = [table for table in _CSV_COMMANDS[command] if table[0] == header]
    # A %.12e field that matches _SCI is finite: inf and nan do not match.
    pattern = ",".join(f"(?:{_FIELD_TEXT[f]})" for f in table[1].split(","))
    assert rows and all(re.fullmatch(pattern, ",".join(row)) for row in rows), argv


def test_malformed_scenario_reports_line_number(capsys, tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("kind = SetIb\nM = 1.0\nM 2.0\n")
    code, _, err = run_cli(capsys, "verify", "--scenario", str(bad))
    assert code == 2
    assert ":3:" in err and "key = value" in err


# One shipped scenario of each kind, and a minimal argument list per subcommand.
_KIND_FILES = ("set_ia", "set_ib", "set_ic", "set_ii_k2", "set_iii")
_SUBCOMMANDS = (
    ("verify",), ("energy",), ("phase", "--m", "1"), ("matelem",), ("ncparams",), ("wavefield",),
)


@pytest.mark.parametrize(
    "key, value", [("xi", "2"), ("hbar", "2"), ("vartheta", "2")], ids=["xi", "hbar", "vartheta"]
)
def test_fixed_keys_exit_two_on_every_subcommand(capsys, tmp_path, key, value):
    # Gamma = 1 in every shipped file, so vartheta = 2 is 2 Gamma.
    for name in _KIND_FILES:
        lines = (SCENARIO_DIR / f"{name}.scenario").read_text().splitlines()
        path = tmp_path / f"{name}.scenario"
        kept = [line for line in lines if line.partition("=")[0].strip() != key]
        path.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
        for argv in _SUBCOMMANDS:
            code, out, err = run_cli(capsys, *argv, "--scenario", str(path))
            assert (code, out) == (2, ""), (name, argv)
            assert err.startswith("error: ") and f"{key} must" in err, (name, argv, err)
            assert "Traceback" not in err
    proc = subprocess.run(
        [sys.executable, "-m", "ncho.cli", "energy", "--scenario", str(path)],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 2
    assert f"{key} must" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, name, line, kind", [
    ("verify", "set_iii", "k_exp = 7", "SetIII"),  # the linear family has no exponent
    ("energy", "set_ib", "chi = 5", "SetIb"),  # SetIb's profiles carry no offset
])
def test_a_key_the_kind_does_not_read_exits_two(capsys, tmp_path, command, name, line, kind):
    path = tmp_path / f"{name}.scenario"
    path.write_text((SCENARIO_DIR / f"{name}.scenario").read_text() + line + "\n")
    code, out, err = run_cli(capsys, command, "--scenario", str(path))
    assert (code, out) == (2, "")
    key = line.partition(" ")[0]
    assert err.startswith("error: ") and err.rstrip().endswith(f"kind {kind} does not read key '{key}'")


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "energy", "--help")[0] == 0


def _child_env() -> dict[str, str]:
    # The child finds the checkout's package even when neither an installed
    # copy nor PYTHONPATH provides it (pytest adds src/ only in-process).
    paths = (str(SCENARIO_DIR.parent / "src"), os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_huge_finite_time_exits_two_without_warnings():
    # numpy overflows to inf/nan with a RuntimeWarning where math raised;
    # the table writer must still refuse the result, and no warning text may
    # reach stderr. One child interpreter shows every warning it is sent.
    script = (
        "import sys\n"
        "from ncho.cli import main\n"
        "codes = []\n"
        "for name in ('set_ia', 'set_ib', 'set_ic', 'set_ii_k2', 'set_iii'):\n"
        "    path = f'{sys.argv[1]}/{name}.scenario'\n"
        "    for argv in (['energy', '--n', '1'], ['ncparams'], ['phase', '--m', '1']):\n"
        "        codes.append(main([*argv, '--scenario', path, '--t1', '1e308']))\n"
        "print(codes)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-c", script, str(SCENARIO_DIR)],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.stdout.splitlines()[-1] == str([2] * 15)
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stderr.count("error: inputs out of numerical range") == 15


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ncho.cli", "verify", "--scenario", III],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "7 passed" in proc.stdout


# Runs that leave a flag out follow runs that set it, and a usage error and
# --help come before a normal run, all in one process.
_REUSE_SEQUENCE = (
    ("verify", "--scenario", III, "--tol", "1e-300"),
    ("verify", "--scenario", III),
    ("matelem", "--scenario", IB, "--n", "1", "--mprime", "2", "--points", "3"),
    ("matelem", "--scenario", IB, "--n", "1", "--points", "3"),
    ("matelem", "--scenario", IB, "--coord", "z"),
    ("--help",),
    ("energy", "--scenario", IB, "--points", "4"),
)


def test_reused_parser_answers_like_a_fresh_interpreter(capsys, monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # the help and usage text wrap to it
    in_process = [run_cli(capsys, *argv) for argv in _REUSE_SEQUENCE]
    assert [code for code, _, _ in in_process] == [1, 0, 0, 0, 2, 0, 0]
    assert in_process[2][1] != in_process[3][1]
    for argv, got in zip(_REUSE_SEQUENCE, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "ncho.cli", *argv],
            capture_output=True, text=True, timeout=120, env=_child_env(),
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


def _benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its file (it imports nothing of the package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", SCENARIO_DIR.parent / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _top_level_route(argv):
    """How main parsed before the subcommand shortcut: the top-level parser alone."""
    return build_parser().parse_args(argv)


def test_main_parses_every_benchmark_argv_as_the_top_level_parser(monkeypatch):
    workloads = _benchmark_workloads(monkeypatch)
    dispatched = []
    monkeypatch.setattr(cli, "_DISPATCH", collections.defaultdict(
        lambda: lambda args: dispatched.append(args) or 0
    ))
    argvs = [
        list(op.argv)
        for workload in ("grid", "crosscheck", "cold")
        for seed in range(3)
        for op in workloads.make_ops(workload, seed, "tiny")
        if op.argv and op.argv[0] != "--help"
    ]
    assert len(argvs) > 100
    for argv in argvs:
        assert main(argv) == 0, argv
        assert dispatched.pop() == _top_level_route(argv), argv
    assert dispatched == []


# Usage errors, help and an abbreviated flag: whatever the top-level parser
# would have printed, main prints.
_PARSE_CASES = (
    (),
    ("--help",),
    ("-h", "matelem"),
    ("matelem", "--help"),
    ("bogus",),
    ("matel",),
    ("matelem",),
    ("matelem", "--scenario", IB, "--points", "x"),
    ("matelem", "--scenario", IB, "--bogus", "1"),
    ("--scenario", IB, "verify"),
    ("verify", "--scenario", IB, "--tol"),
    ("energy", "--scen", IB, "--points", "3"),
)


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_main_answers_parse_cases_as_the_top_level_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # the help and usage text wrap to it
    got = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_parse_args", _top_level_route)
    assert got == run_cli(capsys, *argv)
    assert "Traceback" not in got[2]
    if argv[-2:] == ("--bogus", "1"):  # leftovers are the top-level parser's to report
        assert got[2].startswith("usage: ncho [-h] {verify,")
        assert got[2].endswith("ncho: error: unrecognized arguments: --bogus 1\n")


def test_a_rewritten_scenario_file_is_read_again(capsys, tmp_path):
    path = tmp_path / "edited.scenario"
    text = (SCENARIO_DIR / "set_iii.scenario").read_text()
    argv = ("energy", "--scenario", str(path), "--points", "3")
    outputs = []
    for omega0 in ("0.5", "0.75"):
        path.write_text(re.sub(r"(?m)^omega0 = .*$", f"omega0 = {omega0}", text))
        fresh = tmp_path / f"fresh_{omega0}.scenario"
        fresh.write_text(path.read_text())
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (code, out) == run_cli(capsys, "energy", "--scenario", str(fresh), "--points", "3")[:2]
        outputs.append(out)
    assert outputs[0] != outputs[1]


def test_an_unparsable_scenario_fails_the_same_way_twice(capsys, tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("kind = SetIb\nM = 1.0\nM 2.0\n")
    first = run_cli(capsys, "verify", "--scenario", str(bad))
    assert first[0] == 2 and ":3:" in first[2]
    assert run_cli(capsys, "verify", "--scenario", str(bad)) == first


@pytest.mark.parametrize("order", [("verify", "energy"), ("energy", "verify")])
def test_a_constraint_violation_is_gated_whichever_command_reads_it_first(capsys, tmp_path, order):
    path = tmp_path / f"{order[0]}_first.scenario"
    path.write_text((SCENARIO_DIR / "set_iii.scenario").read_text().replace("mu = 1", "mu = 1.05"))
    for command in order:
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        if command == "verify":  # the constraint is a failed row, not a usage error
            assert code == 1 and err == ""
            assert re.search(r"^family-constraint +\S+ +\S+ +FAIL$", out, re.MULTILINE), out
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: family constraint ") and "violated" in err


# Runs each entry point in one fresh interpreter and prints, per step, the
# scipy modules loaded so far (scipy is a test dependency only).
_SCIPY_PROBE = """
import contextlib, io, json, runpy, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

root, out_dir = sys.argv[1], sys.argv[2]
import ncho.cli
steps = {"import ncho.cli": scipy_modules()}
with contextlib.redirect_stdout(io.StringIO()):
    ncho.cli.main(["--help"])
    steps["ncho --help"] = scipy_modules()
    ncho.cli.main(["verify", "--scenario", root + "/scenarios/set_ia.scenario"])
    steps["ncho verify"] = scipy_modules()
    for script, argv in (
        ("energy_curves.py", ["--out", out_dir]),
        ("phase_scan.py", ["--out", out_dir, "--points", "5"]),
    ):
        runpy.run_path(root + "/scripts/" + script)["main"](argv)
        steps[script] = scipy_modules()
print(json.dumps(steps))
"""


def test_entry_points_do_not_import_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(SCENARIO_DIR.parent), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert len(steps) == 5
    assert steps == {step: [] for step in steps}
