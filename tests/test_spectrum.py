"""Eigenstates, evolution phases, and coordinate-power matrix elements."""

from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ncho.config import ScenarioKind
from ncho.ermakov import coefficient_a, rho_eval
from ncho.errors import DomainError, InvalidLabel
from ncho.hamiltonian import c_value
from ncho.spectrum import (
    Coordinate,
    PhaseMethod,
    PolarPoint,
    StateLabel,
    eigenfunction,
    hamiltonian_eigenfunction,
    matrix_element_oracle,
    matrix_element_x_pow,
    matrix_element_y_pow,
    overlap,
    phase_closed_form,
    phase_quadrature,
)

from conftest import make_scenario

UNIT = StateLabel(0, 1)


# ---------------------------------------------------------------------------
# Labels and points
# ---------------------------------------------------------------------------

def test_state_label_validation():
    s = StateLabel(2, 5)
    assert s.l == 3
    with pytest.raises(InvalidLabel):
        StateLabel(-1, 0)
    with pytest.raises(InvalidLabel):
        StateLabel(0, -2)
    with pytest.raises(InvalidLabel):
        StateLabel(0.5, 0)


def test_polar_point_validation():
    PolarPoint(0.0, -3.0)
    with pytest.raises(DomainError):
        PolarPoint(-0.1, 0.0)


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def test_phase_zero_at_origin(fig_scenarios):
    for scenario in fig_scenarios.values():
        assert phase_closed_form(scenario, UNIT, 0.0).value == 0j
        assert phase_quadrature(scenario, UNIT, 0.0).value == 0j


def test_phase_zero_labels_short_circuit(fig_ib):
    for n in (0, 3):
        s = StateLabel(n, 0)
        assert phase_closed_form(fig_ib, s, 1.7).value == 0j
        assert phase_quadrature(fig_ib, s, 1.7).value == 0j


def test_phase_closed_vs_quadrature_on_figures(fig_scenarios):
    grids = {"Ib": 2.0, "Ic": 2.0, "II": 2.0, "III": 1.9}
    for name, t_end in grids.items():
        scenario = fig_scenarios[name]
        for i in range(11):
            t = t_end * i / 10
            cf = phase_closed_form(scenario, UNIT, t)
            qd = phase_quadrature(scenario, UNIT, t)
            assert cf.method is PhaseMethod.CLOSED_FORM
            err = abs(cf.value - qd.value) / max(1.0, abs(cf.value), abs(qd.value))
            assert err <= 1e-9, (name, t, err)


def test_phase_exponential_family_closed_form_in_series_domain(steep_ia):
    for t in (0.0, 0.3, 0.8, 1.1):
        cf = phase_closed_form(steep_ia, UNIT, t)
        qd = phase_quadrature(steep_ia, UNIT, t)
        assert cf.method is PhaseMethod.CLOSED_FORM
        err = abs(cf.value - qd.value) / max(1.0, abs(cf.value), abs(qd.value))
        assert err <= 1e-9, (t, err)


def test_phase_series_fallback_beyond_domain(fig_ia, steep_ia):
    # Figure parameters start beyond the validated series region, the steep
    # set leaves it near t ~ 1.151; both must fall back to quadrature with a
    # note, not fail.
    for scenario, t in ((fig_ia, 0.5), (steep_ia, 1.3)):
        res = phase_closed_form(scenario, UNIT, t)
        assert res.method is PhaseMethod.QUADRATURE
        assert res.note is not None and "quadrature fallback" in res.note


def test_phase_linear_for_constant_frequency(fig_ib):
    # The unit phase integrand c - a/rho^2 is time-independent for this
    # family, so the phase is exactly linear in t.
    slope = c_value(fig_ib, 0.0) - coefficient_a(fig_ib, 0.0)[0] / rho_eval(fig_ib, 0.0).rho**2
    for t in (0.25, 1.0, 3.0):
        got = phase_closed_form(fig_ib, UNIT, t).value
        assert abs(got - slope * t) <= 1e-12 * max(1.0, abs(got))
        assert got.imag == 0.0


def test_phase_rational_wrong_exponent_has_no_closed_form():
    scenario = make_scenario(
        ScenarioKind.SET_II_K, k_exp=3, omega0=0.5, sigma=1.0, Delta=1.0, mu=1.0,
        enforce=False,
    )
    # No closed form is published for k != 2: the phase falls back to the
    # quadrature route, which works for any exponent.
    res = phase_closed_form(scenario, UNIT, 0.5)
    assert res.method is PhaseMethod.QUADRATURE
    assert "quadrature fallback" in res.note
    assert res.value == phase_quadrature(scenario, UNIT, 0.5).value
    assert cmath.isfinite(res.value)


@given(n=st.integers(0, 3), m=st.integers(0, 4), frac=st.floats(0.1, 1.0))
@settings(max_examples=40)
def test_phase_scales_with_angular_label(n, m, frac, fig_iii):
    # Theta_{n, m-n} = m * Theta_{0, 1}: only the second label enters.
    t = 1.9 * frac
    unit = phase_closed_form(fig_iii, UNIT, t).value
    got = phase_closed_form(fig_iii, StateLabel(n, m), t).value
    assert abs(got - m * unit) <= 1e-12 * max(1.0, abs(m * unit))


def test_phase_beyond_reality_window_is_complex(fig_iii):
    # Past the horizon the coupling turns complex and the phase gains an
    # imaginary part (norm decay), still finite.
    res = phase_closed_form(fig_iii, UNIT, 2.5)
    assert res.value.imag != 0.0


# ---------------------------------------------------------------------------
# Eigenfunctions and overlaps
# ---------------------------------------------------------------------------

def test_ground_state_value_at_origin(fig_ia):
    rho = rho_eval(fig_ia, 0.3).rho
    got = eigenfunction(fig_ia, 0.3, StateLabel(0, 0), PolarPoint(0.0, 1.2))
    assert abs(got - 1.0 / math.sqrt(math.pi * rho**2)) <= 1e-15


def test_eigenfunction_label_swap_symmetry(fig_ii):
    # |phi_{n,m}| = |phi_{m,n}|: the regularized radial branch (n < m) must
    # match the direct branch (n > m) in magnitude everywhere.
    for n, m in ((0, 1), (1, 3), (2, 4)):
        for r in (0.2, 0.9, 2.1):
            pt = PolarPoint(r, 0.7)
            a = abs(eigenfunction(fig_ii, 0.6, StateLabel(n, m), pt))
            b = abs(eigenfunction(fig_ii, 0.6, StateLabel(m, n), pt))
            assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_angular_dependence_is_pure_phase(fig_ib):
    s = StateLabel(1, 3)
    base = eigenfunction(fig_ib, 0.4, s, PolarPoint(1.1, 0.0))
    for angle in (0.5, 2.0, 5.5):
        rotated = eigenfunction(fig_ib, 0.4, s, PolarPoint(1.1, angle))
        assert abs(abs(rotated) - abs(base)) <= 1e-14 * max(1.0, abs(base))
        want = base * cmath.exp(1j * angle * (s.m - s.n))
        assert abs(rotated - want) <= 1e-12 * max(1.0, abs(base))


def test_orthonormality_small_grid(fig_ia, fig_iii):
    for scenario, t in ((fig_ia, 0.0), (fig_ia, 1.2), (fig_iii, 0.8)):
        labels = [StateLabel(n, m) for n in range(3) for m in range(3)]
        for i, s1 in enumerate(labels):
            for s2 in labels[i:]:
                want = 1.0 if s1 == s2 else 0.0
                got = overlap(scenario, t, s1, s2)
                assert abs(got - want) <= 1e-10, (s1, s2)


def test_eigenfunction_norm_pins_gaussian_width(fig_ii):
    # overlap() strips the Gaussian, so integrate |phi|^2 r dr dangle of the
    # eigenfunction itself: |phi| is angle-independent, leaving a radial quad.
    t = 0.6
    r_max = 12.0 * math.sqrt(fig_ii.hbar) * rho_eval(fig_ii, t).rho
    for s in (StateLabel(0, 0), StateLabel(1, 2), StateLabel(2, 0)):
        norm, _ = quad(
            lambda r: 2.0 * math.pi * r * abs(eigenfunction(fig_ii, t, s, PolarPoint(r, 0.0))) ** 2,
            0.0, r_max, epsabs=1e-13, epsrel=1e-12,
        )
        assert abs(norm - 1.0) <= 1e-9, (s, norm)


def test_hamiltonian_eigenfunction_phase_wiring(fig_ib):
    s = StateLabel(1, 2)
    pt = PolarPoint(0.6, 0.9)
    # At t = 0 the phase vanishes identically.
    assert hamiltonian_eigenfunction(fig_ib, 0.0, s, pt) == eigenfunction(fig_ib, 0.0, s, pt)
    # The ratio psi/phi is a position-independent unit phase in the real
    # regime, equal to exp(i m * unit).
    t = 1.5
    unit = phase_closed_form(fig_ib, UNIT, t).value
    for r, angle in ((0.3, 0.1), (1.4, 2.0)):
        p = PolarPoint(r, angle)
        ratio = hamiltonian_eigenfunction(fig_ib, t, s, p) / eigenfunction(fig_ib, t, s, p)
        assert abs(ratio - cmath.exp(1j * s.m * unit)) <= 1e-12
        assert abs(abs(ratio) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Matrix elements
# ---------------------------------------------------------------------------

def test_first_power_ladder_forms(fig_scenarios):
    t = 0.4
    for name, scenario in fig_scenarios.items():
        rho = rho_eval(scenario, t).rho
        unit = phase_closed_form(scenario, UNIT, t).value
        up = cmath.exp(1j * unit)
        # x raises/lowers the second label by one with an alternating unit.
        got = matrix_element_x_pow(scenario, t, 0, 0, 1, 1)
        assert abs(got - 0.5j * rho * up) <= 1e-12 * max(1.0, abs(got)), name
        got = matrix_element_x_pow(scenario, t, 0, 2, 1, 1)
        assert abs(got + 0.5j * rho * math.sqrt(2.0) / up) <= 1e-12 * max(1.0, abs(got))
        # y carries no alternating unit.
        got = matrix_element_y_pow(scenario, t, 0, 1, 0, 1)
        assert abs(got + 0.5 * rho / up) <= 1e-12 * max(1.0, abs(got))
        got = matrix_element_y_pow(scenario, t, 0, 1, 2, 1)
        assert abs(got + 0.5 * rho * math.sqrt(2.0) * up) <= 1e-12 * max(1.0, abs(got))


def test_second_power_diagonal_is_exact(fig_scenarios):
    for scenario in fig_scenarios.values():
        for t in (0.0, 0.7, 1.6):
            hr2 = scenario.hbar * rho_eval(scenario, t).rho ** 2
            for n in range(3):
                for m in range(3):
                    got = matrix_element_x_pow(scenario, t, n, m, m, 2)
                    assert got == complex(0.5 * hr2 * (m + n + 1))
                    assert matrix_element_y_pow(scenario, t, n, m, m, 2) == got


def test_second_power_off_diagonal_forms(fig_scenarios):
    t = 0.4
    for scenario in fig_scenarios.values():
        hr2 = scenario.hbar * rho_eval(scenario, t).rho ** 2
        unit = phase_closed_form(scenario, UNIT, t).value
        up2 = cmath.exp(2j * unit)
        got_x = matrix_element_x_pow(scenario, t, 0, 0, 2, 2)
        got_y = matrix_element_y_pow(scenario, t, 0, 0, 2, 2)
        want = 0.25 * hr2 * math.sqrt(2.0) * up2
        assert abs(got_x + want) <= 1e-12 * max(1.0, abs(want))  # x carries a minus
        assert abs(got_y - want) <= 1e-12 * max(1.0, abs(want))  # y a plus


def test_selection_rules_are_exact_zeros(fig_ia):
    t = 0.4
    assert matrix_element_x_pow(fig_ia, t, 0, 0, 0, 1) == 0j  # parity mismatch
    assert matrix_element_y_pow(fig_ia, t, 1, 2, 1, 2) == 0j  # parity mismatch
    assert matrix_element_x_pow(fig_ia, t, 0, 0, 3, 1) == 0j  # out of reach


def test_invariant_basis_strips_phases(fig_ib):
    t = 1.1
    unit = phase_closed_form(fig_ib, UNIT, t).value
    dressed = matrix_element_x_pow(fig_ib, t, 0, 0, 2, 2)
    bare = matrix_element_x_pow(fig_ib, t, 0, 0, 2, 2, invariant_basis=True)
    assert abs(dressed - bare * cmath.exp(2j * unit)) <= 1e-12 * max(1.0, abs(bare))
    assert bare.imag == 0.0


def test_elements_hermitian_in_real_regime(fig_ib):
    t = 0.9
    for k in (1, 2):
        for m in range(3):
            for mp in range(3):
                left = matrix_element_x_pow(fig_ib, t, 1, m, mp, k)
                right = matrix_element_x_pow(fig_ib, t, 1, mp, m, k)
                assert abs(left - right.conjugate()) <= 1e-12 * max(1.0, abs(left))


def test_oracle_agreement_sweep(fig_scenarios):
    for name, scenario in fig_scenarios.items():
        t = 0.6
        for n in range(3):
            for m in range(3):
                for mp in range(3):
                    for k in (1, 2):
                        for coord in (Coordinate.X, Coordinate.Y):
                            closed = (
                                matrix_element_x_pow if coord is Coordinate.X
                                else matrix_element_y_pow
                            )(scenario, t, n, m, mp, k)
                            got = matrix_element_oracle(scenario, t, n, m, mp, k, coord)
                            err = abs(closed - got) / max(1.0, abs(closed))
                            assert err <= 1e-8, (name, n, m, mp, k, coord)


def test_oracle_validation_limits(fig_ib):
    with pytest.raises(InvalidLabel):
        matrix_element_oracle(fig_ib, 0.5, 5, 0, 0, 1, Coordinate.X)
    with pytest.raises(InvalidLabel):
        matrix_element_oracle(fig_ib, 0.5, 0, 0, 0, 4, Coordinate.X)
    with pytest.raises(InvalidLabel):
        matrix_element_x_pow(fig_ib, 0.5, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        matrix_element_oracle(fig_ib, 0.5, 0, 0, 0, 1, "z")
