"""Eigenstates, evolution phases, and coordinate-power matrix elements."""

from __future__ import annotations

import cmath
import functools
import gc
import itertools
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import roots_laguerre

from ncho import cli, spectrum
from ncho.config import ScenarioKind, build_scenario, parse_scenario_file
from ncho.ermakov import coefficient_a, rho_eval
from ncho.errors import InvalidLabel, ToleranceNotMet
from ncho.hamiltonian import c_complex, reality_horizon_time
from ncho.spectrum import (
    Coordinate,
    PhaseMethod,
    StateLabel,
    eigenfunction,
    hamiltonian_eigenfunction,
    matrix_element_oracle,
    matrix_element_x_pow,
    matrix_element_y_pow,
    overlap,
    phase_closed_form,
    phase_crosscheck,
    phase_grid,
    phase_quadrature,
    _C_EPS,
    _LAGUERRE_48_NODES,
    _LAGUERRE_48_WEIGHTS,
    _THETA,
    _Slice,
    _angular_row,
    _element_coefficient,
    _phi,
    _slice,
    _tensor_integral,
)

from conftest import SCENARIO_DIR, make_scenario

UNIT = StateLabel(0, 1)


# ---------------------------------------------------------------------------
# Labels
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


@pytest.mark.parametrize("bad", [-1, True, 0.5])
@pytest.mark.parametrize("which", ["n", "m"])
def test_a_bad_label_reads_the_same_through_every_entry(fig_ib, which, bad):
    # Valid labels first, so the oracle's states for (1, 1, 1) are already made:
    # True == 1 must still be refused.
    matrix_element_oracle(fig_ib, 0.5, 1, 1, 1, 1, Coordinate.X)
    labels = {"n": 1, "m": 1, which: bad}
    n, m = labels["n"], labels["m"]
    calls = (
        lambda: matrix_element_x_pow(fig_ib, 0.5, n, m, 1, 1),
        lambda: matrix_element_y_pow(fig_ib, 0.5, n, m, 1, 1),
        lambda: matrix_element_oracle(fig_ib, 0.5, n, m, 1, 1, Coordinate.X),
        lambda: StateLabel(n, m),
    )
    for call in calls:
        with pytest.raises(InvalidLabel) as info:
            call()
        assert str(info.value) == f"{which} must be a nonnegative integer, got {bad!r}"


def test_each_element_call_checks_its_labels_once(monkeypatch, fig_ib, capsys):
    checked = []
    original = spectrum._check_labels
    monkeypatch.setattr(spectrum, "_check_labels", lambda *labels: checked.append(labels)
                        or original(*labels))
    for call in (matrix_element_x_pow, matrix_element_y_pow, matrix_element_oracle):
        args = (Coordinate.Y,) if call is matrix_element_oracle else ()
        call(fig_ib, 0.5, 1, 2, 0, 2, *args)  # makes the oracle's states once
        checked.clear()
        call(fig_ib, 0.25, 1, 2, 0, 2, *args)
        assert checked == [(("k_pow", 2), ("n", 1), ("m", 2), ("m'", 0))], call.__name__
    # The command line still names the label it refuses, with exit code 2.
    assert cli.main(["matelem", "--scenario", str(SCENARIO_DIR / "set_ib.scenario"), "--n", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: n must be a nonnegative integer, got -1\n")


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
    # set leaves it near t ~ 1.151; both must fall back to quadrature, not fail.
    for scenario, t in ((fig_ia, 0.5), (steep_ia, 1.3)):
        res = phase_closed_form(scenario, UNIT, t)
        assert res.method is PhaseMethod.QUADRATURE


def _verify_phase_grid(scenario):
    """The 50 times of verify's phase-crossval check."""
    return cli._linspace(*cli.verify_window(scenario), 50)


def _crosscheck_counting_integrals(scenario, s):
    """phase_crosscheck on the verify grid, and how many integrals it asked for."""
    asked = []
    original = spectrum.integrate_adaptive_many

    def spy(f, intervals, tol):
        asked.extend(intervals)
        return original(f, intervals, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "integrate_adaptive_many", spy)
        result = phase_crosscheck(scenario, s, _verify_phase_grid(scenario))
    return result, len(asked)


@pytest.fixture(scope="module")
def steep_crosschecks(steep_ia):
    # The steep SetIa grid mixes 28 closed-form times with 22 fallbacks, and
    # its fallback integrals cost seconds: run each label once for the module.
    return {m: _crosscheck_counting_integrals(steep_ia, StateLabel(0, m)) for m in (0, 1, 3)}


def test_phase_crosscheck_integrates_each_time_once(steep_crosschecks):
    set_ia = build_scenario(parse_scenario_file(SCENARIO_DIR / "set_ia.scenario"))
    assert _crosscheck_counting_integrals(set_ia, UNIT)[1] == 50
    assert {m: asked for m, (_, asked) in steep_crosschecks.items()} == {0: 0, 1: 50, 3: 50}


def test_phase_crosscheck_columns_are_the_single_routes_bit_for_bit(
    steep_ia, steep_crosschecks
):
    t = _verify_phase_grid(steep_ia)
    for m, ((closed, methods, quad, err), _) in steep_crosschecks.items():
        s = StateLabel(0, m)
        theta, grid_methods = phase_grid(steep_ia, s, t)
        assert closed.tobytes() == theta.tobytes(), m
        assert methods.tolist() == grid_methods.tolist(), m
        if m:
            assert methods.tolist().count(PhaseMethod.QUADRATURE.value) == 22
        for ti, q in zip(t.tolist(), quad.tolist()):
            assert repr(q) == repr(phase_quadrature(steep_ia, s, ti).value), (m, ti)
        fallback = [e for e, method in zip(err, methods) if method == PhaseMethod.QUADRATURE.value]
        assert all(e == 0.0 for e in fallback), m


def test_phase_linear_for_constant_frequency(fig_ib):
    # The unit phase integrand c - a/rho^2 is time-independent for this
    # family, so the phase is exactly linear in t.
    a, _ = coefficient_a(fig_ib, 0.0)
    rho, _, _ = rho_eval(fig_ib, 0.0)
    slope = c_complex(fig_ib, 0.0).real - a / rho**2
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


def test_phase_closed_form_is_the_one_point_grid_bit_for_bit():
    # m times the unit phase of the time's slice is phase_grid on [t], at times
    # inside and past each reality horizon, closed form and quadrature alike.
    for name, scenario in _shipped_scenarios():
        horizon = reality_horizon_time(scenario)
        late = (1.2, 2.5) if horizon is None else tuple(f * horizon for f in (0.5, 0.9, 1.1, 1.5))
        for t in (0.0, 0.3, *late):
            for s in (StateLabel(n, m) for n in range(3) for m in range(7)):
                got = phase_closed_form(scenario, s, t)
                theta, methods = phase_grid(scenario, s, [t])
                assert np.array([got.value]).view(np.uint64).tolist() == (
                    theta.view(np.uint64).tolist()
                ), (name, t, s)
                assert got.method.value == methods[0], (name, t, s)


def test_phase_beyond_reality_window_is_complex(fig_iii):
    # Past the horizon the coupling turns complex and the phase gains an
    # imaginary part (norm decay), still finite.
    res = phase_closed_form(fig_iii, UNIT, 2.5)
    assert res.value.imag != 0.0


# ---------------------------------------------------------------------------
# Eigenfunctions and overlaps
# ---------------------------------------------------------------------------

def test_ground_state_value_at_origin(fig_ia):
    rho, _, _ = rho_eval(fig_ia, 0.3)
    got = eigenfunction(fig_ia, 0.3, StateLabel(0, 0), 0.0, 1.2)
    assert abs(got - 1.0 / math.sqrt(math.pi * rho**2)) <= 1e-15


def test_eigenfunction_label_swap_symmetry(fig_ii):
    # |phi_{n,m}| = |phi_{m,n}|: the symmetric Laguerre form gives both labels of
    # a pair the same radial factor, and the published U form agrees (see
    # test_eigenfunction_is_the_published_tricomi_form).
    for n, m in ((0, 1), (1, 3), (2, 4)):
        for r in (0.2, 0.9, 2.1):
            a = abs(eigenfunction(fig_ii, 0.6, StateLabel(n, m), r, 0.7))
            b = abs(eigenfunction(fig_ii, 0.6, StateLabel(m, n), r, 0.7))
            assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_angular_dependence_is_pure_phase(fig_ib):
    s = StateLabel(1, 3)
    base = eigenfunction(fig_ib, 0.4, s, 1.1, 0.0)
    for angle in (0.5, 2.0, 5.5):
        rotated = eigenfunction(fig_ib, 0.4, s, 1.1, angle)
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
    rho, _, _ = rho_eval(fig_ii, t)
    r_max = 12.0 * rho
    for s in (StateLabel(0, 0), StateLabel(1, 2), StateLabel(2, 0)):
        norm, _ = quad(
            lambda r: 2.0 * math.pi * r * abs(eigenfunction(fig_ii, t, s, r, 0.0)) ** 2,
            0.0, r_max, epsabs=1e-13, epsrel=1e-12,
        )
        assert abs(norm - 1.0) <= 1e-9, (s, norm)


def _published_eigenfunction(scenario, t, s, r, angle) -> complex:
    """The paper's form lam_n (i rho)^m / sqrt(m!) r^(n-m) U(-m, 1-m+n, w) times its
    Gaussian and chirp, w = r^2/rho^2, with U from mpmath.hyperu at 30 digits."""
    (rho, rho_dot, _), (a, _) = rho_eval(scenario, t), coefficient_a(scenario, t)
    n, m = s.n, s.m
    with mpmath.workdps(30):
        rho, r = mpmath.mpf(rho), mpmath.mpf(r)
        w = r**2 / rho**2
        lam = 1 / mpmath.sqrt(mpmath.pi * mpmath.factorial(n) * rho ** (2 + 2 * n))
        # At r = 0, n > m the form is r^(n-m) times the polynomial's finite constant
        # term, so 0; mpmath.hyperu returns inf at w = 0 for b > 1.
        u = mpmath.hyperu(-m, 1 - m + n, w) if r or n == m else 0
        radial = lam * (1j * rho) ** m / mpmath.sqrt(mpmath.factorial(m))
        radial *= r ** (n - m) * u if n >= m else u / r ** (m - n)
        gauss = 1 - 1j * rho * mpmath.mpf(rho_dot) / mpmath.mpf(a)
        return complex(radial * mpmath.exp(1j * (m - n) * angle - gauss * w / 2))


def test_eigenfunction_is_the_published_tricomi_form(mild_iii):
    # The symmetric Laguerre form against the published U form it is derived from,
    # on both sides of n = m; r = 0 only where r^(n-m) is regular.
    t = 0.4
    for n in range(7):
        for m in range(7):
            s = StateLabel(n, m)
            for r in ((0.0,) if n >= m else ()) + (0.3, 1.1, 2.5):
                for angle in (0.0, 2.3):
                    got = eigenfunction(mild_iii, t, s, r, angle)
                    want = _published_eigenfunction(mild_iii, t, s, r, angle)
                    assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (s, r, angle)


_LEGENDRE_200 = np.polynomial.legendre.leggauss(200)


def _dilation_moment(scenario, t, s) -> float:
    """<(xp + px)/2> of phi from the eigenfunction: Re <phi| -i r d/dr |phi> over the
    plane (the symmetrised x p_x + y p_y), halved. Gauss-Legendre on [0, 12 rho], and
    d/dr by the five-point central difference at h = 1e-3 rho."""
    rho, _, _ = rho_eval(scenario, t)
    nodes, weights = _LEGENDRE_200
    r, wt, h = 6.0 * rho * (nodes + 1.0), 6.0 * rho * weights, 1e-3 * rho

    def phi(x):
        return eigenfunction(scenario, t, s, x, 0.0)

    d_phi = (phi(r - 2 * h) - 8.0 * phi(r - h) + 8.0 * phi(r + h) - phi(r + 2 * h)) / (12.0 * h)
    density = (np.conjugate(phi(r)) * (-1j * r * d_phi)).real * 2.0 * math.pi * r
    return float(wt @ density) / 2.0


def test_eigenfunction_chirp_carries_the_propagated_xp_moment():
    # The chirp e^{i rho rho' r^2/(2 a rho^2)} is the only factor of phi that sees rho',
    # and <(xp + px)/2> is the only second moment it sets. The propagator alone gives
    # it: the covariance (n+m+1)/2 M M^T at t = 0, M = [[rho, 0], [rho'/a, 1/rho]],
    # goes to t as Phi M M^T Phi^T. With the chirp's sign flipped the two differ by
    # twice the moment, O(1) on the mild scenarios.
    for name, scenario in _shipped_scenarios():
        rho, rho_dot, _ = scenario.rho(0.0)
        m0 = np.array([[rho, 0.0], [rho_dot / scenario.a(0.0)[0], 1.0 / rho]])
        for t in (0.0, 0.3, 0.7):
            phi_t = np.reshape(scenario.propagator(t), (2, 2))  # [[Phi11, Phi12], [Phi21, Phi22]]
            covariance = phi_t @ m0 @ m0.T @ phi_t.T
            for s in (StateLabel(0, 0), StateLabel(1, 2), StateLabel(2, 0)):
                want = 0.5 * (s.n + s.m + 1) * covariance[0, 1]
                got = _dilation_moment(scenario, t, s)
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (name, t, s, got, want)


def test_hamiltonian_eigenfunction_phase_wiring(fig_ib):
    s, pt = StateLabel(1, 2), (0.6, 0.9)
    # At t = 0 the phase vanishes identically.
    assert hamiltonian_eigenfunction(fig_ib, 0.0, s, *pt) == eigenfunction(fig_ib, 0.0, s, *pt)
    # The ratio psi/phi is a position-independent unit phase in the real
    # regime, equal to exp(i m * unit).
    t = 1.5
    unit = phase_closed_form(fig_ib, UNIT, t).value
    for p in ((0.3, 0.1), (1.4, 2.0)):
        ratio = hamiltonian_eigenfunction(fig_ib, t, s, *p) / eigenfunction(fig_ib, t, s, *p)
        assert abs(ratio - cmath.exp(1j * s.m * unit)) <= 1e-12
        assert abs(abs(ratio) - 1.0) <= 1e-12


@pytest.mark.parametrize("t, n, message", [
    (1e300, 0, "rho(t)^2 overflows a float at t=1e+300"),
    (1e60, 2, "rho(t)^6 overflows a float at t=1e+60"),
])
def test_huge_time_names_the_rho_power_that_overflows(fig_iii, t, n, message):
    # rho grows without bound on SetIII: rho^2 leaves the float range at
    # t = 1e300, the normalisation's rho^(2n + 2) sooner.
    s = StateLabel(n, 0)
    for call in (
        lambda: eigenfunction(fig_iii, t, s, 0.0, 0.0),
        lambda: hamiltonian_eigenfunction(fig_iii, t, s, 0.0, 0.0),
        lambda: overlap(fig_iii, t, s, s),
    ):
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            call()


def test_huge_time_names_the_prefactor_power_that_overflows():
    # The normalisation's one scale (hbar rho^2)^(1+l) = rho^10 overflows for n = 0,
    # m = 4 on set_iii at t = 1e80, where rho^2 does not; _phi names the time for both
    # of its callers, the point and the oracle's grid.
    scenario = build_scenario(parse_scenario_file(SCENARIO_DIR / "set_iii.scenario"))
    s, message = StateLabel(0, 4), "rho(t)^10 overflows a float at t=1e+80"
    for call in (
        lambda: eigenfunction(scenario, 1e80, s, 0.0, 0.0),
        lambda: overlap(scenario, 1e80, s, s),
    ):
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            call()


# ---------------------------------------------------------------------------
# Matrix elements
# ---------------------------------------------------------------------------

def test_first_power_ladder_forms(fig_scenarios):
    t = 0.4
    for name, scenario in fig_scenarios.items():
        rho, _, _ = rho_eval(scenario, t)
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
            rho, _, _ = rho_eval(scenario, t)
            hr2 = rho**2
            for n in range(3):
                for m in range(3):
                    got = matrix_element_x_pow(scenario, t, n, m, m, 2)
                    assert got == complex(0.5 * hr2 * (m + n + 1))
                    assert matrix_element_y_pow(scenario, t, n, m, m, 2) == got


def test_second_power_off_diagonal_forms(fig_scenarios):
    t = 0.4
    for scenario in fig_scenarios.values():
        rho, _, _ = rho_eval(scenario, t)
        hr2 = rho**2
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


@functools.cache
def _published_laguerre_coefficients(n, zeta):
    """Monomial coefficients of L_n^(zeta) for any integer zeta: C(n+zeta, n-j) as a
    falling factorial, so a negative zeta gives L_n^(zeta) leading zeros."""
    return tuple(
        Fraction((-1) ** j * math.prod(n + zeta - i for i in range(n - j)),
                 math.factorial(n - j) * math.factorial(j))
        for j in range(n + 1)
    )


def _published_base(n, m, mp, k):
    """(base, r index) of <n,m-n| coord^k |n,m'-n> from the published pair
    L_m^(n-m) L_m'^(n-m') at the weight's power n - m - r + k, which may be
    negative; None under the selection rule."""
    diff = mp - m
    if abs(diff) > k or (diff + k) % 2:
        return None
    r_idx = (diff + k) // 2
    q = n - m - r_idx + k
    integral = Fraction(0)
    for j1, a1 in enumerate(_published_laguerre_coefficients(m, n - m)):
        for j2, a2 in enumerate(_published_laguerre_coefficients(mp, n - mp)):
            if a1 and a2:  # a negative superscript's zeros lift a negative power
                assert q + j1 + j2 >= 0, (n, m, mp, k)
                integral += a1 * a2 * math.factorial(q + j1 + j2)
    return Fraction(math.comb(k, r_idx), 2**k) * integral / math.factorial(n), r_idx


def test_element_coefficient_is_the_published_rational(monkeypatch):
    # The eigenstates' form L_p^(l) gives the published pair's exact rational on
    # every label set with n, m, m' <= 12 and k <= 10 that the selection rule
    # keeps, and so the same float. _as_float is where the rational base * min(m, m')!
    # becomes a float; it is recorded there.
    rationals, as_float = [], spectrum._as_float

    def recording(x, name, labels):
        if name.startswith("the coefficient"):
            rationals.append(x)
        return as_float(x, name, labels)

    monkeypatch.setattr(spectrum, "_as_float", recording)
    _element_coefficient.cache_clear()
    kept = 0
    for n, m, mp, k in itertools.product(range(13), range(13), range(13), range(11)):
        rationals.clear()
        got = _element_coefficient(n, m, mp, k)
        want = _published_base(n, m, mp, k)
        if want is None:
            assert got is None and rationals == [], (n, m, mp, k)
            continue
        kept += 1
        base, r_idx = want
        lo, hi = min(m, mp), max(m, mp)
        assert rationals == [base * math.factorial(lo)], (n, m, mp, k)
        coeff = float(base * math.factorial(lo)) * math.sqrt(math.perm(hi, hi - lo))
        assert repr(got) == repr((coeff, r_idx)), (n, m, mp, k)
    assert kept == 7904


def _element_uncached(scenario, t, n, m, mp, k, x_units, invariant_basis):
    # Reference: the published exact sum recomputed on every call, with no cache.
    published = _published_base(n, m, mp, k)
    if published is None:
        return 0.0 + 0.0j
    base, r_idx = published
    diff = mp - m
    lo, hi = min(m, mp), max(m, mp)
    coeff = float(base * math.factorial(lo)) * math.sqrt(math.factorial(hi) // math.factorial(lo))
    rho, _, _ = rho_eval(scenario, t)
    value = complex(coeff * rho**k)
    if x_units:
        value *= (-1.0 if (k + r_idx) % 2 else 1.0) * (1 + 0j, -1j, -1 + 0j, 1j)[k % 4]
    if diff and not invariant_basis:
        value *= cmath.exp(1j * diff * _slice(scenario, t).unit[0])
    return value


def test_cached_coefficient_is_bit_identical_to_exact_sum(fig_ib, fig_ii, fig_iii):
    labels = [
        (n, m, mp, k) for n in range(4) for m in range(4) for mp in range(4) for k in range(4)
    ]
    _element_coefficient.cache_clear()
    for scenario, t in ((fig_ib, 0.9), (fig_iii, 0.4), (fig_ii, 1.3)):
        for n, m, mp, k in labels:
            for basis in (False, True):
                for fn, x_units in ((matrix_element_x_pow, True), (matrix_element_y_pow, False)):
                    want = _element_uncached(scenario, t, n, m, mp, k, x_units, basis)
                    got = fn(scenario, t, n, m, mp, k, invariant_basis=basis)
                    assert repr(got) == repr(want), (n, m, mp, k, x_units, basis)
    # Every label after the first pass was served from the cache.
    info = _element_coefficient.cache_info()
    assert info.currsize == len(labels)
    assert info.hits == 12 * len(labels) - info.misses


def test_first_power_element_stays_finite_at_large_labels(mild_iii):
    # <m|x|m+1> = i sqrt(m+1)/2 rho in the invariant basis: sqrt(m! (m+1)!) is formed
    # as m! sqrt(m+1), so the labels past 170, where m! leaves the float range, answer.
    t = 0.0
    rho, _, _ = rho_eval(mild_iii, t)
    for m in range(301):
        got = matrix_element_x_pow(mild_iii, t, 0, m, m + 1, 1, invariant_basis=True)
        want = math.sqrt(m + 1) / 2.0 * rho
        assert got.real == 0.0 and abs(got.imag - want) <= 4e-16 * want, (m, got)


def test_oracle_agreement_sweep():
    # Every element of the validated range on every shipped scenario. The
    # rule is exact there, so the oracle meets the closed form to rounding,
    # and the rounding bound the oracle is certified by covers the whole
    # difference (measured: at most 1.4e-14 relative, and 1/8 of the bound).
    t = 0.6
    labels = range(spectrum.ORACLE_MAX_LABEL + 1)
    for path in sorted(SCENARIO_DIR.glob("*.scenario")):
        scenario = build_scenario(parse_scenario_file(path), enforce_constraint=False)
        grid = _slice(scenario, t)
        for n in labels:
            for m in labels:
                for mp in labels:
                    for k in range(spectrum.ORACLE_MAX_POWER + 1):
                        for coord, closed_fn in (
                            (Coordinate.X, matrix_element_x_pow),
                            (Coordinate.Y, matrix_element_y_pow),
                        ):
                            where = (path.stem, n, m, mp, k, coord)
                            closed = closed_fn(scenario, t, n, m, mp, k)
                            got = matrix_element_oracle(scenario, t, n, m, mp, k, coord)
                            assert abs(closed - got) <= 1e-12 * max(1.0, abs(closed)), where
                            value, bound = _tensor_integral(
                                grid, StateLabel(n, m), StateLabel(n, mp), k, coord
                            )
                            unphased = closed_fn(scenario, t, n, m, mp, k, invariant_basis=True)
                            assert abs(value - unphased) <= bound, where


def test_oracle_nodes_are_scipy_gauss_laguerre():
    want_nodes, want_weights = roots_laguerre(48)
    assert _LAGUERRE_48_NODES.tolist() == want_nodes.tolist()
    assert _LAGUERRE_48_WEIGHTS.tolist() == want_weights.tolist()
    assert _THETA.size == 96


def _shipped_scenarios():
    for path in sorted(SCENARIO_DIR.glob("*.scenario")):
        yield path.stem, build_scenario(parse_scenario_file(path), enforce_constraint=False)


def test_factored_eigenfunction_is_the_full_one_bit_for_bit():
    # Radial column times angular row against phi on the 48x96 grid, bit for bit.
    labels = [StateLabel(n, m) for n in range(5) for m in range(5)]
    for name, scenario in _shipped_scenarios():
        for t in (0.0, 0.3, 1.2):
            grid = _Slice(scenario, t)
            r = np.sqrt(grid.hr2 * _LAGUERRE_48_NODES)[:, None]
            for s in labels:
                got = grid.radial(s) * _angular_row(s.l)
                want = _phi(grid, 0.0, s, r, _THETA[None, :])
                assert got.shape == want.shape == (48, 96)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (name, t, s)


def _broadcast_tensor_integral(sl, s1, s2, k_pow, coordinate):
    """_tensor_integral as first written: the (48, 1) columns broadcast against the
    (96,) rows, and each real scaling into a new array."""
    r1, r2, power = sl.radial(s1), sl.radial(s2), sl.power(k_pow)
    trig, trig_abs = spectrum._trig_row(k_pow, coordinate)
    f = np.conjugate(r1 * _angular_row(s1.l)) * (r2 * _angular_row(s2.l))
    if k_pow:
        f = (f.view(float) * power * trig).view(complex)
    total = _LAGUERRE_48_WEIGHTS @ f.sum(axis=1)
    magnitude = (_LAGUERRE_48_WEIGHTS @ (np.abs(r1) * np.abs(r2) * power)[:, 0]) * trig_abs
    value = complex(total * (sl.hr2 / 2.0) * (2.0 * math.pi / _THETA.size))
    bound = _C_EPS * magnitude * (sl.hr2 / 2.0) * (2.0 * math.pi / _THETA.size)
    return value, bound


def test_tensor_integral_keeps_the_broadcast_bits():
    # The in-place form on tiled rows against the broadcast one, bit for bit: numpy's
    # complex multiply need not commute in its last bit, so operand order matters.
    states = [StateLabel(n, m) for n in range(3) for m in range(5)]
    compared = 0
    for name, scenario in _shipped_scenarios():
        for t in (0.0, 0.05, 0.3, 0.77, 1.2):
            grid = _Slice(scenario, t)
            for s1, s2 in itertools.product(states, repeat=2):
                if s1.n != s2.n:
                    continue
                for k, coord in itertools.product(range(4), Coordinate):
                    got = _tensor_integral(grid, s1, s2, k, coord)
                    want = _broadcast_tensor_integral(grid, s1, s2, k, coord)
                    bits = [np.array([v.real, v.imag, b]).view(np.uint64) for v, b in (got, want)]
                    assert np.array_equal(*bits), (name, t, s1, s2, k, coord)
                    compared += 1
    assert compared == 8 * 5 * 3 * 5 * 5 * 4 * 2


def test_separable_rounding_bound_matches_the_two_dimensional_sum():
    # Reference: sum_i wt_i sum_j |f_ij| over the full 2-D integrand.
    w, wt = _LAGUERRE_48_NODES, _LAGUERRE_48_WEIGHTS
    for name, scenario in _shipped_scenarios():
        for t in (0.0, 1.2):
            grid = _Slice(scenario, t)
            r = np.sqrt(grid.hr2 * w)[:, None]
            full = {
                (n, m): _phi(grid, 0.0, StateLabel(n, m), r, _THETA[None, :])
                for n in range(3) for m in range(4)
            }
            for (n, m), (n2, mp) in ((a, b) for a in full for b in full if a[0] == b[0]):
                for k in range(4):
                    for coord in Coordinate:
                        trig = np.cos(_THETA) if coord is Coordinate.X else np.sin(_THETA)
                        f = np.conjugate(full[n, m]) * full[n2, mp]
                        f = f * (grid.hr2 * w[:, None]) ** (k / 2.0) * trig[None, :] ** k
                        want = _C_EPS * (wt @ np.abs(f).sum(axis=1)) * (grid.hr2 / 2.0) * (
                            2.0 * math.pi / _THETA.size
                        )
                        _, got = _tensor_integral(
                            grid, StateLabel(n, m), StateLabel(n2, mp), k, coord
                        )
                        assert abs(got - want) <= 2e-15 * want, (name, t, n, m, mp, k, coord)


def test_matelem_integrates_each_phase_time_once(capsys, monkeypatch):
    # SetIa's unit phase falls back to quadrature at every time; the closed
    # form and the oracle at one time share its slice, so each time is
    # integrated once, not once per route.
    asked = []
    original = spectrum.integrate_adaptive_many

    def spy(f, intervals, tol):
        asked.extend(intervals)
        return original(f, intervals, tol)

    monkeypatch.setattr(spectrum, "integrate_adaptive_many", spy)
    _slice.cache_clear()
    argv = ["matelem", "--scenario", str(SCENARIO_DIR / "set_ia.scenario"),
            "--m", "0", "--mprime", "1", "--points", "3"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert sorted(asked) == [(0.0, t) for t in cli._linspace(0.0, 1.0, 3).tolist()]


def test_tensor_grid_caches_no_full_grid(capsys):
    # Only 48-point columns are kept per (scenario, t); 96-point rows are shared.
    for path in ("set_iii", "set_ia"):
        scenario = str(SCENARIO_DIR / f"{path}.scenario")
        assert cli.main(["verify", "--scenario", scenario]) == 0
        for k in ("1", "2", "3"):
            argv = ["matelem", "--scenario", scenario, "--m", "1", "--mprime", "2", "--k", k]
            assert cli.main(argv + ["--points", "3"]) == 0
    capsys.readouterr()
    grids = [obj for obj in gc.get_objects() if isinstance(obj, _Slice) and obj._radial]
    assert grids
    for grid in grids:
        for value in vars(grid).values():
            for array in value.values() if isinstance(value, dict) else [value]:
                assert np.size(array) <= 48, (grid.t, np.shape(array))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_fails_certification(fig_ib, monkeypatch, bad):
    # A nan compares false with every tolerance; the gate must not let it through.
    grid = _Slice(fig_ib, 0.5)
    poisoned = StateLabel(1, 1)
    grid._radial[poisoned] = np.full((_LAGUERRE_48_NODES.size, 1), bad + 0j)
    monkeypatch.setattr(spectrum, "_slice", lambda scenario, t: grid)
    with pytest.raises(ToleranceNotMet):
        overlap(fig_ib, 0.5, poisoned, poisoned)
    with pytest.raises(ToleranceNotMet):
        matrix_element_oracle(fig_ib, 0.5, 1, 1, 1, 2, Coordinate.X)
    assert overlap(fig_ib, 0.5, StateLabel(0, 0), StateLabel(0, 0)) == pytest.approx(1.0)


def test_oracle_validation_limits(fig_ib):
    with pytest.raises(InvalidLabel):
        matrix_element_oracle(fig_ib, 0.5, 5, 0, 0, 1, Coordinate.X)
    with pytest.raises(InvalidLabel):
        matrix_element_oracle(fig_ib, 0.5, 0, 0, 0, 4, Coordinate.X)
    with pytest.raises(InvalidLabel):
        matrix_element_x_pow(fig_ib, 0.5, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        matrix_element_oracle(fig_ib, 0.5, 0, 0, 0, 1, "z")
