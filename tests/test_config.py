"""Scenario grammar, validation, and family-constraint checks."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from ncho.config import (
    CONSTRAINT_RTOL,
    PhysicalConstants,
    ScenarioKind,
    ScenarioSpec,
    build_scenario,
    constraint_residual,
    format_scenario_text,
    parse_scenario_file,
    parse_scenario_text,
    with_constants,
)
from ncho.errors import ConstraintViolation, DomainError, ScenarioFileError
from ncho.families import SetIa, SetIb, SetIc, SetIII, SetIIk

from conftest import SCENARIO_DIR, make_scenario

MINIMAL = """
kind = SetIb
M = 1
omega0 = 1e3
Gamma = 1
sigma = 1e7
Delta = 1e7
mu = 1
"""


def test_parse_minimal_defaults():
    spec = parse_scenario_text(MINIMAL)
    c = spec.constants
    assert c.xi == 1.0
    assert c.hbar == 1.0
    assert c.chi == 0.0
    assert c.vartheta == c.Gamma == 1.0
    assert spec.k_exp == 2
    assert spec.kind is ScenarioKind.SET_IB


def test_parse_comments_and_spacing():
    spec = parse_scenario_text(
        "# header\nkind = SetIII   # family\nM=1\nomega0 = 0.5\nGamma =1\n"
        "sigma= 2\nDelta = 2\nmu = 1\nchi = 1\n"
    )
    assert spec.kind is ScenarioKind.SET_III
    assert spec.constants.chi == 1.0


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("hbar 1", "expected `key = value`"),
        ("unknown = 3", "unknown key"),
        ("hbar = ", "empty value"),
        ("hbar = abc", "non-numeric"),
    ],
)
def test_parse_bad_lines(line, fragment):
    text = MINIMAL + line + "\n"
    with pytest.raises(ScenarioFileError, match=fragment):
        parse_scenario_text(text)


def test_parse_duplicate_key():
    with pytest.raises(ScenarioFileError, match="duplicate"):
        parse_scenario_text(MINIMAL + "M = 2\n")


def test_parse_missing_required():
    with pytest.raises(ScenarioFileError, match="missing required key"):
        parse_scenario_text("kind = SetIb\nM = 1\n")


def test_parse_unknown_kind():
    with pytest.raises(ScenarioFileError, match="unknown kind"):
        parse_scenario_text(MINIMAL.replace("SetIb", "SetIQ"))


def test_parse_error_carries_line_number():
    with pytest.raises(ScenarioFileError, match=r"<string>:3"):
        parse_scenario_text("kind = SetIb\nM = 1\nbogus line\n")


def test_constants_domain_errors():
    good = dict(
        mass_M=1.0, omega0=1.0, Gamma=1.0, vartheta=1.0, chi=0.0,
        sigma=1.0, Delta=1.0, mu=1.0,
    )
    PhysicalConstants(**good)
    for key in ("mass_M", "Gamma", "sigma", "Delta", "mu"):
        with pytest.raises(DomainError):
            PhysicalConstants(**{**good, key: 0.0})
    with pytest.raises(DomainError):
        PhysicalConstants(**{**good, "omega0": -1.0})
    # omega0 = 0 is allowed (zero-frequency limits stay testable)
    PhysicalConstants(**{**good, "omega0": 0.0})
    with pytest.raises(DomainError):
        PhysicalConstants(**{**good, "chi": math.inf})


def test_family_table_is_complete():
    """Every kind (and a k = 3 rational family) answers every table question."""
    t = 0.3
    families = [make_scenario(kind).family for kind in ScenarioKind]
    families.append(make_scenario(ScenarioKind.SET_II_K, k_exp=3, enforce=False).family)
    for family in families:
        name = type(family).__name__
        family.check()
        label, lhs, rhs, terms = family.constraint()
        assert isinstance(label, str) and math.isfinite(lhs - rhs) and terms, name
        assert len(family.rho(t)) == 3 and len(family.a(t)) == 2, name
        assert math.isfinite(family.b(t)) and len(family.c_terms(t)) == 4, name
        horizon = family.horizon()
        assert horizon is None or horizon >= 0.0, name
        # Nothing is published for k != 2; the SetIa series needs |z| < 1,
        # and the figure parameters put z at Delta/(M omega0^2) = 10.
        energy = family.energy(t, 2, 0, 0j)
        assert (energy is None) == (family.k_exp == 3), name
        unit = family.unit_phase(t)
        assert (unit is None) == (name == "SetIa" or family.k_exp == 3), name


def test_profile_table():
    """damping(t) and frequency(t) of each family, for constants outside any constraint."""
    c = PhysicalConstants(
        mass_M=1.0, omega0=2.0, Gamma=3.0, vartheta=3.0, chi=1.0,
        sigma=1.0, Delta=1.0, mu=1.0,
    )
    ia, ib, ic, ii3, iii = (SetIa(c), SetIb(c), SetIc(c), SetIIk(c, 3), SetIII(c))
    assert ia.damping(1.0) == 1.0
    assert math.isclose(ia.frequency(1.0), 2.0 * math.exp(-1.5))

    assert math.isclose(ib.damping(2.0), math.exp(-6.0))
    assert ib.frequency(5.0) == 2.0

    assert math.isclose(ic.damping(2.0), math.exp(-6.0))
    assert math.isclose(ic.frequency(1.0), 2.0 * math.exp(-1.5))

    for rational in (ii3, iii):
        assert rational.damping(1.0) == 1.0
        assert math.isclose(rational.frequency(1.0), 2.0 / 4.0)
        with pytest.raises(DomainError):
            rational.frequency(-1.0)


def test_figure_scenarios_satisfy_constraints(fig_scenarios):
    for name, scenario in fig_scenarios.items():
        residual = constraint_residual(scenario.family)
        assert residual <= CONSTRAINT_RTOL, name


def test_constraint_enforcement_rejects_perturbed_mu():
    with pytest.raises(ConstraintViolation):
        make_scenario(ScenarioKind.SET_IB, mu=1.01)
    scenario = make_scenario(ScenarioKind.SET_IB, mu=1.01, enforce=False)
    assert scenario.constraint_residual > CONSTRAINT_RTOL


def test_rational_kind_requires_positive_offset():
    with pytest.raises(DomainError):
        make_scenario(ScenarioKind.SET_II_K, chi=0.0, enforce=False)


def test_k_exp_validation():
    with pytest.raises(DomainError):
        make_scenario(ScenarioKind.SET_II_K, k_exp=0, enforce=False)


def test_with_constants_round_trip(fig_ib):
    spec = with_constants(fig_ib, mu=2.0)
    assert spec.constants.mu == 2.0
    assert spec.constants.Delta == fig_ib.constants.Delta
    assert spec.kind is fig_ib.kind


def test_summary_mentions_kind_and_values(fig_ii):
    text = fig_ii.summary()
    assert "SetII_k" in text
    assert "k_exp=2" in text


def test_shipped_scenario_files_build():
    paths = sorted(SCENARIO_DIR.glob("*.scenario"))
    assert len(paths) >= 5
    for path in paths:
        scenario = build_scenario(parse_scenario_file(path))
        assert scenario.constraint_residual <= CONSTRAINT_RTOL, path.name


@st.composite
def scenario_specs(draw):
    kind = draw(st.sampled_from(list(ScenarioKind)))
    pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
    constants = PhysicalConstants(
        mass_M=draw(pos),
        omega0=draw(st.one_of(st.just(0.0), pos)),
        Gamma=draw(pos),
        vartheta=draw(pos),
        chi=draw(pos),
        sigma=draw(pos),
        Delta=draw(pos),
        mu=draw(pos),
        xi=draw(pos),
        hbar=draw(pos),
    )
    return ScenarioSpec(constants=constants, kind=kind, k_exp=draw(st.integers(1, 5)))


@given(scenario_specs())
@settings(max_examples=60)
def test_scenario_text_round_trip(spec):
    back = parse_scenario_text(format_scenario_text(spec))
    assert back.constants == spec.constants
    assert back.kind is spec.kind
    if spec.kind is ScenarioKind.SET_II_K:
        assert back.k_exp == spec.k_exp
