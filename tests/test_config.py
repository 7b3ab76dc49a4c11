"""Scenario grammar, validation, and family-constraint checks."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from ncho.config import (
    CONSTRAINT_RTOL,
    PhysicalConstants,
    ScenarioKind,
    ScenarioSpec,
    build_scenario,
    parse_scenario_file,
    parse_scenario_text,
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
    assert c.chi == 0.0
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
        ("vartheta = 2", "vartheta must equal Gamma"),
        ("xi = 2", "xi must be 1"),
        ("xi = -1", "xi must be 1, got xi=-1.0$"),
        ("hbar = 2", "hbar must be 1: ncho works in natural units"),
        ("hbar = nan", "hbar must be 1"),
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
        mass_M=1.0, omega0=1.0, Gamma=1.0, chi=0.0, sigma=1.0, Delta=1.0, mu=1.0,
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
    families = [make_scenario(kind) for kind in ScenarioKind]
    families.append(make_scenario(ScenarioKind.SET_II_K, k_exp=3, enforce=False))
    for family in families:
        name = type(family).__name__
        family.check()
        lhs, rhs, terms = family.constraint()
        assert isinstance(family.CONSTRAINT, str) and math.isfinite(lhs - rhs) and terms, name
        assert len(family.rho(t)) == 3 and len(family.a(t)) == 2, name
        assert math.isfinite(family.b(t)) and len(family.c_terms(t)) == 2, name
        horizon = family.horizon()
        assert horizon is None or horizon >= 0.0, name
        assert math.isfinite(family.ground_energy(t)), name
        # No phase is published for k != 2; the SetIa series needs |z| < 1,
        # and the figure parameters put z at Delta/(M omega0^2) = 10.
        value, validated = family.unit_phase(t)
        assert isinstance(value, complex) and isinstance(validated, bool), name
        assert validated == (name != "SetIa" and family.k_exp != 3), name


def test_profile_table():
    """damping(t) and frequency(t) of each family, for constants outside any constraint."""
    c = PhysicalConstants(
        mass_M=1.0, omega0=2.0, Gamma=3.0, chi=1.0, sigma=1.0, Delta=1.0, mu=1.0,
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
        assert scenario.constraint_residual <= CONSTRAINT_RTOL, name


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


# The optional keys each kind reads: chi offsets the rational/linear
# profiles, and k_exp is the exponent of SetII_k alone.
READS_CHI = {ScenarioKind.SET_II_K, ScenarioKind.SET_III}


def _optional_lines(kind: ScenarioKind, chi, k_exp: int) -> str:
    """The chi and k_exp lines of a scenario file, for the keys the kind reads."""
    text = f"chi = {chi!r}\n" if kind in READS_CHI else ""
    return text + (f"k_exp = {k_exp}\n" if kind is ScenarioKind.SET_II_K else "")


@pytest.mark.parametrize("kind, line", [("SetIa", "chi = 0"), ("SetIc", "k_exp = 2")])
def test_parse_rejects_a_key_the_kind_does_not_read_even_at_its_default(kind, line):
    key = line.partition(" ")[0]
    with pytest.raises(ScenarioFileError, match=f"kind {kind} does not read key '{key}'$"):
        parse_scenario_text(MINIMAL.replace("SetIb", kind) + line + "\n")


def test_vartheta_within_1e12_of_gamma_is_gamma():
    # The exact values vartheta = Gamma, xi = 1, hbar = 1 go through the round trip below.
    parse_scenario_text(MINIMAL + "vartheta = 1.0000000000001\n")


def _xi_form_delta(kind: ScenarioKind, k_exp: int, gamma, sigma, mu, xi) -> float:
    """Delta that satisfies the family constraint with the auxiliary constant xi:
    mu^4 (sigma Delta - Gamma^2/4) = xi^2 sigma^2 (exponential),
    Gamma^2 mu = (k+2)^2 (sigma Delta mu - xi^2 sigma^2/mu^3) (rational),
    Delta mu^4 = xi^2 sigma (linear)."""
    if kind is ScenarioKind.SET_II_K:
        return (gamma**2 * mu / (k_exp + 2) ** 2 + xi**2 * sigma**2 / mu**3) / (sigma * mu)
    if kind is ScenarioKind.SET_III:
        return xi**2 * sigma / mu**4
    return (xi**2 * sigma**2 / mu**4 + gamma**2 / 4.0) / sigma


@given(
    kind=st.sampled_from(list(ScenarioKind)),
    k_exp=st.integers(1, 4),
    gamma=st.floats(0.1, 10.0),
    sigma=st.floats(0.1, 10.0),
    mu=st.floats(0.1, 10.0),
    xi=st.floats(0.01, 100.0).filter(lambda x: x != 1.0),
)
@settings(max_examples=60, deadline=None)
def test_rejected_xi_names_the_equivalent_mu(kind, k_exp, gamma, sigma, mu, xi):
    # (xi, mu) and (1, mu/sqrt(xi)) give the same a, b and c; the message
    # names the second, and it satisfies the xi = 1 constraint.
    delta = _xi_form_delta(kind, k_exp, gamma, sigma, mu, xi)
    text = (
        f"kind = {kind.value}\nM = 1\nomega0 = 1\nGamma = {gamma!r}\n"
        f"sigma = {sigma!r}\nDelta = {delta!r}\n" + _optional_lines(kind, 1.0, k_exp)
    )
    with pytest.raises(ScenarioFileError, match="xi must be 1") as err:
        parse_scenario_text(text + f"mu = {mu!r}\nxi = {xi!r}\n")
    suggested = float(re.search(r"mu/sqrt\(xi\) = (\S+)$", str(err.value)).group(1))
    assert suggested == mu / math.sqrt(xi)
    scenario = build_scenario(parse_scenario_text(text + f"mu = {suggested!r}\nxi = 1\n"))
    assert scenario.constraint_residual <= CONSTRAINT_RTOL


def format_scenario_text(spec: ScenarioSpec) -> str:
    """Serialize a spec to the flat key-value grammar that parse reads back,
    stating the fixed keys at the only values they take."""
    c = spec.constants
    lines = [f"kind = {spec.kind.value}"]
    for key, value in (
        ("M", c.mass_M), ("omega0", c.omega0), ("Gamma", c.Gamma),
        ("vartheta", c.Gamma), ("sigma", c.sigma),
        ("Delta", c.Delta), ("mu", c.mu), ("xi", 1.0), ("hbar", 1.0),
    ):
        lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n" + _optional_lines(spec.kind, c.chi, spec.k_exp)


@st.composite
def scenario_specs(draw):
    kind = draw(st.sampled_from(list(ScenarioKind)))
    pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
    constants = PhysicalConstants(
        mass_M=draw(pos),
        omega0=draw(st.one_of(st.just(0.0), pos)),
        Gamma=draw(pos),
        chi=draw(pos) if kind in READS_CHI else 0.0,  # 0 is the default of the other kinds
        sigma=draw(pos),
        Delta=draw(pos),
        mu=draw(pos),
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
