"""Scenario definition, validation, and the flat key-value scenario file format.

A *scenario* binds the physical constants to one of five damped-oscillator
setups. Each setup couples a damping profile f(t), a frequency profile
omega(t), and one analytic family of the auxiliary nonlinear equation that
drives the invariant machinery:

============  ==========  ============================  =======================
kind          damping     frequency                     scale-function family
============  ==========  ============================  =======================
``SetIa``     f = 1       omega0*exp(-Gamma*t/2)        exponential
``SetIb``     exp(-G t)   omega0 (constant)             exponential
``SetIc``     exp(-G t)   omega0*exp(-Gamma*t/2)        exponential
``SetII_k``   f = 1       omega0/(Gamma*t + chi)        rational, exponent k
``SetIII``    f = 1       omega0/(Gamma*t + chi)        linear ("elementary")
============  ==========  ============================  =======================

Every accepted scenario satisfies its family's constant-constraint relation to
a relative residual <= 1e-9; the residual is stored on the scenario for
reporting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from .errors import ConstraintViolation, DomainError, ScenarioFileError

CONSTRAINT_RTOL = 1e-9


class DampingKind(enum.Enum):
    UNIT = "Unit"
    EXP_DECAY = "ExpDecay"


class FrequencyKind(enum.Enum):
    CONSTANT = "Constant"
    EXP_DECAY = "ExpDecay"
    RATIONAL = "Rational"


class ScenarioKind(enum.Enum):
    SET_IA = "SetIa"
    SET_IB = "SetIb"
    SET_IC = "SetIc"
    SET_II_K = "SetII_k"
    SET_III = "SetIII"

    @property
    def is_set_one(self) -> bool:
        return self in (ScenarioKind.SET_IA, ScenarioKind.SET_IB, ScenarioKind.SET_IC)


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants of the oscillator and of the solution families.

    Natural units: hbar defaults to 1 and every quantity is dimensionless
    apart from the bookkeeping noted per field.

    mass_M    -- oscillator mass (positive)
    omega0    -- base angular frequency (>= 0; zero is allowed so the
                 zero-frequency limit of the energy stays testable)
    Gamma     -- decay rate of the damping/frequency profiles (positive)
    vartheta  -- exponential-family decay rate (positive; the closed forms
                 used downstream require vartheta == Gamma)
    chi       -- time offset of the rational profiles, in units of time*Gamma
    sigma     -- momentum-coefficient amplitude of the families (positive)
    Delta     -- coordinate-coefficient amplitude of the families (positive)
    mu        -- scale-function amplitude (positive)
    xi        -- integration constant of the auxiliary equation (positive)
    hbar      -- Planck constant (positive)
    """

    mass_M: float
    omega0: float
    Gamma: float
    vartheta: float
    chi: float
    sigma: float
    Delta: float
    mu: float
    xi: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("mass_M", "Gamma", "vartheta", "sigma", "Delta", "mu", "xi", "hbar"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite real, got {value!r}")
        if not (math.isfinite(self.omega0) and self.omega0 >= 0):
            raise DomainError(f"omega0 must be a finite real >= 0, got {self.omega0!r}")
        if not math.isfinite(self.chi):
            raise DomainError(f"chi must be a finite real, got {self.chi!r}")


@dataclass(frozen=True)
class DampingProfile:
    """Damping factor f(t) = exp(-integral of the friction coefficient)."""

    kind: DampingKind
    Gamma: float = 0.0

    def factor(self, t: float) -> float:
        """f(t); equals 1 for the undamped profile, exp(-Gamma*t) otherwise."""
        if self.kind is DampingKind.UNIT:
            return 1.0
        return math.exp(-self.Gamma * t)


@dataclass(frozen=True)
class FrequencyProfile:
    """Angular frequency omega(t) of the oscillator."""

    kind: FrequencyKind
    omega0: float
    Gamma: float = 0.0
    chi: float = 0.0

    def value(self, t: float) -> float:
        if self.kind is FrequencyKind.CONSTANT:
            return self.omega0
        if self.kind is FrequencyKind.EXP_DECAY:
            return self.omega0 * math.exp(-self.Gamma * t / 2.0)
        denom = self.Gamma * t + self.chi
        if denom <= 0.0:
            raise DomainError(
                f"rational frequency profile needs Gamma*t + chi > 0; got {denom} at t={t}"
            )
        return self.omega0 / denom


@dataclass(frozen=True)
class ScenarioSpec:
    """Unvalidated scenario inputs.

    The damping and frequency profiles follow from ``kind``. ``k_exp`` is the
    rational-family exponent, used by SetII_k only.
    """

    constants: PhysicalConstants
    kind: ScenarioKind
    k_exp: int = 2


@dataclass(frozen=True)
class Scenario:
    """A validated scenario. Immutable; safe to share across threads."""

    constants: PhysicalConstants
    damping: DampingProfile
    frequency: FrequencyProfile
    kind: ScenarioKind
    k_exp: int
    constraint_residual: float = field(compare=False)

    @property
    def hbar(self) -> float:
        return self.constants.hbar

    def summary(self) -> str:
        c = self.constants
        bits = [
            f"kind={self.kind.value}",
            f"M={c.mass_M:g}", f"omega0={c.omega0:g}", f"Gamma={c.Gamma:g}",
            f"vartheta={c.vartheta:g}", f"chi={c.chi:g}", f"sigma={c.sigma:g}",
            f"Delta={c.Delta:g}", f"mu={c.mu:g}", f"xi={c.xi:g}", f"hbar={c.hbar:g}",
        ]
        if self.kind is ScenarioKind.SET_II_K:
            bits.append(f"k_exp={self.k_exp}")
        return " ".join(bits)


_PROFILE_TABLE: dict[ScenarioKind, tuple[DampingKind, FrequencyKind]] = {
    ScenarioKind.SET_IA: (DampingKind.UNIT, FrequencyKind.EXP_DECAY),
    ScenarioKind.SET_IB: (DampingKind.EXP_DECAY, FrequencyKind.CONSTANT),
    ScenarioKind.SET_IC: (DampingKind.EXP_DECAY, FrequencyKind.EXP_DECAY),
    ScenarioKind.SET_II_K: (DampingKind.UNIT, FrequencyKind.RATIONAL),
    ScenarioKind.SET_III: (DampingKind.UNIT, FrequencyKind.RATIONAL),
}


def expected_profiles(kind: ScenarioKind, c: PhysicalConstants) -> tuple[DampingProfile, FrequencyProfile]:
    """The (damping, frequency) profiles implied by a scenario kind."""
    dk, fk = _PROFILE_TABLE[kind]
    damping = DampingProfile(dk, Gamma=c.Gamma if dk is DampingKind.EXP_DECAY else 0.0)
    if fk is FrequencyKind.CONSTANT:
        frequency = FrequencyProfile(fk, omega0=c.omega0)
    elif fk is FrequencyKind.EXP_DECAY:
        frequency = FrequencyProfile(fk, omega0=c.omega0, Gamma=c.Gamma)
    else:
        frequency = FrequencyProfile(fk, omega0=c.omega0, Gamma=c.Gamma, chi=c.chi)
    return damping, frequency


def family_constraint(kind: ScenarioKind, c: PhysicalConstants, k_exp: int) -> tuple[str, float, float, tuple[float, ...]]:
    """The family's constant-constraint as (name, LHS, RHS, term magnitudes).

    Exponential family:  mu^4 * (sigma*Delta - vartheta^2/4) = xi^2 * sigma^2
    Rational family:     Gamma^2*mu = (k+2)^2 * (sigma*Delta*mu - xi^2*sigma^2/mu^3)
    Linear family:       Delta*mu^4 = xi^2*sigma
    """
    if kind.is_set_one:
        lhs = c.mu**4 * (c.sigma * c.Delta - c.vartheta**2 / 4.0)
        rhs = c.xi**2 * c.sigma**2
        terms = (c.mu**4 * c.sigma * c.Delta, c.mu**4 * c.vartheta**2 / 4.0, rhs)
        return "mu^4*(sigma*Delta - vartheta^2/4) = xi^2*sigma^2", lhs, rhs, terms
    if kind is ScenarioKind.SET_II_K:
        kk = float(k_exp)
        lhs = c.Gamma**2 * c.mu
        rhs = (kk + 2.0) ** 2 * (c.sigma * c.Delta * c.mu - c.xi**2 * c.sigma**2 / c.mu**3)
        terms = (
            lhs,
            (kk + 2.0) ** 2 * c.sigma * c.Delta * c.mu,
            (kk + 2.0) ** 2 * c.xi**2 * c.sigma**2 / c.mu**3,
        )
        return "Gamma^2*mu = (k+2)^2*(sigma*Delta*mu - xi^2*sigma^2/mu^3)", lhs, rhs, terms
    lhs = c.Delta * c.mu**4
    rhs = c.xi**2 * c.sigma
    return "Delta*mu^4 = xi^2*sigma", lhs, rhs, (lhs, rhs)


def constraint_residual(kind: ScenarioKind, c: PhysicalConstants, k_exp: int) -> float:
    """Relative residual of the family constraint.

    The scale includes the individual term magnitudes, not just |LHS| and
    |RHS|: at figure-sized parameters the two sides cancel to machine noise
    against terms ~1e14, and the residual must reflect that cancellation.
    """
    _, lhs, rhs, terms = family_constraint(kind, c, k_exp)
    scale = max(1.0, abs(lhs), abs(rhs), *[abs(x) for x in terms])
    return abs(lhs - rhs) / scale


def build_scenario(spec: ScenarioSpec, enforce_constraint: bool = True) -> Scenario:
    """Validate a ScenarioSpec into a Scenario.

    Deterministic and idempotent: the same spec yields bit-identical
    scenarios. With ``enforce_constraint=False`` the constraint residual is
    recorded but not gated (used by the verification CLI, which reports a
    broken constraint as a failed check rather than a config error).
    """
    c = spec.constants
    kind = spec.kind
    k_exp = spec.k_exp

    if kind is ScenarioKind.SET_II_K and (not isinstance(k_exp, int) or k_exp < 1):
        raise DomainError(f"rational-family exponent k_exp must be an integer >= 1, got {k_exp!r}")

    if kind.is_set_one:
        if c.sigma * c.Delta <= c.vartheta**2 / 4.0:
            raise DomainError(
                "exponential family needs sigma*Delta > vartheta^2/4 "
                f"(got sigma*Delta={c.sigma * c.Delta:g}, vartheta^2/4={c.vartheta**2 / 4.0:g})"
            )
        if not math.isclose(c.vartheta, c.Gamma, rel_tol=1e-12, abs_tol=0.0):
            raise DomainError(
                "the closed forms for the exponential-family scenarios are derived with "
                f"vartheta == Gamma; got vartheta={c.vartheta!r}, Gamma={c.Gamma!r}"
            )
    else:
        if c.chi <= 0.0:
            raise DomainError(
                "rational/linear families need chi > 0 so that Gamma*t + chi > 0 on t >= 0; "
                f"got chi={c.chi!r}"
            )

    damping, frequency = expected_profiles(kind, c)
    name, _, _, _ = family_constraint(kind, c, k_exp)
    residual = constraint_residual(kind, c, k_exp)
    if enforce_constraint and residual > CONSTRAINT_RTOL:
        raise ConstraintViolation(
            f"family constraint {name} violated: relative residual {residual:.3e} > {CONSTRAINT_RTOL:g}"
        )
    return Scenario(
        constants=c,
        damping=damping,
        frequency=frequency,
        kind=kind,
        k_exp=k_exp,
        constraint_residual=residual,
    )


# ---------------------------------------------------------------------------
# Scenario file format: one `key = value` per line, `#` comments.
# ---------------------------------------------------------------------------

_NUMERIC_KEYS = ("M", "omega0", "Gamma", "vartheta", "chi", "sigma", "Delta", "mu", "xi", "hbar")
_ALL_KEYS = ("kind",) + _NUMERIC_KEYS + ("k_exp",)
_REQUIRED_KEYS = ("kind", "M", "omega0", "Gamma", "sigma", "Delta", "mu")


def parse_scenario_text(text: str, source: str = "<string>") -> ScenarioSpec:
    """Parse the scenario grammar into a ScenarioSpec.

    Keys: kind, M, omega0, Gamma, vartheta, chi, sigma, Delta, mu, xi, hbar,
    k_exp. Unknown or duplicate keys are errors. Defaults: xi=1, hbar=1,
    chi=0 (so rational/linear kinds fail loudly unless chi is set),
    vartheta=Gamma, k_exp=2.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioFileError(f"{source}:{lineno}: expected `key = value`, got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ScenarioFileError(f"{source}:{lineno}: unknown key {key!r} (allowed: {', '.join(_ALL_KEYS)})")
        if key in values:
            raise ScenarioFileError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ScenarioFileError(f"{source}:{lineno}: empty value for key {key!r}")
        values[key] = value

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ScenarioFileError(f"{source}: missing required key {key!r}")

    kind_text = values.pop("kind")
    try:
        kind = ScenarioKind(kind_text)
    except ValueError:
        allowed = ", ".join(k.value for k in ScenarioKind)
        raise ScenarioFileError(f"{source}: unknown kind {kind_text!r} (allowed: {allowed})") from None

    k_exp = 2
    if "k_exp" in values:
        k_text = values.pop("k_exp")
        try:
            k_exp = int(k_text)
        except ValueError:
            raise ScenarioFileError(f"{source}: k_exp must be an integer, got {k_text!r}") from None

    numbers: dict[str, float] = {}
    for key, text_value in values.items():
        try:
            numbers[key] = float(text_value)
        except ValueError:
            raise ScenarioFileError(f"{source}: key {key!r} has non-numeric value {text_value!r}") from None

    gamma = numbers["Gamma"]
    try:
        constants = PhysicalConstants(
            mass_M=numbers["M"],
            omega0=numbers["omega0"],
            Gamma=gamma,
            vartheta=numbers.get("vartheta", gamma),
            chi=numbers.get("chi", 0.0),
            sigma=numbers["sigma"],
            Delta=numbers["Delta"],
            mu=numbers["mu"],
            xi=numbers.get("xi", 1.0),
            hbar=numbers.get("hbar", 1.0),
        )
    except DomainError as exc:
        raise ScenarioFileError(f"{source}: {exc}") from exc
    return ScenarioSpec(constants=constants, kind=kind, k_exp=k_exp)


def parse_scenario_file(path) -> ScenarioSpec:
    """Read and parse a scenario file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_text(handle.read(), source=str(path))


def format_scenario_text(spec: ScenarioSpec | Scenario) -> str:
    """Serialize back to the flat key-value grammar (round-trips with parse)."""
    c = spec.constants
    lines = [f"kind = {spec.kind.value}"]
    for key, value in (
        ("M", c.mass_M), ("omega0", c.omega0), ("Gamma", c.Gamma),
        ("vartheta", c.vartheta), ("chi", c.chi), ("sigma", c.sigma),
        ("Delta", c.Delta), ("mu", c.mu), ("xi", c.xi), ("hbar", c.hbar),
    ):
        lines.append(f"{key} = {value!r}")
    if spec.kind is ScenarioKind.SET_II_K:
        lines.append(f"k_exp = {spec.k_exp}")
    return "\n".join(lines) + "\n"


def with_constants(scenario: Scenario, **changes) -> ScenarioSpec:
    """A ScenarioSpec equal to ``scenario`` with some constants replaced."""
    return ScenarioSpec(
        constants=replace(scenario.constants, **changes),
        kind=scenario.kind,
        k_exp=scenario.k_exp,
    )
