"""Scenario definition, validation, and the flat key-value scenario file format.

A *scenario* binds the physical constants to one of five damped-oscillator
setups, named by its ``ScenarioKind``. Each kind maps to one class of the
family table in ``families``, which holds every closed form of that setup;
`build_scenario` binds that class to the constants once and stores it as
``Scenario.family``.

Every accepted scenario satisfies its family's constant-constraint relation to
a relative residual <= 1e-9; the residual is stored on the scenario for
reporting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from .errors import ConstraintViolation, DomainError, ScenarioFileError
from .families import Family, SetIa, SetIb, SetIc, SetIII, SetIIk

CONSTRAINT_RTOL = 1e-9


class ScenarioKind(enum.Enum):
    SET_IA = "SetIa"
    SET_IB = "SetIb"
    SET_IC = "SetIc"
    SET_II_K = "SetII_k"
    SET_III = "SetIII"


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
class ScenarioSpec:
    """Unvalidated scenario inputs.

    ``k_exp`` is the rational-family exponent, used by SetII_k only.
    """

    constants: PhysicalConstants
    kind: ScenarioKind
    k_exp: int = 2


@dataclass(frozen=True)
class Scenario:
    """A validated scenario. Immutable; safe to share across threads.

    ``family`` is the kind's closed-form table bound to ``constants``; it is
    derived from the other fields, so equality and hashing leave it out.
    """

    constants: PhysicalConstants
    kind: ScenarioKind
    k_exp: int
    constraint_residual: float = field(compare=False)
    family: Family = field(compare=False, repr=False)

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


_FAMILIES: dict[ScenarioKind, type[Family]] = {
    ScenarioKind.SET_IA: SetIa,
    ScenarioKind.SET_IB: SetIb,
    ScenarioKind.SET_IC: SetIc,
    ScenarioKind.SET_II_K: SetIIk,
    ScenarioKind.SET_III: SetIII,
}


def constraint_residual(family: Family) -> float:
    """Relative residual of the family constraint.

    The scale includes the individual term magnitudes, not just |LHS| and
    |RHS|: at figure-sized parameters the two sides cancel to machine noise
    against terms ~1e14, and the residual must reflect that cancellation.
    """
    _, lhs, rhs, terms = family.constraint()
    scale = max(1.0, abs(lhs), abs(rhs), *[abs(x) for x in terms])
    return abs(lhs - rhs) / scale


def build_scenario(spec: ScenarioSpec, enforce_constraint: bool = True) -> Scenario:
    """Validate a ScenarioSpec into a Scenario.

    Deterministic and idempotent: the same spec yields bit-identical
    scenarios. With ``enforce_constraint=False`` the constraint residual is
    recorded but not gated (used by the verification CLI, which reports a
    broken constraint as a failed check rather than a config error).
    """
    family = _FAMILIES[spec.kind](spec.constants, spec.k_exp)
    family.check()
    residual = constraint_residual(family)
    if enforce_constraint and residual > CONSTRAINT_RTOL:
        raise ConstraintViolation(
            f"family constraint {family.constraint()[0]} violated: relative residual {residual:.3e} > {CONSTRAINT_RTOL:g}"
        )
    return Scenario(
        constants=spec.constants,
        kind=spec.kind,
        k_exp=spec.k_exp,
        constraint_residual=residual,
        family=family,
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
