"""Scenario validation and the flat key-value scenario file format.

A *scenario* is one class of the family table in ``families`` (one per
``ScenarioKind``, holding every closed form of that setup) bound to the
physical constants; ``Scenario`` names the family base class. The bound class
carries its kind, summary() and constraint_residual. `build_scenario` is the
one place that binds and checks it: every accepted scenario satisfies its
family's constant-constraint relation to a relative residual <= 1e-9.

Units are natural (hbar = 1), the exponential families decay at the rate
Gamma, and the invariant is normalised so that 4*alpha*beta - gamma^2 = 4
(xi = 1 in Lewis & Riesenfeld's form). Any other xi is a rescaling of mu,
and the file format rejects it with the equivalent mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintViolation, DomainError, ScenarioFileError
from .families import Family, ScenarioKind, SetIa, SetIb, SetIc, SetIII, SetIIk

CONSTRAINT_RTOL = 1e-9

Scenario = Family  # a validated scenario is its family class, bound


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants of the oscillator and of the solution families.

    Natural units, hbar = 1: every quantity is dimensionless apart from the
    bookkeeping noted per field. The auxiliary equation's constant is fixed
    at xi = 1, and the exponential families decay at the rate Gamma.

    mass_M    -- oscillator mass (positive)
    omega0    -- base angular frequency (>= 0; zero is allowed so the
                 zero-frequency limit of the energy stays testable)
    Gamma     -- decay rate of the damping/frequency profiles and of the
                 exponential scale-function family (positive)
    chi       -- time offset of the rational profiles, in units of time*Gamma
    sigma     -- momentum-coefficient amplitude of the families (positive)
    Delta     -- coordinate-coefficient amplitude of the families (positive)
    mu        -- scale-function amplitude (positive)
    """

    mass_M: float
    omega0: float
    Gamma: float
    chi: float
    sigma: float
    Delta: float
    mu: float

    def __post_init__(self):
        for name in ("mass_M", "Gamma", "sigma", "Delta", "mu"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite real, got {value!r}")
        if not (math.isfinite(self.omega0) and self.omega0 >= 0):
            raise DomainError(f"omega0 must be a finite real >= 0, got {self.omega0!r}")
        if not math.isfinite(self.chi):
            raise DomainError(f"chi must be a finite real, got {self.chi!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Unvalidated scenario inputs; ``k_exp`` is the rational-family exponent of SetII_k."""

    constants: PhysicalConstants
    kind: ScenarioKind
    k_exp: int = 2


_FAMILIES: dict[ScenarioKind, type[Family]] = {
    family.kind: family for family in (SetIa, SetIb, SetIc, SetIIk, SetIII)
}


def build_scenario(spec: ScenarioSpec, enforce_constraint: bool = True) -> Scenario:
    """Validate a ScenarioSpec into a Scenario: the kind's family class, bound and checked.

    Deterministic and idempotent: the same spec yields equal scenarios. With
    ``enforce_constraint=False`` the constraint residual is formed but not
    gated (used by the verification CLI, which reports a broken constraint
    as a failed check rather than a config error).
    """
    scenario = _FAMILIES[spec.kind](spec.constants, spec.k_exp)
    scenario.check()
    residual = scenario.constraint_residual
    if enforce_constraint and residual > CONSTRAINT_RTOL:
        raise ConstraintViolation(
            f"family constraint {scenario.CONSTRAINT} violated: relative residual {residual:.3e} > {CONSTRAINT_RTOL:g}"
        )
    return scenario


# ---------------------------------------------------------------------------
# Scenario file format: one `key = value` per line, `#` comments.
# ---------------------------------------------------------------------------

_NUMERIC_KEYS = ("M", "omega0", "Gamma", "vartheta", "chi", "sigma", "Delta", "mu", "xi", "hbar")
_ALL_KEYS = ("kind",) + _NUMERIC_KEYS + ("k_exp",)
_REQUIRED_KEYS = ("kind", "M", "omega0", "Gamma", "sigma", "Delta", "mu")
_FIXED_KEYS = ("vartheta", "xi", "hbar")


def parse_scenario_text(text: str, source: str = "<string>") -> ScenarioSpec:
    """Parse the scenario grammar into a ScenarioSpec.

    Keys: kind, M, omega0, Gamma, vartheta, chi, sigma, Delta, mu, xi, hbar,
    k_exp. Unknown or duplicate keys are errors, and so is an optional key
    that the kind's family class does not read (its ``OPTIONAL_KEYS``: chi
    for the rational/linear kinds, k_exp for SetII_k only). Defaults: chi=0
    (so rational/linear kinds fail loudly unless chi is set), k_exp=2.
    vartheta, xi and hbar are fixed by the model (`_check_fixed_keys`): a
    file may state them, but only at vartheta = Gamma, xi = 1 and hbar = 1.
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
    reads = _REQUIRED_KEYS + _FIXED_KEYS + _FAMILIES[kind].OPTIONAL_KEYS
    for key in values:
        if key not in reads:
            raise ScenarioFileError(f"{source}: kind {kind.value} does not read key {key!r}")

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

    try:
        constants = PhysicalConstants(
            mass_M=numbers["M"],
            omega0=numbers["omega0"],
            Gamma=numbers["Gamma"],
            chi=numbers.get("chi", 0.0),
            sigma=numbers["sigma"],
            Delta=numbers["Delta"],
            mu=numbers["mu"],
        )
    except DomainError as exc:
        raise ScenarioFileError(f"{source}: {exc}") from exc
    _check_fixed_keys(numbers, constants, source)
    return ScenarioSpec(constants=constants, kind=kind, k_exp=k_exp)


def _check_fixed_keys(numbers: dict[str, float], constants: PhysicalConstants, source: str) -> None:
    """Reject a vartheta other than Gamma (to 1e-12 relative), or an xi or hbar other than 1.

    xi only rescales mu: (xi, mu) and (1, mu/sqrt(xi)) give the same a, b
    and c, and a rho smaller by sqrt(xi). hbar is a unit choice.
    """
    vartheta = numbers.get("vartheta", constants.Gamma)
    if not math.isclose(vartheta, constants.Gamma, rel_tol=1e-12, abs_tol=0.0):
        raise ScenarioFileError(
            f"{source}: vartheta must equal Gamma, got vartheta={vartheta!r}, Gamma={constants.Gamma!r}"
        )
    xi = numbers.get("xi", 1.0)
    if xi != 1.0:
        same = ""
        if 0.0 < xi < math.inf:
            same = f"; the same physics is xi = 1 with mu = mu/sqrt(xi) = {constants.mu / math.sqrt(xi)!r}"
        raise ScenarioFileError(f"{source}: xi must be 1, got xi={xi!r}{same}")
    if numbers.get("hbar", 1.0) != 1.0:
        raise ScenarioFileError(
            f"{source}: hbar must be 1: ncho works in natural units, got hbar={numbers['hbar']!r}"
        )


def parse_scenario_file(path) -> ScenarioSpec:
    """Read and parse a scenario file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_text(handle.read(), source=str(path))
