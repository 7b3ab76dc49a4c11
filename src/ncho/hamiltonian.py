"""Hamiltonian coefficients, noncommutativity parameters, and the shift identity.

The oscillator on noncommutative phase space maps, through the standard
linear shift of canonical variables, onto a commutative Hamiltonian

    H = (a/2)(p1^2 + p2^2) + (b/2)(x1^2 + x2^2) + c (p1 x2 - p2 x1),

with a = f/M + M w^2 th^2/(4f), b = f Om^2/(4M) + M w^2/f and
c = (f Om/M + M w^2 th/f)/2, where f is the damping factor, w the frequency
profile, and (th, Om) the coordinate/momentum deformation parameters. This
module inverts those relations for each scenario (the deformation parameters
that realize the scenario's analytic a, b), evaluates the scenario's
closed-form c, and exposes the two equivalent classical symbols for the
identity check.

Several square roots go complex past a scenario-dependent time; the 'reality
horizon' of those roots is computed here and attached to the errors.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .config import Scenario, ScenarioKind
from .errors import DomainError, OutsideRealityWindow
from .ermakov import coefficient_a, coefficient_b, _rational_u

RADICAND_CLAMP = 1e-12  # negative radicands within this relative margin snap to 0
_AGREE_RTOL = 1e-12  # generic-inversion vs closed-form agreement gate


@dataclass(frozen=True)
class HamCoeffs:
    """Quadratic Hamiltonian coefficients at one time.

    a multiplies momenta^2 (units 1/mass), b coordinates^2 (mass/time^2),
    c the angular-momentum cross term (1/time).
    """

    a: float
    b: float
    c: float
    t: float


@dataclass(frozen=True)
class NCParams:
    """Deformation parameters at one time.

    theta_nc is the coordinate-coordinate deformation (length^2), omega_nc
    the momentum-momentum one (momentum^2). The canonical commutator picks
    up the factor 1 + theta_nc*omega_nc/4.
    """

    theta_nc: float
    omega_nc: float
    t: float

    @property
    def commutator_factor(self) -> float:
        return 1.0 + self.theta_nc * self.omega_nc / 4.0


@dataclass(frozen=True)
class PhaseSpacePoint:
    x1: float
    x2: float
    p1: float
    p2: float


class SymbolForm(enum.Enum):
    BOPP_SHIFTED = "BoppShifted"
    ABC_FORM = "ABCForm"


def reality_horizon_time(scenario: Scenario) -> float | None:
    """Largest t for which every square root in c (and th, Om) stays real.

    None means unbounded; 0.0 means the window is empty (the reality
    conditions fail already at t = 0).
    """
    c = scenario.constants
    m_sigma = c.mass_M * c.sigma
    if scenario.kind is ScenarioKind.SET_IA:
        if c.omega0 == 0.0:
            return None
        if m_sigma < 1.0:
            return 0.0
        return math.log(m_sigma) / c.Gamma
    if scenario.kind in (ScenarioKind.SET_IB, ScenarioKind.SET_IC):
        if c.omega0 == 0.0:
            return None
        ok = (c.Delta - c.mass_M * c.omega0**2 >= 0.0) and (m_sigma >= 1.0)
        return None if ok else 0.0
    if scenario.kind is ScenarioKind.SET_II_K:
        if c.omega0 == 0.0:
            return None
        k = float(scenario.k_exp)
        u_max = ((k + 2.0) / k) * m_sigma ** (k / (k + 2.0))
        return max(0.0, (u_max - c.chi) / c.Gamma)
    # linear family: the coordinate-coefficient root closes the window
    if c.omega0 == 0.0:
        return None
    if m_sigma < 1.0:
        return 0.0
    u_max = math.sqrt(c.Delta / c.mass_M) / c.omega0
    return max(0.0, (u_max - c.chi) / c.Gamma)


def _real_sqrt(radicand: float, scale: float, what: str, scenario: Scenario) -> float:
    """sqrt with a clamp for boundary noise and a windowed error beyond it."""
    if radicand >= 0.0:
        return math.sqrt(radicand)
    if radicand >= -RADICAND_CLAMP * max(scale, 1.0):
        return 0.0
    raise OutsideRealityWindow(
        f"{what} has negative radicand {radicand:.6g}; quantity is complex here",
        horizon=reality_horizon_time(scenario),
    )


def _c_terms(scenario: Scenario, t: float) -> tuple[float, float, float, float]:
    """Radicands and scales (rad1, scale1, rad2, scale2) of the two terms of c.

    c = sqrt(rad1) + omega(t)-weight * sqrt(rad2), in each family's published
    closed form; term 2 carries the frequency weight returned by `_c_weight`.
    """
    c = scenario.constants
    M, w0, G = c.mass_M, c.omega0, c.Gamma
    kind = scenario.kind
    if kind is ScenarioKind.SET_IA:
        e_up, e_dn = math.exp(G * t), math.exp(-G * t)
        rad1 = (c.Delta * e_up - M * w0**2 * e_dn) / M
        s1 = (c.Delta * e_up + M * w0**2 * e_dn) / M
        rad2 = M * c.sigma * e_dn - 1.0
        s2 = M * c.sigma * e_dn + 1.0
        return rad1, s1, rad2, s2
    if kind is ScenarioKind.SET_IB:
        rad1 = (c.Delta - M * w0**2) / M
        s1 = (c.Delta + M * w0**2) / M
        return rad1, s1, M * c.sigma - 1.0, M * c.sigma + 1.0
    if kind is ScenarioKind.SET_IC:
        e_dn = math.exp(-G * t)
        rad1 = (c.Delta - M * w0**2 * e_dn) / M
        s1 = (c.Delta + M * w0**2 * e_dn) / M
        return rad1, s1, M * c.sigma - 1.0, M * c.sigma + 1.0
    if kind is ScenarioKind.SET_II_K:
        k = float(scenario.k_exp)
        u = _rational_u(c, t)
        ratio = (k + 2.0) / (k * u)
        rad1 = (c.Delta / M) * ratio ** ((k - 2.0) / k) - w0**2 / u**2
        s1 = (c.Delta / M) * ratio ** ((k - 2.0) / k) + w0**2 / u**2
        rad2 = M * c.sigma * ratio ** ((k + 2.0) / k) - 1.0
        s2 = M * c.sigma * ratio ** ((k + 2.0) / k) + 1.0
        return rad1, s1, rad2, s2
    u = _rational_u(c, t)
    rad1 = c.Delta / (M * u**4) - w0**2 / u**2
    s1 = c.Delta / (M * u**4) + w0**2 / u**2
    return rad1, s1, M * c.sigma - 1.0, M * c.sigma + 1.0


def _c_weight(scenario: Scenario, t: float) -> float:
    """The omega-proportional weight multiplying sqrt(rad2) in c."""
    c = scenario.constants
    kind = scenario.kind
    if kind is ScenarioKind.SET_IA or kind is ScenarioKind.SET_IC:
        return c.omega0 * math.exp(-c.Gamma * t / 2.0)
    if kind is ScenarioKind.SET_IB:
        return c.omega0
    return c.omega0 / _rational_u(c, t)


def c_value(scenario: Scenario, t: float) -> float:
    """Closed-form cross-term coefficient c(t); real inside the window only."""
    rad1, s1, rad2, s2 = _c_terms(scenario, t)
    term1 = _real_sqrt(rad1, s1, "the frequency-balance root of c(t)", scenario)
    weight = _c_weight(scenario, t)
    if weight == 0.0:
        return term1  # the deformation term is weighted by omega and drops out
    term2 = _real_sqrt(rad2, s2, "the deformation root of c(t)", scenario)
    return term1 + weight * term2


def c_complex(scenario: Scenario, t: float) -> complex:
    """c(t) continued past the reality window with principal-branch roots."""
    rad1, _, rad2, _ = _c_terms(scenario, t)
    weight = _c_weight(scenario, t)
    term2 = 0.0 if weight == 0.0 else weight * cmath.sqrt(complex(rad2))
    return cmath.sqrt(complex(rad1)) + term2


def coefficients(scenario: Scenario, t: float) -> HamCoeffs:
    """The triple (a, b, c) at time t; errors once c would be complex."""
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)
    return HamCoeffs(a=a, b=b, c=c_value(scenario, t), t=t)


def nc_parameters(scenario: Scenario, t: float) -> NCParams:
    """Deformation parameters (theta_nc, omega_nc) at time t.

    Computed from the generic inversion
        theta_nc = sqrt(4 f (M a - f)) / (M omega),
        omega_nc = sqrt(4 M (b f - M omega^2)) / f,
    then checked against the scenario's published closed form (squared
    comparison, so the gate stays meaningful where the radicand vanishes).
    """
    if t < 0.0:
        raise DomainError(f"deformation parameters are validated for t >= 0, got t={t!r}")
    c = scenario.constants
    M = c.mass_M
    f = scenario.damping.factor(t)
    w = scenario.frequency.value(t)
    if w == 0.0:
        raise DomainError("theta_nc is undefined at zero frequency (omega(t) = 0)")
    a, _ = coefficient_a(scenario, t)
    b = coefficient_b(scenario, t)

    rad_theta = 4.0 * f * (M * a - f)
    scale_theta = 4.0 * f * (M * a + f)
    theta = _real_sqrt(rad_theta, scale_theta, "the coordinate deformation theta_nc", scenario) / (M * w)

    rad_omega = 4.0 * M * (b * f - M * w**2)
    scale_omega = 4.0 * M * (b * f + M * w**2)
    omega = _real_sqrt(rad_omega, scale_omega, "the momentum deformation omega_nc", scenario) / f

    theta_pub2, omega_pub2 = _published_nc_squared(scenario, t)
    if abs(theta * theta - theta_pub2) > _AGREE_RTOL * max(scale_theta / (M * w) ** 2, 1e-300):
        raise RuntimeError(
            f"generic inversion disagrees with the closed form for theta_nc at t={t:g}"
        )
    if abs(omega * omega - omega_pub2) > _AGREE_RTOL * max(scale_omega / f**2, 1e-300):
        raise RuntimeError(
            f"generic inversion disagrees with the closed form for omega_nc at t={t:g}"
        )
    return NCParams(theta_nc=theta, omega_nc=omega, t=t)


def _published_nc_squared(scenario: Scenario, t: float) -> tuple[float, float]:
    """Squares of the published closed-form deformation parameters."""
    c = scenario.constants
    M, w0, G = c.mass_M, c.omega0, c.Gamma
    kind = scenario.kind
    if kind is ScenarioKind.SET_IA:
        theta2 = (2.0 / (M * w0)) ** 2 * math.exp(G * t) * (M * c.sigma * math.exp(-G * t) - 1.0)
        omega2 = 4.0 * M * (c.Delta * math.exp(G * t) - M * w0**2 * math.exp(-G * t))
        return theta2, omega2
    if kind is ScenarioKind.SET_IB:
        theta2 = (2.0 / (M * w0)) ** 2 * (M * c.sigma - 1.0) * math.exp(-2.0 * G * t)
        omega2 = 4.0 * math.exp(2.0 * G * t) * M * (c.Delta - M * w0**2)
        return theta2, omega2
    if kind is ScenarioKind.SET_IC:
        theta2 = (2.0 / (M * w0)) ** 2 * (M * c.sigma - 1.0) * math.exp(-G * t)
        omega2 = 4.0 * math.exp(G * t) * M * (c.Delta * math.exp(G * t) - M * w0**2)
        return theta2, omega2
    if kind is ScenarioKind.SET_II_K:
        k = float(scenario.k_exp)
        u = _rational_u(c, t)
        ratio = (k + 2.0) / (k * u)
        theta2 = (2.0 * u / (M * w0)) ** 2 * (M * c.sigma * ratio ** ((k + 2.0) / k) - 1.0)
        omega2 = 4.0 * (M * c.Delta * ratio ** ((k - 2.0) / k) - M**2 * w0**2 / u**2)
        return theta2, omega2
    u = _rational_u(c, t)
    theta2 = (2.0 * u / (M * w0)) ** 2 * (M * c.sigma - 1.0)
    omega2 = 4.0 * (M * c.Delta / u**4 - M**2 * w0**2 / u**2)
    return theta2, omega2


def classical_symbol(scenario: Scenario, t: float, pt: PhaseSpacePoint, form: SymbolForm) -> float:
    """The classical Hamiltonian symbol at a phase-space point.

    The two forms are algebraically identical; evaluating both is the
    numerical check that the deformation parameters, the damping/frequency
    profiles, and (a, b, c) all tell the same story.
    """
    if form is SymbolForm.ABC_FORM:
        hc = coefficients(scenario, t)
        return (
            0.5 * hc.a * (pt.p1**2 + pt.p2**2)
            + 0.5 * hc.b * (pt.x1**2 + pt.x2**2)
            + hc.c * (pt.p1 * pt.x2 - pt.p2 * pt.x1)
        )
    nc = nc_parameters(scenario, t)
    c = scenario.constants
    f = scenario.damping.factor(t)
    w = scenario.frequency.value(t)
    kin1 = pt.p1 + 0.5 * nc.omega_nc * pt.x2
    kin2 = pt.p2 - 0.5 * nc.omega_nc * pt.x1
    pos1 = pt.x1 - 0.5 * nc.theta_nc * pt.p2
    pos2 = pt.x2 + 0.5 * nc.theta_nc * pt.p1
    return (f / (2.0 * c.mass_M)) * (kin1**2 + kin2**2) + (
        c.mass_M * w**2 / (2.0 * f)
    ) * (pos1**2 + pos2**2)
