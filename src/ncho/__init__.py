"""ncho — noncommutative damped harmonic oscillator toolkit.

Exact solution families for the time-dependent two-dimensional damped
oscillator on noncommutative phase space: Hamiltonian coefficients,
scale-function families, invariant machinery, eigenfunctions, phases,
matrix elements, and energy curves — each paired with an independent
numerical cross-check.
"""

from .config import (
    PhysicalConstants,
    Scenario,
    ScenarioKind,
    ScenarioSpec,
    build_scenario,
    parse_scenario_file,
    parse_scenario_text,
)
from . import errors

__all__ = [
    "PhysicalConstants",
    "Scenario",
    "ScenarioKind",
    "ScenarioSpec",
    "build_scenario",
    "parse_scenario_file",
    "parse_scenario_text",
    "errors",
]

__version__ = "0.1.0"
