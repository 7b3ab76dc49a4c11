"""Exception types shared by all ncho modules.

Every failure mode of the library maps to one of these classes so that the
CLI can translate them into its two non-zero exit codes (1 = a verification
check failed, 2 = the inputs themselves are unusable).
"""

from __future__ import annotations


class NchoError(Exception):
    """Base class for all library-specific errors."""


class ScenarioFileError(NchoError):
    """A scenario file could not be parsed (bad key, bad number, bad grammar)."""


class ConstraintViolation(NchoError):
    """A solution-family constraint relation is violated beyond tolerance."""


class DomainError(NchoError):
    """Inputs lie outside the validated parameter/time domain."""


class OutsideRealityWindow(NchoError):
    """A square-root expression turned complex at the requested time.

    ``horizon`` carries the scenario's reality bound (largest time for which
    the quantity stays real), or None when the window is unbounded or empty
    for reasons explained in the message.
    """

    def __init__(self, message: str, horizon: float | None = None):
        super().__init__(message)
        self.horizon = horizon


class NonPolynomialCase(NchoError):
    """Tricomi U requested outside the polynomial (first argument -m) case."""


class OutOfValidatedDomain(NchoError):
    """A series evaluation was requested outside its validated region."""


class NoConvergence(NchoError):
    """An iterative summation exceeded its term budget."""


class ToleranceNotMet(NchoError):
    """Adaptive quadrature could not reach the requested tolerance.

    ``achieved`` carries the error estimate that was actually reached.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class StepUnderflow(NchoError):
    """The numerical integrator stepped into rho <= 0 territory."""


class InvalidLabel(NchoError):
    """Quantum-number labels violate n >= 0, m >= 0."""


class ConstraintGuard(NchoError):
    """A reduced closed form was requested whose derivation needs xi = 1."""
