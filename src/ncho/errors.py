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


class OutOfValidatedDomain(NchoError):
    """A series was evaluated outside its validated region, or did not settle
    within its term budget there."""


class ToleranceNotMet(NchoError):
    """A quadrature missed its tolerance, or two routes to one quantity disagree."""


class InvalidLabel(NchoError):
    """Quantum-number labels violate n >= 0, m >= 0."""
