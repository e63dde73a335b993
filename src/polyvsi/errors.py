"""Exception types raised by the polyvsi library."""

from __future__ import annotations


class PolyvsiError(Exception):
    """Base class for all library-specific errors."""


class IncompleteModel(PolyvsiError, ValueError):
    """Models cannot form a system: no resource node, or a node without vnom."""


class SingularBranch(PolyvsiError):
    """A branch series impedance matrix is not invertible."""


class AsymmetricParameter(PolyvsiError):
    """A branch or shunt parameter matrix violates symmetry beyond tolerance."""


class SingularInteriorBlock(PolyvsiError):
    """The eliminated block of a Kron reduction is numerically singular."""


class SingularThevenin(PolyvsiError):
    """A Thevenin impedance matrix is not invertible."""


class ZeroVoltage(PolyvsiError):
    """A voltage magnitude of zero where a nonzero phasor is required."""


class DegenerateDenominator(PolyvsiError):
    """The index denominator (1 + a) V is too close to zero to evaluate."""


class SingularJacobian(PolyvsiError):
    """A Jacobian factorization failed inside a solver."""


class NonConvergence(PolyvsiError):
    """Newton iteration exhausted its budget without meeting the tolerance.

    Carries the last iterate and the residual-norm history so callers can
    inspect how the iteration behaved.
    """

    def __init__(self, message, x_last=None, residuals=None):
        super().__init__(message)
        self.x_last = x_last
        self.residuals = list(residuals) if residuals is not None else []


class BaseCaseDiverged(PolyvsiError):
    """The continuation base case failed to converge from the flat start."""


class StepLimitReached(PolyvsiError):
    """Continuation hit the step budget before finding a fold (strict mode).

    The partial trace is attached as ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ParseError(PolyvsiError):
    """A grid file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(PolyvsiError):
    """A parsed grid violates the modeling hypotheses.

    ``violations`` holds the individual findings.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"{len(self.violations)} parameter violation(s): {lines}")


class MissingData(PolyvsiError):
    """A bundled data file or named entry inside one is absent."""
