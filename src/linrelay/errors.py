"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class so
that the outer optimizer and the CLI can distinguish "this parameter point is
infeasible" from "the numerics are broken".  Each class carries the CLI exit
code it maps to.
"""

EXIT_INVALID_INPUT = 2
EXIT_COLLAPSE = 3


class LinrelayError(Exception):
    """Base of the package's typed failures.

    Attributes:
        exit_code: CLI exit code for this failure: EXIT_INVALID_INPUT when
            the input has no valid answer, EXIT_COLLAPSE when the numerics
            failed on it.
    """

    exit_code = EXIT_COLLAPSE


class DomainError(LinrelayError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""

    exit_code = EXIT_INVALID_INPUT


class NonFiniteError(LinrelayError, ArithmeticError):
    """A function or a derived constant came out NaN or infinite."""


class DepthExceededError(LinrelayError, RuntimeError):
    """Adaptive quadrature could not reach tolerance within the depth cap."""


class NoBracketError(LinrelayError, ValueError):
    """The supplied interval does not bracket a sign change."""


class BracketOverflowError(LinrelayError, RuntimeError):
    """Bracket expansion ran past its growth cap without a sign change."""


class DegenerateBoundError(LinrelayError, ArithmeticError):
    """The energy-per-bit expression degenerates (0/0) at this boundary pair."""

    exit_code = EXIT_INVALID_INPUT


class NoFeasiblePointError(LinrelayError, RuntimeError):
    """Every grid point of the outer search was degenerate."""

    exit_code = EXIT_INVALID_INPUT


class ProfileMismatchError(LinrelayError, RuntimeError):
    """The cumulative integral of the A-profile disagrees with its endpoint."""


class RouteMismatchError(LinrelayError, ArithmeticError):
    """Two routes to the same closed-form quantity disagree beyond rounding."""


class DenominatorCollapseError(LinrelayError, ArithmeticError):
    """A recursion denominator that must stay positive fell below tolerance."""


class FactorizationFailureError(LinrelayError, ArithmeticError):
    """A matrix that must be positive definite failed its factorization."""


class RootNotConvergedError(LinrelayError, RuntimeError):
    """A bracketed root search ran out of iterations before its tolerance."""
