"""Exception types shared across the package.

The CLI maps these onto exit codes: USAGE_ERRORS (InvalidInput,
GridMismatch, RefusedTooLarge) exit 2, every other ChrononLabError (the
numeric-domain errors) exits 3, I/O failures (plain OSError) exit 4.
"""


class ChrononLabError(Exception):
    """Base class for all errors raised by chronon_lab."""


class InvalidInput(ChrononLabError):
    """Argument violates a precondition (non-finite entries, bad shapes, ...)."""


class GridMismatch(ChrononLabError):
    """Requested time grid is incompatible with the discrete step n*tau."""


class RefusedTooLarge(ChrononLabError):
    """Scan grid exceeds the configured point cap; nothing was computed."""


class SingularMap(ChrononLabError):
    """Step map has a (numerically) zero eigenvalue; no generator exists."""


class BranchCut(ChrononLabError):
    """Eigenvalue on the negative real axis; principal log is ill-defined."""


class UndefinedMeasure(ChrononLabError):
    """Non-Hermiticity measure evaluated on the zero matrix."""


class UndefinedRatio(ChrononLabError):
    """Im/Re ratio requested for an energy with zero real part."""


class DegenerateModes(ChrononLabError):
    """Evolution generator is degenerate; mode selection is ambiguous."""


class Overflow(ChrononLabError):
    """A valid input whose result is not finite in double precision."""


USAGE_ERRORS = (InvalidInput, GridMismatch, RefusedTooLarge)
