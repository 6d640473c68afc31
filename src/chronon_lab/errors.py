"""Exception types shared across the package.

The CLI maps these onto exit codes: USAGE_ERRORS (InvalidInput,
GridMismatch, RefusedTooLarge) exit 2, every other ChrononLabError (the
numeric-domain errors) exits 3, I/O failures (plain OSError) exit 4.

A batched evaluation records these errors per lane in a `Lanes` instead of
raising them; its one-point wrappers raise the error of their one lane.
"""

import numpy as np


class ChrononLabError(Exception):
    """Base class for all errors raised by chronon_lab."""


class InvalidInput(ChrononLabError):
    """Argument violates a precondition (non-finite entries, bad shapes, ...)."""


class GridMismatch(ChrononLabError):
    """Requested time grid is incompatible with the discrete step n*tau."""


class RefusedTooLarge(ChrononLabError):
    """A scan grid or a trajectory exceeds its row cap; nothing was computed."""


class SingularMap(ChrononLabError):
    """Step map has a (numerically) zero eigenvalue; no generator exists."""


class UndefinedRatio(ChrononLabError):
    """Im/Re ratio requested for an energy with zero real part."""


class DegenerateModes(ChrononLabError):
    """Evolution generator is degenerate; mode selection is ambiguous."""


class Overflow(ChrononLabError):
    """A valid input whose result is not finite in double precision."""


USAGE_ERRORS = (InvalidInput, GridMismatch, RefusedTooLarge)


class Lanes:
    """The status of each lane of a batched evaluation of n points.

    `fail(bad, cls, message, *values)` records error class `cls` on the
    lanes where `bad` holds and that have not failed yet, so every lane
    keeps the first error of the checks in the order they are made, as a
    scalar evaluation raises its first error; `require(valid, ...)` fails
    the lanes where `valid` does not hold. `message` is formatted with the
    lane's element of each of `values` (arrays or scalars, broadcast over
    the lanes). `ok` is True on the lanes without error.
    """

    def __init__(self, n: int):
        self.ok = np.ones(n, dtype=bool)
        self._errors = []  # (lanes first failed here, cls, message, values)

    def fail(self, bad, cls, message: str, *values) -> None:
        new = np.asarray(bad) & self.ok
        if new.any():
            self.ok &= ~new
            self._errors.append((new, cls, message, values))

    def require(self, valid, cls, message: str, *values) -> None:
        self.fail(~np.asarray(valid, dtype=bool), cls, message, *values)

    def status(self) -> np.ndarray:
        """'ok' or the error class name of each lane, as an object array
        whose cells of one status are one str object."""
        index = np.zeros(self.ok.shape, dtype=np.intp)
        for i, (new, _, _, _) in enumerate(self._errors, 1):
            index[new] = i
        names = ["ok"] + [cls.__name__ for _, cls, _, _ in self._errors]
        return np.array(names, dtype=object)[index]

    def raise_first(self) -> None:
        """Raise the first error recorded, with the values of its first lane:
        the error of a one-point evaluation, and of a one-matrix call over
        many scales the error its first failing check would raise."""
        if self._errors:
            new, cls, message, values = self._errors[0]
            i = int(np.argmax(new))
            raise cls(_format(message, *(
                np.broadcast_to(v, new.shape)[i].item() for v in values)))


class OnePoint:
    """The Lanes of one point of Python scalars: a check raises its error at
    once, without arrays. Scalar code passes it to a lane check, such as
    `evolution.chronon_check(OnePoint, ...)`, to apply the batched rule at
    scalar cost."""

    @staticmethod
    def fail(bad, cls, message: str, *values) -> None:
        if bad:
            raise cls(_format(message, *values))

    @staticmethod
    def require(valid, cls, message: str, *values) -> None:
        if not valid:
            raise cls(_format(message, *values))


def _format(message: str, *values) -> str:
    # a message without values is taken as it is: it may quote braces
    return message.format(*values) if values else message
