"""Exception types shared across the package.

The CLI maps these onto exit codes: USAGE_ERRORS (InvalidInput,
GridMismatch, RefusedTooLarge) exit 2, every other ChrononLabError (the
numeric-domain errors) exits 3, I/O failures (plain OSError) exit 4.

A batched evaluation records these errors per lane in a `Lanes` instead of
raising them; called with `OnePoint` instead, it raises the error of its
first failing lane.
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
    the lanes). `ok` is True on the lanes without error. `OnePoint` takes
    the same checks and raises instead of recording.
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
        """Raise the first error recorded, as `OnePoint` raises it."""
        if self._errors:
            new, cls, message, values = self._errors[0]
            OnePoint.fail(new, cls, message, *values)


_BOOLS = (bool, np.bool_)  # a check on one point, taken by a plain `if`


class OnePoint:
    """The Lanes of a call that raises: a check raises its error at once.

    A check's condition is one bool or an array of lanes. The first check
    that fails any lane raises, with the values of its first failing lane:
    the error `Lanes(k)` and `raise_first()` give. A Python or NumPy bool
    costs one `if`, so scalar code, such as `ChrononParams`, applies the
    batched rule (`evolution.domain_check(OnePoint, ...)`) at scalar cost.
    """

    @staticmethod
    def fail(bad, cls, message: str, *values) -> None:
        if isinstance(bad, _BOOLS):
            if bad:
                raise cls(_format(message, *values))
        elif (bad := np.asarray(bad)).any():
            bad, *values = np.broadcast_arrays(bad, *values)
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise cls(_format(message, *(v[i].item() for v in values)))

    @staticmethod
    def require(valid, cls, message: str, *values) -> None:
        if isinstance(valid, _BOOLS):
            if not valid:
                raise cls(_format(message, *values))
        else:
            OnePoint.fail(~np.asarray(valid, dtype=bool), cls, message, *values)


def _format(message: str, *values) -> str:
    # a message without values is taken as it is: it may quote braces
    return message.format(*values) if values else message
