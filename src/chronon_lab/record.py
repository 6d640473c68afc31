"""Base class of the package's immutable value records.

A plain class, so that importing the package generates and runs no code:
dataclasses would build each record's methods as source text and `exec` it
at every start-up.
"""

_set = object.__setattr__


class Record:
    """A record whose fields are its `__slots__`, set once by `__init__`.

    `Record.__init__` takes the field values by position or by name and
    raises TypeError on a missing, repeated or unknown field: a record
    without checks needs no `__init__`, one with checks passes its checked
    values on. Assigning or deleting an attribute afterwards raises
    AttributeError. Records print, compare, hash and pickle by their field
    values.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        slots = self.__slots__
        if named:  # an unknown name, or one given by position too, is extra
            rest = slots[len(values):]
            if extra := named.keys() - set(rest):
                raise TypeError(f"{type(self).__name__} got extra fields {sorted(extra)}")
            values = (*values, *(named[f] for f in rest if f in named))
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} fields "
                            f"({', '.join(slots)}), got {len(values)}")
        for field, value in zip(slots, values):
            _set(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()
