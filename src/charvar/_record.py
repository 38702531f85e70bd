"""Immutable record classes without generated code.

A record's own __init__ validates and stores its fields in vars(self),
where functools.cached_property keeps its values too; every assignment
after that raises AttributeError.  A Value record also compares and
hashes by the field tuple its _key() returns.
"""

from __future__ import annotations

__all__ = ["Frozen", "Value"]


class Frozen:
    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Value(Frozen):
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())
