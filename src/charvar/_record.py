"""Immutable record classes without generated code, and the facts kept
with them.

A record's own __init__ validates and stores its fields in vars(self),
where functools.cached_property keeps its values too; every assignment
after that raises AttributeError.  A Value record also compares and
hashes by the field tuple its _key() returns.

kept() stores a value derived from a record beside its fields, keyed by
whatever else the value depends on (an embedding, a rank policy), so it
is computed once and lives exactly as long as the record does.  A kept
value is shared by every later caller, so its arrays are made read-only
with frozen().
"""

from __future__ import annotations

__all__ = ["Frozen", "Value", "frozen", "kept"]


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


def frozen(array):
    """array, made read-only in place."""
    array.flags.writeable = False
    return array


def kept(owner, key, make):
    """make(), computed on the first call for this owner and key and read
    back on every later one."""
    facts = vars(owner).setdefault("_facts", {})
    if key not in facts:
        facts[key] = make()
    return facts[key]
