"""Immutable value types with slots.

`Value` gives a subclass the constructor, equality, hash and repr of a frozen
dataclass without the per-class code generation of `dataclasses` at import or
the cost of its frozen `__init__` per object. A subclass declares its fields
once, in __slots__.
"""

from __future__ import annotations

from operator import attrgetter

#: How a subclass __init__ sets its slots, since assignment to an instance raises.
init_field = object.__setattr__


class Value:
    """Base of the package's immutable value types.

    A subclass lists its slots in __slots__, and Value(*fields) takes one
    value per slot, by position and in slot order. A subclass keeps its own
    __init__, setting its slots with init_field, only where it does work:
    checking or converting input, giving defaults, or speed on a hot path.
    Its fields are its slots, unless it names them in _fields (which may be
    properties). Instances are equal when they are of the same class with
    equal fields; the hash is that of the tuple of fields and the repr is
    Name(field=value, ...), as for a frozen dataclass.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))
        # each slot's member-descriptor setter, which skips the attribute
        # lookup of init_field by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *fields):
        setters = self._setters
        if len(fields) != len(setters):
            slots = self.__slots__
            raise TypeError(
                f"{self.__class__.__qualname__}({', '.join(slots)}) takes"
                f" {len(slots)} values, got {len(fields)}"
            )
        for set_field, value in zip(setters, fields):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values(self))
