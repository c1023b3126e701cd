"""The base of the package's immutable value types.

A value class lists its fields in order in `_fields` and sets them in its
own `__init__` with `self.__dict__.update(...)`.  `Value` gives what a
frozen dataclass would: equality within one class only (a left ray never
equals a right ray), the hash of the field tuple, the repr
`Name(field=value, ...)` and AttributeError on assignment and deletion; a
`cached_property` or a stash writes into `__dict__` and changes none of
these.  It generates no code, so it imports neither `dataclasses` nor `inspect`.

The field list is the one statement of what identifies a value: each
class builds one getter of its fields when it is defined, and takes its
`__eq__` and `__hash__` from that getter unless it writes its own.  Three
do: `points.HeteroclinicPoint` keeps its hash once computed, from the
field tuple `_values`; `rep.ExactTrace` compares and hashes its exact
total; and `operators.FiniteOperator` is unhashable (`__hash__ = None`).

Each type with a canonical form (`Sft`, `Orbit`, `PeriodicOrbitSet`, the
rays, `HeteroclinicPoint`, `AlgebraElement`) builds that form in its
constructor from any sequences it is given, and stores tuples.  Of the
types with a canonical form, `rep.ExactTrace` alone has a constructor
that trusts its input: its plain one, which the trace rows take;
`ExactTrace.from_pairs` is its checked constructor.  `operators.FiniteOperator`
has no canonical form: it checks its denominator but stores its numerators
unreduced, so its `==` compares the stored form, not the value.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        if len(cls._fields) > 1:
            def __hash__(self):
                return hash(get(self))

            cls._values = property(get)
        else:  # attrgetter of one name gives the value, not a 1-tuple
            def __hash__(self):
                return hash((get(self),))

            cls._values = property(lambda self: (get(self),))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        for name, method in (("__eq__", __eq__), ("__hash__", __hash__)):
            if name not in cls.__dict__:
                setattr(cls, name, method)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
