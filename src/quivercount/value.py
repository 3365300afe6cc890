"""One base class, `Value`, for the package's immutable value classes.

A value class lists its fields in `__slots__` and stores them with one
`_set` call from `__init__`; no attribute can be set or deleted
afterwards.  Equality (with instances of the same class only), hashing and
the dataclass-style `repr` run over the public slots, the names without a
leading underscore: a private slot holds a cache or a value derived from
the others, so it takes no part in what the value is.  `QPoly`,
`RationalFunction` and `Series` compare equal to the scalars they coerce,
so they define those three themselves and take only the immutability from
here.
"""


class Value:
    """An immutable value whose public slots are its fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
