"""The frozen behaviour of the package's slotted value types, written once.

A subclass lists its fields in ``__slots__`` and sets them in its own
``__init__`` with ``object.__setattr__``, or, in a constructor called in a hot
loop, through the slot descriptors bound once after the class (``_set_value =
Num.value.__set__``), which skips the attribute lookup; either way the
instance stays immutable, as ``__setattr__`` raises.  Slots named with a
leading "_" hold derived data, left out of repr, == and hash.  Nothing is
generated when a class is defined, unlike ``dataclasses``, which costs
milliseconds per class.
"""

class Record:
    """Immutable record: repr, == and hash from the fields, in the forms a frozen dataclass gives."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(n for n in cls.__dict__.get("__slots__", ()) if not n.startswith("_"))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __reduce__(self):  # for copy and pickle, which would set the slots through __setattr__
        slots = (n for c in type(self).__mro__ for n in c.__dict__.get("__slots__", ()))
        return _rebuild, (type(self), {n: getattr(self, n) for n in slots})


def _rebuild(cls: type, state: dict) -> Record:
    obj = object.__new__(cls)
    for name, value in state.items():
        object.__setattr__(obj, name, value)
    return obj
