"""Immutable value records: slotted classes compared and hashed by value.

A subclass names its fields in ``__slots__``.  It is built from them in
order, equals a record of its own type with equal fields, hashes the field
tuple and refuses assignment.  Pickle and deepcopy rebuild it through the
constructor, with the fields as positional arguments.  Nothing is generated
at class creation: the field tuple is read by one `attrgetter` per class.
"""

from operator import attrgetter


class Record:
    """Base of the immutable value records; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        cls._values = get if len(cls.__slots__) > 1 else staticmethod(lambda r: (get(r),))

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, "
                            f"{len(values)} given")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__name__}({fields})"
