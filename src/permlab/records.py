"""Value semantics for the library's immutable records."""

from __future__ import annotations


class FrozenRecord:
    """Base of a class whose fields are its `__slots__`, set once by
    `_freeze`. Records with equal fields are equal and hash alike, assigning
    to or deleting a field raises AttributeError, and copy, pickle and repr
    go through the fields. `_freeze` also keeps the fields as one tuple, so
    that equality and hashing, which run whenever a record is a cache key,
    read no field by name."""

    __slots__ = ("_values",)

    def _freeze(self, *values: object) -> None:
        setattr_ = object.__setattr__
        for name, value in zip(self.__slots__, values):
            setattr_(self, name, value)
        setattr_(self, "_values", values)

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __reduce__(self):
        return self.__class__, self._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{self.__class__.__name__}({fields})"
