"""Plain record classes: each lists its fields in `_fields`, in constructor order, keeps them
in `__slots__` and writes its own `__init__`, so importing one runs no generated code.
`Record` compares and shows the fields; `Frozen` also hashes them and refuses assignment,
so its `__init__` sets them with `_fill` or `_set`.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state: tuple) -> None:  # `copy` and `pickle` restore each slot, past the refusal
        for name, value in state[1].items():
            _set(self, name, value)

    def _fill(self, *values: object) -> None:  # the slots, in `__slots__` order
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)
