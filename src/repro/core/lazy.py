"""Lazy decode adapters.

The packed fast paths keep states as ints; the public APIs promise lists of
:class:`~repro.petrinet.marking.Marking` / code tuples.  :class:`LazyDecodedList`
bridges the two: it wraps the packed list and decodes elements on access,
caching each decode, so consumers that never touch the dict-backed view pay
nothing for it.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, TypeVar

__all__ = ["LazyDecodedList"]

T = TypeVar("T")


class LazyDecodedList:
    """Read-only list view decoding packed elements on demand.

    Supports the sequence operations the code base uses on ``markings`` /
    ``codes`` (indexing, ``len``, iteration, containment) while sharing the
    underlying packed storage.  The wrapped list may still grow (during
    graph construction); decoded values are cached per index.
    """

    __slots__ = ("_packed", "_decode", "_cache")

    def __init__(self, words: List[int], decode: Callable[[int], T]) -> None:
        self._packed = words
        self._decode = decode
        self._cache: List[Optional[T]] = []

    def __len__(self) -> int:
        return len(self._packed)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._packed)))]
        if index < 0:
            index += len(self._packed)
        if index < 0 or index >= len(self._packed):
            raise IndexError("list index out of range")
        if index >= len(self._cache):
            self._cache.extend([None] * (len(self._packed) - len(self._cache)))
        value = self._cache[index]
        if value is None:
            value = self._decode(self._packed[index])
            self._cache[index] = value
        return value

    def __iter__(self) -> Iterator[T]:
        for index in range(len(self._packed)):
            yield self[index]

    def __contains__(self, item: object) -> bool:
        return any(value == item for value in self)

    def __repr__(self) -> str:
        return "LazyDecodedList(%d items)" % len(self._packed)
