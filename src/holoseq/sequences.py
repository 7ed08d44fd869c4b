"""Integer sequence tables: contiguous terms starting at an offset."""

from __future__ import annotations

from typing import Iterable, Iterator

from .polynomials import _check_int, _Frozen


class SequenceTable(_Frozen):
    """Terms a(offset), a(offset+1), ..., a(offset+len-1), all exact ints."""

    _fields = ("offset", "terms")

    def __init__(self, offset: int, terms: Iterable[int]) -> None:
        _check_int("offset", offset)
        terms = tuple(terms)
        if not terms:
            raise ValueError("a sequence table needs at least one term")
        for value in terms:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"sequence terms must be ints, got {value!r}")
        self._store(offset, terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def last_index(self) -> int:
        return self.offset + len(self.terms) - 1

    def has(self, n: int) -> bool:
        return self.offset <= n <= self.last_index

    def term(self, n: int) -> int:
        if not self.has(n):
            raise IndexError(
                f"index {n} outside table range {self.offset}..{self.last_index}"
            )
        return self.terms[n - self.offset]

    def items(self) -> Iterator[tuple[int, int]]:
        for i, value in enumerate(self.terms):
            yield self.offset + i, value

    def prefix(self, n_max: int) -> SequenceTable:
        """The sub-table of indices <= n_max."""
        if n_max < self.offset:
            raise ValueError(f"prefix end {n_max} is below the offset {self.offset}")
        return SequenceTable(self.offset, self.terms[: n_max - self.offset + 1])

    def replaced(self, n: int, value: int) -> SequenceTable:
        """A copy with a(n) overwritten (handy for fault-injection checks)."""
        self.term(n)  # the IndexError outside the table
        i = n - self.offset
        return SequenceTable(self.offset, self.terms[:i] + (value,) + self.terms[i + 1 :])

