"""Integer sequence tables: contiguous terms starting at an offset, whole or in windows."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

# New terms per table of ``windows``; a walk holds about one window at a time.
_WINDOW = 256


@dataclass(frozen=True)
class SequenceTable:
    """Terms a(offset), a(offset+1), ..., a(offset+len-1), all exact ints."""

    offset: int
    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.offset, int):
            raise TypeError("offset must be an int")
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a sequence table needs at least one term")
        for value in terms:
            if not isinstance(value, int):
                raise TypeError(f"sequence terms must be ints, got {value!r}")
        object.__setattr__(self, "terms", terms)

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
        if not self.has(n):
            raise IndexError(
                f"index {n} outside table range {self.offset}..{self.last_index}"
            )
        i = n - self.offset
        return SequenceTable(self.offset, self.terms[:i] + (value,) + self.terms[i + 1 :])


def windows(entries: Iterable[tuple[int, int]], carry: int) -> Iterator[SequenceTable]:
    """Tables of the consecutive (n, a(n)) ``entries``, _WINDOW (256) new terms each but the
    last, each led by the ``carry`` terms before its new ones (all of them, if fewer)."""
    entries = iter(entries)
    carried: tuple[int, ...] = ()
    for n, value in entries:
        new = (value, *(term for _, term in islice(entries, _WINDOW - 1)))
        table = SequenceTable(n - len(carried), carried + new)
        carried = table.terms[max(0, len(table) - carry) :]
        yield table
        del new, table  # hold no window while the next one is read
