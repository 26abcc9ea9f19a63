"""GF(2) linear algebra on word-packed rows.

A binary matrix is stored as a list of Python ints, one per row, where bit j
of a row int is the entry in column j.  Python's arbitrary-precision ints act
as bitsets, so elimination is a handful of XORs per row regardless of width.
The constructions need the rank (a code's redundancy in bits) and the
systematic TE encoder the reduced row-echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of the matrix whose rows are the given bitset ints."""
    basis: List[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
    return len(basis)


def gf2_row_reduce(rows: Sequence[int], ncols: int) -> Tuple[List[int], List[int]]:
    """Reduced row-echelon form.

    Returns (reduced_rows, pivot_cols); zero rows are dropped.  Pivot search
    runs left to right over column indices 0..ncols-1.
    """
    work = [r for r in rows]
    pivots: List[int] = []
    reduced: List[int] = []
    row_idx = 0
    for col in range(ncols):
        mask = 1 << col
        pivot = None
        for r in range(row_idx, len(work)):
            if work[r] & mask:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and (work[r] & mask):
                work[r] ^= work[row_idx]
        pivots.append(col)
        row_idx += 1
    reduced = [r for r in work[:row_idx]]
    return reduced, pivots


@dataclass(frozen=True)
class BitMatrix:
    """Immutable binary matrix; rows are bitset ints (bit j = column j)."""

    nrows: int
    ncols: int
    rows: Tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        limit = 1 << self.ncols
        if any(r < 0 or r >= limit for r in self.rows):
            raise ValueError("row has bits outside the declared width")

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        nrows = len(entries)
        ncols = len(entries[0]) if entries else 0
        rows = []
        for row in entries:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            rows.append(sum((int(v) & 1) << j for j, v in enumerate(row)))
        return cls(nrows, ncols, tuple(rows))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        """Column j packed as an int (bit i = row i)."""
        return sum(self.entry(i, j) << i for i in range(self.nrows))

    def columns(self) -> List[int]:
        return [self.column(j) for j in range(self.ncols)]

    def rank(self) -> int:
        return gf2_rank(self.rows)
