"""GF(2) linear algebra on word-packed rows.

A binary matrix is stored as a list of Python ints, one per row, where bit j
of a row int is the entry in column j.  Python's arbitrary-precision ints act
as bitsets, so elimination is a handful of XORs per row regardless of width.
The constructions need the rank (a code's redundancy in bits), the
systematic TE encoder the reduced row-echelon form, and both the transpose
between parity-check rows and per-coordinate columns.
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


def transpose(vectors: Sequence[int], width: int) -> List[int]:
    """The same bit matrix read the other way: bit k of output j is bit j of
    vectors[k], for j < width (every vector is below 2^width)."""
    out = [0] * width
    for k, vec in enumerate(vectors):
        while vec:
            low = vec & -vec
            out[low.bit_length() - 1] |= 1 << k
            vec ^= low
    return out


def xor_table(vectors: Sequence[int]) -> List[int]:
    """table[v] = XOR of vectors[b] over the set bits b of v, one XOR per
    entry (2^len(vectors) entries)."""
    table = [0]
    for vec in vectors:
        table += [t ^ vec for t in table]
    return table


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

    def columns(self) -> List[int]:
        """Column j packed as an int (bit i = row i), for every j."""
        return transpose(self.rows, self.ncols)
