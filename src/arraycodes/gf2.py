"""GF(2) linear algebra on word-packed columns.

A binary matrix is stored as a list of Python ints, one per column (a
parity-check column, or a code coordinate), where bit b of a column int is
the entry in parity row b.  Python's arbitrary-precision ints act as
bitsets, so elimination is a handful of XORs per vector regardless of
width.  `gf2_relations` gives the dependencies among the columns, from
which the systematic TE encoder reads its message cells and generator
images; `gf2_rank` (a code's redundancy in bits) runs the same lowest-bit
echelon without tags and stops once the basis spans every bit the columns
use.  `xor_table` builds the syndrome and encoder lookup tables.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import List, Sequence, Tuple


def gf2_relations(vectors: Sequence[int]) -> List[int]:
    """The linear dependencies among the vectors, one per vector that lies
    in the span of the vectors before it.

    One pass of a lowest-bit echelon: each basis vector is tagged with the
    earlier vectors that XOR to it (bit k = vectors[k]), so a vector that
    reduces to 0 yields its own bit plus the bits of the earlier vectors it
    equals the XOR of.  The top bit of a relation is its vector's index, and
    only independent vectors appear below it, so the relations are a basis
    of the null space: there are len(vectors) - rank of them.
    """
    basis: List[Tuple[int, int, int]] = []   # (pivot bit, vector, tag)
    relations: List[int] = []
    for k, vec in enumerate(vectors):
        tag = 1 << k
        for low, b, t in basis:
            if vec & low:
                vec ^= b
                tag ^= t
        if vec:
            basis.append((vec & -vec, vec, tag))
        else:
            relations.append(tag)
    return relations


def gf2_rank(vectors: Sequence[int]) -> int:
    """Rank over GF(2) of the given non-negative bitset ints.

    The lowest-bit echelon of `gf2_relations` without tags.  Every vector
    lies in the span of the bits set in the OR of all of them, so the pass
    stops as soon as the basis holds that many vectors.
    """
    width = reduce(or_, vectors, 0).bit_count()
    basis: List[Tuple[int, int]] = []   # (pivot bit, vector)
    for vec in vectors:
        if len(basis) == width:
            break
        for low, b in basis:
            if vec & low:
                vec ^= b
        if vec:
            basis.append((vec & -vec, vec))
    return len(basis)


def xor_table(vectors: Sequence[int]) -> List[int]:
    """table[v] = XOR of vectors[b] over the set bits b of v, one XOR per
    entry (2^len(vectors) entries)."""
    table = [0]
    for vec in vectors:
        table += [t ^ vec for t in table]
    return table
