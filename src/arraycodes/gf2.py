"""GF(2) linear algebra on word-packed columns.

A binary matrix is stored as a list of Python ints, one per column (a
parity-check column, or a code coordinate), where bit b of a column int is
the entry in parity row b.  Python's arbitrary-precision ints act as
bitsets, so elimination is a handful of XORs per vector regardless of
width.  One elimination kernel, `gf2_relations`, gives both what the
constructions need: the rank (a code's redundancy in bits) and the
dependencies among the columns, from which the systematic TE encoder reads
its message cells and generator images.  `transpose` turns field-valued
parity rows into columns, and `xor_table` builds the syndrome and encoder
lookup tables.
"""

from __future__ import annotations

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
    """Rank over GF(2) of the given bitset ints."""
    return len(vectors) - len(gf2_relations(vectors))


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
