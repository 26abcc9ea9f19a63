"""Varshamov-Tenengolts codes with a power-of-two modulus.

VT_a(L) here is the set of binary words x of length L whose weighted sum
sum_j j*x_j is congruent to a modulo 2^h, h = ceil(log2(L+1)).  Every coset
corrects a single deletion with the classic VT reinsertion rule, and the
power-of-two modulus admits a systematic encoder whose redundancy sits at
the positions {1, 2, 4, ..., 2^(h-1)}.

The kernels work on rows as bitset ints, bit j-1 holding position j, as
the array types store them.  The weighted sum sum_j j*x_j is read from one
table of all 16-bit values for rows of at most 32 positions (h <= 5), and
as h masked popcounts, sum_k popcount(x & M_k) * 2^k, for longer rows.
`position_residues` gives the sum mod 2^h of every row of an array at
once, the form the syndromes of `arraycodes.ted` take for rows of more
than 8 positions.  Up to 31 positions (h <= 5) it takes a fixed number of
C-level passes, not one Python step per row: the bytes of all rows are
translated at once and summed inside big ints, SWAR style (Lamport,
"Multiple byte processing with full-word instructions", CACM 1975).  A
row's sum is sum_k S(b_k) + 8k * popcount(b_k) over its bytes b_k, S the
position sum of a byte value; each row is an 8-byte word with an empty
high half, and two multiplies add its translated bytes into one byte of
the word.  Longer rows are summed one at a time.  That kernel is
`_word_sums`, on the packed words; its callers are `position_residues`,
which `TedCode` calls for the symbols of received and intact rows, and
the lane encoder of `TedCode`, which sums its systematic and its parity
rows in 64-bit lanes with it.  For rows of at most 8 positions the symbol
table of `TedCode._byte_rows` is read from `_BYTE_SUM`, the position sums
of all 256 byte values, and `_LOW_BITS`.

`vt_insert` is the single-deletion repair for a given deficiency D, the
residue the reinserted bit must add; `vt_decode_int` computes D from the
received bits and a target residue.  `TedCode` reads D off the outer
symbols, whose received residues it already holds, so no repair sums the
received row a second time.  A deleted 0 or 1 alike goes back just above
the k-th lowest one of a row, so one select serves both: it skips whole
bytes by their popcounts and reads the index from `_SELECT8`, and it ends
because 0 <= D <= L keeps k within that row's ones.  For rows of at most
8 positions `_insert_table(L)`, built once per L from `vt_insert`, holds
the repair of every received row at every D < 2^h, None where D > L, for
`TedCode._byte_rows`; longer rows call `vt_insert`.

The systematic encoder's data bits sit on the non-power positions, in
runs 2^i + 1 .. 2^(i+1) - 1 between the powers, and its redundancy on the
powers.  `_placement(h)` states that rule once, for every h, as a few
(mask, shift) pairs: a run of data bits moves up by one shift onto its
positions and back down by the same shift, and each deficiency bit moves
up onto its power.  `vt_encode_int` applies them to one row; `TedCode`
spreads them over whole arrays, to place the data and redundancy of every
parity row in its 64-bit lanes at once, and to gather every parity row's
data back in `message_of`.  Rows of at most 8 positions are bytes, so
`_encode_table(L)`, built once per L from `vt_encode_int`, holds every
codeword of such a row at its data and residue, for `TedCode._byte_rows`.

`vt_decode` and `vt_codewords` are the list forms left, for callers that
hold rows as bit lists.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .arrays import _int_to_row, _row_to_int
from .errors import CorruptInputError

# What a single-deletion repair raises when no one-bit insertion reaches
# the deficiency it is asked for.
_NO_INSERTION = "syndrome deficiency exceeds any insertion weight"


def vt_modulus_exponent(L: int) -> int:
    """h = ceil(log2(L+1)), so 2^h is the smallest power of two > L."""
    if L < 1:
        raise ValueError("codeword length must be positive")
    return L.bit_length()


def _low_byte_sums() -> bytes:
    """Entry v: the position sum of byte value v at positions 1..8."""
    sums = [0] * 256
    for v in range(1, 256):
        # the lowest set bit's position plus the sum of the others
        sums[v] = sums[v & (v - 1)] + (v & -v).bit_length()
    return bytes(sums)


_BYTE_SUM = _low_byte_sums()

_ROTATE = bytes(range(256)) * 2


def _sums16() -> bytes:
    """Entry v: the position sum of the 16-bit value v, at most
    1 + ... + 16 = 136, so one byte each.  The entries sharing the high
    byte b are the low byte's sums shifted up by b's own sum, which one
    `translate` through a rotated identity adds."""
    return b"".join(_BYTE_SUM.translate(_ROTATE[c:c + 256])
                    for c in (s + 8 * b.bit_count() for b, s in enumerate(_BYTE_SUM)))


_SUM16 = _sums16()

# The tables of `position_residues` for rows of at most 31 positions: the
# popcount of every byte value mod 4, and each byte value mod 2^h, h <= 5.
_POPCOUNT_MOD4 = bytes(v.bit_count() & 3 for v in range(256))
_LOW_BITS = tuple(bytes(range(1 << h)) * (256 >> h) for h in range(6))
_BIG_ENDIAN = sys.byteorder == "big"


@lru_cache(maxsize=None)
def _position_masks(h: int) -> Tuple[Tuple[int, int], ...]:
    """(k, M_k) for k < h, M_k the row int of the positions j in
    1 .. 2^h - 1 with bit k set.  Over j = 0 .. 2^h - 1 bit k of j runs in
    blocks of 2^k zeros then 2^k ones; the string drops j = 0 and puts the
    highest position first, as `int(..., 2)` reads it."""
    return tuple((k, int((("0" * (1 << k) + "1" * (1 << k))
                          * (1 << (h - k - 1)))[:0:-1], 2))
                 for k in range(h))


def position_sum(x: int, h: int) -> int:
    """sum_j j*x_j of a row int with no position beyond 2^h - 1: one lookup
    of the 16-bit table up to h = 4, two up to h = 5 (the high half's
    positions offset by 16 each), and sum_k popcount(x & M_k) * 2^k
    beyond."""
    if h <= 5:
        if h <= 4:
            return _SUM16[x]
        hi = x >> 16
        return _SUM16[x & 0xFFFF] + _SUM16[hi] + 16 * hi.bit_count()
    s = 0
    for k, mask in _position_masks(h):
        s += (x & mask).bit_count() << k
    return s


def _word_sums(packed: bytes) -> int:
    """The SWAR residue kernel: `packed` holds little-endian 8-byte words,
    each a row of at most 31 positions (its high half zero), and byte 3 of
    each word of the int returned is congruent to that row's position sum
    mod 32, so mod 2^h for every h <= 5.  Its bits 0..23 and 32..63 hold
    partial sums, masked off by the caller; `position_residues` explains
    the two translates and two multiplies."""
    return (int.from_bytes(packed.translate(_BYTE_SUM), "little") * 0x01010101
            + (int.from_bytes(packed.translate(_POPCOUNT_MOD4), "little")
               * 0x00010203 << 3))


def position_residues(rows: Sequence[int], h: int) -> List[int]:
    """`position_sum` of every row mod 2^h, in a fixed number of C-level
    passes up to 31 positions (h <= 5), and one row at a time beyond.

    Up to 31 positions each row is one 8-byte word whose high half is
    zero, and its sum over its bytes b_k (k < 4) is
    sum_k S(b_k) + 8 * sum_k k * popcount(b_k).  One translate of all the
    words gives the S(b_k), and a multiply by 0x01010101 adds them into
    byte 3 of each word; one translate gives the popcounts mod 4 (with
    2^h <= 32, the term 8 * sum_k k * popcount(b_k) mod 2^h depends on
    them alone), and a multiply by 0x00010203 weights them by k into
    byte 3, then a shift by 3 bits multiplies by 8.
    Below byte 3 the first product's bytes are at most 3 * 36 = 108 and
    the shifted second's at most 8 * 18 = 144, so their sum carries
    nothing into byte 3, and both stay below 2^56, inside their words."""
    if h <= 5:
        # one 8-byte little-endian word per row
        words = array("Q", rows)
        if _BIG_ENDIAN:
            words.byteswap()
        packed = words.tobytes()
        return list(_word_sums(packed).to_bytes(len(packed), "little")[3::8]
                    .translate(_LOW_BITS[h]))
    mask = (1 << h) - 1
    return [position_sum(x, h) & mask for x in rows]


def _select8() -> bytes:
    """Entry k << 8 | b, k <= 8: the index just above the k-th lowest one
    of the byte b, the bit length of its k lowest ones; 0 at k = 0 and
    where b has fewer than k ones."""
    table = bytearray(9 << 8)
    for b in range(256):
        v = b
        for k in range(1, b.bit_count() + 1):
            table[k << 8 | b] = (v & -v).bit_length()
            v &= v - 1
    return bytes(table)


# The select within a byte, 2.25 KiB, built once at import.
_SELECT8 = _select8()

# `_placement(h)`: where the systematic encoder puts its bits.
_Placement = namedtuple("_Placement", "runs powers")


@lru_cache(maxsize=None)
def _placement(h: int) -> _Placement:
    """The systematic encoder's bit placement in rows of at most 2^h - 1
    positions, as (mask, shift) pairs, one rule at every h.

    - runs: the data positions 2^i + 1 .. 2^(i+1) - 1 of run i = 1..h-1
      hold the data bits from 2^i - i - 1 on, i + 1 below their bits.  The
      scatter of data d is the OR of (d & mask) << shift, the gather of a
      row x the OR of x >> shift & mask.  The last run's mask reaches
      position 2^h - 1 whatever the row's length, so a gather over rows
      packed at stride L cuts each mask to the row (`TedCode._parity_gather`).
    - powers: deficiency bit i goes to position 2^i, bit 2^i - 1; bits 0
      and 1 stay where they are."""
    runs = tuple(((1 << (1 << i) - 1) - 1 << (1 << i) - i - 1, i + 1) for i in range(1, h))
    powers = (((1 << min(h, 2)) - 1, 0),) + tuple((1 << i, (1 << i) - 1 - i)
                                                   for i in range(2, h))
    return _Placement(runs, powers)


def vt_insert(y: int, deficiency: int, L: int) -> int:
    """Insert one bit into y, the L-1 received bits of a row, that raises
    its position sum by `deficiency` (0 <= deficiency < 2^h).

    Bit i of a row is position i + 1, and inserting a bit at index pos
    moves every bit at or above pos up one position.  Let w be the weight
    of y and D the deficiency.  For D <= w, a 0 inserted above the k = w - D
    lowest ones raises the sum by the D ones above it.  Otherwise a 1
    inserted above the k = D - w - 1 lowest zeros raises it by its own
    position, k + (ones below) + 1, plus the w - (ones below) ones above:
    w + k + 1 = D.  Both go at the bit length of the k lowest ones of a row
    v, y or its zeros below L - 1.  The select ends because k never exceeds
    the ones of v: D >= 0 bounds w - D by w, and y has L - 1 - w zeros, at
    least D - w - 1 exactly when D <= L.  No insertion raises the sum by
    more than L, so D > L raises CorruptInputError; D < 0 raises ValueError.
    """
    if deficiency > L:
        raise CorruptInputError(_NO_INSERTION)
    if deficiency < 0:
        raise ValueError("deficiency must be non-negative")
    w = y.bit_count()
    if deficiency <= w:
        bit, v, k = 0, y, w - deficiency
    else:
        bit, v, k = 1, ~y & ((1 << (L - 1)) - 1), deficiency - w - 1
    pos = 0
    c = (v & 0xFF).bit_count()
    while k > c:
        v >>= 8
        k -= c
        pos += 8
        c = (v & 0xFF).bit_count()
    pos += _SELECT8[k << 8 | v & 0xFF]
    # adding y's bits at or above pos to y doubles them: a shift up by one
    return y + (y >> pos << pos) | bit << pos


@lru_cache(maxsize=None)
def _insert_table(L: int) -> Tuple[Optional[int], ...]:
    """Entry D << (L-1) | y: `vt_insert(y, D, L)`, for rows of at most 8
    positions; 2^h * 2^(L-1) entries, D < 2^h and y < 2^(L-1), 2,048 at
    L = 8.  None marks a D > L, where `vt_insert` raises CorruptInputError
    with `_NO_INSERTION`.  `TedCode.decode` reads each repaired row from it."""
    table: List[Optional[int]] = []
    for deficiency in range(1 << L.bit_length()):
        if deficiency > L:
            table += [None] * (1 << (L - 1))
        else:
            table += [vt_insert(y, deficiency, L) for y in range(1 << (L - 1))]
    return tuple(table)


def vt_decode_int(y: int, a: int, L: int) -> int:
    """Row-int form of `vt_decode`: y holds the L-1 received bits, and the
    insertion raises their position sum by D = (a - position_sum(y)) mod
    2^h, so the output has residue a and no check follows."""
    h = L.bit_length()
    return vt_insert(y, (a - position_sum(y, h)) % (1 << h), L)


def vt_decode(y: Sequence[int], a: int, L: int) -> List[int]:
    """Recover the VT_a(L) codeword from which one bit of y was deleted.

    With received weight w and deficiency D = (a - syndrome(y)) mod 2^h:
    a deleted 0 has exactly D ones to its right, a deleted 1 has D - w - 1
    zeros to its left.  Raises CorruptInputError when no consistent
    reinsertion exists.
    """
    if len(y) != L - 1:
        raise ValueError("input must be one bit short of the codeword length")
    return _int_to_row(vt_decode_int(_row_to_int(y), a, L), L)


def vt_encode_int(data: int, a: int, L: int) -> int:
    """Place the L-h data bits of `data` (data < 2^(L-h)) on the non-power
    positions and fix the syndrome to a.

    The power positions start at 0 and then position 2^i receives bit i of
    the deficiency (a - partial syndrome) mod 2^h; the weights 1, 2, ...,
    2^(h-1) represent every residue exactly once, so one pass suffices.
    Both steps are the masked shifts of `_placement(h)`.
    """
    h = L.bit_length()
    runs, powers = _placement(h)
    x = 0
    for mask, shift in runs:
        x |= (data & mask) << shift
    deficiency = (a - position_sum(x, h)) & ((1 << h) - 1)
    for mask, shift in powers:
        x |= (deficiency & mask) << shift
    return x


@lru_cache(maxsize=None)
def _encode_table(L: int) -> bytes:
    """Entry d << h | a: `vt_encode_int(d, a, L)`, for rows of at most 8
    positions, whose codewords are bytes; 2^L entries, d < 2^(L-h) and
    a < 2^h.  `TedCode.encode` reads each parity row from it."""
    h = L.bit_length()
    low = (1 << h) - 1
    return bytes(vt_encode_int(v >> h, v & low, L) for v in range(1 << L))


def vt_codewords(L: int, a: int):
    """Yield every codeword of VT_a(L) (exponential; for exhaustive tests)."""
    h = vt_modulus_exponent(L)
    target = a % (1 << h)
    for value in range(1 << L):
        if position_sum(value, h) & ((1 << h) - 1) == target:
            yield _int_to_row(value, L)
