"""Data model for n x L binary arrays, erasure patterns and channel outputs.

Rows are stored as bitset ints with bit (j-1) holding position j, matching
the 1-indexed position convention used throughout (position 1 is the first
symbol of a row, position L the last; tail erasures remove a suffix).

The encoders build a codeword, or read a message, as one int of n rows
packed at stride L.  `_split_rows` cuts it into its rows and `_join_rows`
packs them back, both in O(n L log n) bit operations, where one shift of
the whole int per row costs O(n^2 L); up to 8 rows, where that is cheaper,
they still shift once per row.  The rows move into lanes of W bits,
W the smallest of 8, 16, 32 and 64 that holds L (8 * ceil(L / 8) for
longer rows), in ceil(log2 n) masked shifts (`_to_lanes`; Warren,
Hacker's Delight, 7-4 and 7-5), and then one little-endian struct reads
the lanes, or one `int.from_bytes` per lane past 64 bits (`_read_lanes`).
The masks are built by doubling a block, one per step, and kept for the
last few shapes.  The moves are linear over GF(2), so the TE encoder
moves its generator images into lanes once and reads each codeword,
the XOR of moved images, with `_read_lanes` alone.  The TED/DC encoder
of rows of 9 to 31 positions asks `_lanes` for 64-bit lanes instead, the
words its SWAR residue kernel reads.

Every channel applies an instance as a check, `_check_instance`, which
raises or returns nothing, and then the erase and delete arithmetic,
`_cut`, which checks nothing and masks only the rows a pattern erases.
`_damage` is the two in a row.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, groupby, repeat
from struct import Struct
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InvalidInputError


# bytes 0 and 1 -> the digits "0" and "1", every other byte -> "2", which
# int(..., 2) rejects; and the digits back to bytes 0 and 1
_PACK = b"01" + b"2" * 254
_UNPACK = bytes.maketrans(b"01", b"\x00\x01")


def _row_to_int(bits: Sequence[int]) -> int:
    """Pack bits (0/1 ints or bools) into a row int, bits[0] lowest, in one
    pass that also checks them: any other int raises ValueError, and an
    entry that is no int TypeError."""
    try:
        # ValueError outside 0..255.  bytearray() would read a buffer such
        # as array.array as raw bytes, so only lists and tuples go in as is.
        packed = bytearray(bits if isinstance(bits, (list, tuple)) else list(bits))
        packed.reverse()
        return int(packed.translate(_PACK) or b"0", 2)
    except ValueError:
        raise ValueError("row entries must be 0 or 1") from None


def _int_to_row(value: int, length: int) -> List[int]:
    """The low `length` bits of value as a list, lowest first."""
    return list(_row_text(value, length).encode().translate(_UNPACK))


def _row_text(value: int, length: int) -> str:
    """The low `length` bits of value as 0/1 text, position 1 first."""
    return f"{value:0{length}b}"[::-1][:length]


def _text_row(text: str) -> int:
    """The row int of 0/1 text, position 1 first (the empty text is 0)."""
    return int(text[::-1] or "0", 2)


def _cell_gather(cells: Iterable[int], L: int) -> List[Tuple[int, int, List[Tuple[int, ...]]]]:
    """(row, shift, table) per chunk of at most 8 of `cells`, the flat
    indices i * L + position - 1 of a message's cells in message order,
    that share row i and the byte of the row from bit `shift`; table[v] is
    the tuple of the message bits at those cells when that byte reads v, so
    a message is `table[rows[i] >> shift & 255]` summed over the chunks.
    Chunks with the same offsets in a byte of the same width share one
    table."""
    tables = {}
    gather = []
    for (i, shift), chunk in groupby(cells, lambda c: (c // L, c % L & ~7)):
        key = (min(8, L - shift), tuple(c % L - shift for c in chunk))
        table = tables.get(key)
        if table is None:
            # bit by bit from the lowest: a message cell's bit doubles the
            # table with the bit appended to each tuple, any other repeats it
            width, offsets = key
            table = [()]
            for j in range(width):
                table = ([t + (0,) for t in table] + [t + (1,) for t in table]
                         if j in offsets else table * 2)
            tables[key] = table
        gather.append((i, shift, table))
    return gather


def _check_int_fields(**fields) -> None:
    """TypeError naming the first of the fields, in order, that is no int,
    a bool or a float included, as `TedCode` checks its own."""
    for name, v in fields.items():
        if type(v) is not int:
            raise TypeError(f"{name} must be an int, got {type(v).__name__}")


@dataclass(frozen=True)
class BitArray:
    """A dense n x L binary array."""

    n: int
    L: int
    rows: Tuple[int, ...]

    def __post_init__(self):
        _check_int_fields(n=self.n, L=self.L)
        # Any sequence of ints is kept as a tuple of ints, so that equal
        # arrays compare and hash alike; an entry that is no int raises
        # TypeError.
        rows = tuple(map(operator.index, self.rows))
        object.__setattr__(self, "rows", rows)
        if self.n < 0 or self.L < 0:
            raise ValueError("array dimensions must be non-negative")
        if len(rows) != self.n:
            raise ValueError("row count mismatch")
        if rows and (min(rows) < 0 or max(rows) >> self.L):
            raise ValueError("row value exceeds declared length")

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "BitArray":
        n = len(entries)
        L = len(entries[0]) if n else 0
        for row in entries:
            if len(row) != L:
                raise ValueError("all rows must have the same length")
        return cls(n, L, tuple(_row_to_int(r) for r in entries))

    def to_lists(self) -> List[List[int]]:
        return [_int_to_row(r, self.L) for r in self.rows]

    def row_bits(self, i: int) -> List[int]:
        return _int_to_row(self.rows[i - 1], self.L)


def _check_bit_array(x, n: int, L: int) -> None:
    """The argument check of a function that reads an n x L BitArray:
    TypeError for an argument of another type, ValueError for a BitArray
    of another shape."""
    if not isinstance(x, BitArray):
        raise TypeError(f"expected a BitArray, got {type(x).__name__}")
    if (x.n, x.L) != (n, L):
        raise ValueError(f"expected a BitArray of shape {n} x {L}, got {x.n} x {x.L}")


def _check_received(received, name: str, n: int, L: int) -> None:
    """The argument check of a decoder, `name`, of n x L arrays:
    InvalidInputError for an argument that is no RaggedArray or is one of
    another shape."""
    if not isinstance(received, RaggedArray):
        raise InvalidInputError(f"{name} decodes a RaggedArray, got {type(received).__name__}")
    if received.n != n or received.L != L:
        raise InvalidInputError(f"{name} decodes {n} x {L} arrays, "
                                f"got {received.n} x {received.L}")


@dataclass(frozen=True)
class RaggedArray:
    """Channel output: row i lost lost[i] of its L positions, and rows[i]
    holds its L - lost[i] surviving bits packed low.  Tail erasures take
    the last positions of a row, deletions take positions from inside it;
    both leave a short row, which the decoders treat alike."""

    n: int
    L: int
    rows: Tuple[int, ...]
    lost: Tuple[int, ...]

    def __post_init__(self):
        _check_int_fields(n=self.n, L=self.L)
        # tuples of ints, as `BitArray` keeps its rows
        object.__setattr__(self, "rows", tuple(map(operator.index, self.rows)))
        object.__setattr__(self, "lost", tuple(map(operator.index, self.lost)))
        if len(self.rows) != self.n or len(self.lost) != self.n:
            raise ValueError("row count mismatch")
        for r, k in zip(self.rows, self.lost):
            if k < 0 or k > self.L:
                raise ValueError("row length out of range")
            if r >> (self.L - k):
                raise ValueError("bits beyond the row's surviving length")

    def to_lists(self) -> List[List[int]]:
        return [_int_to_row(r, self.L - k) for r, k in zip(self.rows, self.lost)]


# The unchecked constructors: an instance with its fields written straight
# into its dict, skipping `__post_init__`.  Internal only: the library uses
# them where it builds rows valid by construction; every public path (the
# constructors, `BitArray.from_lists`, the text parsers) keeps its checks.

def _bit_array(n: int, L: int, rows: Tuple[int, ...]) -> BitArray:
    obj = object.__new__(BitArray)
    fields = obj.__dict__
    fields["n"] = n
    fields["L"] = L
    fields["rows"] = rows
    return obj


def _ragged_array(n: int, L: int, rows: Tuple[int, ...], lost: Tuple[int, ...]) -> RaggedArray:
    obj = object.__new__(RaggedArray)
    fields = obj.__dict__
    fields["n"] = n
    fields["L"] = L
    fields["rows"] = rows
    fields["lost"] = lost
    return obj


# --- the row-split kernel ---------------------------------------------------

def _repeat(block: int, stride: int, count: int) -> int:
    """`count` copies of `block` at a stride of `stride` bits, by doubling:
    O(log count) ORs, where one OR per copy would cost quadratic time."""
    out = done = 0
    while count:
        if count & 1:
            out |= block << done
            done += stride
        block |= block << stride
        stride <<= 1
        count >>= 1
    return out


# Shapes whose split plan is kept: a codec splits at one or two shapes, and
# the plan of n rows of L bits holds about n L ceil(log2 n) bits.
_PLANS = 8


# A row-split plan, (size, words, low, steps): see `_lanes`.
_Plan = Tuple[int, Struct, int, Tuple[Tuple[int, int], ...]]


@lru_cache(maxsize=_PLANS)
def _lanes(n: int, L: int, W: Optional[int] = None) -> _Plan:
    """(size, words, low, steps), the plan of the row split of n rows of L
    bits into lanes of W bits, by default the smallest of 8, 16, 32 and 64
    that holds L, else 8 * ceil(L / 8); a caller may name a wider W of
    those, as the TED/DC encoder names 64: size = W / 8, the bytes of a lane;
    words the little-endian struct of n lanes, as ints up to 64 bits and
    as byte strings past them; low the mask of the n*L bits; and one
    (mask, shift) per step k, from the highest bit k of a row index down.
    Before step k the rows of each group of 2^(k+1) rows sit at stride L
    from a lane boundary, and the step moves those with bit k set, the
    mask, up by shift = 2^k (W - L) bits.  Each mask is a block doubled
    into its copies."""
    if W is None:
        W = next((w for w in (8, 16, 32, 64) if L <= w), -(-L // 8) * 8)
    size = W >> 3
    words = Struct(f"<{n}{'BHIQ'[size.bit_length() - 1]}" if W <= 64 else f"{size}s" * n)
    steps = []
    if W > L and n > 1:
        for k in reversed(range((n - 1).bit_length())):
            half = 1 << k
            upper = (1 << half * L) - 1 << half * L
            steps.append((_repeat(upper, 2 * half * W, -(-n // (2 * half))), half * (W - L)))
    return size, words, (1 << n * L) - 1, tuple(steps)


# Up to this many rows one shift per row, O(n L) bits each, is cheaper than
# the lanes' fixed cost: a cache lookup, a struct and the steps' loop.
_FEW_ROWS = 8


def _to_lanes(flat: int, plan: _Plan) -> int:
    """The n rows of L bits packed in `flat` at stride L, moved into the
    lanes of `plan = _lanes(n, L)`: row i at bit W i.  Bits above n*L are
    ignored.  It is linear over GF(2), so it moves an XOR of flat ints to
    the XOR of their lane layouts."""
    _, _, low, steps = plan
    flat &= low
    for mask, shift in steps:
        moved = flat & mask
        flat ^= moved ^ moved << shift
    return flat


def _read_lanes(lanes: int, plan: _Plan) -> Tuple[int, ...]:
    """The rows of a lane layout of `plan = _lanes(n, L)`, as a tuple: one
    `to_bytes` and one struct unpack, with one `from_bytes` per lane past
    64 bits."""
    size, words, _, _ = plan
    rows = words.unpack(lanes.to_bytes(words.size, "little"))
    return tuple(map(int.from_bytes, rows, repeat("little"))) if size > 8 else rows


def _split_rows(flat: int, n: int, L: int) -> Tuple[int, ...]:
    """The n rows of L bits packed in `flat` at stride L, row 0 lowest, as
    a tuple; bits above n*L are ignored.  Past `_FEW_ROWS` rows the rows
    move into lanes (`_to_lanes`) and are read from there (`_read_lanes`)."""
    if n <= _FEW_ROWS:
        if not L:
            return (0,) * n
        full = (1 << L) - 1
        rows = []
        for shift in range(0, n * L, L):
            rows.append(flat >> shift & full)
        return tuple(rows)
    plan = _lanes(n, L)
    return _read_lanes(_to_lanes(flat, plan), plan)


def _join_rows(rows: Sequence[int], L: int) -> int:
    """The rows, each below 2^L, packed at stride L, row 0 lowest: the
    inverse of `_split_rows`, its steps undone from the lowest."""
    n = len(rows)
    if n <= _FEW_ROWS:
        flat = 0
        for row in reversed(rows):
            flat = flat << L | row
        return flat
    size, words, _, steps = _lanes(n, L)
    if size > 8:
        rows = [row.to_bytes(size, "little") for row in rows]
    flat = int.from_bytes(words.pack(*rows), "little")
    for mask, shift in reversed(steps):
        moved = flat >> shift & mask
        flat ^= moved ^ moved << shift
    return flat


@lru_cache(maxsize=None)
def _prefix_masks(L: int) -> Tuple[int, ...]:
    """masks[p] keeps the first L - p positions of a row, p = 0..L."""
    return tuple((1 << (L - p)) - 1 for p in range(L + 1))


# The pattern `_damage` takes for a channel that erases no tails.  It is
# not None, so a None pattern stays a wrong type like any non-sequence.
_NO_ERASURES = object()


def _check_instance(n: int, L: int, pattern, deletions, e: int, t: int, s: int) -> None:
    """Raise if the instance is not one `_cut` may apply to an n x L array
    within the budgets e, t and s; return nothing.

    It checks, in this order: the pattern (one int in 0..L per row), its
    total against the budget e, and, deletion by deletion, at most t rows,
    each named once with 1..s positions, every row and position an int in
    range, a position counted in its row once the tail erasure and the
    row's higher deleted positions are gone.  A bad value raises
    ValueError; a pattern or deletions that are no sequence raise
    TypeError."""
    if pattern is _NO_ERASURES:
        lost = (0,) * n
    else:
        if len(pattern) != n:
            raise ValueError("pattern length does not match row count")
        try:
            if n and (min(pattern) < 0 or max(pattern) > L):
                raise ValueError("per-row erasure count out of range")
            # An int array takes exactly the entries that can index a tuple.
            # array() would read bytes as raw machine words, so only lists
            # and tuples go in as is.
            lost = array("q", pattern if isinstance(pattern, (list, tuple))
                         else list(pattern))
        except TypeError:
            # an entry that does not compare with ints or is no int
            raise ValueError("per-row erasure counts must be ints") from None
        if sum(lost) > e:
            raise ValueError("instance exceeds the e budget")
    if len(deletions) > t:
        raise ValueError("too many deletion rows")
    if deletions:
        seen = set()
        add, index = seen.add, operator.index
        try:
            for row, positions in deletions:
                if row in seen:
                    raise ValueError("duplicate row in deletion instance")
                add(row)
                if not 1 <= len(positions) <= s:
                    raise ValueError("per-row deletion count out of range")
                if not 1 <= row <= n:
                    raise ValueError(f"row {row} out of range")
                length = L - lost[row - 1]
                # Last position first, as `_cut` deletes them.
                if len(positions) > 1:
                    positions = sorted(positions, reverse=True)
                for pos in positions:
                    if not 1 <= pos <= length:
                        raise ValueError(f"deletion position {pos} out of range")
                    index(pos)      # as `_cut`'s shifts need
                    length -= 1
        except TypeError:
            # a row or position that is no int, or an entry that is no pair
            raise ValueError("deletion rows and positions must be ints") from None


def _cut(x: BitArray, lost, deletions) -> RaggedArray:
    """The erase and delete arithmetic behind every channel: erase the last
    lost[i] positions of row i (none for `_NO_ERASURES`), then delete the
    1-indexed positions of each (row, positions) pair of `deletions` from
    the truncated rows.  It checks nothing: `lost` holds plain ints, and
    the instance is one that `_check_instance` passes for x's shape."""
    L = x.L
    rows = list(x.rows)
    if lost is _NO_ERASURES:
        lost = [0] * x.n
    else:
        # only the rows the pattern damages
        masks = _prefix_masks(L)
        for i in compress(range(x.n), lost):
            rows[i] &= masks[lost[i]]
        if deletions:
            lost = list(lost)
    for row, positions in deletions:
        bits, length = rows[row - 1], L - lost[row - 1]
        # Last position first, so the ones before it keep their index.
        if len(positions) > 1:
            positions = sorted(positions, reverse=True)
        for pos in positions:
            bits = (bits & ((1 << (pos - 1)) - 1)) | ((bits >> pos) << (pos - 1))
            length -= 1
        rows[row - 1], lost[row - 1] = bits, L - length
    return _ragged_array(x.n, L, tuple(rows), tuple(lost))


def _damage(x: BitArray, pattern, deletions, e: int, t: int, s: int) -> RaggedArray:
    """The checked channel: `_check_instance`, then `_cut` with the pattern
    read as plain ints, so a bool entry is lost as its int."""
    _check_instance(x.n, x.L, pattern, deletions, e, t, s)
    if pattern is not _NO_ERASURES:
        pattern = tuple(map(operator.index, pattern))
    return _cut(x, pattern, deletions)


def apply_te_pattern(x: BitArray, p: Sequence[int]) -> RaggedArray:
    """Erase the last p_i positions of each row of x: row i loses p_i."""
    return _damage(x, p, (), x.n * x.L, 0, 0)


def rho_te_row(x: int, y: int, L: int) -> int:
    """Per-row distance: L - (leftmost differing position) + 1, or 0 if equal."""
    diff = x ^ y
    if diff == 0:
        return 0
    first = (diff & -diff).bit_length()   # 1-indexed position of first difference
    return L - first + 1

def rho_te_distance(x: BitArray, y: BitArray) -> int:
    """Tail-erasure distance: sum of per-row values.

    Equals the minimum total number of tail erasures that make the two
    arrays indistinguishable; it is a metric.
    """
    if (x.n, x.L) != (y.n, y.L):
        raise ValueError("dimension mismatch")
    return sum(rho_te_row(a, b, x.L) for a, b in zip(x.rows, y.rows))


def _damaged_rows(n: int, q: Sequence[int], budget: int) -> int:
    """sum_{k <= budget} [z^k] (1 + z q(z))^n: the ways to damage n rows at
    total weight at most budget, where a row takes weight 0 one way and
    weight w + 1 in q[w] ways.  By the binomial theorem it is the sum over
    i damaged rows of C(n, i) times the coefficients of q^i up to degree
    budget - i.  All ones up to the cap count erasure patterns; 2^w for
    w < L gives the tail-erasure ball volume."""
    total, power = 0, [1]           # power: q^i up to degree budget - i
    for i in range(min(n, budget) + 1):
        total += math.comb(n, i) * sum(power)
        top = budget - i            # q^(i+1) is needed below degree top
        product = [0] * top
        for j, c in enumerate(power[:top]):
            for d, w in enumerate(q[:top - j], j):
                product[d] += c * w
        power = product
    return total


# Most patterns one block table may hold.  It sets the block width of
# `enumerate_patterns`, and so bounds its tables for any (e, L, n).
_BLOCK_PATTERNS = 512


def _check_pattern_args(e: int, L: int, n: int) -> None:
    if e < 0 or L < 0 or n < 0:
        raise ValueError("parameters must be non-negative")


def _block_width(e: int, L: int, n: int) -> int:
    """The rows per block of `enumerate_patterns(e, L, n)`, n >= 1: the
    most, up to n, whose patterns number at most _BLOCK_PATTERNS."""
    cap = min(e, L)
    width = 1
    while width < n and _damaged_rows(width + 1, [1] * cap, e) <= _BLOCK_PATTERNS:
        width += 1
    return width


def enumerate_patterns(e: int, L: int, n: int) -> Iterator[Tuple[int, ...]]:
    """Yield every pattern p with ||p||_1 <= e and ||p||_inf <= L exactly once.

    Order is lexicographic in (p_1, ..., p_n), which keeps exhaustive runs
    reproducible.  The rows are walked in blocks of w, the widest block
    whose patterns of total at most e number at most _BLOCK_PATTERNS
    (table-driven bounded compositions, Knuth, TAOCP 4A 7.2.1.3).  A table
    lists the block patterns per budget, in lexicographic order, so every
    pattern is one tuple concatenation of a prefix with an entry of the
    last block's table.  A short block of n mod w rows comes first and
    reads its own table, so that the last block is always a full one.
    """
    _check_pattern_args(e, L, n)
    if n == 0:
        yield ()
        return
    cap = min(e, L)
    e = min(e, n * cap)             # no pattern has a larger total
    width = _block_width(e, L, n)
    full, rem = divmod(n, width)
    # tables[b] = (the block patterns of total at most b in lexicographic
    # order, their totals) at the width built so far.  Each width is built
    # from the one before; budgets past the largest total share one entry.
    tables = [([()], [0])] * (e + 1)
    for k in range(1, width + 1):
        blocks, totals = [], []
        for v in range(cap + 1):
            prev_blocks, prev_totals = tables[e - v]
            blocks += [(v,) + b for b in prev_blocks]
            totals += [v + t for t in prev_totals]
        top = min(e, k * cap)
        tables = [([b for b, t in zip(blocks, totals) if t <= budget],
                   [t for t in totals if t <= budget]) for budget in range(top)]
        tables += [(blocks, totals)] * (e + 1 - top)
        if k == rem:
            short = tables
    tails = [table[0] for table in tables]
    heads = [tables] * (full - 1)   # the block tables before the last block
    if rem:
        heads.insert(0, short)
    if not heads:
        yield from tails[e]
        return
    # An odometer over the blocks before the last: (block iterator, prefix
    # before the block, budget before the block) per block.
    stack = [(zip(*heads[0][e]), (), e)]
    while stack:
        it, prefix, left = stack[-1]
        if len(stack) < len(heads):
            for block, used in it:
                stack.append((zip(*heads[len(stack)][left - used]),
                              prefix + block, left - used))
                break
            else:
                stack.pop()
        else:
            for block, used in it:
                yield from map((prefix + block).__add__, tails[left - used])
            stack.pop()


def count_patterns(e: int, L: int, n: int) -> int:
    """|P(e, L, n)|, the length of `enumerate_patterns(e, L, n)`."""
    _check_pattern_args(e, L, n)
    cap = min(e, L)
    return _damaged_rows(n, [1] * cap, min(e, n * cap))


def _fll_rows(a: int, b: int, L: int) -> int:
    """Fixed-length Levenshtein distance of two length-L row ints: L minus
    their LCS length.  Bit-parallel LCS (Crochemore, Iliopoulos, Pinzon and
    Reid, IPL 2001; Hyyro 2004): after each position of b, the zero bits of
    v count the LCS of a with b's prefix, so the distance is v's set bits."""
    ones = (1 << L) - 1
    match = (ones ^ a, a)           # the positions of a holding a 0, a 1
    v = ones
    for j in range(L):
        u = v & match[b >> j & 1]
        v = (v + u | v - u) & ones
    return v.bit_count()


def fll_distance(x: Sequence[int], y: Sequence[int]) -> int:
    """Fixed-length Levenshtein distance between equal-length words.

    The minimum s such that x turns into y via s deletions plus s
    insertions; equals length minus the LCS length.  Entries other than
    0/1 raise ValueError.
    """
    if len(x) != len(y):
        raise ValueError("words must have equal length")
    return _fll_rows(_row_to_int(x), _row_to_int(y), len(x))


INF = float("inf")


def d_sdc_distance(x: BitArray, y: BitArray, s: int):
    """Row-deletion distance: infinity if some row pair has FLL distance
    beyond s, otherwise the number of differing rows."""
    if (x.n, x.L) != (y.n, y.L):
        raise ValueError("dimension mismatch")
    if s < 0:
        raise ValueError("s must be non-negative")
    differing = 0
    for a, b in zip(x.rows, y.rows):
        if a == b:
            continue
        if s == 0 or _fll_rows(a, b, x.L) > s:
            return INF
        differing += 1
    return differing


def d1_dc_distance(x: BitArray, y: BitArray):
    """Infinity if any row pair differs outside position 1, otherwise the
    number of rows differing in position 1."""
    if (x.n, x.L) != (y.n, y.L):
        raise ValueError("dimension mismatch")
    differing = 0
    for a, b in zip(x.rows, y.rows):
        diff = a ^ b
        if diff & ~1:
            return INF
        if diff & 1:
            differing += 1
    return differing


def run_stats(x: BitArray) -> Tuple[List[int], int]:
    """Per-row run counts (maximal constant blocks) and their total."""
    if not x.L:
        return [0] * x.n, 0
    pairs = (1 << (x.L - 1)) - 1    # bit j: positions j + 1 and j + 2 differ
    per_row = [((r ^ r >> 1) & pairs).bit_count() + 1 for r in x.rows]
    return per_row, sum(per_row)


# --- shared text format -----------------------------------------------------
#
# One row per line over {0, 1}, position 1 first; '#' starts a comment
# line.  A directive comment '# L=<int>' declares the (original) row
# length.  Blank lines before it are skipped; after it every line is a
# row, so a blank line is a row of length 0.  Both writers emit it, so an
# array of no rows or of rows of length 0 keeps its shape.  A ragged row
# is written short; the ragged reader also takes a full-length row ending
# in a run of '?' as that row with its '?' tail lost.

def _with_length(L: int, lines: Iterable[str]) -> str:
    return "\n".join([f"# L={L}", *lines]) + "\n"


def format_bit_array(x: BitArray) -> str:
    return _with_length(x.L, (_row_text(r, x.L) for r in x.rows))


def format_ragged(x: RaggedArray) -> str:
    return _with_length(x.L, (_row_text(r, x.L - k) for r, k in zip(x.rows, x.lost)))


def _data_lines(text: str) -> Tuple[List[str], Optional[int]]:
    lines = []
    declared_L: Optional[int] = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("L="):
                try:
                    declared_L = int(body[2:])
                except ValueError:
                    raise ValueError(f"'# L=' takes the row length as an int, "
                                     f"got {line!r}") from None
                if declared_L < 0:
                    raise ValueError(f"negative row length in {line!r}")
            continue
        if not line and declared_L is None:
            continue
        if line.strip("01?"):
            raise ValueError(f"bad character in array line: {line!r}")
        lines.append(line)
    return lines, declared_L


def parse_bit_array(text: str) -> BitArray:
    """Rows of the length a '# L=' line declares, or else of the first
    row's length."""
    lines, declared = _data_lines(text)
    if any("?" in line for line in lines):
        raise ValueError("unexpected erasure marks in a plain bit array")
    L = declared if declared is not None else (len(lines[0]) if lines else 0)
    for i, line in enumerate(lines, 1):
        if len(line) != L:
            raise ValueError(f"row {i} has {len(line)} positions, "
                             f"{'more' if len(line) > L else 'fewer'} than L={L}")
    return BitArray(len(lines), L, tuple(map(_text_row, lines)))


def parse_ragged(text: str) -> RaggedArray:
    """Rows of at most the length a '# L=' line declares.  Without one the
    full length is unknown (every row may be short), so it is a ValueError
    rather than a guess."""
    lines, L = _data_lines(text)
    if L is None:
        raise ValueError("ragged input needs the row length: a '# L=<int>' line")
    known = [line.rstrip("?") for line in lines]
    for i, (line, kept) in enumerate(zip(lines, known), 1):
        if "?" in kept:
            raise ValueError(f"'?' may only end a row: {line!r}")
        if len(kept) < len(line) != L:
            raise ValueError(f"a row ending in '?' must have length L={L}: {line!r}")
        if len(line) > L:
            raise ValueError(f"row {i} has {len(line)} positions, more than L={L}")
    return RaggedArray(len(lines), L, tuple(map(_text_row, known)),
                       tuple(L - len(kept) for kept in known))
