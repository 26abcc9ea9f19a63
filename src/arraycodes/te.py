"""Linear tail-erasure codes over n x L binary arrays.

A code is described by a TE parity-check: one r-bit column h_{i,j} per array
cell, with membership  sum x_{i,j} h_{i,j} = 0.  A TE pattern p is
correctable exactly when the multiset of columns it touches (the last p_i
cells of each row i) is linearly independent, which drives both the erasure
decoder and the exhaustive minimum-distance verifier.  The cells a tail
erasure takes depend on (i, p_i) alone, so each parity check holds one
table of every row's tails, built once from its columns, and the decoder
reads each damaged row's erased cells from it.  The constructions
interleave the columns of binary base codes (`basecodes.ParityColumns`)
into cells as they are, or write the bits of field-valued parity rows
straight into the cells' columns, and the systematic encoder reads its
message cells and generator images off the dependencies among the cells'
columns (`gf2.gf2_relations`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, reduce
from itertools import chain, compress
from operator import index, or_
from typing import Iterator, List, Optional, Sequence, Tuple

from .arrays import (BitArray, RaggedArray, _bit_array, _cell_gather, _check_bit_array,
                     _check_int_fields, _check_received, _lanes, _read_lanes, _row_to_int,
                     _to_lanes)
from .basecodes import (ParityColumns, bch_degree, bch_generator, bch_pcm, claim5_base_pcm,
                        cyclic_pcm, extended_hamming_pcm, hamming_pcm)
from .errors import AmbiguousErasureError, NotACodewordError
from .field import Gf2m, field_make
from .gf2 import gf2_rank, gf2_relations, xor_table


# The most rows and cells, n * (L + 1), `TeParityCheck.from_bytes` builds
# for a blob whose body is empty, which its size cannot bound: a 255 x 255
# grid of r = 0 fits.
_EMPTY_BODY_GRID = 1 << 16


@dataclass(frozen=True)
class TeParityCheck:
    """Parity columns h_{i,j}; cols[i][j] is an r-bit int (0-based indices)."""

    n: int
    L: int
    r: int
    cols: Tuple[Tuple[int, ...], ...]
    provenance: str = "custom"
    field_m: Optional[int] = None

    def __post_init__(self):
        sizes = {"n": self.n, "L": self.L, "r": self.r}
        _check_int_fields(**sizes)
        for name, v in sizes.items():
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")
        # `to_bytes` writes the provenance as utf-8 and field_m as an int32,
        # -1 for None, so `from_bytes` gives back exactly these values.
        if not isinstance(self.provenance, str):
            raise TypeError(f"provenance must be a str, got {type(self.provenance).__name__}")
        try:
            if len(self.provenance.encode()) > 0xFFFF:
                raise ValueError("provenance must take at most 65535 bytes of utf-8")
        except UnicodeEncodeError:
            raise ValueError("provenance must encode as utf-8") from None
        if self.field_m is not None:
            _check_int_fields(field_m=self.field_m)
            if not 1 <= self.field_m < 1 << 31:
                raise ValueError(f"field_m must be None or an int from 1 to 2^31 - 1, "
                                 f"got {self.field_m}")
        n, L, cols = self.n, self.L, self.cols
        if len(cols) != n or not {L}.issuperset(map(len, cols)):
            raise ValueError("column grid does not match declared shape")
        # Any grid of int sequences is kept as a tuple of tuples of ints, so
        # that equal checks compare, hash and serialise alike; an entry that
        # is no int raises TypeError.  One pass reads the cells for both.
        cells = tuple(map(index, chain.from_iterable(cols)))
        if cells and (min(cells) < 0 or max(cells) >> self.r):
            raise ValueError(f"parity-check column wider than r = {self.r} bits")
        object.__setattr__(self, "cols", tuple(cells[i:i + L] for i in range(0, n * L, L))
                           if L else ((),) * n)

    def column(self, i: int, j: int) -> int:
        """Column of row i, position j (1-indexed)."""
        return self.cols[i - 1][j - 1]

    def all_columns(self) -> List[int]:
        return [c for row in self.cols for c in row]

    @cached_property
    def redundancy(self) -> int:
        """Rank of the column collection = redundancy in bits."""
        return gf2_rank(self.all_columns())

    @property
    def dimension(self) -> int:
        return self.n * self.L - self.redundancy

    @cached_property
    def _syndrome_tables(self) -> List[Tuple[int, int, List[int]]]:
        """(row, shift, table) for each chunk of at most 8 cells of a row;
        table[v] is the syndrome of chunk value v."""
        return [(i, shift, xor_table(row[shift:shift + 8]))
                for i, row in enumerate(self.cols)
                for shift in range(0, self.L, 8)]

    def _row_syndrome(self, rows: Sequence[int]) -> int:
        """Syndrome of row ints below 2^L: one table entry per chunk."""
        s = 0
        for i, shift, table in self._syndrome_tables:
            s ^= table[rows[i] >> shift & 255]
        return s

    @cached_property
    def _tail_cells(self) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], ...]:
        """tails[i][p], p = 0..L, is the tuple of (column, tag) pairs of the
        last p cells of row i, left to right; a cell's tag is its bit in the
        row-major flat array, bit i*L + j.  A tail erasure on row i is fixed
        by (i, p), so this is every tail the decoder can meet.  Its size
        depends on the code alone: n*(L+1) tuples holding n*L*(L+1)/2
        references to the n*L pairs."""
        L = self.L
        tails = []
        for i, row in enumerate(self.cols):
            cells = [(c, 1 << (i * L + j)) for j, c in enumerate(row)]
            tails.append(tuple(tuple(cells[L - p:]) for p in range(L + 1)))
        return tuple(tails)

    def syndrome(self, x: BitArray) -> int:
        _check_bit_array(x, self.n, self.L)
        return self._row_syndrome(x.rows)

    def contains(self, x: BitArray) -> bool:
        return self.syndrome(x) == 0

    # -- serialization --------------------------------------------------

    MAGIC = b"TEPC"
    VERSION = 1

    def to_bytes(self) -> bytes:
        prov = self.provenance.encode()
        head = struct.pack(">4sHIIIiH", self.MAGIC, self.VERSION, self.r,
                           self.n, self.L,
                           -1 if self.field_m is None else self.field_m,
                           len(prov))
        nbytes = (self.r + 7) // 8
        body = b"".join(c.to_bytes(nbytes, "little") for c in self.all_columns())
        return head + prov + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TeParityCheck":
        head = struct.calcsize(">4sHIIIiH")
        if len(blob) < head:
            raise ValueError(f"parity-check blob of {len(blob)} bytes is shorter "
                             f"than its {head}-byte header")
        magic, version, r, n, L, fm, plen = struct.unpack(">4sHIIIiH", blob[:head])
        if magic != cls.MAGIC:
            raise ValueError("not a parity-check blob")
        if version != cls.VERSION:
            raise ValueError(f"unsupported version {version}")
        if fm == 0 or fm < -1:
            raise ValueError(f"parity-check header declares field_m={fm}; "
                             f"it must be -1 (none) or at least 1")
        if head + plen > len(blob):
            raise ValueError(f"parity-check provenance of {plen} bytes runs past the "
                             f"end of the {len(blob)}-byte blob")
        try:
            prov = blob[head:head + plen].decode()
        except UnicodeDecodeError as exc:
            raise ValueError(f"parity-check provenance is not utf-8: byte "
                             f"{blob[head + exc.start]:#04x} at {exc.start}") from None
        nbytes = (r + 7) // 8
        body = blob[head + plen:]
        if len(body) != n * L * nbytes:
            raise ValueError(f"parity-check body has {len(body)} bytes; "
                             f"n*L*ceil(r/8) = {n * L * nbytes} expected")
        # The work below is one step per row and per cell: a body bounds it
        # by the blob's size, and an empty one (n, L or r of 0) by a cap.
        if not body and n * (L + 1) > _EMPTY_BODY_GRID:
            raise ValueError(f"parity-check header declares r={r}, n={n}, L={L} with an "
                             f"empty body: n * (L + 1) = {n * (L + 1)} rows and cells, more "
                             f"than the {_EMPTY_BODY_GRID} an empty body may declare")
        flat = [int.from_bytes(body[k * nbytes:(k + 1) * nbytes], "little")
                for k in range(n * L)]
        cols = tuple(tuple(flat[i * L:(i + 1) * L]) for i in range(n))
        return cls(n, L, r, cols, prov, None if fm == -1 else fm)

    def dump_text(self) -> str:
        lines = [f"te-parity-check r={self.r} n={self.n} L={self.L} "
                 f"provenance={self.provenance} redundancy={self.redundancy}"
                 + (f" field_m={self.field_m}" if self.field_m is not None else "")]
        for i in range(1, self.n + 1):
            lines.append(" ".join(format(self.column(i, j), f"0{self.r}b")[::-1]
                                  for j in range(1, self.L + 1)))
        return "\n".join(lines) + "\n"


def _build_from_field_rows(n: int, L: int, field: Gf2m,
                           fq_rows: Sequence[Sequence[int]],
                           bin_rows: Sequence[int],
                           provenance: str) -> TeParityCheck:
    """Assemble a parity check from binary rows (bit i*L + j = cell (i, j))
    plus field-valued rows (one element per cell in flat order i*L + j, each
    read as binary rows, coefficient of x^0 first, up to the top bit that
    some element of the row sets); all-zero binary rows are dropped.

    The cell columns are written in one pass: the nonzero binary rows take
    the low parity rows, then bit b of field row f goes to parity row
    offset_f + b, one shift per cell.  A bit below the row's top bit that
    no element sets stays an all-zero parity row, which leaves the rank
    unchanged; no construction makes such a row.
    """
    flat = [0] * (n * L)
    r = 0
    for row in filter(None, bin_rows):
        while row:
            low = row & -row
            flat[low.bit_length() - 1] |= 1 << r
            row ^= low
        r += 1
    for frow in fq_rows:
        flat = [c | v << r for c, v in zip(flat, frow)]
        r += reduce(or_, frow, 0).bit_length()
    cols = tuple(tuple(flat[i * L:(i + 1) * L]) for i in range(n))
    return TeParityCheck(n, L, r, cols, provenance, field.m)


# --- constructions ----------------------------------------------------------

def _interleave(h: Sequence[int], n: int, t: int,
                middle: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """Row i (1-based) holds the base columns (i-1)t+1 .. it, then `middle`,
    then the next block reversed, (i+1)t down to it+1, indices wrapping past
    nt."""
    nt = n * t
    return tuple(tuple(h[i * t:(i + 1) * t]) + middle
                 + tuple(h[k % nt] for k in range((i + 2) * t - 1, (i + 1) * t - 1, -1))
                 for i in range(n))


def _check_not_one_row(n: int) -> None:
    """One row's wrapped block is its own first block, so each base column
    appears twice in the row and the code misses its distance."""
    if n == 1:
        raise ValueError("the interleaved construction is degenerate for n = 1 "
                         "(its one row would hold every base column twice)")


def construct_1(base: ParityColumns, n: int, t: int) -> TeParityCheck:
    """Interleave a base [nt, k_B, 2t+1] parity check into an n x 2t layout
    (see `_interleave`).  The result corrects 2t tail erasures with the base
    code's redundancy nt - k_B.
    """
    if n == 2:
        raise ValueError("the interleaved construction is degenerate for n = 2 "
                         "(it would need a [2t, k, 2t+1] base code)")
    _check_not_one_row(n)
    if n < 1 or t < 1:
        raise ValueError("n and t must be positive")
    r, h = base
    if len(h) != n * t:
        raise ValueError(f"base code must have n*t = {n * t} columns, has {len(h)}")
    return TeParityCheck(n, 2 * t, r, _interleave(h, n, t, ()), "construction-1")


def construct_even(base_star: ParityColumns, n: int, t: int) -> TeParityCheck:
    """Even-distance variant: base [nt+1, k_b, 2t+2] (odd base plus a parity
    coordinate); its last column is shared as the middle entry of every row,
    giving an n x (2t+1) code of distance 2t+2 and redundancy nt - k_b + 1."""
    if n == 2:
        raise ValueError("degenerate for n = 2")
    _check_not_one_row(n)
    if n < 1:
        raise ValueError("n must be positive")
    r, h = base_star
    if len(h) != n * t + 1:
        raise ValueError(f"base code must have n*t+1 = {n * t + 1} columns")
    return TeParityCheck(n, 2 * t + 1, r, _interleave(h, n, t, (h[n * t],)), "even-ext")


def construct_parity(n: int, L: int) -> TeParityCheck:
    """Distance-2 code: a single parity bit over all n*L entries."""
    if n < 1 or L < 1:
        raise ValueError("n and L must be positive")
    cols = tuple(tuple(1 for _ in range(L)) for _ in range(n))
    return TeParityCheck(n, L, 1, cols, "even-ext")


def construct_interleaved(n: int, d: int, L: int = 1) -> TeParityCheck:
    """A code of TE distance d on n rows: one parity bit over n x L cells at
    d = 2 (the only d that reads L), else `construct_1` on a Hamming (d = 3)
    or BCH base for odd d, `construct_even` on an extended Hamming (d = 4)
    or even-weight BCH base for even d.  Past d = 2 it needs n >= 3 rows."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if d == 2:
        return construct_parity(n, L)
    # Check the rows before building a base code of n*t columns.
    if n < 1:
        raise ValueError("n must be positive")
    if n < 3:
        raise ValueError(f"the interleaved construction is degenerate for n = {n}")
    t = (d - 1) // 2
    if d % 2:
        return construct_1(hamming_pcm(n) if d == 3 else bch_pcm(n * t, d)[0], n, t)
    if d == 4:
        return construct_even(extended_hamming_pcm(n), n, t)
    g = bch_generator(bch_degree(n * t + 1), d - 1, with_parity_factor=True)
    return construct_even(cyclic_pcm(g, n * t + 1), n, t)


def construct_claim5(n: int) -> TeParityCheck:
    """n x 4 code of minimum TE distance 5 from a distance->=6 cyclic base.

    Base: a window of n+4 consecutive coordinates of the even-weight
    double-error BCH code, redundancy 2m+1 with m = ceil(log2(n+5)).  Row i
    is (h_{n+4}, h_{n+3}, h_{f(i)} + h_{n+1}, D_i) with f the cyclic shift
    i -> i+1 on [n], D_i = h_i for i < n and D_n = h_{n+2}.

    The pair column must avoid sums of two other rows' single columns
    (a pair h_{i+1} + h_{i+2} collapses against rows i+1 and i+2, and any
    second shared column h_{n+2} inside pair columns re-opens six-distinct-
    column sums that a distance-6 base cannot rule out).  With this layout
    every pattern of weight <= 4 reduces, after the only possible h_{n+1}
    cancellation, to at most five distinct base columns, which are
    independent because the base distance is at least 6.
    """
    (r, h), _ = claim5_base_pcm(n)   # 1-based via h[k-1], k in 1..n+4
    cols = []
    for i in range(1, n + 1):
        f_i = i + 1 if i < n else 1
        pair = h[f_i - 1] ^ h[n]        # h_{f(i)} + h_{n+1}
        single = h[i - 1] if i < n else h[n + 1]
        cols.append((h[n + 3], h[n + 2], pair, single))
    return TeParityCheck(n, 4, r, tuple(cols), "claim-5")


def _hasse_points(n: int) -> Tuple[Gf2m, List[int]]:
    """GF(2^m) with 2^m > n, and the n points b_i = alpha^i, i = 1..n."""
    field = field_make(max(1, n.bit_length()))
    return field, [field.alpha_pow(i) for i in range(1, n + 1)]


def _derivative_row(field: Gf2m, pts: Sequence[int], L: int, k: int) -> List[int]:
    """Degree-k row of the derivative stack: the cell d places from the end
    of row i carries C(k, d) b_i^(k-d).  By Lucas, C(k, d) is odd iff the
    bits of d are covered by k; an even binomial zeroes the cell, which also
    removes every negative exponent."""
    return [field.pow(b, k - d) if k & d == d else 0
            for b in pts for d in range(L - 1, -1, -1)]


def _tail_parity(n: int, L: int, *offsets: int) -> int:
    """Binary row summing, in every array row, the cells `offsets` places
    from its end (1 = the last cell); offsets beyond L are skipped."""
    mask = sum(1 << (L - o) for o in offsets if o <= L)
    return sum(mask << (i * L) for i in range(n))


def _odd_degree_code(n: int, L: int, provenance: str) -> TeParityCheck:
    """The 5-TE code on n x L arrays, 2 <= L <= 4: derivative rows of degree
    1 and 3 over GF(2^m), m = ceil(log2 n), plus single-cell parities of the
    last three cells.  Rows 2 and 4 are squares of row-1 combinations once
    those parities are available; at L = 2 the third parity is empty."""
    field = field_make(max(1, (n - 1).bit_length()))
    pts = [field.alpha_pow(i) for i in range(1, n + 1)]
    if n == field.order:     # every nonzero point is taken: zero fills in
        pts[-1] = 0
    return _build_from_field_rows(
        n, L, field, [_derivative_row(field, pts, L, k) for k in (1, 3)],
        [_tail_parity(n, L, o) for o in (3, 2, 1)], provenance)


def construct_claim7(n: int) -> TeParityCheck:
    """n x 2 code correcting any 5-TE with 2(ceil(log2 n)+1) redundancy bits.

    Over GF(2^m), m = ceil(log2 n), the cell columns are
    h_{i,1} = (1, 0, 1, b_i^2) and h_{i,2} = (0, 1, b_i, b_i^3) for distinct
    points b_i (zero included when n = 2^m).  These four field rows are what
    survives of the degree-4 derivative stack after the rows recoverable by
    squaring syndromes are dropped: the odd-degree code at L = 2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _odd_degree_code(n, 2, "claim-7")


def construct_hasse_raw(n: int, L: int, e: int) -> TeParityCheck:
    """Derivative-stack construction: row k of the field matrix evaluates the
    (L-j)-th Hasse derivative of a degree < e polynomial at b_i = alpha^i,
    so cell (i, j) carries C(k, L-j) b_i^(k-L+j) for k = 0..e-1.

    Corrects any e-TE with no relation required between e and L; terms with
    an even binomial vanish (Lucas), which also removes every negative
    exponent.
    """
    if n < 1 or L < 1 or e < 1:
        raise ValueError("n, L, e must be positive")
    field, pts = _hasse_points(n)
    return _build_from_field_rows(
        n, L, field, [_derivative_row(field, pts, L, k) for k in range(e)], [], "hasse")


def construct_hasse(n: int, L: int, e: int) -> TeParityCheck:
    """e-TE code on n x L arrays from the Hasse-derivative family.

    The parameter regimes with a known smaller binary footprint drop the
    rows whose syndrome is a square of another row's (characteristic 2), at
    the price of one-bit parity rows, exactly as in the n x 2 five-erasure
    code.  Everything else is the raw derivative stack,
    `construct_hasse_raw`.
    """
    if n < 1 or L < 1 or e < 1:
        raise ValueError("n, L, e must be positive")

    if e == 2 and L >= 2:
        # One field row: (c_i, b_i) on the last two cells, c_i independent
        # of b_i over GF(2); both 2-patterns are then invertible.
        field, pts = _hasse_points(n)
        row = [0] * (n * L)
        for i, b in enumerate(pts):
            row[i * L + (L - 2)] = 1 if b != 1 else field.alpha
            row[i * L + (L - 1)] = b
        return _build_from_field_rows(n, L, field, [row], [], "hasse")

    if e == 3 and L == 2:
        field, pts = _hasse_points(n)
        k1 = [c for b in pts for c in (0, b)]
        return _build_from_field_rows(n, L, field, [k1], [_tail_parity(n, L, 2, 1)],
                                      "hasse")

    if e == 3 and L >= 3:
        # Keep the degree-0 and degree-1 rows; the degree-2 row's syndrome
        # equals (degree-1)^2 plus a parity over columns L-2, L-1.
        field, pts = _hasse_points(n)
        return _build_from_field_rows(
            n, L, field, [_derivative_row(field, pts, L, 1)],
            [_tail_parity(n, L, 1), _tail_parity(n, L, 3, 2)], "hasse")

    if e in (4, 5) and L == 2:
        return construct_claim7(n)

    if e in (4, 5) and L in (3, 4):
        return _odd_degree_code(n, L, "hasse")

    return construct_hasse_raw(n, L, e)


# --- encoding / decoding ----------------------------------------------------

class TeCodec:
    """A TE code's systematic encoder and its erasure decoder, with the
    encode/decode interface the round-trip harness expects (messages in,
    damaged arrays back).

    The cells' columns are taken in flat row-major order, and each column
    that depends on the columns before it is a message cell.  Its relation
    from `gf2_relations` (the cell plus the independent earlier cells whose
    columns XOR to its column) is a codeword: the message bit's image, with
    the other message cells clear.  So every output satisfies the
    membership rule, and the message reads back from its own cells.
    Encoding is linear, so it XORs one generator-table entry per 8 message
    bits.  The images are moved once, here, into the lane layout of the
    row-split kernel (`arrays._to_lanes`), so an entry is the codeword of
    those bits already in lanes, and the XOR of the entries is read into
    rows with one `arrays._read_lanes`.  A lane of W >= L bits holds a
    row (`arrays._lanes`), so the tables hold W / L times the bits of flat
    images: 2x at L = 4, 8x at L = 1.
    Decoding is `te_decode`.
    """

    def __init__(self, H: TeParityCheck):
        self.H = H
        self.n, self.L = H.n, H.L
        images = gf2_relations(H.all_columns())
        self.message_cells = [image.bit_length() - 1 for image in images]
        self.k = self.message_bits = len(images)
        self._plan = plan = _lanes(H.n, H.L)
        images = [_to_lanes(image, plan) for image in images]
        self._tables = [xor_table(images[b:b + 8]) for b in range(0, self.k, 8)]
        self._gather = _cell_gather(self.message_cells, H.L)

    def encode(self, message: Sequence[int]) -> BitArray:
        if len(message) != self.k:
            raise ValueError(f"message must have {self.k} bits")
        return self._encode_int(_row_to_int(message))

    def _encode_int(self, message: int) -> BitArray:
        """`encode` of the message packed into an int, bit 0 first."""
        lanes = 0
        chunks = message.to_bytes(len(self._tables), "little")
        for table, chunk in zip(self._tables, chunks):
            lanes ^= table[chunk]
        return _bit_array(self.n, self.L, _read_lanes(lanes, self._plan))

    def message_of(self, x: BitArray) -> List[int]:
        _check_bit_array(x, self.n, self.L)
        rows = x.rows
        message: List[int] = []
        for i, shift, table in self._gather:
            message += table[rows[i] >> shift & 255]
        return message

    def codewords(self) -> Iterator[BitArray]:
        """All codewords (2^k of them; only for small codes)."""
        return map(self._encode_int, range(1 << self.k))

    def decode(self, received: RaggedArray) -> BitArray:
        return te_decode(self.H, received)

    def descriptor(self) -> dict:
        return {"kind": "te", "n": self.n, "L": self.L,
                "provenance": self.H.provenance, "redundancy": self.H.redundancy}


# The same class, under the name the acceptance suite and the benchmark's
# per-layer traces (`perfbench/tracing.py`) use.
TeEncoder = TeCodec


def te_decode(H: TeParityCheck, received: RaggedArray) -> BitArray:
    """Fill the lost tails of `received` with the unique consistent
    codeword values, each row's surviving bits taken as its prefix.

    The erased cells of a damaged row i that lost p cells are read, with
    their columns and tags, from the parity check's tail table at [i][p];
    only the damaged rows are visited, and only they are written back.
    The erased cells' columns are reduced to an echelon basis, each basis
    vector tagged with the erased cells it sums; the syndrome of the
    surviving bits (erased bits read 0) reduced against that basis leaves
    the tags of the solution.  Raises NotACodewordError when the surviving
    entries match no codeword, else AmbiguousErasureError when the erased
    columns are dependent (pattern beyond the code's distance).
    """
    _check_received(received, "te_decode", H.n, H.L)
    L = H.L
    lost = received.lost
    tails = H._tail_cells
    syndrome = H._row_syndrome(received.rows)
    damaged = list(compress(range(H.n), lost))
    basis: List[Tuple[int, int, int]] = []   # (pivot bit, column, tag)
    dependent = False
    for i in damaged:
        for c, tag in tails[i][lost[i]]:
            for low, b, t in basis:
                if c & low:
                    c ^= b
                    tag ^= t
            if c:
                basis.append((c & -c, c, tag))
            else:
                dependent = True
    solution = 0
    for low, b, t in basis:
        if syndrome & low:
            syndrome ^= b
            solution ^= t
    if syndrome:
        raise NotACodewordError("surviving entries match no codeword")
    if dependent:
        raise AmbiguousErasureError(
            "erasure pattern exceeds the code's correction capability")
    rows = list(received.rows)
    full = (1 << L) - 1
    for i in damaged:
        rows[i] |= solution >> (i * L) & full
    return _bit_array(H.n, L, tuple(rows))


# --- verification -----------------------------------------------------------

@dataclass(frozen=True)
class MinDistanceResult:
    distance: int
    exact: bool                      # False means "at least `distance`"
    witness: Optional[Tuple[int, ...]] = None
    patterns: int = dataclass_field(default=0, compare=False)   # full patterns examined


def verify_min_distance(H: TeParityCheck, max_e: int) -> MinDistanceResult:
    """Exhaustively find the minimum TE distance, searching patterns of
    total weight 1..max_e.

    The distance is the smallest pattern weight whose touched-column
    multiset is linearly dependent (duplicates count).  If every pattern up
    to max_e is independent the result is the lower bound max_e + 1 with
    exact=False; weights past n L, which no pattern has, are not searched.
    A max_e below 1 raises ValueError.

    Patterns of each weight are walked depth first over their nonzero rows,
    in decreasing lexicographic order.  The search carries an echelon basis
    of the columns touched so far and adds the tail columns of one row at
    a time, last cell first, so the bases for tails of 1, 2, ... cells of
    a row are nested.  Weights are searched in increasing order, so every
    lighter pattern is independent when a pattern of weight e is reached:
    only a full pattern can be dependent, never a proper prefix.
    """
    if max_e < 1:
        raise ValueError(f"max_e must be at least 1, got {max_e}")
    n = H.n
    if not H.L:      # no cell to erase
        return MinDistanceResult(max_e + 1, False)
    # tails[i][v-1] is the column v cells from the end of row i.
    tails = [row[::-1] for row in H.cols]
    lasts = [row[-1] for row in H.cols]
    basis: List[Tuple[int, int]] = []    # (pivot bit, vector), insertion order
    pattern = [0] * n
    examined = 0

    def search(first: int, budget: int, cap: int) -> bool:
        """Extend the pattern by rows first.. with total `budget`; True when
        a dependent pattern is found (left in `pattern`)."""
        nonlocal examined
        if budget == 1:      # every extension adds one row's last column
            for i in range(first, n):
                c = lasts[i]
                for low, b in basis:
                    if c & low:
                        c ^= b
                if not c:
                    examined += i - first + 1
                    pattern[i] = 1
                    return True
            examined += n - first
            return False
        depth = len(basis)
        top = min(cap, budget)
        for i in range(first, n):
            room = cap * (n - 1 - i)     # the most weight rows after i can take
            if budget > room + cap:
                break
            del basis[depth:]
            independent = 0      # the row's longest tail independent of the basis
            for c in tails[i][:top]:
                for low, b in basis:
                    if c & low:
                        c ^= b
                if not c:
                    break
                basis.append((c & -c, c))
                independent += 1
            for v in range(top, 0, -1):
                rest = budget - v
                if rest > room:
                    break
                if v > independent:      # so rest is 0: see the docstring
                    examined += 1
                    pattern[i] = v
                    return True
                if rest == 0:
                    examined += 1
                else:
                    del basis[depth + v:]
                    if search(i + 1, rest, cap):
                        pattern[i] = v
                        return True
        return False

    for e in range(1, min(max_e, n * H.L) + 1):     # no pattern is heavier than n L
        basis.clear()
        if search(0, e, min(e, H.L)):
            return MinDistanceResult(e, True, tuple(pattern), examined)
    return MinDistanceResult(max_e + 1, False, None, examined)

