"""Linear tail-erasure codes over n x L binary arrays.

A code is described by a TE parity-check: one r-bit column h_{i,j} per array
cell, with membership  sum x_{i,j} h_{i,j} = 0.  A TE pattern p is
correctable exactly when the multiset of columns it touches (the last p_i
cells of each row i) is linearly independent, which drives both the erasure
decoder and the exhaustive minimum-distance verifier.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

from .arrays import BitArray, ErasedArray, _row_to_int
from .basecodes import claim5_base_pcm
from .errors import AmbiguousErasureError, NotACodewordError
from .field import Gf2m, field_make
from .gf2 import BitMatrix, gf2_rank, gf2_row_reduce


def _xor_table(vectors: Sequence[int]) -> List[int]:
    """table[v] = XOR of vectors[b] over the set bits b of v, one XOR per
    entry (2^len(vectors) entries)."""
    table = [0]
    for vec in vectors:
        table += [t ^ vec for t in table]
    return table


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
        if len(self.cols) != self.n or any(len(row) != self.L for row in self.cols):
            raise ValueError("column grid does not match declared shape")

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
        return [(i, shift, _xor_table(row[shift:shift + 8]))
                for i, row in enumerate(self.cols)
                for shift in range(0, self.L, 8)]

    def _row_syndrome(self, rows: Sequence[int]) -> int:
        """Syndrome of row ints below 2^L: one table entry per chunk."""
        s = 0
        for i, shift, table in self._syndrome_tables:
            s ^= table[rows[i] >> shift & 255]
        return s

    @cached_property
    def _tagged_cells(self) -> List[List[Tuple[int, int]]]:
        """(column, tag) per cell, row by row; the tag is the cell's bit in
        the row-major flat array, bit i*L + j."""
        return [[(c, 1 << (i * self.L + j)) for j, c in enumerate(row)]
                for i, row in enumerate(self.cols)]

    def syndrome(self, x: BitArray) -> int:
        if (x.n, x.L) != (self.n, self.L):
            raise ValueError("array shape mismatch")
        return self._row_syndrome(x.rows)

    def contains(self, x: BitArray) -> bool:
        return self.syndrome(x) == 0

    def prepend_clean_columns(self, count: int) -> "TeParityCheck":
        """Widen each row on the left with unconstrained (all-zero) columns.

        Valid as long as erasures cannot reach the new columns, i.e. the
        code is used for e <= original L.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        cols = tuple((0,) * count + row for row in self.cols)
        return TeParityCheck(self.n, self.L + count, self.r, cols,
                             self.provenance, self.field_m)

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
        # With r, n, L >= 1 the exact body-length check below bounds the
        # work by the blob's size.
        if not (r and n and L):
            raise ValueError(f"parity-check header declares r={r}, n={n}, L={L}; "
                             f"each must be at least 1")
        prov = blob[head:head + plen].decode()
        nbytes = (r + 7) // 8
        body = blob[head + plen:]
        if len(body) != n * L * nbytes:
            raise ValueError(f"parity-check body has {len(body)} bytes; "
                             f"n*L*ceil(r/8) = {n * L * nbytes} expected")
        flat = [int.from_bytes(body[k * nbytes:(k + 1) * nbytes], "little")
                for k in range(n * L)]
        if any(c >> r for c in flat):
            raise ValueError(f"parity-check column wider than r = {r} bits")
        cols = tuple(tuple(flat[i * L:(i + 1) * L]) for i in range(n))
        return cls(n, L, r, cols, prov, None if fm < 0 else fm)

    def dump_text(self) -> str:
        lines = [f"te-parity-check r={self.r} n={self.n} L={self.L} "
                 f"provenance={self.provenance} redundancy={self.redundancy}"
                 + (f" field_m={self.field_m}" if self.field_m is not None else "")]
        for i in range(1, self.n + 1):
            lines.append(" ".join(format(self.column(i, j), f"0{self.r}b")[::-1]
                                  for j in range(1, self.L + 1)))
        return "\n".join(lines) + "\n"


def _compact_rows(rows: Sequence[int]) -> List[int]:
    return [r for r in rows if r]


def _columns_from_rows(bin_rows: Sequence[int], n: int, L: int) -> Tuple[Tuple[int, ...], ...]:
    """Repack matrix rows (bit index = i*L + j) into per-cell columns."""
    r = len(bin_rows)
    cols = []
    for i in range(n):
        row_cols = []
        for j in range(L):
            flat = i * L + j
            row_cols.append(sum(((bin_rows[b] >> flat) & 1) << b for b in range(r)))
        cols.append(tuple(row_cols))
    return tuple(cols)


def _build_from_field_rows(n: int, L: int, field: Gf2m,
                           fq_rows: Sequence[Sequence[int]],
                           bin_rows: Sequence[Sequence[int]],
                           provenance: str) -> TeParityCheck:
    """Assemble a parity check from field-valued rows (each expanded into m
    binary rows, coefficient of x^0 first) plus plain binary rows; all-zero
    binary rows are dropped."""
    ncells = n * L
    rows: List[int] = []
    for brow in bin_rows:
        rows.append(sum((int(brow[c]) & 1) << c for c in range(ncells)))
    for frow in fq_rows:
        for bit in range(field.m):
            rows.append(sum(((frow[c] >> bit) & 1) << c for c in range(ncells)))
    rows = _compact_rows(rows)
    return TeParityCheck(n, L, len(rows), _columns_from_rows(rows, n, L),
                         provenance, field.m)


# --- constructions ----------------------------------------------------------

def construct_1(base: BitMatrix, n: int, t: int) -> TeParityCheck:
    """Interleave a base [nt, k_B, 2t+1] parity check into an n x 2t layout.

    Row i holds the base columns (i-1)t+1 .. it followed by the next block
    reversed, (i+1)t down to it+1, indices wrapping past nt.  The result
    corrects 2t tail erasures with the base code's redundancy nt - k_B.
    """
    if n == 2:
        raise ValueError("the interleaved construction is degenerate for n = 2 "
                         "(it would need a [2t, k, 2t+1] base code)")
    if n < 1 or t < 1:
        raise ValueError("n and t must be positive")
    if base.ncols != n * t:
        raise ValueError(f"base code must have n*t = {n * t} columns, has {base.ncols}")
    h = base.columns()   # h[k-1] is base column k
    nt = n * t
    cols = []
    for i in range(1, n + 1):
        row = [h[(i - 1) * t + p - 1] for p in range(1, t + 1)]
        for ell in range(1, t + 1):
            k = (i + 1) * t - ell + 1
            row.append(h[(k - 1) % nt])
        cols.append(tuple(row))
    return TeParityCheck(n, 2 * t, base.nrows, tuple(cols), "construction-1")


def construct_even(base_star: BitMatrix, n: int, t: int) -> TeParityCheck:
    """Even-distance variant: base [nt+1, k_b, 2t+2] (odd base plus a parity
    coordinate); its last column is shared as the middle entry of every row,
    giving an n x (2t+1) code of distance 2t+2 and redundancy nt - k_b + 1."""
    if n == 2:
        raise ValueError("degenerate for n = 2")
    if base_star.ncols != n * t + 1:
        raise ValueError(f"base code must have n*t+1 = {n * t + 1} columns")
    h = base_star.columns()
    nt = n * t
    shared = h[nt]
    cols = []
    for i in range(1, n + 1):
        row = [h[(i - 1) * t + p - 1] for p in range(1, t + 1)]
        row.append(shared)
        for ell in range(1, t + 1):
            k = (i + 1) * t - ell + 1
            row.append(h[(k - 1) % nt])
        cols.append(tuple(row))
    return TeParityCheck(n, 2 * t + 1, base_star.nrows, tuple(cols), "even-ext")


def construct_parity(n: int, L: int) -> TeParityCheck:
    """Distance-2 code: a single parity bit over all n*L entries."""
    cols = tuple(tuple(1 for _ in range(L)) for _ in range(n))
    return TeParityCheck(n, L, 1, cols, "even-ext")


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
    base, m = claim5_base_pcm(n)
    h = base.columns()   # 1-based via h[k-1], k in 1..n+4
    cols = []
    for i in range(1, n + 1):
        f_i = i + 1 if i < n else 1
        pair = h[f_i - 1] ^ h[n]        # h_{f(i)} + h_{n+1}
        single = h[i - 1] if i < n else h[n + 1]
        cols.append((h[n + 3], h[n + 2], pair, single))
    return TeParityCheck(n, 4, base.nrows, tuple(cols), "claim-5")


def _evaluation_points(n: int, m: int, field: Gf2m, allow_zero: bool) -> List[int]:
    """n distinct points: alpha^1, alpha^2, ...; zero fills in when n = 2^m."""
    q = field.order
    if n > q - 1:
        if not (allow_zero and n == q):
            raise ValueError("field too small for the requested point count")
    pts = [field.alpha_pow(i) for i in range(1, min(n, q - 1) + 1)]
    if n == q:
        pts.append(0)
    return pts


def construct_claim7(n: int) -> TeParityCheck:
    """n x 2 code correcting any 5-TE with 2(ceil(log2 n)+1) redundancy bits.

    Over GF(2^m), m = ceil(log2 n), the cell columns are
    h_{i,1} = (1, 0, 1, b_i^2) and h_{i,2} = (0, 1, b_i, b_i^3) for distinct
    points b_i (zero included when n = 2^m).  These four field rows are what
    survives of the degree-4 derivative stack after the rows recoverable by
    squaring syndromes are dropped.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = max(1, (n - 1).bit_length())
    field = field_make(m)
    pts = _evaluation_points(n, m, field, allow_zero=True)
    L = 2
    r1 = [0] * (n * L)
    r2 = [0] * (n * L)
    k1 = [0] * (n * L)
    k3 = [0] * (n * L)
    for i, b in enumerate(pts):
        r1[i * L + 0] = 1
        r2[i * L + 1] = 1
        k1[i * L + 0] = 1
        k1[i * L + 1] = b
        k3[i * L + 0] = field.mul(b, b)
        k3[i * L + 1] = field.mul(field.mul(b, b), b)
    H = _build_from_field_rows(n, L, field, [k1, k3], [r1, r2], "claim-7")
    return H


def _binom_odd(a: int, b: int) -> bool:
    """C(a, b) mod 2 by Lucas: odd iff the bits of b are covered by a."""
    if b < 0 or b > a:
        return False
    return (a & b) == b


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
    m = max(1, n.bit_length())          # smallest m with 2^m > n
    field = field_make(m)
    pts = [field.alpha_pow(i) for i in range(1, n + 1)]
    fq_rows = []
    for k in range(e):
        row = [0] * (n * L)
        for j in range(1, L + 1):
            if not _binom_odd(k, L - j):
                continue
            exp = k - L + j
            for i, b in enumerate(pts):
                row[i * L + (j - 1)] = field.pow(b, exp)
        fq_rows.append(row)
    return _build_from_field_rows(n, L, field, fq_rows, [], "hasse")


def construct_hasse(n: int, L: int, e: int, reduced: bool = True) -> TeParityCheck:
    """e-TE code on n x L arrays from the Hasse-derivative family.

    With reduced=True (default) the parameter regimes with a known smaller
    binary footprint use it: rows whose syndrome is a square of another
    row's (characteristic 2) are dropped, at the price of one-bit parity
    rows, exactly as in the n x 2 five-erasure code.  Everything else falls
    back to the raw derivative stack.
    """
    if n < 1 or L < 1 or e < 1:
        raise ValueError("n, L, e must be positive")
    if not reduced:
        return construct_hasse_raw(n, L, e)

    if e == 2 and L >= 2:
        # One field row: (c_i, b_i) on the last two cells, c_i independent
        # of b_i over GF(2); both 2-patterns are then invertible.
        m = max(1, n.bit_length())
        field = field_make(m)
        pts = [field.alpha_pow(i) for i in range(1, n + 1)]
        row = [0] * (n * L)
        for i, b in enumerate(pts):
            row[i * L + (L - 2)] = 1 if b != 1 else field.alpha
            row[i * L + (L - 1)] = b
        return _build_from_field_rows(n, L, field, [row], [], "hasse")

    if e == 3 and L == 2:
        m = max(1, n.bit_length())
        field = field_make(m)
        pts = [field.alpha_pow(i) for i in range(1, n + 1)]
        ones = [1] * (n * L)
        k1 = [0] * (n * L)
        for i, b in enumerate(pts):
            k1[i * L + 1] = b
        return _build_from_field_rows(n, L, field, [k1], [ones], "hasse")

    if e == 3 and L >= 3:
        # Keep the degree-0 and degree-1 rows; the degree-2 row's syndrome
        # equals (degree-1)^2 plus a parity over columns L-2, L-1.
        m = max(1, n.bit_length())
        field = field_make(m)
        pts = [field.alpha_pow(i) for i in range(1, n + 1)]
        k0 = [0] * (n * L)
        k1 = [0] * (n * L)
        pair = [0] * (n * L)
        for i, b in enumerate(pts):
            k0[i * L + (L - 1)] = 1
            k1[i * L + (L - 2)] = 1
            k1[i * L + (L - 1)] = b
            pair[i * L + (L - 3)] = 1
            pair[i * L + (L - 2)] = 1
        return _build_from_field_rows(n, L, field, [k1], [k0, pair], "hasse")

    if e in (4, 5) and L == 2:
        return construct_claim7(n)

    if e in (4, 5) and L in (3, 4):
        # Degree rows 0, 1, 3 survive; rows 2 and 4 are squares of row-1
        # combinations once single-column parities are available.
        m = max(1, (n - 1).bit_length())
        field = field_make(m)
        pts = _evaluation_points(n, m, field, allow_zero=True)
        k0 = [0] * (n * L)
        k1 = [0] * (n * L)
        k3 = [0] * (n * L)
        pa = [0] * (n * L)
        pb = [0] * (n * L)
        for i, b in enumerate(pts):
            k0[i * L + (L - 1)] = 1
            k1[i * L + (L - 2)] = 1
            k1[i * L + (L - 1)] = b
            if L >= 4:
                k3[i * L + (L - 4)] = 1
            k3[i * L + (L - 3)] = b
            k3[i * L + (L - 2)] = field.mul(b, b)
            k3[i * L + (L - 1)] = field.mul(field.mul(b, b), b)
            pa[i * L + (L - 3)] = 1
            pb[i * L + (L - 2)] = 1
        return _build_from_field_rows(n, L, field, [k1, k3], [pa, pb, k0], "hasse")

    return construct_hasse_raw(n, L, e)


# --- encoding / decoding ----------------------------------------------------

class TeEncoder:
    """Systematic encoder derived from a parity check.

    Message bits occupy the non-pivot array cells (in flat row-major order);
    pivot cells are filled from the reduced parity rows, so every output
    satisfies the membership rule.  Encoding is linear, so it XORs one
    generator-table entry per 8 message bits: the flat codeword image of
    those bits.
    """

    def __init__(self, H: TeParityCheck):
        self.H = H
        n, L, r = H.n, H.L, H.r
        ncols = n * L
        rows = []
        for b in range(r):
            rows.append(sum(((H.cols[i][j] >> b) & 1) << (i * L + j)
                            for i in range(n) for j in range(L)))
        reduced, pivots = gf2_row_reduce(rows, ncols)
        pivot_set = set(pivots)
        self.message_cells = [c for c in range(ncols) if c not in pivot_set]
        self.k = len(self.message_cells)
        # A reduced row has no other pivot, so a message bit's image is its
        # cell plus the pivot of every row that touches that cell.
        images = [sum(1 << pivot for row, pivot in zip(reduced, pivots)
                      if row >> cell & 1) | 1 << cell
                  for cell in self.message_cells]
        self._tables = [_xor_table(images[b:b + 8]) for b in range(0, self.k, 8)]

    def encode(self, message: Sequence[int]) -> BitArray:
        if len(message) != self.k:
            raise ValueError(f"message must have {self.k} bits")
        flat = 0
        chunks = _row_to_int(message).to_bytes(len(self._tables), "little")
        for table, chunk in zip(self._tables, chunks):
            flat ^= table[chunk]
        n, L = self.H.n, self.H.L
        full = (1 << L) - 1
        return BitArray(n, L, tuple(flat >> (i * L) & full for i in range(n)))

    def message_of(self, x: BitArray) -> List[int]:
        if (x.n, x.L) != (self.H.n, self.H.L):
            raise ValueError("array shape mismatch")
        flat_bits = x.flat_bits()
        return [flat_bits[c] for c in self.message_cells]

    def codewords(self) -> Iterator[BitArray]:
        """All codewords (2^k of them; only for small codes)."""
        for value in range(1 << self.k):
            yield self.encode([(value >> b) & 1 for b in range(self.k)])


def te_decode(H: TeParityCheck, received: ErasedArray) -> BitArray:
    """Fill the erased suffixes of `received` with the unique consistent
    codeword values.

    The erased cells' columns are reduced to an echelon basis, each basis
    vector tagged with the erased cells it sums; the syndrome of the
    surviving bits (erased bits read 0) reduced against that basis leaves
    the tags of the solution.  Raises NotACodewordError when the surviving
    entries match no codeword, else AmbiguousErasureError when the erased
    columns are dependent (pattern beyond the code's distance).
    """
    if not isinstance(received, ErasedArray):
        raise ValueError(f"te_decode decodes an ErasedArray, got "
                         f"{type(received).__name__}")
    if (received.n, received.L) != (H.n, H.L):
        raise ValueError("shape mismatch")
    L = H.L
    syndrome = H._row_syndrome(received.rows)
    erased = [(i, p) for i, p in enumerate(received.erased) if p]
    basis: List[Tuple[int, int, int]] = []   # (pivot bit, column, tag)
    dependent = False
    for i, p in erased:
        for c, tag in H._tagged_cells[i][L - p:]:
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
    for i, _ in erased:
        rows[i] |= solution >> (i * L) & full
    return BitArray(H.n, L, tuple(rows))


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
    exact=False.

    Patterns of each weight are walked depth first over their nonzero rows,
    in decreasing lexicographic order.  The search carries an echelon basis
    of the columns touched so far and adds the tail columns of one row at
    a time, last cell first, so the bases for tails of 1, 2, ... cells of
    a row are nested.  Weights are searched in increasing order, so every
    lighter pattern is independent when a pattern of weight e is reached:
    only a full pattern can be dependent, never a proper prefix.
    """
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

    for e in range(1, max_e + 1):
        basis.clear()
        if search(0, e, min(e, H.L)):
            return MinDistanceResult(e, True, tuple(pattern), examined)
    return MinDistanceResult(max_e + 1, False, None, examined)


def brute_force_min_distance(H: TeParityCheck) -> int:
    """Minimum TE weight over nonzero codewords (the code is linear, so this
    equals the pairwise minimum).  Exponential in the dimension."""
    from .arrays import te_weight

    enc = TeEncoder(H)
    best = None
    for value in range(1, 1 << enc.k):
        x = enc.encode([(value >> b) & 1 for b in range(enc.k)])
        w = te_weight(x)
        if best is None or w < best:
            best = w
    if best is None:
        raise ValueError("code has a single codeword")
    return best


class TeCodec:
    """Adapter giving a TE code the encode/decode interface the round-trip
    harness expects (messages in, erased arrays back)."""

    def __init__(self, H: TeParityCheck):
        self.H = H
        self.encoder = TeEncoder(H)
        self.n = H.n
        self.L = H.L

    @property
    def message_bits(self) -> int:
        return self.encoder.k

    def encode(self, message: Sequence[int]) -> BitArray:
        return self.encoder.encode(message)

    def decode(self, received: ErasedArray) -> BitArray:
        return te_decode(self.H, received)

    def message_of(self, x: BitArray) -> List[int]:
        return self.encoder.message_of(x)

    def descriptor(self) -> dict:
        return {"kind": "te", "n": self.n, "L": self.L,
                "provenance": self.H.provenance, "redundancy": self.H.redundancy}
