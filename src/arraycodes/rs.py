"""Systematic Reed-Solomon codes over GF(2^m), erasure decoding only.

Codewords are evaluations of a degree < k polynomial at the points
x_i = alpha^i, i = 0 .. n-1, and the message occupies the first k
coordinates.  The code is handled in parity-check form (Roth, Introduction
to Coding Theory, ch. 5-6).  Its dual is the generalized RS code on the same
points with column multipliers v_i = 1 / prod_{j != i} (x_i - x_j), so

    H[r][i] = v_i * x_i^r,    0 <= r < n-k,

is a parity-check matrix: a word is a codeword exactly when its n-k
syndromes vanish.  Encoding multiplies the message by the systematic parity
matrix P[i][p] = L_i(x_{k+p}), where L_i is the Lagrange basis polynomial
of the first k points.  Only erasures occur in this package: the decoder
takes the syndromes of the surviving symbols, builds the erasure locator
and fills each erased symbol by Forney's formula.  The modified syndromes
beyond the erasure count must vanish, or the survivors match no codeword.
Past the survivors' syndrome, a fill's work grows with the erasure count
eps, not with n, and with no erasures the fill ends at that check.  The
fill returns the survivors' syndrome; a caller re-checks a repaired word
from it with one syndrome row per repaired symbol: `syn[i][symbol]` for a
symbol of one chunk (m <= 8), `_syndrome_at` for wider ones.

One width rule decides the layout: a field of m <= 8 has byte lanes and one
chunk per symbol, a wider one m-bit lanes and symbols split into chunks of
at most 8 bits.  The three products that touch every symbol are
GF(2)-linear in the bits of each input symbol, so each is an XOR of table
rows, one per input symbol chunk.  A row packs all of its output
symbols into one int, one lane apiece, the first output lowest:

    syndromes   XOR_i syn[i][w_i]     the n-k syndromes of a word w
    encoding    XOR_i par[i][u_i]     the n-k parity symbols of a message u
    evaluation  XOR_d ev[d][c_d]      sum_d c_d z^d at z = 1/x_j for every j

The fill keeps the survivors' syndrome S and the erasure locator
Lambda(z) = prod_{j erased} (1 + x_j z) in one int: S in lanes 0 .. n-k-1,
one zero guard lane, then Lambda.  Multiplying both by (1 + x_j z) adds x_j
times the whole int, shifted up one lane; masking the guard lane truncates
S Lambda mod z^(n-k).  After the eps erased points the low lanes hold the
modified syndromes and the high lanes Lambda.  On byte lanes (every
benchmark code, and every TED or DC code of h + e <= 8) `int.to_bytes`
unpacks a row, one `bytes.translate` through the table of a -> a x_j
multiplies every lane by x_j, and Forney's step reads the field's log
tables.

Wider fields multiply by x_j with one lane-parallel shift-and-reduce step
per bit of x_j; Forney's step there takes `Gf2m.mul` and `Gf2m.inv`.
(Against a coefficient-by-coefficient locator and an S Lambda convolution,
a fill at r = 16 measured -15% to +7% at m = 9, 10, 11 and 17, with 4 or
16 erasures.)

The fill reads its tables inline, as one
reduce(xor, map(getitem, table, symbols)) each, with no call frame per
read; a field of m > 8 first splits each symbol into its chunks
(`_chunks`, which `_lookup` shares).  On byte lanes one read evaluates
Omega and Lambda' together, their rows side by side in one int.

The tables depend only on (field, n, k) and are built once per code, each
row from the images of the m basis bits of its input symbol.  The fill is
built once per code too, one closure per lane kind (`_byte_lane_fill`,
`_wide_lane_fill`), which builds the constants only it reads and binds
them with the tables, so a call reads no attribute and takes no branch on
the lane kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import getitem, xor
from typing import Callable, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import CapacityExceededError, NotACodewordError
from .field import Gf2m
from .gf2 import xor_table

# Widest chunk of a symbol's bits that indexes one table row.
_CHUNK_BITS = 8

_Rows = Tuple[Tuple[int, ...], ...]
# fill(word, erased) -> the survivors' packed syndrome; see `_fill_erasures`.
_Fill = Callable[[List[int], Sequence[int]], int]


def _lane_tops(m: int, lanes: int, stride: int) -> int:
    """The top bit of each of `lanes` packed m-bit lanes, `stride` bits apart."""
    return sum(1 << (stride * j + m - 1) for j in range(lanes))


def _times_x_images(packed: int, m: int, tops: int, low: int) -> List[int]:
    """packed * x^b for b = 0 .. m-1, in every lane at once.  Each step
    shifts every lane up by one and reduces the lanes whose top bit
    overflowed; `tops` marks the lanes' top bits and `low` is x^m reduced."""
    images = []
    for _ in range(m):
        images.append(packed)
        carry = packed & tops
        packed = (packed ^ carry) << 1 ^ (carry >> (m - 1)) * low
    return images


class _Tables(NamedTuple):
    capacity: int                    # n-k, the erasures the code can fill
    byte_lanes: bool                 # m <= 8: byte lanes, one chunk per symbol
    stride: int                      # bits per packed lane: 8 for byte lanes, else m
    consistency: Tuple[int, ...]     # [eps]: modified-syndrome lanes eps .. n-k-1
    points: Tuple[int, ...]          # x_i = alpha^i
    low: int                         # x^m reduced: its low terms
    forney_scale: Tuple[int, ...]    # x_i / v_i
    width: int                       # lanes of syndrome, guard and Lambda
    keep: int                        # every lane of `width` but the guard
    shifts: Tuple[int, ...]          # lowest bit of each chunk of a symbol
    mask: int                        # bits of one chunk
    lanes: Tuple[int, ...]           # lowest bit of each packed output symbol
    syn: _Rows                       # syn[i*c + b]: column i of H, chunk b
    par: _Rows                       # par[i*c + b]: row i of P, chunk b
    ev: _Rows                        # ev[d*c + b]: (1/x_j)^d for every j, chunk b
    ev_even: _Rows                   # the rows of ev at even d only


@dataclass(frozen=True)
class ReedSolomon:
    """[n, k, n-k+1] systematic Reed-Solomon code over a Gf2m field."""

    field: Gf2m
    n: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ValueError("need 1 <= k <= n")
        if self.n > self.field.order - 1:
            raise ValueError(
                f"length {self.n} exceeds 2^m - 1 = {self.field.order - 1}; "
                "extended evaluation points are not supported")

    @cached_property
    def _tables(self) -> _Tables:
        f, n, k = self.field, self.n, self.k
        m, mul = f.m, f.mul
        x = [f.alpha_pow(i) for i in range(n)]
        r = n - k
        byte_lanes = m <= _CHUNK_BITS
        stride = _CHUNK_BITS if byte_lanes else m

        def prod_diff(z: int, indices) -> int:
            """prod over j in indices of (z - x_j); minus is xor in GF(2^m)."""
            return reduce(mul, (z ^ x[j] for j in indices), 1)

        def powers(z: int) -> List[int]:
            """z^0 .. z^(n-k-1)."""
            out, p = [], 1
            for _ in range(r):
                out.append(p)
                p = mul(p, z)
            return out

        # Split a symbol into equal chunks of at most _CHUNK_BITS bits: one
        # chunk exactly on byte lanes.
        chunks = -(-m // _CHUNK_BITS)
        width = -(-m // chunks)
        shifts = tuple(range(0, m, width))
        low = f.poly ^ (1 << m)     # x^m reduced: its low terms

        def rows(coeffs: Sequence[int]) -> List[Tuple[int, ...]]:
            """Table rows, one per chunk, of a -> the products c * a packed."""
            # images[b] is the packed c * x^b, the image of bit b of a.
            images = _times_x_images(sum(c << (stride * j) for j, c in enumerate(coeffs)),
                                     m, _lane_tops(m, len(coeffs), stride), low)
            return [tuple(xor_table(images[s:s + width])) for s in shifts]

        inv_v = [prod_diff(x[i], (j for j in range(n) if j != i)) for i in range(n)]
        syn = []
        for xi, u in zip(x, inv_v):
            v = f.inv(u)
            syn += rows([mul(v, p) for p in powers(xi)])
        # P[i][p] = L_i(z) at z = x_{k+p}, in barycentric form:
        # w_i prod_{j<k} (z - x_j) / (z - x_i), w_i = 1 / prod_{j<k, j!=i} (x_i - x_j).
        ell = [prod_diff(z, range(k)) for z in x[k:]]
        par = []
        for i in range(k):
            w = f.inv(prod_diff(x[i], (j for j in range(k) if j != i)))
            par += rows([mul(mul(w, lz), f.inv(z ^ x[i])) for z, lz in zip(x[k:], ell)])
        inv_powers = [powers(f.inv(xi)) for xi in x]
        ev = [row for d in range(r) for row in rows([p[d] for p in inv_powers])]
        # The fill's lanes: syndrome in 0 .. r-1, the guard at r, Lambda
        # (degree at most r) in r+1 .. 2r+1.
        fill_width = 2 * r + 2
        return _Tables(capacity=r, byte_lanes=byte_lanes, stride=stride,
                       consistency=tuple((1 << stride * r) - (1 << stride * eps)
                                         for eps in range(r + 1)),
                       points=tuple(x), low=low,
                       forney_scale=tuple(mul(xi, u) for xi, u in zip(x, inv_v)),
                       width=fill_width,
                       keep=(1 << stride * fill_width) - 1 ^ (1 << stride) - 1 << stride * r,
                       shifts=shifts, mask=(1 << width) - 1,
                       lanes=tuple(range(0, stride * r, stride)),
                       syn=tuple(syn), par=tuple(par), ev=tuple(ev),
                       ev_even=tuple(row for d in range(0, r, 2)
                                     for row in ev[d * chunks:(d + 1) * chunks]))

    def _chunks(self, symbols: Iterable[int]) -> List[int]:
        """Chunk b of each symbol, b = 0 .. c-1 within each, for fields
        of c > 1 chunks per symbol (m > 8): the indices into a table's
        rows i*c + b."""
        t = self._tables
        shifts, mask = t.shifts, t.mask
        return [s >> b & mask for s in symbols for b in shifts]

    def _lookup(self, table: Iterable[Tuple[int, ...]], symbols: Sequence[int]) -> int:
        """XOR over i and b of table[i*c + b][chunk b of symbols[i]], with
        c chunks per symbol.  A symbol of one chunk (m <= 8) is its own
        index, so the symbols must lie in [0, 2^m)."""
        if not self._tables.byte_lanes:
            symbols = self._chunks(symbols)
        return reduce(xor, map(getitem, table, symbols), 0)

    def _syndrome_at(self, positions: Sequence[int], symbols: Sequence[int]) -> int:
        """The packed syndrome of the word holding `symbols` at `positions`
        and 0 elsewhere: one table row per symbol chunk, so the cost
        follows len(positions), not n.  The symbols must lie in [0, 2^m).
        `TedCode.decode` re-checks its repaired rows through it on fields of
        more than one chunk (m > 8); up to m = 8 a symbol indexes its
        syndrome row `syn[i]` directly."""
        t = self._tables
        if not t.byte_lanes:
            c = len(t.shifts)
            positions = [i * c + b for i in positions for b in range(c)]
        return self._lookup(map(t.syn.__getitem__, positions), symbols)

    def _unpack(self, packed: int) -> List[int]:
        """The n-k symbols of a packed syndrome or parity int."""
        t = self._tables
        if t.byte_lanes:
            return list(packed.to_bytes(t.capacity, "little"))
        full = self.field.order - 1
        return [packed >> s & full for s in t.lanes]

    def _in_range(self, word: Sequence[int]) -> bool:
        return 0 <= min(word) and not max(word) >> self.field.m

    def _parity(self, message: Sequence[int]) -> List[int]:
        """The n-k parity symbols of k message symbols, unchecked: the
        caller guarantees k ints in [0, 2^m)."""
        return self._unpack(self._lookup(self._tables.par, message))

    @cached_property
    def _fill_erasures(self) -> _Fill:
        """fill(word, erased): write the erased symbols of `word` in place
        and return the packed syndrome of the survivors.  `word` holds n
        ints in [0, 2^m), 0 at the erased indices, listed in `erased`; the
        caller guarantees the range, which is not checked here (an
        out-of-range symbol would be masked or index past a table row).
        Raises CapacityExceededError with more than n - k erasures and
        NotACodewordError when the survivors match no codeword; with no
        erasures, that check is the whole fill.  Only the product of the
        packed int and x_j, Forney's step and the chunk split depend on the
        lane kind, so there is one fill per lane kind."""
        if self._tables.byte_lanes:
            return _byte_lane_fill(self)
        return _wide_lane_fill(self)

    def is_codeword(self, word: Sequence[int]) -> bool:
        """Whether `word` is a codeword: n symbols in [0, 2^m) whose
        syndromes vanish.  Any other word is no codeword, not an error: a
        word holding a symbol that is no int (0.0, None) included."""
        if (len(word) != self.n or not all(isinstance(v, int) for v in word)
                or not self._in_range(word)):
            return False
        return not self._lookup(self._tables.syn, word)


def _byte_lane_fill(rs: ReedSolomon) -> _Fill:
    """The fill of a code whose lanes are bytes (m <= 8): multiplying
    every lane by x_j is one `translate` through `times[j]`, and Forney's
    step is log-table arithmetic."""
    tables, n, f = rs._tables, rs.n, rs.field
    full, exp, log = f.order - 1, f._exp, f._log
    r, width, keep = tables.capacity, tables.width, tables.keep
    syn, consistency = tables.syn, tables.consistency
    scale_log = [log[s] for s in tables.forney_scale]
    # times[j][a] = a * x_j = exp[log a + j], and log 0 reads exp's zero
    # region; the bytes past 2^m - 1 are never indexed.
    pad = bytes(256 - f.order)
    times = [bytes(exp[a + j] for a in log) + pad for j in range(n)]
    one = 1 << 8 * (r + 1)
    # [eps]: the rows that evaluate Omega (eps coefficients) in lanes
    # 0 .. n-1 and Lambda' (the ceil(eps/2) odd-degree ones) in lanes
    # n .. 2n-1, so one read of the eps coefficients and the odd ones gives
    # both at every 1/x_j.
    high = [tuple(v << 8 * n for v in row) for row in tables.ev_even]
    forney = [tables.ev[:eps] + tuple(high[:(eps + 1) // 2]) for eps in range(r + 1)]

    def fill(word: List[int], erased: Sequence[int]) -> int:
        eps = len(erased)
        if eps > r:
            raise CapacityExceededError(f"{eps} erasures exceed capacity {r}")
        syndrome = reduce(xor, map(getitem, syn, word), 0)
        # S low, a zero guard lane, Lambda = 1 above it; each erased point
        # adds x_j times the whole int, one lane up, with the guard cleared.
        # Of the modified syndromes S Lambda mod z^(n-k), the first eps form
        # the evaluator Omega; the rest are zero exactly when some codeword
        # agrees with every surviving symbol.
        modified = syndrome | one
        for j in erased:
            product = int.from_bytes(
                modified.to_bytes(width, "little").translate(times[j]), "little")
            modified ^= product << 8 & keep
        if modified & consistency[eps]:
            raise NotACodewordError("surviving symbols are not consistent with any codeword")
        if not eps:
            return syndrome
        coefficients = modified.to_bytes(width, "little")
        # Omega and the formal derivative Lambda' (only the odd-degree
        # coefficients of Lambda, lambda_1, lambda_3, ..., survive in char 2,
        # at the even powers), each evaluated at every 1/x_j.
        values = reduce(xor, map(getitem, forney[eps],
                                 coefficients[:eps] + coefficients[r + 2:r + 2 + eps:2]),
                        0).to_bytes(2 * n, "little")
        # Forney: v_j c_j = x_j Omega(1/x_j) / Lambda'(1/x_j), and Lambda'
        # has no zero at an erased point.  A zero Omega reads exp's zero
        # region.
        for j in erased:
            word[j] = exp[log[values[j]] + (scale_log[j] - log[values[n + j]]) % full]
        return syndrome

    return fill


def _wide_lane_fill(rs: ReedSolomon) -> _Fill:
    """The fill of a code whose lanes are m bits wide (m > 8): multiplying
    every lane by x_j is one lane-parallel shift-and-reduce step per bit of
    x_j, and Forney's step takes `Gf2m.mul` and `Gf2m.inv`.  Each symbol is
    split into its chunks before a table read."""
    tables, chunks = rs._tables, rs._chunks
    m, mul, inv = rs.field.m, rs.field.mul, rs.field.inv
    full = (1 << m) - 1
    r, width, keep = tables.capacity, tables.width, tables.keep
    syn, consistency, ev, ev_even = tables.syn, tables.consistency, tables.ev, tables.ev_even
    points, low, scale = tables.points, tables.low, tables.forney_scale
    tops = _lane_tops(m, width, m)
    one = 1 << m * (r + 1)

    def fill(word: List[int], erased: Sequence[int]) -> int:
        eps = len(erased)
        if eps > r:
            raise CapacityExceededError(f"{eps} erasures exceed capacity {r}")
        syndrome = reduce(xor, map(getitem, syn, chunks(word)), 0)
        # The modified syndromes and Lambda, as in the byte-lane fill.
        modified = syndrome | one
        for j in erased:
            # Horner over the bits of x_j below its top one: each shifts
            # every lane up and reduces those that overflowed.
            product = modified
            for bit in bin(points[j])[3:]:
                carry = product & tops
                product = (product ^ carry) << 1 ^ (carry >> (m - 1)) * low
                if bit == "1":
                    product ^= modified
            modified ^= product << m & keep
        if modified & consistency[eps]:
            raise NotACodewordError("surviving symbols are not consistent with any codeword")
        if not eps:
            return syndrome
        coefficients = [modified >> s & full for s in range(0, m * width, m)]
        num = reduce(xor, map(getitem, ev, chunks(coefficients[:eps])), 0)
        den = reduce(xor, map(getitem, ev_even, chunks(coefficients[r + 2:r + 2 + eps:2])), 0)
        # Forney, as in the byte-lane fill.
        for j in erased:
            word[j] = mul(mul(num >> (m * j) & full, scale[j]), inv(den >> (m * j) & full))
        return syndrome

    return fill
