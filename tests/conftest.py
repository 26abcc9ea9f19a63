import random
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from arraycodes.arrays import BitArray, RaggedArray, _int_to_row, enumerate_patterns
from arraycodes.channel import ChannelSpec, apply_channel, random_instance
from arraycodes.dc import DcCode
from arraycodes.errors import CapacityExceededError, NotACodewordError
from arraycodes.ted import TedCode
from arraycodes.vt import vt_modulus_exponent


def random_array(rng: random.Random, n: int, L: int) -> BitArray:
    return BitArray(n, L, tuple(rng.randrange(1 << L) for _ in range(n)))


def ragged(entries, L: int) -> RaggedArray:
    """The RaggedArray of rows of L positions whose surviving bits are the
    0/1 lists in `entries`, first position first."""
    return RaggedArray(len(entries), L,
                       tuple(sum(b << j for j, b in enumerate(row)) for row in entries),
                       tuple(L - len(row) for row in entries))


def transpose(vectors, width: int):
    """The same bit matrix read the other way: bit k of output j is bit j of
    vectors[k], for j < width (every vector is below 2^width)."""
    out = [0] * width
    for k, vec in enumerate(vectors):
        while vec:
            low = vec & -vec
            out[low.bit_length() - 1] |= 1 << k
            vec ^= low
    return out


def te_oracle_rows(images, message: int, n: int, L: int) -> tuple:
    """The rows of a TE codeword from the generator images of
    `gf2_relations(H.all_columns())`: the flat XOR of the images of the
    message's set bits, cut into n rows of L bits one shift per row."""
    flat = 0
    for b, image in enumerate(images):
        if message >> b & 1:
            flat ^= image
    return tuple(flat >> (i * L) & ((1 << L) - 1) for i in range(n))


def unbudgeted(kind: str, x: BitArray) -> ChannelSpec:
    """The `kind` channel spec whose budgets hold every instance on x: all
    n*L positions erased, all n rows with deletions, all L positions each."""
    return ChannelSpec(kind, e=x.n * x.L, t=x.n, s=x.L)


def all_arrays(n: int, L: int):
    for value in range(1 << (n * L)):
        yield BitArray(n, L, tuple((value >> (i * L)) & ((1 << L) - 1)
                                   for i in range(n)))


def recursive_patterns(e, L, n):
    """The per-row recursive enumerator the block tables replaced: the
    oracle for their stream and its order."""
    if e < 0 or L < 0 or n < 0:
        raise ValueError("parameters must be non-negative")
    cap = min(e, L)

    def rec(prefix, budget):
        if len(prefix) == n:
            yield prefix
            return
        for v in range(0, min(cap, budget) + 1):
            yield from rec(prefix + (v,), budget - v)

    yield from rec((), e)


def min_pattern_erasures(x: BitArray, y: BitArray, patterns_by_weight) -> int:
    """Independent oracle for the distance: the lightest pattern whose
    erasure makes the two arrays identical (direct masked comparison)."""
    for weight, patterns in patterns_by_weight:
        for masks in patterns:
            if all((a & m) == (b & m) for a, b, m in zip(x.rows, y.rows, masks)):
                return weight
    raise AssertionError("full erasure always equalizes")


def patterns_grouped_by_weight(e: int, L: int, n: int):
    """Patterns as per-row keep-masks, grouped and sorted by total weight."""
    groups = {}
    for p in enumerate_patterns(e, L, n):
        masks = tuple((1 << (L - pi)) - 1 for pi in p)
        groups.setdefault(sum(p), []).append(masks)
    return sorted(groups.items())


@lru_cache(maxsize=None)
def _deleted(word: tuple, s: int) -> frozenset:
    """Every word left by deleting s positions of `word`."""
    return frozenset(tuple(v for i, v in enumerate(word) if i not in dead)
                     for dead in combinations(range(len(word)), s))


def fll_oracle(x, y) -> int:
    """Minimum s with some s deletions on each side giving equal words."""
    x, y = tuple(x), tuple(y)
    for s in range(len(x) + 1):
        if not _deleted(x, s).isdisjoint(_deleted(y, s)):
            return s
    return len(x)


def code_corrects_all_te(codewords, e: int, L: int, n: int) -> bool:
    """Direct correctability check: no two codewords collide after any
    pattern of at most e tail erasures."""
    for p in enumerate_patterns(e, L, n):
        masks = [(1 << (L - pi)) - 1 for pi in p]
        seen = {}
        for cw in codewords:
            key = tuple(r & m for r, m in zip(cw.rows, masks))
            if key in seen and seen[key] != cw:
                return False
            seen[key] = cw
    return True


# --- reference oracles shared by more than one test module -------------------

def lagrange_interpolate(f, points):
    """Coefficients (low first) of the unique poly of degree < len(points)
    through the given (x, y) pairs with distinct x."""
    k = len(points)
    coeffs = [0] * k
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        # basis poly prod_{j != i} (x - xj) / (xi - xj)
        basis = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            # multiply basis by (x + xj)  (char 2)
            nxt = [0] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d + 1] ^= c
                nxt[d] ^= f.mul(c, xj)
            basis = nxt
            denom = f.mul(denom, xi ^ xj)
        scale = f.mul(yi, f.inv(denom))
        for d, c in enumerate(basis):
            coeffs[d] ^= f.mul(scale, c)
    return coeffs


def poly_eval(f, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = f.mul(acc, x) ^ c
    return acc


def rs_oracle_decode(rs, received):
    """The Reed-Solomon code by evaluation: interpolate k survivors, then
    check every survivor.  Lagrange interpolation costs O(k^3) per call."""
    f = rs.field
    pts = [f.alpha_pow(i) for i in range(rs.n)]
    known = [(pts[i], v) for i, v in enumerate(received) if v is not None]
    if rs.n - len(known) > rs.n - rs.k:
        raise CapacityExceededError("oracle: too many erasures")
    coeffs = lagrange_interpolate(f, known[: rs.k])
    codeword = [poly_eval(f, coeffs, x) for x in pts]
    if any(v is not None and v != c for v, c in zip(received, codeword)):
        raise NotACodewordError("oracle: survivors are inconsistent")
    return codeword


def oracle_data_runs(L):
    """(first bit, width) of each run 2^i+1 .. min(2^(i+1)-1, L) of data
    positions of a VT row; bit 2^i holds position 2^i + 1."""
    h = vt_modulus_exponent(L)
    return tuple((1 << i, min((1 << i) - 1, L - (1 << i))) for i in range(1, h))


def oracle_gather(x, L):
    """The data bits of a VT row int x < 2^L, run by run."""
    data = shift = 0
    for first, width in oracle_data_runs(L):
        data |= ((x >> first) & ((1 << width) - 1)) << shift
        shift += width
    return data


# --- the TED/DC codes of the codec oracles and the fuzz contract -------------
#
# One table of codes.  A code's regime is read from the codec's own rules:
# how its rows are encoded (`TedCode._byte_rows` for rows of at most 8
# positions, `TedCode._lane_rows` for rows of 9 to 31 positions on an outer
# code of byte lanes, one row at a time otherwise), the lane kind of its
# outer code (`ReedSolomon._tables.byte_lanes`, m = h + e <= 8), whether
# it has a tail (e > 0) and whether it has parity rows (R > 0).  Each
# oracle takes its codes from the table by a rule, and a Tier-1 test
# (`test_ted.py::test_regime_table_fills_every_cell_and_both_sides_of_each_bound`)
# fails when a regime the rules admit, or a side of one of their bounds,
# has no code.  A new fast path adds its codes here.

class Regime(NamedTuple):
    rows: str      # "byte" (`_byte_rows`), "lane" (`_lane_rows`) or "row"
    outer: str     # "byte" or "wide": the outer code's lanes
    tail: bool     # e > 0
    parity: bool   # R > 0


# The cells the rules admit: rows of at most 8 positions have h + e <= 6
# and lanes need h + e <= 8, so only codes that encode one row at a time
# meet wide lanes; and R = t + e, so a code with a tail has parity rows.
ADMISSIBLE_REGIMES = frozenset(
    Regime(rows, outer, tail, parity)
    for rows in ("byte", "lane", "row") for outer in ("byte", "wide")
    for tail in (False, True) for parity in (False, True)
    if (outer == "byte" or rows == "row") and (parity or not tail))


def regime(code) -> Regime:
    rows = ("byte" if code._byte_rows is not None
            else "lane" if code._lane_rows is not None else "row")
    return Regime(rows, "byte" if code.outer._tables.byte_lanes else "wide",
                  code.e > 0, code.R > 0)


# (code, the tests that ran it on a list of their own before this table, so
# that they keep it and its id): "recheck" is
# `test_membership_recheck_catches_a_wrong_repair`, "rebuild"
# `test_codec_outputs_rebuild_through_the_public_constructor` and "dc"
# `test_dc_equals_ted_without_tail`.
TED_TABLE = (
    # rows of at most 8 positions: the benchmark's TED(5,7), the top of the
    # VT table at L = 8, the widest outer field of such rows (h + e = 6),
    # and for each L from 1 to 8 one shape at the largest e it admits (L = 1
    # admits only TedCode(1,1,0,0), which has no parity rows)
    (DcCode(7, 5, 2), "recheck dc"), (TedCode(5, 7, 2, 1), "recheck rebuild"),
    (TedCode(9, 6, 2, 2), ""), (DcCode(15, 8, 3), ""), (TedCode(63, 7, 4, 3), ""),
    (TedCode(1, 1, 0, 0), ""), (TedCode(3, 2, 1, 0), ""), (TedCode(7, 3, 2, 1), ""),
    (TedCode(7, 4, 3, 0), ""), (TedCode(9, 5, 4, 1), ""), (TedCode(9, 6, 3, 2), ""),
    (TedCode(9, 7, 2, 3), ""), (TedCode(9, 8, 4, 0), ""),
    # rows of 9 to 31 positions in 64-bit lanes: TED(9,11), the benchmark's
    # DC(31,31,8), the first lane shape L = 9, 255 lanes, h + e = 8 and no
    # parity rows
    (TedCode(9, 11, 2, 2), "rebuild"), (DcCode(31, 31, 8), "recheck rebuild dc"),
    (TedCode(31, 31, 4, 2), "recheck"), (TedCode(255, 31, 2, 3), ""),
    (TedCode(15, 15, 1, 4), ""), (TedCode(7, 9, 2, 1), ""), (TedCode(16, 31, 3, 0), ""),
    (TedCode(4, 20, 0, 0), ""),
    # one row at a time: 32 positions, and h + e = 9
    (DcCode(9, 32, 3), ""), (TedCode(31, 31, 2, 4), ""),
    # past the benchmark's widths: 255 positions on GF(2^9), a truncated last
    # run of data positions (33..40 of 33..63), and 31 positions on GF(2^9)
    (TedCode(12, 255, 2, 1), "recheck"), (DcCode(40, 40, 3), ""), (TedCode(20, 31, 3, 4), ""),
    # the fuzz contract's shapes, a tail of two bits re-attached on rows of
    # 6 positions, and small DC codes
    (DcCode(5, 7, 2), ""), (DcCode(9, 15, 3), ""), (TedCode(4, 5, 1, 0), ""),
    (TedCode(6, 10, 1, 2), ""), (TedCode(12, 20, 2, 2), ""), (TedCode(7, 6, 1, 2), ""),
    (DcCode(5, 4, 1), "dc"), (DcCode(6, 6, 3), "dc"),
    # one row at a time with no parity rows, with a tail on byte lanes, and
    # with no tail on GF(2^9), with and without parity rows
    (TedCode(3, 32, 0, 0), ""), (TedCode(9, 40, 2, 1), ""),
    (TedCode(2, 256, 0, 0), ""), (DcCode(5, 256, 2), ""),
)


def code_id(code) -> str:
    return f"{code.n}x{code.L}-t{code.t}-e{code.e}"


def ted_codes(rule=lambda code: True):
    """The table's codes that pass `rule`, in table order."""
    return [code for code, _ in TED_TABLE if rule(code)]


def one_per_cell(test, rule=lambda code: True):
    """The codes the table marks with `test`, then the first code that
    passes `rule` in each regime cell none of them is in."""
    codes = [code for code, tests in TED_TABLE if test in tests.split()]
    assert all(map(rule, codes)), test
    cells = set(map(regime, codes))
    for code in ted_codes(rule):
        if regime(code) not in cells:
            cells.add(regime(code))
            codes.append(code)
    return codes


def has_parity(code) -> bool:
    """Whether rows can be damaged within capacity: R >= 1."""
    return code.R >= 1


# --- damaged TED/DC inputs -----------------------------------------------------

def ragged_rows(L, rows):
    """The RaggedArray of (bits, length) rows of full length L."""
    return RaggedArray(len(rows), L, tuple(bits for bits, _ in rows),
                       tuple(L - length for _, length in rows))


def damage_rows(rng, rows, nrows, lost):
    """Delete a random number of bits in the range `lost` from each of
    `nrows` random rows of (bits, length) rows."""
    rows = list(rows)
    for i in rng.sample(range(len(rows)), nrows):
        bits, length = rows[i]
        for _ in range(min(rng.randint(*lost), length)):
            pos = rng.randrange(length)
            bits = (bits & ((1 << pos) - 1)) | ((bits >> (pos + 1)) << pos)
            length -= 1
        rows[i] = (bits, length)
    return rows


def _flip(rng, rows, pick):
    """Flip one to three random bits in each of one to three of the
    non-empty rows whose length passes `pick`, if any."""
    rows = list(rows)
    chosen = [i for i, (_, length) in enumerate(rows) if length and pick(length)]
    for i in rng.sample(chosen, min(len(chosen), rng.randint(1, 3))):
        bits, length = rows[i]
        for _ in range(rng.randint(1, 3)):
            bits ^= 1 << rng.randrange(length)
        rows[i] = (bits, length)
    return rows


def random_message(rng, code):
    """A seeded message of the code: one `getrandbits` for all its bits."""
    return _int_to_row(rng.getrandbits(code.message_bits), code.message_bits)


def damaged_inputs(rng, code):
    """(kind, x, received) for one received RaggedArray of each kind, x a
    fresh codeword of a TED/DC code with parity rows (R >= 1):

    - valid: a random instance of the code's channel;
    - over capacity: R + 1 or R + 2 rows (at most n) each lose 1 to e + 1 bits;
    - out of contract: up to R - 1 rows lose 1 to e + 1 bits, then one to
      max(2, R) rows (at most n) lose e + 2 to e + 4 bits, so a row loses
      more than one channel instance takes;
    - flipped intact: up to R rows lose 1 to e + 1 bits, and bits flip in
      one to three intact rows;
    - flipped damaged: one to R rows lose 1 to e + 1 bits, and bits flip in
      one to three of them;
    - flipped, no damage: bits flip in one to three rows of x;
    - random: random rows of L - e - 2 to L bits."""
    n, L, e, R = code.n, code.L, code.e, code.R
    x = code.encode(random_message(rng, code))
    spec = ChannelSpec("ted", t=code.t, s=1, e=e)
    full = [(r, L) for r in x.rows]
    yield "valid", x, apply_channel(x, spec, random_instance(spec, n, L, rng))
    yield "over capacity", x, ragged_rows(
        L, damage_rows(rng, full, min(n, R + 1 + rng.randrange(2)), (1, e + 1)))
    shallow = damage_rows(rng, full, rng.randint(0, R - 1), (1, e + 1))
    yield "out of contract", x, ragged_rows(
        L, damage_rows(rng, shallow, min(n, rng.randint(1, max(2, R))), (e + 2, e + 4)))
    damaged = damage_rows(rng, full, rng.randint(0, R), (1, e + 1))
    yield "flipped intact", x, ragged_rows(L, _flip(rng, damaged, lambda length: length == L))
    damaged = damage_rows(rng, full, rng.randint(1, R), (1, e + 1))
    yield "flipped damaged", x, ragged_rows(L, _flip(rng, damaged, lambda length: length < L))
    yield "flipped, no damage", x, ragged_rows(L, _flip(rng, full, lambda length: True))
    yield "random", x, ragged_rows(L, [(rng.getrandbits(length), length) for length in
                                       (rng.randint(max(0, L - e - 2), L) for _ in range(n))])
