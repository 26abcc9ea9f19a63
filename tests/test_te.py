import random
import struct
from itertools import combinations

import pytest

from arraycodes.arrays import (BitArray, RaggedArray,
                               apply_te_pattern, enumerate_patterns,
                               rho_te_distance)
from arraycodes.basecodes import (bch_generator, bch_pcm, cyclic_pcm,
                                  extended_hamming_pcm, hamming_pcm)
from arraycodes.errors import (AmbiguousErasureError, ArrayCodeError,
                               NotACodewordError)
from arraycodes.field import field_make
from arraycodes.gf2 import gf2_rank, gf2_relations
from arraycodes.te import (MinDistanceResult, TeCodec, TeEncoder,
                           TeParityCheck, _build_from_field_rows, construct_1,
                           construct_claim5, construct_claim7, construct_even,
                           construct_hasse, construct_hasse_raw, construct_interleaved,
                           construct_parity, te_decode, verify_min_distance)
from conftest import te_oracle_rows, transpose


def ceil_log2(x):
    return (x - 1).bit_length()


def pattern_multiset(H, p):
    """Columns touched by the TE pattern p (the last p_i cells of row i)."""
    return [c for row, pi in zip(H.cols, p) if pi for c in row[H.L - pi:]]


def prepend_clean_columns(H, count):
    """H with each row widened on the left by `count` unconstrained
    (all-zero) columns; valid while erasures cannot reach the new columns,
    i.e. for e <= H.L."""
    cols = tuple((0,) * count + row for row in H.cols)
    return TeParityCheck(H.n, H.L + count, H.r, cols, H.provenance, H.field_m)


def brute_force_min_distance(H):
    """Minimum TE weight over nonzero codewords (the code is linear, so this
    equals the pairwise minimum).  Exponential in the dimension."""
    enc = TeEncoder(H)
    best = None
    for value in range(1, 1 << enc.k):
        x = enc.encode([(value >> b) & 1 for b in range(enc.k)])
        w = rho_te_distance(x, BitArray(x.n, x.L, (0,) * x.n))
        if best is None or w < best:
            best = w
    if best is None:
        raise ValueError("code has a single codeword")
    return best


def hamming_example_pcm():
    """The worked 7x2 example: row i holds (h_{i+1}, h_i), wrapping at 7."""
    h = hamming_pcm(7).columns
    cols = tuple((h[i % 7], h[i - 1]) for i in range(1, 8))
    return TeParityCheck(7, 2, 3, cols, "example")


def test_example_multiset_dependency():
    H = hamming_example_pcm()
    p = (1, 0, 0, 0, 0, 0, 2)
    multiset = pattern_multiset(H, p)
    base_cols = hamming_pcm(7).columns
    assert sorted(multiset) == sorted([base_cols[0], base_cols[0], base_cols[6]])
    assert gf2_rank(multiset) < len(multiset)


def test_construction1_flagship_parameters():
    H = construct_1(hamming_pcm(7), 7, 1)
    assert (H.n, H.L) == (7, 2)
    assert H.redundancy == 3
    assert H.dimension == 11
    result = verify_min_distance(H, 3)
    assert result.exact and result.distance == 3


def test_construction1_theorem_pattern_is_dependent():
    for n, t, base in ((7, 1, hamming_pcm(7)), (5, 2, bch_pcm(10, 5)[0])):
        H = construct_1(base, n, t)
        p = [0] * n
        p[0], p[-1] = 2 * t, 1
        multiset = pattern_multiset(H, tuple(p))
        assert gf2_rank(multiset) < len(multiset)


def test_construction1_no_column_multiplicity_up_to_2t():
    H = construct_1(bch_pcm(10, 5)[0], 5, 2)
    for p in enumerate_patterns(4, 4, 5):
        multiset = pattern_multiset(H, p)
        assert len(multiset) == len(set(multiset))


def test_construction1_rejects_n2():
    with pytest.raises(ValueError):
        construct_1(hamming_pcm(2), 2, 1)


def test_field_rows_assemble_as_the_transposed_binary_rows():
    """The one-pass column assembly against the two-transpose reference:
    each field row read as m binary rows after the binary rows, all-zero
    rows dropped, the whole stack transposed into cell columns.  No
    construction yields a field row whose elements leave a bit unused
    below their top bit; on random rows with such gaps the unused bits are
    all-zero parity rows, so the check drops them, and r is exact only
    when every field row uses a run of low bits."""
    rng = random.Random(11)
    gapped = 0
    for _ in range(400):
        n, L, m = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 6)
        field = field_make(m)
        fq_rows = []
        has_gap = False
        for _ in range(rng.randint(0, 3)):
            mask = rng.randrange(1 << m)
            fq_rows.append([rng.randrange(1 << m) & mask for _ in range(n * L)])
            used = 0
            for v in fq_rows[-1]:
                used |= v
            has_gap |= bool(used & (used + 1))
        gapped += has_gap
        bin_rows = [rng.randrange(1 << (n * L)) * rng.randint(0, 1)
                    for _ in range(rng.randint(0, 3))]
        rows = [*bin_rows, *(b for frow in fq_rows for b in transpose(frow, m))]
        rows = [row for row in rows if row]
        H = _build_from_field_rows(n, L, field, fq_rows, bin_rows, "x")
        parity_rows = transpose([c for row in H.cols for c in row], H.r)
        assert [row for row in parity_rows if row] == rows
        assert H.redundancy == gf2_rank(rows)
        if not has_gap:
            assert H.r == len(rows)
    assert gapped > 100


@pytest.mark.parametrize("build", [
    lambda: construct_even(extended_hamming_pcm(1), 0, 1),
    lambda: construct_parity(0, 3),
    lambda: construct_parity(3, 0),
    lambda: construct_parity(-1, 2)])
def test_degenerate_shapes_are_rejected(build):
    # n = 0 or L = 0 once built an empty parity check.
    with pytest.raises(ValueError, match="must be positive"):
        build()


def test_construction1_d5_base():
    base, mu = bch_pcm(10, 5)
    H = construct_1(base, 5, 2)
    assert H.redundancy == 10 - (10 - gf2_rank(base.columns))   # nt - k_B
    result = verify_min_distance(H, 5)
    assert result.exact and result.distance == 5


def test_brute_force_distance_agrees():
    H = construct_1(hamming_pcm(7), 7, 1)
    assert brute_force_min_distance(H) == 3
    H3 = construct_1(hamming_pcm(3), 3, 1)
    assert brute_force_min_distance(H3) == verify_min_distance(H3, 4).distance == 3


@pytest.mark.parametrize("max_e", [0, -4])
def test_verifier_rejects_a_search_depth_below_one(max_e):
    """max_e -4 once reported 'distance at least -3'."""
    with pytest.raises(ValueError, match="max_e must be at least 1"):
        verify_min_distance(construct_hasse(5, 3, 3), max_e)
    with pytest.raises(ValueError, match="max_e must be at least 1"):
        verify_min_distance(TeParityCheck(2, 0, 1, ((), ()), "empty"), max_e)


def test_verifier_searches_no_weight_past_every_cell():
    """No pattern is heavier than n L: a search depth of 10^9 on a
    one-cell code once walked every weight up to it, linear in max_e."""
    result = verify_min_distance(construct_parity(1, 1), 10**9)
    assert (result.distance, result.exact, result.witness, result.patterns) == \
        (10**9 + 1, False, None, 1)
    assert verify_min_distance(construct_parity(1, 1), 3) == MinDistanceResult(4, False)
    assert verify_min_distance(TeParityCheck(2, 0, 1, ((), ()), "empty"), 3) == \
        MinDistanceResult(4, False)
    H = construct_hasse(3, 2, 4)      # every pattern of its 6 cells is independent
    small, huge = verify_min_distance(H, 6), verify_min_distance(H, 10**9)
    assert (small.distance, small.exact) == (7, False)
    assert (huge.distance, huge.exact, huge.patterns) == (10**9 + 1, False, small.patterns)


@pytest.mark.parametrize("n", [3, 4, 5, 7])
@pytest.mark.parametrize("d", range(2, 9))
def test_interleaved_code_has_its_distance(n, d):
    result = verify_min_distance(construct_interleaved(n, d), d + 1)
    assert result.exact and result.distance == d


@pytest.mark.parametrize("d", [1, 0, -3])
def test_interleaved_code_needs_a_distance_of_two(d):
    with pytest.raises(ValueError, match="d must be at least 2"):
        construct_interleaved(5, d)


@pytest.mark.parametrize("build", [
    lambda: construct_1(hamming_pcm(1), 1, 1),
    lambda: construct_1(hamming_pcm(2), 1, 2),
    lambda: construct_even(extended_hamming_pcm(1), 1, 1),
    lambda: construct_even(extended_hamming_pcm(2), 1, 2)])
def test_interleaving_one_row_is_rejected(build):
    # On one row the wrapped block repeats the first: construct_interleaved
    # (1, d) once verified at distance 2, 3 and 4 for d = 3, 4 and 6.
    with pytest.raises(ValueError, match="degenerate for n = 1"):
        build()


@pytest.mark.parametrize("d", range(3, 9))
@pytest.mark.parametrize("n, message", [(0, "n must be positive"),
                                        (1, "degenerate for n = 1"),
                                        (2, "degenerate for n = 2")])
def test_interleaved_code_checks_its_rows_first(n, d, message):
    # n = 0 once reached the BCH base first: "designed distance too large".
    with pytest.raises(ValueError, match=message):
        construct_interleaved(n, d)


def test_even_extension():
    H = construct_even(extended_hamming_pcm(7), 7, 1)
    assert (H.n, H.L) == (7, 3)
    assert H.redundancy == ceil_log2(7 + 1) + 1 == 4
    assert H.dimension == 17
    result = verify_min_distance(H, 4)
    assert result.exact and result.distance == 4


def test_parity_code_distance_2():
    H = construct_parity(4, 3)
    assert H.redundancy == 1
    result = verify_min_distance(H, 2)
    assert result.exact and result.distance == 2


def test_even_extension_distance_6():
    from arraycodes.basecodes import bch_generator, cyclic_pcm

    base = cyclic_pcm(bch_generator(4, 5, with_parity_factor=True), 11)
    H = construct_even(base, 5, 2)
    assert H.redundancy == 10 - (11 - gf2_rank(base.columns)) + 1   # nt - k_b + 1
    result = verify_min_distance(H, 6)
    assert result.exact and result.distance == 6


@pytest.mark.parametrize("n", [3, 6, 11])
def test_claim5(n):
    H = construct_claim5(n)
    m = (n + 4).bit_length()
    assert H.redundancy == 2 * m + 1
    result = verify_min_distance(H, 5)
    assert result.exact and result.distance == 5


def test_claim5_beats_general_route_off_boundary():
    # for n >= 4 away from the 2^i-4..2^i-1 band the cyclic-base redundancy
    # is one bit under the interleaved-BCH route
    for n in (4, 5, 6, 9, 10, 11):
        lhs = 2 * ceil_log2(n + 5) + 1
        rhs = 2 * ceil_log2(2 * n + 1)
        in_band = any((1 << i) - 4 <= n <= (1 << i) - 1 for i in range(3, 8))
        if n >= 4 and not in_band:
            assert lhs < rhs, n


@pytest.mark.parametrize("n", [3, 4, 8])
def test_claim7_redundancy_and_correction(n):
    H = construct_claim7(n)
    assert H.redundancy == 2 * (max(1, (n - 1).bit_length()) + 1)
    # corrects every 5-erasure pattern: columns of every p independent
    assert not verify_min_distance(H, 5).exact
    codec = TeCodec(H)
    rng = random.Random(n)
    msg = [rng.randrange(2) for _ in range(codec.message_bits)]
    x = codec.encode(msg)
    for p in enumerate_patterns(5, 2, n):
        assert te_decode(H, apply_te_pattern(x, p)) == x


def test_claim7_frobenius_identities():
    """On any erasure support, syndrome row 4 is (row 3)^2 + row 1 and row 6
    is (row 4)^2; this is what lets the two rows be dropped."""
    rng = random.Random(99)
    for n in (3, 5, 8):
        m = max(1, (n - 1).bit_length())
        f = field_make(m)
        pts = [f.alpha_pow(i) for i in range(1, min(n, f.order - 1) + 1)]
        if n == f.order:
            pts.append(0)
        col1 = {i: (1, 0, 1, 0, f.pow(b, 2), 0) for i, b in enumerate(pts)}
        col2 = {i: (0, 1, b, f.pow(b, 2), f.pow(b, 3), f.pow(b, 4))
                for i, b in enumerate(pts)}
        for _ in range(50):
            R = [0] * 6
            for i in range(n):
                pi = rng.randint(0, 2)
                cells = ([] if pi == 0 else [col2[i]] if pi == 1 else [col1[i], col2[i]])
                for cell in cells:
                    if rng.randrange(2):
                        R = [r ^ v for r, v in zip(R, cell)]
            assert R[3] == f.mul(R[2], R[2]) ^ R[0]
            assert R[5] == f.mul(R[3], R[3])


def test_hasse_raw_corrects_any_e():
    # spec example grid: no e <= L restriction
    for (n, L, e) in ((3, 2, 3), (3, 2, 2), (2, 2, 3), (4, 3, 2)):
        H = construct_hasse_raw(n, L, e)
        codec = TeCodec(H)
        rng = random.Random(e * 10 + n)
        for _ in range(3):
            msg = [rng.randrange(2) for _ in range(codec.message_bits)]
            x = codec.encode(msg)
            for p in enumerate_patterns(e, L, n):
                assert te_decode(H, apply_te_pattern(x, p)) == x


@pytest.mark.parametrize("n,L,e,cell", [
    (3, 2, 2, 2), (4, 2, 2, 3), (7, 2, 2, 3), (8, 2, 2, 4),
    (3, 2, 3, 3), (4, 2, 3, 4), (7, 2, 3, 4),
    (3, 3, 3, 4), (4, 3, 3, 5), (7, 3, 3, 5),
    (3, 2, 4, 6), (4, 2, 5, 6), (7, 2, 5, 8),
    (4, 3, 4, 7), (4, 4, 5, 7), (8, 3, 5, 9),
])
def test_hasse_reduced_redundancy_and_decoding(n, L, e, cell):
    H = construct_hasse(n, L, e)
    assert H.redundancy <= cell
    codec = TeCodec(H)
    rng = random.Random(n * 100 + L * 10 + e)
    msg = [rng.randrange(2) for _ in range(codec.message_bits)]
    x = codec.encode(msg)
    for p in enumerate_patterns(e, L, n):
        assert te_decode(H, apply_te_pattern(x, p)) == x


def test_hasse_raw_redundancy_at_most_em():
    H = construct_hasse_raw(5, 3, 4)
    assert H.redundancy <= 4 * 3   # e rows of ceil(log2(n+1)) bits


def test_generator_membership_and_injectivity():
    H = construct_1(hamming_pcm(3), 3, 1)
    enc = TeEncoder(H)
    assert enc.k == H.dimension == 4
    seen = set()
    for value in range(1 << enc.k):
        msg = [(value >> b) & 1 for b in range(enc.k)]
        x = enc.encode(msg)
        assert H.contains(x)
        assert enc.message_of(x) == msg
        seen.add(x)
    assert len(seen) == 1 << enc.k
    assert enc.encode([0] * enc.k).rows == (0, 0, 0)


def test_te_decode_roundtrip_and_errors():
    H = construct_1(hamming_pcm(7), 7, 1)
    enc = TeEncoder(H)
    rng = random.Random(5)
    msg = [rng.randrange(2) for _ in range(enc.k)]
    x = enc.encode(msg)

    # no erasures: identity
    assert te_decode(H, apply_te_pattern(x, (0,) * 7)) == x
    # p = (2, 0, ..., 0): restored
    assert te_decode(H, apply_te_pattern(x, (2, 0, 0, 0, 0, 0, 0))) == x
    # the known dependent pattern must be reported as ambiguous
    with pytest.raises(AmbiguousErasureError):
        te_decode(H, apply_te_pattern(x, (2, 0, 0, 0, 0, 0, 1)))
    # corrupting a surviving bit of a codeword with no erasures
    rows = list(x.rows)
    rows[0] ^= 1
    bad = BitArray(7, 2, tuple(rows))
    if not H.contains(bad):
        with pytest.raises(NotACodewordError):
            te_decode(H, apply_te_pattern(bad, (0,) * 7))


def test_corollary1_redundancy_inequality():
    # odd d: redundancy <= ((d-1)/2) ceil(log2(n(d-1)+2)) - (d-1)/2
    for n, d in ((5, 3), (9, 3), (5, 5), (8, 5)):
        t = (d - 1) // 2
        base = hamming_pcm(n) if d == 3 else bch_pcm(n * t, d)[0]
        H = construct_1(base, n, t)
        bound = t * ceil_log2(n * (d - 1) + 2) - t
        assert H.redundancy <= bound, (n, d, H.redundancy, bound)


def test_prepend_clean_columns():
    H = construct_1(hamming_pcm(5), 5, 1)
    wide = prepend_clean_columns(H, 3)
    assert (wide.n, wide.L) == (5, 5)
    assert wide.redundancy == H.redundancy
    enc = TeEncoder(wide)
    rng = random.Random(8)
    msg = [rng.randrange(2) for _ in range(enc.k)]
    x = enc.encode(msg)
    for p in enumerate_patterns(2, 2, 5):
        assert te_decode(wide, apply_te_pattern(x, p)) == x


def test_serialization_roundtrip():
    for H in (construct_1(hamming_pcm(7), 7, 1), construct_claim7(4),
              construct_hasse(3, 3, 3)):
        back = TeParityCheck.from_bytes(H.to_bytes())
        assert back == H
        assert "te-parity-check" in H.dump_text()


def _hamming_blob():
    H = construct_1(hamming_pcm(7), 7, 1)
    assert H.r == 3
    return H.to_bytes()


def test_from_bytes_rejects_blob_shorter_than_header():
    with pytest.raises(ValueError, match="header"):
        TeParityCheck.from_bytes(_hamming_blob()[:10])


def test_from_bytes_rejects_truncated_body():
    with pytest.raises(ValueError, match="body"):
        TeParityCheck.from_bytes(_hamming_blob()[:-1])


def test_from_bytes_rejects_trailing_bytes():
    with pytest.raises(ValueError, match="body"):
        TeParityCheck.from_bytes(_hamming_blob() + b"\x00")


def test_from_bytes_rejects_column_wider_than_r():
    blob = bytearray(_hamming_blob())
    blob[-1] = 0b1000
    with pytest.raises(ValueError, match="wider"):
        TeParityCheck.from_bytes(bytes(blob))


@pytest.mark.parametrize("cols", [((4, 1), (1, 2)),      # 3 bits with r = 1
                                  ((-1, 1), (1, 1)),
                                  ((1 << 8, 1), (1, 1)),   # past the byte width
                                  ((1, 1), (1, -1)),       # in the last row
                                  ((1, 1), (0, 2))])
def test_parity_check_rejects_columns_outside_r_bits(cols):
    # Such a column used to raise the redundancy above r, or leak
    # OverflowError from to_bytes, instead of failing at construction.
    with pytest.raises(ValueError, match="wider than r = 1 bits"):
        TeParityCheck(2, 2, 1, cols)


@pytest.mark.parametrize("n, L, r, cols, error, message", [
    (1.0, 1, 1, ((1,),), TypeError, "n must be an int, got float"),
    (1, 1.0, 1, ((1,),), TypeError, "L must be an int, got float"),
    (1, 1, 1.0, ((1,),), TypeError, "r must be an int, got float"),
    (True, 1, 1, ((1,),), TypeError, "n must be an int, got bool"),
    (1, 1, False, ((0,),), TypeError, "r must be an int, got bool"),
    (1, "1", 1, ((1,),), TypeError, "L must be an int, got str"),
    (1, 1, None, ((0,),), TypeError, "r must be an int, got NoneType"),
    (-1, 1, 1, (), ValueError, "n must be non-negative, got -1"),
    (1, -1, 1, ((),), ValueError, "L must be non-negative, got -1"),
    (1, 1, -1, ((0,),), ValueError, "r must be non-negative, got -1"),
])
def test_parity_check_rejects_bad_sizes(n, L, r, cols, error, message):
    """A float n once built a parity check, and a negative r failed with
    "negative shift count"; the sizes are checked as `TedCode` and
    `BitArray` check theirs, each error naming its field."""
    with pytest.raises(error, match=f"^{message}$"):
        TeParityCheck(n, L, r, cols)


@pytest.mark.parametrize("fields, error, message", [
    ({"provenance": 5}, TypeError, "provenance must be a str, got int"),
    ({"provenance": "\udc80"}, ValueError, "provenance must encode as utf-8"),
    ({"provenance": "x" * 0x10000}, ValueError,
     "provenance must take at most 65535 bytes of utf-8"),
    ({"field_m": 2.5}, TypeError, "field_m must be an int, got float"),
    ({"field_m": True}, TypeError, "field_m must be an int, got bool"),
    ({"field_m": -3}, ValueError, r"field_m must be None or an int from 1 to 2\^31 - 1, got -3"),
    ({"field_m": 0}, ValueError, r"field_m must be None or an int from 1 to 2\^31 - 1, got 0"),
    ({"field_m": 1 << 31}, ValueError,
     r"field_m must be None or an int from 1 to 2\^31 - 1, got 2147483648"),
])
def test_parity_check_rejects_fields_that_do_not_round_trip(fields, error, message):
    """provenance=5 built a parity check whose `to_bytes` raised
    AttributeError, field_m=2.5 one whose `to_bytes` raised struct.error,
    and field_m=-3 one that came back from its bytes with field_m None;
    each is now refused at construction, naming its field."""
    with pytest.raises(error, match=f"^{message}$"):
        TeParityCheck(1, 1, 1, ((1,),), **fields)


def test_parity_check_keeps_its_grid_as_tuples_of_ints():
    """A grid of lists, or of any int sequences, is kept as tuples of ints:
    it hashes, and equals its own round trip and the tuple grid.  It once
    stayed as passed, unhashable and unequal to `from_bytes(to_bytes(H))`."""
    H = TeParityCheck(2, 2, 2, [[1, 2], [3, 1]])
    same = TeParityCheck(2, 2, 2, ((1, 2), (3, 1)))
    assert H.cols == ((1, 2), (3, 1)) and H == same and hash(H) == hash(same)
    assert TeParityCheck.from_bytes(H.to_bytes()) == H
    assert TeParityCheck(1, 2, 1, (range(2),)).cols == ((0, 1),)


@pytest.mark.parametrize("cols", [((1.0, 2), (3, 1)), ((1, 2), (3, None)),
                                  ((1, 2), (3, "1"))])
def test_parity_check_rejects_entries_that_are_no_ints(cols):
    """A float entry once built a parity check whose `to_bytes` raised
    AttributeError; an entry that is no int is a TypeError at construction."""
    with pytest.raises(TypeError):
        TeParityCheck(2, 2, 2, cols)


@pytest.mark.parametrize("provenance, field_m", [("", None), ("h\u00e4sse", 1),
                                                 ("x" * 0xFFFF, (1 << 31) - 1)])
def test_accepted_provenance_and_field_m_round_trip(provenance, field_m):
    H = TeParityCheck(1, 1, 1, ((1,),), provenance, field_m)
    assert TeParityCheck.from_bytes(H.to_bytes()) == H


@pytest.mark.parametrize("fm", [0, -2, -(1 << 31)])
def test_from_bytes_rejects_header_field_m(fm):
    """A header field_m of -1 reads as None and one of at least 1 as
    itself; -3 once read as None, so the blob did not round-trip."""
    blob = bytearray(_hamming_blob())
    blob[18:22] = struct.pack(">i", fm)
    with pytest.raises(ValueError, match=f"declares field_m={fm}; it must be -1"):
        TeParityCheck.from_bytes(bytes(blob))


@pytest.mark.parametrize("n", [2, 9])
def test_rows_of_no_cells_round_trip(n):
    """An n x 0 code has one codeword, the empty rows, on both sides of the
    row-split kernel's few-rows path; encoding it once failed at n <= 8."""
    codec = TeCodec(TeParityCheck(n, 0, 0, ((),) * n))
    x = codec.encode([])
    assert x == BitArray(n, 0, (0,) * n)
    assert codec.message_of(x) == []
    assert codec.decode(apply_te_pattern(x, (0,) * n)) == x
    assert list(codec.codewords()) == [x]


@pytest.mark.parametrize("L", [1, 8, 9, 17, 33, 65])
@pytest.mark.parametrize("n", [3, 8, 9, 12])
def test_encode_on_every_lane_kind(n, L):
    """Codes whose rows fill byte, 16-, 32- and 64-bit lanes and lanes of
    whole bytes past 64 bits, at n on both sides of the kernel's few-rows
    path: the rows are the per-row shifts of the flat XOR of the generator
    images, members of the code that give their message back and decode
    from tail erasures."""
    H = construct_hasse(n, L, 3)
    codec = TeCodec(H)
    images = gf2_relations(H.all_columns())
    rng = random.Random(n * 100 + L)
    for message in (0, (1 << codec.k) - 1, rng.getrandbits(codec.k)):
        x = codec._encode_int(message)
        assert x.rows == te_oracle_rows(images, message, n, L)
        assert H.contains(x)
        bits = [message >> b & 1 for b in range(codec.k)]
        assert codec.message_of(x) == bits
        for _ in range(3):
            pattern = [0] * n
            for _ in range(3):
                pattern[rng.randrange(n)] += 1
            pattern = [min(p, L) for p in pattern]
            assert codec.decode(apply_te_pattern(x, pattern)) == x


@pytest.mark.parametrize("field_name", ["r", "n", "L"])
def test_from_bytes_rejects_zero_size_header(field_name):
    # A zero r, n or L declares an empty body, so a blob with one is refused;
    # without one, a zero r would make the body-length check vacuous (n*L*0
    # = 0 bytes for any n and L), so a fixed cap bounds the grid.
    blob = bytearray(_hamming_blob())
    offset = {"r": 6, "n": 10, "L": 14}[field_name]
    blob[offset:offset + 4] = struct.pack(">I", 0)
    with pytest.raises(ValueError, match="= 0 expected"):
        TeParityCheck.from_bytes(bytes(blob))
    header = struct.pack(">4sHIIIiH", b"TEPC", 1, 0, 1000, 1000, -1, 0)
    with pytest.raises(ValueError, match="empty body"):
        TeParityCheck.from_bytes(header)


@pytest.mark.parametrize("shape", [(2, 0, 0, ((), ())), (0, 3, 1, ()), (1, 1, 0, ((0,),)),
                                   (0, 0, 0, ()), (3, 0, 9, ((), (), ())),
                                   (256, 255, 0, ((0,) * 255,) * 256)],
                         ids=lambda shape: "x".join(map(str, shape[:3])))
def test_zero_size_parity_checks_round_trip(shape):
    """Every shape the constructor accepts survives `to_bytes`/`from_bytes`,
    an n, L or r of 0 too, up to the cap of a blob with an empty body, n *
    (L + 1) = 2^16 rows and cells (the 256 x 255 grid)."""
    H = TeParityCheck(*shape)
    assert TeParityCheck.from_bytes(H.to_bytes()) == H


@pytest.mark.parametrize("r, n, L", [(0, 2**32 - 1, 2**32 - 1), (5, 2**32 - 1, 0),
                                     (0, 257, 255), (0, 1, 2**16)])
def test_from_bytes_bounds_a_header_with_an_empty_body(r, n, L):
    """A header declaring more than 2^16 rows and cells with an empty body
    is refused before any row is built, the largest sizes a header holds
    too."""
    header = struct.pack(">4sHIIIiH", b"TEPC", 1, r, n, L, -1, 0)
    with pytest.raises(ValueError, match=rf"n \* \(L \+ 1\) = {n * (L + 1)} rows and cells"):
        TeParityCheck.from_bytes(header)


def test_message_of_rejects_other_shapes():
    enc = TeEncoder(construct_hasse(16, 4, 4))
    x = enc.encode([1] * enc.k)
    assert enc.message_of(x) == [1] * enc.k
    for n, L in ((16, 5), (15, 4), (17, 4), (16, 3)):
        with pytest.raises(ValueError, match="shape"):
            enc.message_of(BitArray(n, L, (0,) * n))
    # another type is a TypeError, a damaged array of the right shape too
    for other in (None, RaggedArray(16, 4, (0,) * 16, (0,) * 16)):
        with pytest.raises(TypeError, match="expected a BitArray"):
            enc.message_of(other)
        with pytest.raises(TypeError, match="expected a BitArray"):
            enc.H.contains(other)


def test_theorem1_both_directions_small():
    """A set of arrays corrects every e-TE iff its brute minimum distance
    exceeds e, checked for a real code and a deliberately bad set."""
    from conftest import code_corrects_all_te

    H = construct_1(hamming_pcm(3), 3, 1)
    codewords = list(TeEncoder(H).codewords())
    dmin = min(rho_te_distance(a, b)
               for i, a in enumerate(codewords) for b in codewords[i + 1:])
    assert dmin == 3
    for e in range(1, 5):
        assert code_corrects_all_te(codewords, e, 2, 3) == (dmin >= e + 1)

    bad = [BitArray.from_lists([[0, 0], [0, 0], [0, 0]]),
           BitArray.from_lists([[0, 0], [0, 0], [0, 1]])]
    assert not code_corrects_all_te(bad, 1, 2, 3)
    assert min(rho_te_distance(bad[0], bad[1]) for _ in (0,)) < 2


# --- oracles: the gf2_solve erasure decoder and the per-pattern rank
# verifier, kept as the reference for the column-basis implementations ---

def gf2_solve(rows, ncols, b):
    """Solve A x = b over GF(2) for A given as row bitsets, by Gauss-Jordan
    elimination of the augmented rows with pivots searched left to right.

    Returns (x, unique), x packed as an int (bit j is x_j) and unique saying
    whether it is the only solution, or None when no solution exists.
    """
    work = [row | (bit & 1) << ncols for row, bit in zip(rows, b)]
    pivots = []
    for col in range(ncols + 1):
        top = len(pivots)
        pivot = next((r for r in range(top, len(work)) if work[r] >> col & 1), None)
        if pivot is None:
            continue
        work[top], work[pivot] = work[pivot], work[top]
        for r in range(len(work)):
            if r != top and work[r] >> col & 1:
                work[r] ^= work[top]
        pivots.append(col)
    if ncols in pivots:
        return None
    x = 0
    for row, col in zip(work, pivots):
        if row >> ncols & 1:
            x |= 1 << col
    return x, len(pivots) == ncols


def oracle_te_decode(H, received):
    """Solve for the erased cells with gf2_solve, one bit-row per parity bit."""
    if (received.n, received.L) != (H.n, H.L):
        raise ValueError("shape mismatch")
    syndrome = 0
    unknown = []
    for i in range(1, H.n + 1):
        known = received.L - received.lost[i - 1]
        bits = received.rows[i - 1]
        for j in range(1, known + 1):
            if (bits >> (j - 1)) & 1:
                syndrome ^= H.column(i, j)
        for j in range(known + 1, H.L + 1):
            unknown.append((i, j))
    if not unknown:
        out = BitArray(H.n, H.L, received.rows)
        if not H.contains(out):
            raise NotACodewordError("array fails the parity check")
        return out
    sys_rows = []
    target = []
    for b in range(H.r):
        row = 0
        for idx, (i, j) in enumerate(unknown):
            row |= ((H.column(i, j) >> b) & 1) << idx
        sys_rows.append(row)
        target.append((syndrome >> b) & 1)
    solved = gf2_solve(sys_rows, len(unknown), target)
    if solved is None:
        raise NotACodewordError("surviving entries match no codeword")
    solution, unique = solved
    if not unique:
        raise AmbiguousErasureError("erasure pattern exceeds the code's "
                                    "correction capability")
    rows = list(received.rows)
    for idx, (i, j) in enumerate(unknown):
        if (solution >> idx) & 1:
            rows[i - 1] |= 1 << (j - 1)
    return BitArray(H.n, H.L, tuple(rows))


def oracle_patterns_with_sum(total, L, n):
    cap = min(total, L)

    def rec(prefix, budget):
        remaining = n - len(prefix)
        if remaining == 0:
            if budget == 0:
                yield prefix
            return
        if budget > cap * remaining:
            return
        for v in range(min(cap, budget), -1, -1):
            yield from rec(prefix + (v,), budget - v)

    yield from rec((), total)


def oracle_verify_min_distance(H, max_e):
    """gf2_rank of every pattern's column multiset, weight by weight."""
    examined = 0
    for e in range(1, max_e + 1):
        for p in oracle_patterns_with_sum(e, H.L, H.n):
            examined += 1
            cols = pattern_multiset(H, p)
            if gf2_rank(cols) < len(cols):
                return MinDistanceResult(e, True, p, examined)
    return MinDistanceResult(max_e + 1, False, None, examined)


# Every construction this file tests.
DIFFERENTIAL_CODES = {
    "example-7x2": hamming_example_pcm,
    "c1-ham7": lambda: construct_1(hamming_pcm(7), 7, 1),
    "c1-ham3": lambda: construct_1(hamming_pcm(3), 3, 1),
    "c1-ham5-wide": lambda: prepend_clean_columns(construct_1(hamming_pcm(5), 5, 1), 3),
    "c1-ham9": lambda: construct_1(hamming_pcm(9), 9, 1),
    "c1-bch10": lambda: construct_1(bch_pcm(10, 5)[0], 5, 2),
    "c1-bch16": lambda: construct_1(bch_pcm(16, 5)[0], 8, 2),
    "even-ham7": lambda: construct_even(extended_hamming_pcm(7), 7, 1),
    "even-bch11": lambda: construct_even(
        cyclic_pcm(bch_generator(4, 5, with_parity_factor=True), 11), 5, 2),
    "parity-4x3": lambda: construct_parity(4, 3),
    **{f"claim5-{n}": (lambda n=n: construct_claim5(n)) for n in (3, 6, 11)},
    **{f"claim7-{n}": (lambda n=n: construct_claim7(n)) for n in (3, 4, 8)},
    **{f"hasse-raw-{n}-{L}-{e}": (lambda a=(n, L, e): construct_hasse_raw(*a))
       for n, L, e in ((3, 2, 3), (3, 2, 2), (2, 2, 3), (4, 3, 2), (5, 3, 4))},
    **{f"hasse-{n}-{L}-{e}": (lambda a=(n, L, e): construct_hasse(*a))
       for n, L, e in ((3, 2, 2), (4, 2, 2), (7, 2, 2), (8, 2, 2), (3, 2, 3),
                       (4, 2, 3), (7, 2, 3), (3, 3, 3), (4, 3, 3), (7, 3, 3),
                       (3, 2, 4), (4, 2, 5), (7, 2, 5), (4, 3, 4), (4, 4, 5),
                       (8, 3, 5))},
    # Rows of more than 8 cells: syndrome tables of 2 and 3 chunks.
    "hasse-5-10-3": lambda: construct_hasse(5, 10, 3),
    "hasse-raw-2-17-3": lambda: construct_hasse_raw(2, 17, 3),
}

# Deep enough for every code above: all but two have distance at most 6.
DIFFERENTIAL_MAX_E = 6


def _outcome(decode, H, received):
    try:
        return decode(H, received)
    except ArrayCodeError as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CODES))
def test_verifier_matches_oracle(name):
    H = DIFFERENTIAL_CODES[name]()
    for max_e in range(1, DIFFERENTIAL_MAX_E + 1):
        want = oracle_verify_min_distance(H, max_e)
        got = verify_min_distance(H, max_e)
        assert (got.distance, got.exact, got.witness, got.patterns) == \
            (want.distance, want.exact, want.witness, want.patterns), max_e


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CODES))
def test_decoder_matches_oracle(name):
    """Every pattern up to distance + 1 on a random codeword, and the same
    pattern with one surviving bit flipped: same array or same exception."""
    H = DIFFERENTIAL_CODES[name]()
    d = verify_min_distance(H, DIFFERENTIAL_MAX_E).distance
    enc = TeEncoder(H)
    rng = random.Random(name)
    x = enc.encode([rng.randrange(2) for _ in range(enc.k)])
    outcomes = set()
    for w in range(0, d + 2):
        for p in enumerate_patterns(w, H.L, H.n):
            received = apply_te_pattern(x, p)
            want = _outcome(oracle_te_decode, H, received)
            assert _outcome(te_decode, H, received) == want, p
            outcomes.add(want if isinstance(want, type) else "decoded")
            if w < d:
                assert want == x
            survivors = [(i, j) for i in range(H.n) for j in range(H.L - p[i])]
            if survivors:
                i, j = rng.choice(survivors)
                rows = list(received.rows)
                rows[i] ^= 1 << j
                flipped = RaggedArray(H.n, H.L, tuple(rows), received.lost)
                want = _outcome(oracle_te_decode, H, flipped)
                assert _outcome(te_decode, H, flipped) == want, (p, i, j)
                outcomes.add(want if isinstance(want, type) else "decoded")
    assert {"decoded", NotACodewordError} <= outcomes
    if d <= DIFFERENTIAL_MAX_E:
        assert AmbiguousErasureError in outcomes


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CODES))
def test_tail_cells_are_the_row_tails(name):
    """tails[i][p] holds the last p cells of row i, left to right, each as
    (column, flat bit i*L + j); the table is built once per parity check."""
    H = DIFFERENTIAL_CODES[name]()
    tails = H._tail_cells
    assert len(tails) == H.n
    for i, row in enumerate(H.cols):
        assert len(tails[i]) == H.L + 1
        for p in range(H.L + 1):
            assert tails[i][p] == tuple((row[j], 1 << (i * H.L + j))
                                        for j in range(H.L - p, H.L)), (i, p)
    assert H._tail_cells is tails


# Rows of 10 and 17 cells (syndrome tables of 2 and 3 chunks), the
# benchmark's code, and a code of distance 11 whose rows of 10 cells
# decode when erased whole.
TAIL_CODES = {
    "hasse-5-10-3": DIFFERENTIAL_CODES["hasse-5-10-3"],
    "hasse-raw-2-17-3": DIFFERENTIAL_CODES["hasse-raw-2-17-3"],
    "hasse-16-4-4": lambda: construct_hasse(16, 4, 4),
    "hasse-raw-3-10-10": lambda: construct_hasse_raw(3, 10, 10),
}


def _row_patterns(n, L):
    """Every single-row pattern p = 1..L on every row, then every pair of
    whole-row erasures."""
    for i in range(n):
        for p in range(1, L + 1):
            yield tuple(p if k == i else 0 for k in range(n))
    for a, b in combinations(range(n), 2):
        yield tuple(L if k in (a, b) else 0 for k in range(n))


@pytest.mark.parametrize("name", sorted(TAIL_CODES))
def test_decoder_matches_oracle_up_to_whole_rows(name):
    """Patterns that reach p = L, on rows longer than 8 cells too, and each
    with one surviving bit flipped: same array or same exception."""
    H = TAIL_CODES[name]()
    enc = TeEncoder(H)
    rng = random.Random(name)
    x = enc.encode([rng.randrange(2) for _ in range(enc.k)])
    outcomes = set()
    for p in _row_patterns(H.n, H.L):
        received = apply_te_pattern(x, p)
        arrays = [received]
        survivors = [(i, j) for i in range(H.n) for j in range(H.L - p[i])]
        if survivors:
            i, j = rng.choice(survivors)
            rows = list(received.rows)
            rows[i] ^= 1 << j
            arrays.append(RaggedArray(H.n, H.L, tuple(rows), received.lost))
        for y in arrays:
            want = _outcome(oracle_te_decode, H, y)
            assert _outcome(te_decode, H, y) == want, (p, y.rows)
            outcomes.add(want if isinstance(want, type) else "decoded")
    assert {"decoded", AmbiguousErasureError} <= outcomes


def _column_sum(H, x):
    """The syndrome as the XOR of the columns of x's one bits."""
    s = 0
    for i in range(1, H.n + 1):
        for j in range(1, H.L + 1):
            if x.rows[i - 1] >> (j - 1) & 1:
                s ^= H.column(i, j)
    return s


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CODES))
def test_tables_match_column_sums(name):
    """Table syndromes against the column sum on random arrays; encoded
    arrays have column sum 0 and give their message back."""
    H = DIFFERENTIAL_CODES[name]()
    enc = TeEncoder(H)
    rng = random.Random(name)
    for _ in range(50):
        x = BitArray(H.n, H.L, tuple(rng.getrandbits(H.L) for _ in range(H.n)))
        assert H.syndrome(x) == _column_sum(H, x)
        msg = [rng.randrange(2) for _ in range(enc.k)]
        c = enc.encode(msg)
        assert _column_sum(H, c) == 0
        assert enc.message_of(c) == msg


def test_decode_rejects_a_bit_array():
    """An undamaged array is not a TE input: a ValueError naming the array
    type, not an AttributeError from reading its lost counts."""
    H = construct_1(hamming_pcm(7), 7, 1)
    with pytest.raises(ValueError, match="te_decode decodes a RaggedArray, got BitArray"):
        te_decode(H, BitArray(7, 1, (0,) * 7))
    with pytest.raises(ValueError, match="got BitArray"):
        TeCodec(H).decode(BitArray(7, 1, (0,) * 7))
    zero = BitArray(7, H.L, (0,) * 7)
    assert te_decode(H, RaggedArray(7, H.L, zero.rows, (1,) + (0,) * 6)) == zero


def oracle_apply_te_pattern(x, p):
    """The row-by-row channel: range-check and mask one row at a time."""
    if len(p) != x.n:
        raise ValueError("pattern length does not match row count")
    rows = []
    for r, pi in zip(x.rows, p):
        if pi < 0 or pi > x.L:
            raise ValueError("per-row erasure count out of range")
        keep = x.L - pi
        rows.append(r & ((1 << keep) - 1))
    return RaggedArray(x.n, x.L, tuple(rows), tuple(int(v) for v in p))


def oracle_message_of(enc, x):
    """The message bits read one cell at a time from the row-major flat
    bit list."""
    flat = 0
    for i, r in enumerate(x.rows):
        flat |= r << (i * x.L)
    flat_bits = [flat >> c & 1 for c in range(x.n * x.L)]
    return [flat_bits[c] for c in enc.message_cells]


def _assert_rebuilds(obj):
    """An array built by the library equals its public-constructor rebuild,
    which runs every check."""
    if isinstance(obj, RaggedArray):
        rebuilt = RaggedArray(obj.n, obj.L, obj.rows, obj.lost)
        assert all(type(v) is int for v in obj.lost)
    else:
        rebuilt = type(obj)(obj.n, obj.L, obj.rows)
    assert rebuilt == obj and type(rebuilt) is type(obj)
    assert type(obj.rows) is tuple


def _check_channel_and_messages(H, patterns, seed):
    """Channel, decoder and message_of against the oracles on every
    pattern, for a few random codewords; every array the library builds
    rebuilds through its public constructor."""
    enc = TeEncoder(H)
    rng = random.Random(seed)
    for _ in range(3):
        msg = [rng.randrange(2) for _ in range(enc.k)]
        x = enc.encode(msg)
        _assert_rebuilds(x)
        assert enc.message_of(x) == oracle_message_of(enc, x) == msg
        for p in patterns:
            received = apply_te_pattern(x, p)
            assert received == oracle_apply_te_pattern(x, p), p
            _assert_rebuilds(received)
            try:
                decoded = te_decode(H, received)
            except ArrayCodeError:
                continue
            _assert_rebuilds(decoded)
            assert enc.message_of(decoded) == oracle_message_of(enc, decoded)
    for _ in range(20):
        y = BitArray(H.n, H.L, tuple(rng.getrandbits(H.L) for _ in range(H.n)))
        assert enc.message_of(y) == oracle_message_of(enc, y)
    for bad in ((0,) * (H.n + 1), (-1,) + (0,) * (H.n - 1),
                (H.L + 1,) + (0,) * (H.n - 1), (0,) * (H.n - 1) + (H.L + 1,)):
        for apply in (apply_te_pattern, oracle_apply_te_pattern):
            with pytest.raises(ValueError):
                apply(x, bad)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CODES))
def test_channel_and_message_of_match_oracles(name):
    H = DIFFERENTIAL_CODES[name]()
    patterns = list(enumerate_patterns(min(4, H.n * H.L), H.L, H.n))
    _check_channel_and_messages(H, patterns, name)


def test_channel_and_message_of_match_oracles_hasse_16_4_4():
    """Every one of the 4,845 patterns of at most 4 tail erasures."""
    H = construct_hasse(16, 4, 4)
    patterns = list(enumerate_patterns(4, H.L, H.n))
    assert len(patterns) == 4845
    _check_channel_and_messages(H, patterns, "hasse-16-4-4")


def test_codec_is_the_encoder():
    """One class encodes and decodes; `TeEncoder` names it too."""
    assert TeEncoder is TeCodec


def test_encode_rejects_a_message_of_the_wrong_length():
    enc = TeCodec(construct_hasse(16, 4, 4))
    for length in (0, enc.k - 1, enc.k + 1):
        with pytest.raises(ValueError, match=f"message must have {enc.k} bits"):
            enc.encode([0] * length)


def test_encoders_reject_non_binary_messages():
    enc = TeCodec(construct_hasse(16, 4, 4))
    for bad in (2, -1, 257):
        msg = [bad] + [0] * (enc.k - 1)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            enc.encode(msg)
    assert enc.encode([True] + [0] * (enc.k - 1)) == enc.encode([1] + [0] * (enc.k - 1))
