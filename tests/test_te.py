import random

import pytest

from arraycodes.arrays import (BitArray, apply_te_pattern, enumerate_patterns,
                               rho_te_distance)
from arraycodes.basecodes import bch_pcm, extended_hamming_pcm, hamming_pcm
from arraycodes.errors import AmbiguousErasureError, NotACodewordError
from arraycodes.field import field_make
from arraycodes.gf2 import gf2_rank
from arraycodes.te import (TeCodec, TeEncoder, TeParityCheck,
                           brute_force_min_distance, code_spec, construct_1,
                           construct_claim5, construct_claim7, construct_even,
                           construct_hasse, construct_hasse_raw,
                           construct_parity, derive_generator, te_decode,
                           verify_min_distance)


def ceil_log2(x):
    return (x - 1).bit_length()


def hamming_example_pcm():
    """The worked 7x2 example: row i holds (h_{i+1}, h_i), wrapping at 7."""
    base = hamming_pcm(7)
    h = base.columns()
    cols = tuple((h[i % 7], h[i - 1]) for i in range(1, 8))
    return TeParityCheck(7, 2, 3, cols, "example")


def test_example_multiset_dependency():
    H = hamming_example_pcm()
    p = (1, 0, 0, 0, 0, 0, 2)
    multiset = H.pattern_multiset(p)
    base_cols = hamming_pcm(7).columns()
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
        multiset = H.pattern_multiset(tuple(p))
        assert gf2_rank(multiset) < len(multiset)


def test_construction1_no_column_multiplicity_up_to_2t():
    H = construct_1(bch_pcm(10, 5)[0], 5, 2)
    for p in enumerate_patterns(4, 4, 5):
        multiset = H.pattern_multiset(p)
        assert len(multiset) == len(set(multiset))


def test_construction1_rejects_n2():
    with pytest.raises(ValueError):
        construct_1(hamming_pcm(2), 2, 1)


def test_construction1_d5_base():
    base, mu = bch_pcm(10, 5)
    H = construct_1(base, 5, 2)
    assert H.redundancy == 10 - (10 - base.rank())   # nt - k_B
    result = verify_min_distance(H, 5)
    assert result.exact and result.distance == 5


def test_brute_force_distance_agrees():
    H = construct_1(hamming_pcm(7), 7, 1)
    assert brute_force_min_distance(H) == 3
    H3 = construct_1(hamming_pcm(3), 3, 1)
    assert brute_force_min_distance(H3) == verify_min_distance(H3, 4).distance == 3


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
    assert H.redundancy == 10 - (11 - base.rank()) + 1   # nt - k_b + 1
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
    enc = derive_generator(H)
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
    wide = H.prepend_clean_columns(3)
    assert (wide.n, wide.L) == (5, 5)
    assert wide.redundancy == H.redundancy
    enc = TeEncoder(wide)
    rng = random.Random(8)
    msg = [rng.randrange(2) for _ in range(enc.k)]
    x = enc.encode(msg)
    for p in enumerate_patterns(2, 2, 5):
        assert te_decode(wide, apply_te_pattern(x, p)) == x


def test_code_spec_validation():
    H = construct_1(hamming_pcm(7), 7, 1)
    spec = code_spec(H, 3)
    assert spec.validated
    assert spec.redundancy == 3
    assert not code_spec(H, 4).validated


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
