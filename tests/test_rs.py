import random
from itertools import combinations, product

import pytest

from arraycodes.channel import ChannelSpec, apply_channel, random_instance
from arraycodes.errors import CapacityExceededError, NotACodewordError
from arraycodes.field import field_make
from arraycodes.rs import ReedSolomon
from arraycodes.ted import TedCode


# --- reference oracle: the code by evaluation and Lagrange interpolation ----

def _lagrange_interpolate(f, points):
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


def _poly_eval(f, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = f.mul(acc, x) ^ c
    return acc


def _oracle_encode(rs, message):
    f = rs.field
    pts = [f.alpha_pow(i) for i in range(rs.n)]
    coeffs = _lagrange_interpolate(f, list(zip(pts[: rs.k], message)))
    return list(message) + [_poly_eval(f, coeffs, x) for x in pts[rs.k:]]


def _oracle_decode(rs, received):
    """Interpolate k survivors, then check every survivor."""
    f = rs.field
    pts = [f.alpha_pow(i) for i in range(rs.n)]
    known = [(pts[i], v) for i, v in enumerate(received) if v is not None]
    if rs.n - len(known) > rs.n - rs.k:
        raise CapacityExceededError("oracle: too many erasures")
    coeffs = _lagrange_interpolate(f, known[: rs.k])
    codeword = [_poly_eval(f, coeffs, x) for x in pts]
    if any(v is not None and v != c for v, c in zip(received, codeword)):
        raise NotACodewordError("oracle: survivors are inconsistent")
    return codeword


def _oracle_is_codeword(rs, word):
    return _oracle_encode(rs, word[: rs.k]) == list(word)


# --- the private kernels, called as one encoder and one erasure decoder ------

def _encode(rs, message):
    """The systematic codeword of k message symbols: the message, then its
    `_parity` symbols."""
    return list(message) + rs._parity(message)


def _erasure_decode(rs, received):
    """The codeword `_fill_erasures` makes of a word that marks each erased
    symbol None."""
    erased = [i for i, v in enumerate(received) if v is None]
    word = [0 if v is None else v for v in received]
    rs._fill_erasures(word, erased)
    return word


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CapacityExceededError, NotACodewordError) as exc:
        return type(exc)


def test_zero_message():
    rs = ReedSolomon(field_make(3), 7, 5)
    assert _encode(rs, [0] * 5) == [0] * 7


def test_systematic_prefix():
    rs = ReedSolomon(field_make(3), 7, 5)
    rng = random.Random(0)
    for _ in range(20):
        msg = [rng.randrange(8) for _ in range(5)]
        cw = _encode(rs, msg)
        assert cw[:5] == msg
        assert rs.is_codeword(cw)


def test_753_all_two_erasure_supports():
    rs = ReedSolomon(field_make(3), 7, 5)
    rng = random.Random(1)
    for _ in range(5):
        cw = _encode(rs, [rng.randrange(8) for _ in range(5)])
        for erased in combinations(range(7), 2):
            received = [None if i in erased else cw[i] for i in range(7)]
            assert _erasure_decode(rs, received) == cw


def test_capacity_exceeded():
    rs = ReedSolomon(field_make(3), 7, 5)
    cw = _encode(rs, [1, 2, 3, 4, 5])
    received = [None, None, None] + cw[3:]
    with pytest.raises(CapacityExceededError):
        _erasure_decode(rs, received)


def test_not_a_codeword():
    rs = ReedSolomon(field_make(3), 7, 5)
    cw = _encode(rs, [1, 2, 3, 4, 5])
    cw[6] ^= 1
    with pytest.raises(NotACodewordError):
        _erasure_decode(rs, cw)


def test_zero_erasures_is_identity():
    rs = ReedSolomon(field_make(4), 9, 6)
    rng = random.Random(2)
    cw = _encode(rs, [rng.randrange(16) for _ in range(6)])
    assert _erasure_decode(rs, cw) == cw


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (8, 5)])
def test_exhaustive_erasure_supports(n, k):
    rs = ReedSolomon(field_make(4), n, k)
    rng = random.Random(n * k)
    for _ in range(3):
        cw = _encode(rs, [rng.randrange(16) for _ in range(k)])
        for erased in combinations(range(n), n - k):
            received = [None if i in erased else cw[i] for i in range(n)]
            assert _erasure_decode(rs, received) == cw


@pytest.mark.parametrize("m,n,k", [(2, 3, 1), (2, 3, 2), (3, 4, 1)])
def test_every_received_word_fills_or_is_rejected(m, n, k):
    """Every word and every erasure set within capacity: the fill is the
    one codeword that agrees with the survivors, or NotACodewordError when
    none does, whichever modified syndrome at or above the erasure count
    is the nonzero one."""
    f = field_make(m)
    rs = ReedSolomon(f, n, k)
    codewords = [_encode(rs, list(msg)) for msg in product(range(f.order), repeat=k)]
    for eps in range(n - k + 1):
        for erased in combinations(range(n), eps):
            kept = [i for i in range(n) if i not in erased]
            # n - k >= eps erasures: at most one codeword per survivor set
            by_survivors = {tuple(cw[i] for i in kept): cw for cw in codewords}
            assert len(by_survivors) == len(codewords)
            for survivors in product(range(f.order), repeat=len(kept)):
                received = [None] * n
                for i, c in zip(kept, survivors):
                    received[i] = c
                expected = by_survivors.get(survivors, NotACodewordError)
                assert _outcome(_erasure_decode, rs, received) == expected


@pytest.mark.parametrize("n,k", [(5, 3), (7, 4), (8, 2)])
def test_mds_every_k_columns_invertible(n, k):
    """Any k codeword positions determine the message: the k x k submatrix
    of the generator at every position subset is invertible over the field."""
    f = field_make(4)
    rs = ReedSolomon(f, n, k)
    basis = [_encode(rs, [1 if i == j else 0 for i in range(k)]) for j in range(k)]
    for positions in combinations(range(n), k):
        assert _field_rank(f, basis, positions) == k


def _field_rank(f, basis, positions):
    mat = [[basis[b][p] for p in positions] for b in range(len(basis))]
    rank = 0
    cols = list(range(len(positions)))
    for row in range(len(mat)):
        pivot = None
        for c in cols:
            if mat[row][c]:
                pivot = c
                break
        if pivot is None:
            continue
        cols.remove(pivot)
        rank += 1
        inv = f.inv(mat[row][pivot])
        for r2 in range(len(mat)):
            if r2 != row and mat[r2][pivot]:
                scale = f.mul(mat[r2][pivot], inv)
                for c in range(len(mat[0])):
                    mat[r2][c] ^= f.mul(scale, mat[row][c])
    return rank


def test_length_cap():
    with pytest.raises(ValueError):
        ReedSolomon(field_make(3), 8, 2)


@pytest.mark.parametrize("m,n,k", [(4, 5, 2), (3, 7, 1), (3, 7, 7), (5, 31, 23),
                                   (5, 31, 30), (6, 40, 30), (17, 20, 12),
                                   (8, 40, 30), (12, 40, 30)])
def test_parity_check_form_matches_lagrange_oracle(m, n, k):
    """Encode, erasure decode and membership agree with interpolation for
    every erasure count, for inconsistent survivors and past capacity.
    GF(2^17) has no log tables, so it covers the plain multiply path."""
    f = field_make(m)
    rs = ReedSolomon(f, n, k)
    rng = random.Random(1000 * m + 10 * n + k)
    for _ in range(2):
        msg = [rng.randrange(f.order) for _ in range(k)]
        cw = _encode(rs, msg)
        assert cw == _oracle_encode(rs, msg)
        assert rs.is_codeword(cw) and _oracle_is_codeword(rs, cw)
        for eps in range(n - k + 2):
            erased = set(rng.sample(range(n), eps))
            received = [None if i in erased else c for i, c in enumerate(cw)]
            expected = _outcome(_oracle_decode, rs, received)
            assert _outcome(_erasure_decode, rs, received) == expected
            if eps > n - k:
                assert expected is CapacityExceededError
                continue
            assert expected == cw
            if eps < n - k:
                pos = rng.choice([i for i in range(n) if i not in erased])
                received[pos] ^= rng.randrange(1, f.order)
                assert _outcome(_oracle_decode, rs, received) is NotACodewordError
                assert _outcome(_erasure_decode, rs, received) is NotACodewordError
        for pos in rng.sample(range(n), 5):
            word = list(cw)
            word[pos] ^= rng.randrange(1, f.order)
            assert rs.is_codeword(word) == _oracle_is_codeword(rs, word)
            assert rs.is_codeword(word) == (k == n)


# --- packed table kernels against the per-entry products ---------------------

def _reference_matrices(rs):
    """H[r][i] = v_i x_i^r and P[i][p] = L_i(x_{k+p}), entry by entry."""
    f, n, k = rs.field, rs.n, rs.k
    pts = [f.alpha_pow(i) for i in range(n)]

    def prod_diff(z, indices):
        acc = 1
        for j in indices:
            acc = f.mul(acc, z ^ pts[j])
        return acc

    h = []
    for i in range(n):
        v = f.inv(prod_diff(pts[i], [j for j in range(n) if j != i]))
        h.append([f.mul(v, f.pow(pts[i], r)) for r in range(n - k)])
    p = [[f.mul(f.inv(prod_diff(pts[i], [j for j in range(k) if j != i])),
                prod_diff(pts[k + q], [j for j in range(k) if j != i]))
          for q in range(n - k)] for i in range(k)]
    return pts, h, p


def _products(f, columns, word):
    """XOR_i columns[i][r] * word[i] for every r, one Gf2m.mul per entry."""
    out = [0] * len(columns[0])
    for column, w in zip(columns, word):
        for r, c in enumerate(column):
            out[r] ^= f.mul(c, w)
    return out


@pytest.mark.parametrize("m,n,k", [(4, 5, 2), (3, 7, 1), (3, 7, 7), (5, 31, 23),
                                   (5, 31, 30), (6, 40, 30), (17, 20, 12),
                                   (8, 40, 30), (12, 40, 30)])
def test_packed_kernels_match_entrywise_products(m, n, k):
    """Syndrome, parity and evaluation tables agree with Gf2m.mul products
    and Horner's rule; GF(2^17) splits each symbol into three chunks."""
    f = field_make(m)
    rs = ReedSolomon(f, n, k)
    pts, h, p = _reference_matrices(rs)
    tables = rs._tables
    assert max(map(len, tables.syn + tables.par + tables.ev)) <= 256
    rng = random.Random(7 * m + n + k)
    for _ in range(10):
        word = [rng.randrange(f.order) for _ in range(n)]
        word[rng.randrange(n)] = f.order - 1
        assert rs._unpack(rs._lookup(tables.syn, word)) == _products(f, h, word)
        msg = word[:k]
        assert rs._parity(msg) == _products(f, p, msg)
        coeffs = [rng.randrange(f.order) for _ in range(rng.randint(0, n - k))]
        packed = rs._lookup(tables.ev, coeffs)
        for j, xj in enumerate(pts):
            value = packed >> (tables.stride * j) & (f.order - 1)
            assert value == _poly_eval(f, coeffs, f.inv(xj))


def test_byte_lanes_carry_all_8_bits_at_m_8():
    """At m = 8 a symbol fills its byte lane, so a carry into the next lane
    or a dropped top bit would show here first.  `_parity` output makes a
    codeword by `is_codeword` and by evaluating the message polynomial, and
    every parity lane carries a symbol with its top bit set."""
    f = field_make(8)
    rs = ReedSolomon(f, 80, 16)
    rng = random.Random(8)
    tops = [False] * (rs.n - rs.k)
    for trial in range(20):
        msg = [rng.randrange(f.order) for _ in range(rs.k)] if trial else [255] * rs.k
        parity = rs._parity(msg)
        assert msg + parity == _oracle_encode(rs, msg)
        assert rs.is_codeword(msg + parity)
        tops = [seen or p >= 128 for seen, p in zip(tops, parity)]
        for p in range(len(parity)):
            word = msg + parity
            word[rs.k + p] ^= 128
            assert not rs.is_codeword(word)
    assert all(tops)


@pytest.mark.parametrize("m,n,k", [(3, 7, 5), (17, 20, 12), (8, 20, 12), (12, 20, 12)])
def test_symbols_out_of_range_rejected(m, n, k):
    """A word with a symbol outside [0, 2^m) is no codeword: the symbol
    never reaches the tables, where a high bit would be masked away or
    index past a row."""
    f = field_make(m)
    rs = ReedSolomon(f, n, k)
    cw = _encode(rs, [1] * k)
    for bad in (-1, -f.order, f.order, cw[0] | f.order, cw[0] ^ (1 << (m + 8))):
        assert not rs.is_codeword([bad] + cw[1:])
    assert not ReedSolomon(field_make(3), 7, 5).is_codeword([8, 0, 0, 0, 0, 0, 0])


# --- the erasure fill core against its mul/inv form ----------------------------

def _mul_inv_fill(rs, word, erased):
    """The fill with one Gf2m.mul or Gf2m.inv per product, on the scalar
    syndromes and polynomials: the reference for
    `ReedSolomon._fill_erasures` on every field, whatever lanes its tables
    pack."""
    eps, r = len(erased), rs.n - rs.k
    if eps > r:
        raise CapacityExceededError(f"{eps} erasures exceed capacity {r}")
    f = rs.field
    mul = f.mul
    if not rs._in_range(word):
        raise ValueError(f"received symbols must lie in [0, {f.order})")
    syndromes = rs._unpack(rs._lookup(rs._tables.syn, word))
    pts = [f.alpha_pow(i) for i in range(rs.n)]
    lam = [1] + [0] * eps
    for degree, j in enumerate(erased, 1):
        for d in range(degree, 0, -1):
            lam[d] ^= mul(lam[d - 1], pts[j])
    modified = [0] * r
    for i in range(r):
        for d in range(min(i, eps) + 1):
            modified[i] ^= mul(lam[d], syndromes[i - d])
    if any(modified[eps:]):
        raise NotACodewordError("surviving symbols are not consistent with any codeword")
    derivative = [lam[d + 1] if d % 2 == 0 else 0 for d in range(eps)]
    for j in erased:
        z = f.inv(pts[j])
        # x_j / v_j = x_j prod_{i != j} (x_j - x_i)
        scale = pts[j]
        for i, xi in enumerate(pts):
            if i != j:
                scale = mul(scale, pts[j] ^ xi)
        word[j] = mul(mul(_poly_eval(f, modified[:eps], z), scale),
                      f.inv(_poly_eval(f, derivative, z)))


def _fill_outcome(fill, rs, word, erased):
    try:
        result = fill(rs, word, erased)
    except (CapacityExceededError, NotACodewordError) as exc:
        return type(exc), str(exc)
    return word, result


@pytest.mark.parametrize("m,n,k", [(2, 3, 1), (3, 7, 3), (4, 15, 9), (5, 31, 23),
                                   (6, 63, 55), (7, 127, 119), (8, 255, 247),
                                   (8, 40, 30), (9, 511, 503), (12, 40, 30),
                                   (16, 40, 30), (17, 20, 12), (10, 60, 44),
                                   (13, 40, 24)])
def test_fill_core_matches_the_mul_inv_form(m, n, k):
    """Same filled word, or same exception and message, as the mul/inv
    form, for every erasure count up to one past capacity, on codewords and
    on random (mostly inconsistent) survivors.  m = 2 .. 8 at full length
    n = 2^m - 1 are the byte-lane fields; m = 8 | 9 straddles the byte
    lanes and the one-chunk boundary of the tables, 16 | 17 the last field
    with log tables; (10, 60, 44) and (13, 40, 24) pack 2r + 2 = 34 wide
    lanes into the fill's int; the fill also returns the survivors' packed
    syndrome."""
    f = field_make(m)
    rs = ReedSolomon(f, n, k)
    assert (f._log is None) == (m > 16)
    assert bool(rs._tables.times) == (2 <= m <= 8)
    rng = random.Random(31 * m + n)
    seen = set()
    for trial in range(40):
        if trial % 2:
            word = [rng.randrange(f.order) for _ in range(n)]
        else:
            word = _encode(rs, [rng.randrange(f.order) for _ in range(k)])
        for eps in range(n - k + 2):
            erased = rng.sample(range(n), eps)
            received = [0 if i in erased else c for i, c in enumerate(word)]
            want = _fill_outcome(_mul_inv_fill, rs, list(received), erased)
            got = _fill_outcome(lambda rs, word, erased: rs._fill_erasures(word, erased),
                                rs, list(received), erased)
            if isinstance(want[0], list):
                want = (want[0], rs._lookup(rs._tables.syn, received))
            assert got == want, (trial, erased)
            seen.add(want[0] if isinstance(want[0], type) else "filled")
    assert seen == {"filled", NotACodewordError, CapacityExceededError}


def test_ted_round_trips_over_a_field_without_log_tables():
    """TED(6, 8191, t=1, e=4): h + e = 17, so the outer code's fill takes the
    mul/inv branch inside a full decode."""
    code = TedCode(6, 8191, t=1, e=4)
    assert code.outer.field.m == 17 and code.outer._tables.log is None
    spec = ChannelSpec("ted", t=1, s=1, e=4)
    rng = random.Random(17)
    damaged = 0
    for _ in range(5):
        x = code.encode([rng.randrange(2) for _ in range(code.message_bits)])
        for _ in range(3):
            received = apply_channel(x, spec, random_instance(spec, code.n, code.L, rng))
            damaged += any(received.lost)
            assert code.decode(received) == x
    assert damaged >= 10
