import random
from itertools import combinations

import pytest

from arraycodes.errors import CapacityExceededError, NotACodewordError
from arraycodes.field import field_make
from arraycodes.rs import ReedSolomon


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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CapacityExceededError, NotACodewordError) as exc:
        return type(exc)


def test_zero_message():
    rs = ReedSolomon(field_make(3), 7, 5)
    assert rs.encode([0] * 5) == [0] * 7


def test_systematic_prefix():
    rs = ReedSolomon(field_make(3), 7, 5)
    rng = random.Random(0)
    for _ in range(20):
        msg = [rng.randrange(8) for _ in range(5)]
        cw = rs.encode(msg)
        assert cw[:5] == msg
        assert rs.is_codeword(cw)
        assert rs.message_of(cw) == msg


def test_753_all_two_erasure_supports():
    rs = ReedSolomon(field_make(3), 7, 5)
    rng = random.Random(1)
    for _ in range(5):
        cw = rs.encode([rng.randrange(8) for _ in range(5)])
        for erased in combinations(range(7), 2):
            received = [None if i in erased else cw[i] for i in range(7)]
            assert rs.decode_erasures(received) == cw


def test_capacity_exceeded():
    rs = ReedSolomon(field_make(3), 7, 5)
    cw = rs.encode([1, 2, 3, 4, 5])
    received = [None, None, None] + cw[3:]
    with pytest.raises(CapacityExceededError):
        rs.decode_erasures(received)


def test_not_a_codeword():
    rs = ReedSolomon(field_make(3), 7, 5)
    cw = rs.encode([1, 2, 3, 4, 5])
    cw[6] ^= 1
    with pytest.raises(NotACodewordError):
        rs.decode_erasures(cw)


def test_zero_erasures_is_identity():
    rs = ReedSolomon(field_make(4), 9, 6)
    rng = random.Random(2)
    cw = rs.encode([rng.randrange(16) for _ in range(6)])
    assert rs.decode_erasures(cw) == cw


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (8, 5)])
def test_exhaustive_erasure_supports(n, k):
    rs = ReedSolomon(field_make(4), n, k)
    rng = random.Random(n * k)
    for _ in range(3):
        cw = rs.encode([rng.randrange(16) for _ in range(k)])
        for erased in combinations(range(n), n - k):
            received = [None if i in erased else cw[i] for i in range(n)]
            assert rs.decode_erasures(received) == cw


@pytest.mark.parametrize("n,k", [(5, 3), (7, 4), (8, 2)])
def test_mds_every_k_columns_invertible(n, k):
    """Any k codeword positions determine the message: the k x k submatrix
    of the generator at every position subset is invertible over the field."""
    f = field_make(4)
    rs = ReedSolomon(f, n, k)
    basis = [rs.encode([1 if i == j else 0 for i in range(k)]) for j in range(k)]
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
                                   (5, 31, 30), (6, 40, 30), (17, 20, 12)])
def test_parity_check_form_matches_lagrange_oracle(m, n, k):
    """Encode, erasure decode and membership agree with interpolation for
    every erasure count, for inconsistent survivors and past capacity.
    GF(2^17) has no log tables, so it covers the plain multiply path."""
    f = field_make(m)
    rs = ReedSolomon(f, n, k)
    rng = random.Random(1000 * m + 10 * n + k)
    for _ in range(2):
        msg = [rng.randrange(f.order) for _ in range(k)]
        cw = rs.encode(msg)
        assert cw == _oracle_encode(rs, msg)
        assert rs.is_codeword(cw) and _oracle_is_codeword(rs, cw)
        for eps in range(n - k + 2):
            erased = set(rng.sample(range(n), eps))
            received = [None if i in erased else c for i, c in enumerate(cw)]
            expected = _outcome(_oracle_decode, rs, received)
            assert _outcome(rs.decode_erasures, received) == expected
            if eps > n - k:
                assert expected is CapacityExceededError
                continue
            assert expected == cw
            if eps < n - k:
                pos = rng.choice([i for i in range(n) if i not in erased])
                received[pos] ^= rng.randrange(1, f.order)
                assert _outcome(_oracle_decode, rs, received) is NotACodewordError
                assert _outcome(rs.decode_erasures, received) is NotACodewordError
        for pos in rng.sample(range(n), 5):
            word = list(cw)
            word[pos] ^= rng.randrange(1, f.order)
            assert rs.is_codeword(word) == _oracle_is_codeword(rs, word)
            assert rs.is_codeword(word) == (k == n)
