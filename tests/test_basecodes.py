from itertools import combinations

import pytest

from arraycodes.basecodes import (bch_generator, bch_pcm, claim5_base_pcm,
                                  cyclic_pcm, extended_hamming_pcm,
                                  hamming_pcm)
from arraycodes.field import field_make
from arraycodes.gf2 import gf2_rank, gf2_relations


def min_hamming_distance(pcm) -> int:
    """Minimum weight of the code's nonzero words via nullspace span: the
    relations among the columns are a basis of the code."""
    basis = gf2_relations(pcm.columns)
    best = None
    for mask in range(1, 1 << len(basis)):
        vec = 0
        for i, b in enumerate(basis):
            if (mask >> i) & 1:
                vec ^= b
        w = bin(vec).count("1")
        if best is None or w < best:
            best = w
    return best if best is not None else len(pcm.columns) + 1


@pytest.mark.parametrize("n", [3, 5, 7, 9, 12])
def test_hamming_distance_3(n):
    pcm = hamming_pcm(n)
    assert pcm.r == (n).bit_length()
    assert pcm.columns == tuple(range(1, n + 1))
    assert gf2_rank(pcm.columns) == pcm.r
    assert min_hamming_distance(pcm) >= 3


@pytest.mark.parametrize("n", [3, 5, 7])
def test_extended_hamming_distance_4(n):
    pcm = extended_hamming_pcm(n)
    assert len(pcm.columns) == n + 1
    assert gf2_rank(pcm.columns) == pcm.r == (n).bit_length() + 1
    assert min_hamming_distance(pcm) >= 4


def _poly_mul(a: int, b: int) -> int:
    """Product of binary polynomials (ints, bit i = coeff of x^i)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def _minimal_polynomial(f, elem: int) -> int:
    """Minimal polynomial over GF(2) of an element of GF(2^m): prod (x - c)
    over its conjugates {elem^(2^k)}, expanded with field coefficients."""
    conjugates = []
    c = elem
    while c not in conjugates:
        conjugates.append(c)
        c = f.mul(c, c)
    poly = [1]
    for c in conjugates:
        nxt = [0] * (len(poly) + 1)
        for i, coef in enumerate(poly):
            nxt[i + 1] ^= coef
            nxt[i] ^= f.mul(coef, c)
        poly = nxt
    assert all(coef in (0, 1) for coef in poly)
    return sum(coef << i for i, coef in enumerate(poly))


def _lcm_generator(mu: int, designed_distance: int, with_parity_factor: bool) -> int:
    """Reference oracle: the lcm of the minimal polynomials of alpha^1 ..
    alpha^(designed_distance - 1), times (x + 1) with the parity factor."""
    f = field_make(mu)
    g = 0b11 if with_parity_factor else 1
    seen = set()
    for i in range(1, designed_distance):
        root = f.alpha_pow(i)
        if root in seen:
            continue
        g = _poly_mul(g, _minimal_polynomial(f, root))
        while root not in seen:
            seen.add(root)
            root = f.mul(root, root)
    return g


def test_minimal_polynomial_oracle_gf8():
    f = field_make(3)
    assert _minimal_polynomial(f, f.alpha) == 0b1011          # x^3 + x + 1
    assert _minimal_polynomial(f, f.alpha_pow(3)) == 0b1101   # x^3 + x^2 + 1
    assert _minimal_polynomial(f, 1) == 0b11
    assert _minimal_polynomial(f, 0) == 0b10


def test_bch_generator_gf8():
    assert bch_generator(3, 2) == 0b1011                  # m1 = x^3 + x + 1
    assert bch_generator(3, 4) == 0b1111111               # m1 m3 = (x^7 - 1)/(x - 1)
    assert bch_generator(3, 1, with_parity_factor=True) == 0b11
    assert bch_generator(3, 1) == 1
    # Past 2^mu - 1 the designed roots hold alpha^7 = 1 already: the parity
    # factor adds no second (x + 1), and g = x^7 - 1.
    assert bch_generator(3, 8, with_parity_factor=True) == 0b10000001


@pytest.mark.parametrize("with_parity_factor", [False, True])
@pytest.mark.parametrize("mu", range(2, 9))
def test_bch_generator_matches_the_lcm_oracle(mu, with_parity_factor):
    """Every designed distance below 2^mu: there the parity root 0 is never
    also a designed root, and both forms agree."""
    for dd in range(1 << mu):
        assert bch_generator(mu, dd, with_parity_factor) == \
            _lcm_generator(mu, dd, with_parity_factor), dd


@pytest.mark.parametrize("mu,dd,with_parity_factor", [(9, 11, True), (10, 17, False),
                                                       (11, 9, True)])
def test_bch_generator_matches_the_lcm_oracle_wide(mu, dd, with_parity_factor):
    assert bch_generator(mu, dd, with_parity_factor) == \
        _lcm_generator(mu, dd, with_parity_factor)


def test_bch_generator_without_log_tables():
    # GF(2^17) has no log tables; the degree is 17 per coset, plus one
    g = bch_generator(17, 5, with_parity_factor=True)
    assert g == _lcm_generator(17, 5, True) and g.bit_length() - 1 == 35


def test_bch_pcm_rejects_a_distance_past_the_length():
    # At length 3 (GF(4)), designed distance 5 already holds alpha^3 = 1, so
    # the roots are all of x^3 - 1 and deg g reaches 2^mu - 1.
    with pytest.raises(ValueError) as err:
        bch_pcm(3, 6)
    assert str(err.value) == "designed distance too large for this length"


def test_bch_generator_degrees():
    # double-error BCH over GF(16): g = m1 m3 with degree 8
    g = bch_generator(4, 5)
    assert g.bit_length() - 1 == 8
    g6 = bch_generator(4, 5, with_parity_factor=True)
    assert g6.bit_length() - 1 == 9


def test_cyclic_pcm_membership_is_divisibility():
    g = bch_generator(3, 5, with_parity_factor=True)   # degree 7 over length 7
    pcm = cyclic_pcm(g, 7)
    columns = pcm.columns
    # membership: syndrome zero iff g | c(x)
    for value in range(1 << 7):
        syndrome = 0
        for j in range(7):
            if (value >> j) & 1:
                syndrome ^= columns[j]
        divisible = _poly_mod(value, g) == 0
        assert (syndrome == 0) == divisible


@pytest.mark.parametrize("g", [0, -3])
def test_cyclic_pcm_rejects_a_generator_below_one(g):
    # Such a generator once made the column loop run forever.
    with pytest.raises(ValueError, match="generator polynomial must be positive"):
        cyclic_pcm(g, 3)


def _poly_mod(a, mod):
    dm = mod.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


@pytest.mark.parametrize("n,expected_m", [(3, 3), (6, 4), (11, 4), (12, 5)])
def test_claim5_base_parameters(n, expected_m):
    pcm, m = claim5_base_pcm(n)
    assert m == expected_m
    assert len(pcm.columns) == n + 4
    assert pcm.r == 2 * m + 1
    assert gf2_rank(pcm.columns) == min(n + 4, 2 * m + 1)


def test_claim5_base_distance_at_least_6():
    # n = 11 gives the unshortened [15, 6, 6] code: check the exact minimum
    pcm, m = claim5_base_pcm(11)
    assert min_hamming_distance(pcm) == 6
    # a shortened window keeps distance >= 6
    pcm6, _ = claim5_base_pcm(6)
    assert min_hamming_distance(pcm6) >= 6


@pytest.mark.parametrize("length,dd", [(6, 5), (8, 5), (10, 5), (7, 4)])
def test_bch_pcm_shortening_rank(length, dd):
    pcm, mu = bch_pcm(length, dd)
    assert len(pcm.columns) == length
    assert gf2_rank(pcm.columns) == min(length, pcm.r)
    assert min_hamming_distance(pcm) >= dd


def test_every_4_columns_of_d5_base_independent():
    pcm, _ = bch_pcm(10, 5)
    cols = pcm.columns
    for subset in combinations(range(10), 4):
        chosen = [cols[j] for j in subset]
        assert gf2_rank(chosen) == 4
