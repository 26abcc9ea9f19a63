from itertools import combinations

import pytest

from arraycodes.basecodes import (bch_generator, bch_pcm, claim5_base_pcm,
                                  cyclic_pcm, extended_hamming_pcm,
                                  hamming_pcm, minimal_polynomial)
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


def test_minimal_polynomial_gf8():
    f = field_make(3)
    assert minimal_polynomial(f, f.alpha) == 0b1011          # x^3 + x + 1
    assert minimal_polynomial(f, f.alpha_pow(3)) == 0b1101   # x^3 + x^2 + 1
    assert minimal_polynomial(f, 1) == 0b11
    assert minimal_polynomial(f, 0) == 0b10


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
