import random

import pytest

from arraycodes.field import binary_expand, field_arith, field_make


def test_gf2_trivial_field():
    f = field_make(1)
    assert f.order == 2
    assert f.alpha == 1
    assert f.mul(1, 1) == 1


def test_gf8_alpha_relations():
    f = field_make(3)
    # under x^3 + x + 1: alpha^3 = alpha + 1, and alpha * alpha^2 = alpha^3
    assert f.alpha_pow(3) == 0b011
    assert f.mul(f.alpha, f.alpha_pow(2)) == 0b011
    assert f.alpha_pow(7) == 1


@pytest.mark.parametrize("m", range(1, 13))
def test_alpha_has_full_order(m):
    f = field_make(m)
    v = 1
    for k in range(1, f.order - 1):
        v = f.mul(v, f.alpha)
        assert v != 1, f"alpha order divides {k} in GF(2^{m})"
    assert f.mul(v, f.alpha) == 1


def test_out_of_range_degree():
    with pytest.raises(ValueError):
        field_make(0)
    with pytest.raises(ValueError):
        field_make(32)


def test_char_two_and_inverses():
    f = field_make(5)
    rng = random.Random(1)
    for _ in range(100):
        a, b = rng.randrange(f.order), rng.randrange(f.order)
        assert f.add(a, a) == 0
        # Frobenius: (a+b)^2 = a^2 + b^2
        assert f.mul(a ^ b, a ^ b) == f.mul(a, a) ^ f.mul(b, b)
        if a:
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("m", [1, 2, 5, 16, 17])
def test_inverse_matches_fermat_power(m):
    """a^-1 == a^(2^m - 2), through the log tables (2 <= m <= 16) and
    without them (m = 1, m = 17)."""
    f = field_make(m)
    rng = random.Random(m)
    elements = [1, f.order - 1] + [rng.randrange(1, f.order) for _ in range(50)]
    for a in elements:
        assert f.inv(a) == f.pow(a, f.order - 2)
        assert f._mul_slow(a, f.inv(a)) == 1


def test_field_arith_dispatch():
    f = field_make(3)
    assert field_arith(f, 3, 5, "add") == 6
    assert field_arith(f, f.alpha, f.alpha_pow(2), "mul") == f.alpha_pow(3)
    assert field_arith(f, f.alpha, 0, "inv") == f.alpha_pow(6)
    assert field_arith(f, f.alpha, 9, "pow") == f.alpha_pow(9)
    with pytest.raises(ValueError):
        field_arith(f, 1, 1, "sub")


def test_pow_matches_repeated_mul():
    f = field_make(4)
    for a in range(1, f.order):
        acc = 1
        for e in range(10):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_binary_expand_basis_convention():
    f = field_make(3)
    one = binary_expand([[1]], f)
    assert one.to_lists() == [[1], [0], [0]]
    alpha = binary_expand([[f.alpha]], f)
    assert alpha.to_lists() == [[0], [1], [0]]


def test_binary_expand_rank_example():
    # the n x 2 five-erasure parity check for n = 4 must expand to rank 6
    from arraycodes.te import construct_claim7

    H = construct_claim7(4)
    assert H.redundancy == 2 * (2 + 1) == 6
