import random

import pytest

from arraycodes.field import PRIMITIVE_POLYS, Gf2m, field_make
from arraycodes.te import _build_from_field_rows


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


def _prime_factors(k: int) -> set:
    """The primes dividing k, by trial division."""
    primes, p = set(), 2
    while p * p <= k:
        while k % p == 0:
            primes.add(p)
            k //= p
        p += 1
    return primes | {k} if k > 1 else primes


def _slow_power(f: Gf2m, a: int, e: int) -> int:
    """a^e by square and multiply on `_mul_slow`, e not reduced mod 2^m - 1."""
    result = 1
    while e:
        if e & 1:
            result = f._mul_slow(result, a)
        a = f._mul_slow(a, a)
        e >>= 1
    return result


@pytest.mark.parametrize("m", [m for m in PRIMITIVE_POLYS if m >= 2])
def test_every_primitive_polynomial_gives_alpha_full_order(m):
    """alpha^(2^m - 1) = 1 and alpha^((2^m - 1)/p) != 1 for each prime p
    dividing 2^m - 1, on every field up to m = 31, past the log-table
    fields that `Gf2m` checks when it builds their tables."""
    f = Gf2m(m, PRIMITIVE_POLYS[m])
    units = f.order - 1
    assert _slow_power(f, f.alpha, units) == 1
    for p in _prime_factors(units):
        assert _slow_power(f, f.alpha, units // p) != 1, f"alpha order divides {units // p}"


def test_log_tables_exactly_up_to_m_16():
    """Every field of m <= 16, GF(2) included, carries log tables; none
    past it does."""
    for m in PRIMITIVE_POLYS:
        assert (Gf2m(m, PRIMITIVE_POLYS[m])._log is None) == (m > 16), m


@pytest.mark.parametrize("poly", [0b11111, 0b10001])
def test_a_polynomial_that_is_not_primitive_is_rejected(poly):
    """x^4+x^3+x^2+x+1 is irreducible, but alpha has order 5 under it, and
    x^4+1 = (x+1)^4 is reducible: under either, tables built from the
    powers of alpha would multiply wrongly (3 * 5 would read 0, not 15,
    under the first)."""
    with pytest.raises(ValueError, match="not primitive"):
        Gf2m(4, poly)


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
        # Frobenius: (a+b)^2 = a^2 + b^2
        assert f.mul(a ^ b, a ^ b) == f.mul(a, a) ^ f.mul(b, b)
        if a:
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("m", [1, 2, 5, 16, 17])
def test_inverse_matches_fermat_power(m):
    """a^-1 == a^(2^m - 2), through the log tables (m <= 16) and without
    them (m = 17)."""
    f = field_make(m)
    rng = random.Random(m)
    elements = [1, f.order - 1] + [rng.randrange(1, f.order) for _ in range(50)]
    for a in elements:
        assert f.inv(a) == f.pow(a, f.order - 2)
        assert f._mul_slow(a, f.inv(a)) == 1


def test_pow_matches_repeated_mul():
    f = field_make(4)
    for a in range(1, f.order):
        acc = 1
        for e in range(10):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_binary_expand_basis_convention():
    # a field entry expands to m binary rows, the coefficient of x^0 first,
    # so 1, alpha and alpha^2 become the unit columns in that order
    f = field_make(3)
    H = _build_from_field_rows(1, 3, f, [[1, f.alpha, f.alpha_pow(2)]], [], "test")
    assert H.cols == ((0b001, 0b010, 0b100),)


def test_binary_expand_rank_example():
    # the n x 2 five-erasure parity check for n = 4 must expand to rank 6
    from arraycodes.te import construct_claim7

    H = construct_claim7(4)
    assert H.redundancy == 2 * (2 + 1) == 6


# --- table paths against the shift-and-add product -----------------------------

def slow_pow(f, a, e):
    """a^e by square-and-multiply over `_mul_slow`, e reduced mod 2^m - 1."""
    if a == 0:
        return 1 if e == 0 else 0
    e %= f.order - 1
    result = 1
    while e:
        if e & 1:
            result = f._mul_slow(result, a)
        a = f._mul_slow(a, a)
        e >>= 1
    return result


def check_against_slow(f, pairs):
    for a, b in pairs:
        assert f.mul(a, b) == f._mul_slow(a, b), (f.m, a, b)
    for a in {a for a, _ in pairs}:
        for e in (0, 1, 2, 3, f.order - 2, f.order - 1, f.order, -1, -5):
            if a == 0 and e < 0:
                with pytest.raises(ZeroDivisionError):
                    f.pow(a, e)
            else:
                assert f.pow(a, e) == slow_pow(f, a, e), (f.m, a, e)
        if a:
            assert f.inv(a) == slow_pow(f, a, f.order - 2), (f.m, a)
            assert f._mul_slow(a, f.inv(a)) == 1


@pytest.mark.parametrize("m", range(1, 9))
def test_table_arithmetic_matches_slow_on_every_pair(m):
    f = field_make(m)
    check_against_slow(f, [(a, b) for a in range(f.order) for b in range(f.order)])


@pytest.mark.parametrize("m", range(9, 17))
def test_table_arithmetic_matches_slow_on_seeded_pairs(m):
    f = field_make(m)
    rng = random.Random(m)
    top = f.order - 1
    pairs = [(0, 0), (0, 1), (1, 0), (0, top), (top, 0), (top, top), (1, 1)]
    pairs += [(0, rng.randrange(f.order)) for _ in range(20)]
    pairs += [(rng.randrange(f.order), 0) for _ in range(20)]
    pairs += [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(400)]
    check_against_slow(f, pairs)
