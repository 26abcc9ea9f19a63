import math
import random
import re
from fractions import Fraction
from itertools import combinations
import pytest

from arraycodes import bounds as bounds_module
from arraycodes import tables
from arraycodes.arrays import BitArray, d1_dc_distance, fll_distance
from arraycodes.bounds import (_greedy_lexicode, a_n_d_brute, ball_count_brute,
                               claim8_bound, dc_bound_part1, dc_bound_part2,
                               dc_bound_part3, delete_append_ball, m_s_brute,
                               singleton_te, te_sphere_packing, ted_ball,
                               ted_upper_bound, v_te_general, v_te_small)
from arraycodes.tables import (table_i, table_i_closed_upper, table_ii,
                               table_ii_cell, table_iii)
from conftest import random_array


def fll_ball(bits, s):
    """All equal-length words within FLL distance s of the given word."""
    L = len(bits)
    out = set()
    for value in range(1 << L):
        y = tuple((value >> j) & 1 for j in range(L))
        if fll_distance(list(bits), list(y)) <= s:
            out.add(y)
    return out


def dc_sphere_exact(x, s, t):
    """|{Y : d_sDC(x, Y) = t}| from per-row FLL ball sizes."""
    sizes = [len(fll_ball(x.row_bits(i), s)) - 1 for i in range(1, x.n + 1)]
    total = 0
    for rows in combinations(range(x.n), t):
        prod = 1
        for i in rows:
            prod *= sizes[i]
        total += prod
    return total


def v1_dc_ball_size(x, r):
    """|{Y : d1_DC(x, Y) <= r}| by enumerating first-column flips (any array
    at finite d1 distance differs from x only there) and measuring the
    distance, not assuming it."""
    count = 0
    for flips in range(1 << x.n):
        rows = tuple(row ^ ((flips >> i) & 1) for i, row in enumerate(x.rows))
        y = BitArray(x.n, x.L, rows)
        if d1_dc_distance(x, y) <= r:
            count += 1
    return count


def test_volume_closed_forms():
    for n in range(1, 51):
        assert v_te_small(1, n, 5) == 1 + n
        assert v_te_small(2, n, 5) == 1 + (n * n + 5 * n) // 2
        assert v_te_small(3, n, 5) == 1 + (n ** 3 + 12 * n ** 2 + 29 * n) // 6


def test_volume_trivial_and_guard():
    assert v_te_small(0, 9, 4) == 1
    assert v_te_general(0, 9, 4) == 1
    with pytest.raises(ValueError):
        v_te_small(3, 4, 2)


def test_general_equals_small_on_grid():
    for n in range(1, 7):
        for L in range(1, 6):
            for r in range(L + 1):
                assert v_te_general(r, n, L) == v_te_small(r, n, L)


def test_general_beyond_L():
    # radius above L only reachable through the full expression
    assert v_te_general(3, 2, 2) == ball_count_brute(
        BitArray.from_lists([[1, 0], [0, 1]]), 3)


def test_ball_counts_center_independent():
    rng = random.Random(1)
    for r in range(4):
        reference = v_te_small(r, 3, 3)
        for _ in range(3):
            x = random_array(rng, 3, 3)
            assert ball_count_brute(x, r) == reference


def test_sphere_packing_values():
    info = te_sphere_packing(7, 2, 3)
    assert info["volume"] == 8
    assert info["m_max"] == 2048
    assert info["redundancy_lower_bound"] == 3
    trivial = te_sphere_packing(3, 4, 1)
    assert trivial["m_max"] == 1 << 12


@pytest.mark.parametrize("d", [0, -3])
def test_sphere_packing_rejects_a_distance_below_one(d):
    with pytest.raises(ValueError, match=f"d must be at least 1, got d = {d}$"):
        te_sphere_packing(3, 2, d)


def test_sphere_packing_tighter_than_column_split():
    """d=5, n=7, L=4: the TE-ball bound beats the column-split bound when
    both use packing estimates (A(n,d) via the Hamming bound); the exact
    A(7,5) = 2 flips the comparison, so both facts are pinned."""
    sphere = te_sphere_packing(7, 4, 5)["m_max"]
    a_hamming = 2 ** 7 // sum(math.comb(7, i) for i in range(3))
    assert sphere < claim8_bound(7, 5, a_hamming).value
    assert claim8_bound(7, 5, a_n_d_brute(7, 5)).value < sphere


def test_claim8_values():
    assert claim8_bound(7, 3, 16).value == 16 * 2 ** 7
    assert claim8_bound(5, 2, 2 ** 4).value == 2 ** 4
    # redundancy implied by the split bound >= ceil((d-1)/2) log2(n)
    n, d = 8, 5
    a = a_n_d_brute(n, d)
    red = n * (d - 1) - math.log2(claim8_bound(n, d, a).value)
    assert red >= ((d - 1) // 2) * math.log2(n) - 1e-9


@pytest.mark.parametrize("n, a_nd, error", [(3, -5, "A(n,d) must be at least 1, got -5"),
                                            (3, 0, "A(n,d) must be at least 1, got 0"),
                                            (-3, 2, "need n >= 0, got n = -3")])
def test_claim8_rejects_a_code_size_below_one_and_a_negative_length(n, a_nd, error):
    """A(3,3) = -5 once gave value=-40; n = -3 a negative shift count."""
    with pytest.raises(ValueError, match=re.escape(error)):
        claim8_bound(n, 3, a_nd)


def test_a_n_d_values():
    assert a_n_d_brute(7, 3) == 16
    assert a_n_d_brute(4, 2) == 8      # parity code is optimal for d=2
    assert a_n_d_brute(8, 5) == 4
    assert a_n_d_brute(5, 5) == 2


def test_a_n_d_rejects_a_distance_below_one_or_a_negative_length():
    for d in (0, -1, -5):
        with pytest.raises(ValueError, match="distance must be at least 1"):
            a_n_d_brute(3, d)
    for d in (1, 2, 5):
        with pytest.raises(ValueError, match="length must be non-negative"):
            a_n_d_brute(-3, d)


def test_a_n_d_at_and_past_the_length():
    """Two distinct words of length n differ in at most n places: at d = n
    the code is a word and its complement, past it one word."""
    for n in range(1, 7):
        assert a_n_d_brute(n, n) == 2
        for d in range(n + 1, n + 4):
            assert a_n_d_brute(n, d) == 1


@pytest.mark.parametrize("d,sizes", [(3, [2, 2, 4, 8, 16, 16, 32, 64]),
                                     (4, [2, 2, 4, 8, 16, 16, 32]),
                                     (5, [2, 2, 2, 4, 4, 8])])
def test_greedy_lexicode_sizes(d, sizes):
    """The greedy lexicode's size at n = d .. 10.  `a_n_d_brute` falls back
    to branch and bound when the greedy count misses the bound, so a wrong
    count shows only here."""
    assert [_greedy_lexicode(n, d) for n in range(d, 11)] == sizes


def test_singleton():
    assert singleton_te(2, 3, 1 << 6) == 1
    assert singleton_te(2, 3, 1) == 7
    assert singleton_te(7, 2, 1 << 11) == 4   # consistent with distance 3


def test_m_s_brute():
    assert m_s_brute(4, 1) == 4
    assert m_s_brute(3, 3) == 1
    assert m_s_brute(3, 0) == 8
    for L in (3, 4, 5, 6):
        assert m_s_brute(L, 1) <= (2 ** L - 2) // (L - 1)
        vt0 = sum(1 for v in range(1 << L)
                  if sum(j * ((v >> (j - 1)) & 1) for j in range(1, L + 1)) % (L + 1) == 0)
        assert m_s_brute(L, 1) >= vt0
    with pytest.raises(ValueError):
        m_s_brute(11, 1)


@pytest.mark.parametrize("L,s", [(-1, 1), (3, -1), (-1, -1), (0, -1)])
def test_m_s_brute_rejects_negative_parameters(L, s):
    with pytest.raises(ValueError, match="L and s must be non-negative"):
        m_s_brute(L, s)


def test_ball_count_rejects_a_negative_radius():
    """As `v_te_general` does; the empty count 0 is no ball volume."""
    x = BitArray(2, 2, (0b01, 0b10))
    with pytest.raises(ValueError, match="radius must be non-negative"):
        ball_count_brute(x, -1)
    with pytest.raises(ValueError, match="non-negative"):
        v_te_general(-1, 2, 2)


def test_dc_part1():
    assert dc_bound_part1(3, 4, 3, 1, m_s_brute(4, 1)).value == 4 ** 3
    assert dc_bound_part1(5, 4, 2, 1, 4).value == 16 * 2 ** 12


@pytest.mark.parametrize("m_s_L", (0, -4))
def test_dc_part1_rejects_a_code_size_below_one(m_s_L):
    """M_s(L) = -4 once gave a negative bound."""
    with pytest.raises(ValueError, match="M_s\\(L\\) must be positive"):
        dc_bound_part1(3, 3, 2, 1, m_s_L)


@pytest.mark.parametrize("n, L, t", [(2, -1, 2), (3, -2, 1)])
def test_dc_part1_rejects_a_negative_length(n, L, t):
    """L = -1 with t = n once gave value 16; with t < n, a negative shift
    count."""
    with pytest.raises(ValueError, match=f"need L >= 0, got L = {L}"):
        dc_bound_part1(n, L, t, 1, 4)


def test_dc_part1_rejects_a_negative_deletion_count():
    """s = -1 with a supplied M_s(L) once gave value=32."""
    with pytest.raises(ValueError, match="need s >= 0, got s = -1"):
        dc_bound_part1(2, 3, 1, -1, 4)


@pytest.mark.parametrize("n, L", [(0, 3), (3, 0), (-1, 3)])
def test_dc_part2_part3_reject_an_empty_shape(n, L):
    """n = 0 or L = 0 once divided by zero in the packing bounds."""
    with pytest.raises(ValueError, match="n and L must be positive"):
        dc_bound_part2(n, L, 2, 2)
    with pytest.raises(ValueError, match="n and L must be positive"):
        dc_bound_part3(n, L, 2)


@pytest.mark.parametrize("n, L", [(-1, 3), (2, -1)])
def test_singleton_rejects_a_negative_shape(n, L):
    """n = -1 once gave d <= -3."""
    with pytest.raises(ValueError, match="n and L must be non-negative"):
        singleton_te(n, L, 4)


def test_dc_part2_part3_values():
    assert dc_bound_part2(4, 4, 2, 2)["value"] == Fraction(2 ** 16, 16)
    assert dc_bound_part3(4, 4, 2)["value"] == Fraction(2 ** 16 + 1, 4)
    with pytest.raises(ValueError):
        dc_bound_part2(4, 4, 1, 2)
    with pytest.raises(ValueError):
        dc_bound_part3(4, 4, 1)


def test_dc_part2_cross_check_ball_lower_bound():
    # the packing denominator is a lower bound on the true ball volume
    n, L, t, s = 4, 4, 2, 2
    th, sh = t // 2, s // 2
    ball_lb = sum(math.comb(n, i) * math.comb(L, sh) ** i for i in range(th + 1))
    denom = (Fraction(n, th) * Fraction(L, sh) ** sh) ** th
    assert ball_lb >= denom


def test_dc_sphere_exact_lower_bound():
    rng = random.Random(2)
    for n, L in ((3, 4), (4, 3), (5, 5)):
        for t in (1, 2):
            for s in (1, 2):
                x = random_array(rng, n, L)
                assert dc_sphere_exact(x, s, t) >= \
                    math.comb(n, t) * math.comb(L, s) ** t


def test_v1_dc_ball_is_binomial_sum():
    rng = random.Random(3)
    for _ in range(5):
        x = random_array(rng, 4, 3)
        for r in range(5):
            assert v1_dc_ball_size(x, r) == sum(math.comb(4, i) for i in range(r + 1))


def test_fll_ball_size_lower_bound():
    for value in range(16):
        bits = [(value >> j) & 1 for j in range(4)]
        assert len(fll_ball(bits, 1)) >= math.comb(4, 1)


def test_delete_append_ball_sizes():
    rng = random.Random(4)
    for _ in range(50):
        x = random_array(rng, 3, 4)
        info = ted_ball(x)
        assert info["sizes_match_2r"]
        assert info["union_le_2R"]
        assert x in info["union"]


def test_delete_append_all_zero_row():
    x = BitArray.from_lists([[0, 0, 0], [1, 0, 1]])
    assert len(delete_append_ball(x, 1)) == 2


def test_ted_ball_worked_example():
    X = BitArray.from_lists([[0, 1, 1], [1, 1, 0], [0, 0, 1]])
    Y = BitArray.from_lists([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    D1_X = delete_append_ball(X, 1)
    D2_Y = delete_append_ball(Y, 2)
    expected_X = {BitArray.from_lists(rows) for rows in (
        [[0, 1, 1], [1, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[1, 1, 1], [1, 1, 0], [0, 0, 1]],
    )}
    expected_Y = {BitArray.from_lists(rows) for rows in (
        [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[1, 1, 0], [1, 1, 1], [0, 0, 1]],
    )}
    assert D1_X == expected_X
    assert D2_Y == expected_Y
    overlap = ted_ball(X)["union"] & ted_ball(Y)["union"]
    assert overlap   # so X and Y cannot share a (1,1,1) code


def test_ted_upper_bound_values():
    info = ted_upper_bound(4, 7)
    assert isinstance(info["finite"], Fraction)
    assert info["finite"] > info["asymptotic"] > 0
    assert math.isclose(info["redundancy_guidance"], math.log2(28), rel_tol=1e-12)
    # monotone in nL on the asymptotic term
    assert ted_upper_bound(4, 8)["asymptotic"] > info["asymptotic"]
    with pytest.raises(ValueError):
        ted_upper_bound(2, 4)


@pytest.mark.parametrize("n, L", [(1, 1034), (40, 40), (1034, 1)])
def test_ted_upper_bound_rejects_a_value_past_the_float_range(n, L):
    """nL >= 1034 once raised an OverflowError from float(finite)."""
    with pytest.raises(ValueError, match=f"float range .* for nL = {n * L}; defined for nL <= 1033"):
        ted_upper_bound(n, L)
    assert float(ted_upper_bound(1, 1033)["finite"]) > 1e308


@pytest.mark.parametrize("n, L", [(-1, 9), (-2, -2), (0, 9), (9, 0)])
def test_ted_upper_bound_rejects_a_nonpositive_shape(n, L):
    """n = -1 once hit a math domain error, and n = L = -2 was blamed on
    nL = 4."""
    with pytest.raises(ValueError, match=f"n and L must be positive, got n = {n}, L = {L}"):
        ted_upper_bound(n, L)


def test_theorem7_balls_disjoint_for_s1():
    """For s = 1 the packing balls have FLL radius 0, so disjointness is the
    statement that codewords are distinct arrays; checked on a real code."""
    from arraycodes.dc import DcCode

    code = DcCode(5, 4, 2)
    rng = random.Random(5)
    seen = set()
    for _ in range(30):
        msg = tuple(rng.randrange(2) for _ in range(code.message_bits))
        x = code.encode(list(msg))
        ball = {x}   # V_DC(floor(t/2), 0, x)
        assert not (ball - {x}) & seen
        seen.add(x)


def test_brute_force_oracles_refuse_past_their_size_guards():
    """Both raise before they enumerate: 2^26 words, 2^30 arrays."""
    with pytest.raises(ValueError, match="n <= 10"):
        a_n_d_brute(26, 3)
    with pytest.raises(ValueError, match=r"n\*L <= 16"):
        ball_count_brute(BitArray(5, 6, (0,) * 5), 1)
    # the closed cases need no enumeration
    assert a_n_d_brute(26, 1) == 1 << 26 and a_n_d_brute(26, 27) == 1


def test_branch_and_bound_stops_at_its_work_budget(monkeypatch):
    """A(10, 5) needs 29,240 vertex visits of the clique covers and A(8, 4)
    6.7 million; M_1(6) needs 21,036."""
    monkeypatch.setattr(bounds_module, "_SEARCH_WORK", 30_000)
    assert a_n_d_brute(10, 5) == 12
    assert m_s_brute.__wrapped__(6, 1) == 10
    with pytest.raises(ValueError, match="exceeds 30000 vertex visits"):
        a_n_d_brute(8, 4)
    monkeypatch.setattr(bounds_module, "_SEARCH_WORK", 20_000)
    with pytest.raises(ValueError, match="exceeds 20000 vertex visits"):
        m_s_brute.__wrapped__(6, 1)


def test_a_n_d_by_branch_and_bound():
    # the greedy lexicode (4 words) meets no bound here, so both go through
    # the independent-set search
    assert a_n_d_brute(9, 5) == 6
    assert a_n_d_brute(10, 6) == 6


def test_general_volume_matches_the_ball_oracle_at_every_radius():
    rng = random.Random(15)
    shapes = [(n, L) for n in range(1, 10) for L in range(1, 10) if n * L <= 9]
    assert len(shapes) == 23
    for n, L in shapes:
        x = random_array(rng, n, L)
        for r in range(n * L + 1):
            assert v_te_general(r, n, L) == ball_count_brute(x, r), (r, n, L)
    assert v_te_general(9, 3, 3) == v_te_general(100, 3, 3) == 1 << 9


def test_table_iii_regimes_and_measured_column():
    """The regimes that apply at n = 7, 8, 9, 16 and 40 (n = c*2^h at 8, 16
    and 40); a measured redundancy only at n = 7, as TedCode refuses
    n > 2^h - 1."""
    rows = table_iii([(7, 7, 2), (8, 7, 2), (9, 7, 2), (16, 7, 2), (40, 7, 2)])
    assert [r.params for r in rows] == [{"n": n, "L": 7, "t": 2, "s": 1}
                                        for n in (7, 8, 9, 16, 40)]
    assert [r.columns["applicable"] for r in rows] == [
        "n<=2^h+1,general", "n<=2^h+1,n=c*2^h,general", "n<=2^h+1,general",
        "n=c*2^h,general", "n=c*2^h,general"]
    assert [r.columns["upper_measured"] for r in rows] == [6, None, None, None, None]
    for r in rows:
        n = r.params["n"]
        assert r.columns["h"] == 3
        assert r.columns["closed[n<=2^h+1]"] == 6
        assert r.columns["closed[n=c*2^h]"] == pytest.approx(2 * math.log2(n))
        assert r.columns["closed[general]"] == pytest.approx(2 * (math.log2(n) + 3))


@pytest.mark.parametrize("params, n, t", [([(5, 3, -1)], 5, -1), ([(5, 3, 0)], 5, 0),
                                         ([(3, 3, 0)], 3, 0), ([(3, 3, 1), (0, 3, 2)], 0, 2)])
def test_table_iii_rejects_n_or_t_below_one(monkeypatch, params, n, t):
    """t = -1 once gave negative redundancies, t = 0 zeros past n = 2^h - 1
    and a DcCode error below it, n = 0 a math domain error after it was
    counted as n = c*2^h.  No row is built, not even a valid first one."""
    monkeypatch.setattr(tables, "DcCode", None)
    with pytest.raises(ValueError, match=f"got n = {n}, t = {t}"):
        table_iii(params)


def test_table_i_measured_upper_matches_the_closed_form_up_to_n_128():
    """Table I at every n from 3 to 128, past the n <= 16 of the acceptance
    criterion: each construction's rank equals the closed upper form."""
    rows = table_i(range(3, 129), (2, 3, 4, 5))
    assert len(rows) == 126 * 4
    for row in rows:
        n, d = row.params["n"], row.params["d"]
        assert row.columns["upper_measured"] == row.columns["upper_closed"] \
            == table_i_closed_upper(n, d), row


def test_table_ii_measured_upper_matches_the_cell_at_large_n():
    rows = table_ii((32, 64, 128))
    assert len(rows) == 3 * 12
    for row in rows:
        n, L, e = (row.params[k] for k in ("n", "L", "e"))
        assert row.columns["upper_measured"] == row.columns["cell_closed"] \
            == table_ii_cell(n, L, e), row
