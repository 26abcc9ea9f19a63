import array
import itertools
import random
import sys
import tracemalloc
from math import comb

import pytest

from arraycodes.arrays import (INF, BitArray, RaggedArray, _bit_array,
                               _PLANS, _block_width, _fll_rows, _int_to_row,
                               _join_rows, _lanes, _ragged_array, _read_lanes,
                               _row_to_int, _split_rows, _to_lanes,
                               apply_te_pattern, count_patterns,
                               d1_dc_distance, d_sdc_distance,
                               enumerate_patterns, fll_distance,
                               format_bit_array, format_ragged,
                               parse_bit_array, parse_ragged,
                               rho_te_distance, run_stats)
from conftest import (fll_oracle, min_pattern_erasures,
                      patterns_grouped_by_weight, ragged, random_array,
                      recursive_patterns)

X23 = BitArray.from_lists([[1, 0, 1], [0, 0, 1]])


def te_weight(x):
    """TE distance to the zero array."""
    return rho_te_distance(x, BitArray(x.n, x.L, (0,) * x.n))


def test_apply_pattern_example():
    erased = apply_te_pattern(X23, (2, 1))
    assert erased.to_lists() == [[1], [0, 0]]
    assert erased == RaggedArray(2, 3, (1, 0), (2, 1))


def test_apply_zero_pattern_is_identity():
    erased = apply_te_pattern(X23, (0, 0))
    assert erased.to_lists() == X23.to_lists()


def test_apply_full_row():
    erased = apply_te_pattern(X23, (3, 0))
    assert erased.to_lists()[0] == [] and erased.lost == (3, 0)


@pytest.mark.parametrize("n, L, rows, lost", [
    (0, 0, (), ()), (0, 5, (), ()), (3, 4, (0b1011, 0, 0b1111), (0, 4, 0)),
    (2, 7, (0b101, 0b1100101), (3, 0))])
def test_unchecked_constructors_match_the_checked_ones(n, L, rows, lost):
    """`_bit_array` and `_ragged_array` skip the checks but build the same
    value: equal, equal hash and repr, the same fields, and still frozen."""
    for fast, checked in ((_bit_array(n, L, rows), BitArray(n, L, rows)),
                          (_ragged_array(n, L, rows, lost), RaggedArray(n, L, rows, lost))):
        assert type(fast) is type(checked)
        assert fast == checked and hash(fast) == hash(checked)
        assert repr(fast) == repr(checked) and vars(fast) == vars(checked)
        with pytest.raises(AttributeError):
            fast.n = n + 1


def test_constructors_keep_any_sequence_of_ints_as_a_tuple():
    """A list, a range or ints of another type build the same array as a
    tuple: equal, of equal hash, holding a tuple of ints.  An entry that is
    no int raises TypeError."""
    assert BitArray(2, 3, [1, 0]) == BitArray(2, 3, (1, 0))
    assert hash(BitArray(2, 3, [1, 0])) == hash(BitArray(2, 3, (1, 0)))
    assert BitArray(3, 3, range(3)).rows == (0, 1, 2)
    assert type(BitArray(2, 3, [True, False]).rows[0]) is int
    ragged = RaggedArray(2, 3, [1, 0], [0, 3])
    assert ragged == RaggedArray(2, 3, (1, 0), (0, 3))
    assert hash(ragged) == hash(RaggedArray(2, 3, (1, 0), (0, 3)))
    assert (ragged.rows, ragged.lost) == ((1, 0), (0, 3))
    for build in (lambda: BitArray(2, 3, [1.0, 0]), lambda: BitArray(1, 3, ["1"]),
                  lambda: RaggedArray(1, 3, [1.0], [0]), lambda: RaggedArray(1, 3, [1], [0.0])):
        with pytest.raises(TypeError):
            build()


def per_row_split(flat, n, L):
    return tuple(flat >> (i * L) & ((1 << L) - 1) for i in range(n))


@pytest.mark.parametrize("L", [*range(0, 71), 100, 129])
def test_split_and_join_rows_match_per_row_shifts(L):
    """The row-split kernel against one shift per row, on every lane width,
    on rows wider than 64 bits and on rows of no bits; bits above n*L are
    ignored."""
    rng = random.Random(L)
    for n in (0, 1, 2, 3, 7, 16, 33):
        flat = rng.getrandbits(n * L)
        rows = per_row_split(flat, n, L)
        stray = rng.getrandbits(40) << n * L
        assert _split_rows(flat | stray, n, L) == rows
        assert _join_rows(rows, L) == flat
        assert _join_rows(list(rows), L) == flat


@pytest.mark.parametrize("L", range(9, 32))
def test_64_bit_plan_splits_and_joins_back(L):
    """The plan the TED/DC encoder names, 64-bit lanes for rows of 9 to 31
    bits, at n = 1..70: row i lands at bit 64 i, `_read_lanes` gives the
    rows, and `_join_rows` packs them back into the flat int."""
    rng = random.Random(L)
    for n in range(1, 71):
        plan = _lanes(n, L, 64)
        flat = rng.getrandbits(n * L)
        rows = per_row_split(flat, n, L)
        lanes = _to_lanes(flat | rng.getrandbits(40) << n * L, plan)
        assert lanes == sum(row << 64 * i for i, row in enumerate(rows))
        assert _read_lanes(lanes, plan) == rows
        assert _join_rows(rows, L) == flat


def test_split_and_join_rows_at_storage_scale():
    """2048 rows of 2047 bits: 11 masked shifts into 2048-bit lanes."""
    n, L = 2048, 2047
    flat = random.Random(2047).getrandbits(n * L)
    rows = _split_rows(flat, n, L)
    assert rows == per_row_split(flat, n, L)
    assert _join_rows(rows, L) == flat


def test_split_plan_holds_one_mask_per_step():
    """At 512 rows of 511 bits the plan's 9 steps held 629 KB with two masks
    each, for a codeword of 32 KB; one mask of about n L bits per step
    halves that, and the cache keeps the plans of a few shapes only."""
    n, L = 512, 511
    steps = _lanes(n, L)[3]
    held = sum(sys.getsizeof(v) for step in steps for v in step)
    assert len(steps) == 9
    assert held < 1.2 * len(steps) * n * L / 8
    for k in range(2 * _PLANS):
        _split_rows(0, 9 + k, 3)
    assert _lanes.cache_info().currsize <= _PLANS < 2 * _PLANS


@pytest.mark.parametrize("n, L, name", [(2.0, 3, "n"), (2, 3.0, "L"),
                                        (True, 3, "n"), (2, False, "L")])
def test_dimensions_that_are_no_ints_rejected(n, L, name):
    """A float n once built an array, and a float L failed at a shift."""
    kind = type(n if name == "n" else L).__name__
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {kind}$"):
        BitArray(n, L, (1, 0))
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {kind}$"):
        RaggedArray(n, L, (1, 0), (0, 0))


@pytest.mark.parametrize("n, L, rows", [(-1, 2, ()), (0, -1, ()), (2, -1, (0, 0))])
def test_negative_dimensions_rejected(n, L, rows):
    """No array has a negative shape; (0, -1) once built an empty array."""
    with pytest.raises(ValueError, match="dimensions must be non-negative"):
        BitArray(n, L, rows)


def test_apply_pattern_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_te_pattern(X23, (1,))


def test_rho_example():
    Y = BitArray.from_lists([[1, 0, 0], [0, 1, 1]])
    assert rho_te_distance(X23, Y) == 3


def test_rho_self_and_single_flip():
    assert rho_te_distance(X23, X23) == 0
    flipped = BitArray.from_lists([[0, 0, 1], [0, 0, 1]])
    assert rho_te_distance(X23, flipped) == 3  # leftmost difference at position 1


def test_rho_metric_axioms_random():
    rng = random.Random(11)
    for _ in range(2000):
        x, y, z = (random_array(rng, 3, 4) for _ in range(3))
        dxy = rho_te_distance(x, y)
        assert dxy >= 0
        assert (dxy == 0) == (x == y)
        assert dxy == rho_te_distance(y, x)
        assert dxy <= rho_te_distance(x, z) + rho_te_distance(z, y)


def test_rho_translation_invariance():
    rng = random.Random(12)
    for _ in range(500):
        x, y = random_array(rng, 3, 3), random_array(rng, 3, 3)
        assert rho_te_distance(x, y) == te_weight(
            BitArray(x.n, x.L, tuple(a ^ b for a, b in zip(x.rows, y.rows))))


def test_rho_non_monotonicity_witness():
    X = BitArray.from_lists([[1, 0, 1], [0, 0, 1]])
    Y = BitArray.from_lists([[1, 1, 0], [0, 0, 0]])
    Z = BitArray.from_lists([[1, 1, 1], [0, 0, 0]])
    assert rho_te_distance(X, Y) == 3
    assert rho_te_distance(X, Z) == 3
    diff_y = {(i, j) for i in range(1, 3) for j in range(1, 4)
              if (X.rows[i - 1] ^ Y.rows[i - 1]) >> (j - 1) & 1}
    diff_z = {(i, j) for i in range(1, 3) for j in range(1, 4)
              if (X.rows[i - 1] ^ Z.rows[i - 1]) >> (j - 1) & 1}
    assert diff_z < diff_y


def test_min_pattern_equivalence_sampled():
    rng = random.Random(13)
    groups = patterns_grouped_by_weight(6, 2, 3)
    for _ in range(300):
        x, y = random_array(rng, 3, 2), random_array(rng, 3, 2)
        assert rho_te_distance(x, y) == min_pattern_erasures(x, y, groups)


def test_enumerate_patterns_counts():
    assert list(enumerate_patterns(0, 5, 3)) == [(0, 0, 0)]
    assert sorted(enumerate_patterns(1, 1, 2)) == [(0, 0), (0, 1), (1, 0)]
    two = list(enumerate_patterns(2, 2, 2))
    assert len(two) == len(set(two)) == 6
    assert set(two) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}
    assert count_patterns(2, 2, 2) == 6


def test_enumerate_patterns_lexicographic():
    seq = list(enumerate_patterns(2, 2, 2))
    assert seq == sorted(seq)


# Grid cells of more patterns than this are left to the shapes below: the
# 183 larger cells hold 5.9M patterns, about 20 s in the recursive oracle.
ORACLE_CELL_PATTERNS = 2000


def test_enumerate_patterns_matches_recursive_oracle():
    """Every (e, L, n) in 0..6 x 0..6 x 0..20 of at most 2000 patterns
    (n = 0, L = 0, one short block, n a multiple of the block width or
    not), then shapes of two to four blocks beyond it."""
    cells = [(e, L, n) for e in range(7) for L in range(7) for n in range(21)
             if count_patterns(e, L, n) <= ORACLE_CELL_PATTERNS]
    assert len(cells) == 846
    shapes = [(4, 4, 16), (5, 2, 8), (2, 2, 64), (6, 1, 19), (5, 5, 13),
              (6, 6, 11), (3, 3, 20), (40, 40, 2)]
    for args in cells + shapes:
        want = list(recursive_patterns(*args))
        assert list(enumerate_patterns(*args)) == want, args
        assert count_patterns(*args) == len(want), args


def test_count_patterns_closed_form():
    # With L >= e no entry reaches L, so the count is C(n + e, e).
    for e in range(7):
        for n in range(21):
            assert count_patterns(e, e + 1, n) == count_patterns(e, e, n) == comb(n + e, e)
    assert count_patterns(2, 1, 64) == 1 + 64 + comb(64, 2)


@pytest.mark.parametrize("args", [(2, 2, -1), (-1, 2, 2), (2, -1, 2)])
def test_negative_pattern_parameters_rejected(args):
    with pytest.raises(ValueError, match="non-negative"):
        count_patterns(*args)
    with pytest.raises(ValueError, match="non-negative"):
        next(enumerate_patterns(*args))


@pytest.mark.parametrize("args,width", [((4, 4, 16), 8), ((2, 2, 64), 30),
                                        ((5, 3, 31), 6), ((6, 6, 31), 5)])
def test_block_width_is_the_widest_table_of_at_most_512(args, width):
    e, L, n = args
    assert _block_width(e, L, n) == width
    assert count_patterns(e, L, width) <= 512 < count_patterns(e, L, width + 1)


def test_enumerate_patterns_is_lazy_and_bounded():
    tracemalloc.start()
    try:
        assert next(enumerate_patterns(40, 40, 200)) == (0,) * 200
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fll_distance():
    assert fll_distance([0, 1, 0], [0, 1, 0]) == 0
    assert fll_distance([0, 0, 0, 0], [1, 1, 1, 1]) == 4
    assert fll_distance([0, 1, 0, 1], [1, 0, 1, 0]) == 1
    with pytest.raises(ValueError):
        fll_distance([0], [0, 1])
    with pytest.raises(ValueError, match="must be 0 or 1"):
        fll_distance([0, 2], [0, 1])


def test_fll_rows_matches_oracle_on_every_pair():
    for L in range(9):
        words = [_int_to_row(v, L) for v in range(1 << L)]
        for a, x in enumerate(words):
            for b, y in enumerate(words):
                assert _fll_rows(a, b, L) == fll_oracle(x, y), (a, b, L)


def test_fll_matches_edit_script_oracle():
    rng = random.Random(14)
    for L in range(1, 7):
        for _ in range(40):
            x = [rng.randrange(2) for _ in range(L)]
            y = [rng.randrange(2) for _ in range(L)]
            assert fll_distance(x, y) == fll_oracle(x, y)


def test_d_sdc():
    x = BitArray.from_lists([[1, 0, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    assert d_sdc_distance(x, x, 3) == 0
    y = BitArray.from_lists([[0, 0, 1, 0], [0, 0, 1, 1], [1, 1, 1, 0]])
    # rows 1 and 3 each differ by a single substitution (FLL distance 1)
    assert d_sdc_distance(x, y, 1) == 2
    assert d_sdc_distance(x, y, 0) == INF
    assert d_sdc_distance(x, y, 1) == d_sdc_distance(y, x, 1)


def test_d_sdc_at_most_n_when_finite():
    rng = random.Random(15)
    for _ in range(200):
        x, y = random_array(rng, 4, 3), random_array(rng, 4, 3)
        d = d_sdc_distance(x, y, 3)
        assert d == INF or d <= 4


def test_d1_dc():
    x = BitArray.from_lists([[1, 0], [0, 1], [1, 1]])
    assert d1_dc_distance(x, x) == 0
    y = BitArray.from_lists([[0, 0], [1, 1], [1, 1]])
    assert d1_dc_distance(x, y) == 2
    z = BitArray.from_lists([[1, 1], [0, 1], [1, 1]])
    assert d1_dc_distance(x, z) == INF


def test_run_stats():
    assert run_stats(BitArray.from_lists([[0, 0, 0, 0], [0, 1, 0, 1]])) == ([1, 4], 5)
    x = BitArray.from_lists([[0, 1, 1], [1, 1, 0], [0, 0, 1]])
    per_row, total = run_stats(x)
    assert per_row == [2, 2, 2]
    assert total == 6
    assert run_stats(BitArray(2, 1, (0, 1))) == ([1, 1], 2)
    assert run_stats(BitArray(2, 0, (0, 0))) == ([0, 0], 0)


def test_text_format_roundtrips():
    x = BitArray.from_lists([[1, 0, 1], [0, 1, 1]])
    assert parse_bit_array(format_bit_array(x)) == x
    erased = apply_te_pattern(x, (2, 0))
    assert format_ragged(erased) == "# L=3\n1\n011\n"
    assert parse_ragged(format_ragged(erased)) == erased
    damaged = ragged([[1, 0], [0, 1, 1]], 3)
    assert parse_ragged(format_ragged(damaged)) == damaged
    with_comment = "# comment\n101\n011\n"
    assert parse_bit_array(with_comment) == x


def test_text_format_roundtrips_every_small_array():
    """Both formats, every array of n <= 2 rows at L = 0..3: every row
    value and every lost count, and the arrays of no rows or of rows of
    length 0."""
    for L in range(4):
        shapes = [(v, k) for k in range(L + 1) for v in range(1 << (L - k))]
        for n in range(3):
            for rows in itertools.product(range(1 << L), repeat=n):
                x = BitArray(n, L, rows)
                assert parse_bit_array(format_bit_array(x)) == x
            for cells in itertools.product(shapes, repeat=n):
                damaged = RaggedArray(n, L, tuple(v for v, _ in cells),
                                      tuple(k for _, k in cells))
                assert parse_ragged(format_ragged(damaged)) == damaged


@pytest.mark.parametrize("rows", [((0, 3), (5, 0), (1, 1)), ((5, 0), (0, 3), (1, 1)),
                                  ((5, 0), (1, 1), (0, 3))])
def test_ragged_rows_of_length_zero_roundtrip(rows):
    """An empty row is a blank line after '# L=', wherever it falls."""
    bits, lost = zip(*rows)
    x = RaggedArray(len(rows), 3, bits, lost)
    assert parse_ragged(format_ragged(x)) == x


@pytest.mark.parametrize("x", [BitArray(2, 0, (0, 0)), BitArray(0, 3, ()),
                               BitArray(0, 0, ())], ids=["2x0", "0x3", "0x0"])
def test_bit_array_without_rows_or_columns_roundtrips(x):
    """The '# L=' line keeps the shape that blank or missing rows lose."""
    assert parse_bit_array(format_bit_array(x)) == x


def test_bit_array_length_directive_is_optional_and_binding():
    x = BitArray.from_lists([[1, 0, 1], [0, 1, 1]])
    assert format_bit_array(x) == "# L=3\n101\n011\n"
    # without the directive, leading blank lines are skipped and the first
    # row sets the length, as before the writer emitted one
    assert parse_bit_array("\n101\n011\n") == x
    assert parse_bit_array("") == BitArray(0, 0, ())
    assert parse_bit_array("# L=3\n101\n011\n") == x
    with pytest.raises(ValueError, match="^row 1 has 3 positions, fewer than L=4$"):
        parse_bit_array("# L=4\n101\n011\n")
    for parse in (parse_bit_array, parse_ragged):
        with pytest.raises(ValueError):
            parse("# L=-1\n")


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_bit_array("10?\n")
    with pytest.raises(ValueError, match="may only end a row"):
        parse_ragged("# L=3\n1?1\n")   # erasures must be a suffix
    with pytest.raises(ValueError, match="must have length L=3"):
        parse_ragged("# L=3\n1?\n")    # a '?' tail marks a full-length row
    with pytest.raises(ValueError, match="^row 1 has 4 positions, more than L=3$"):
        parse_ragged("# L=3\n1011\n")
    with pytest.raises(ValueError):
        parse_bit_array("12\n")


def test_ragged_array_invariants():
    with pytest.raises(ValueError, match="beyond the row's surviving length"):
        RaggedArray(1, 3, (0b111,), (1,))   # bit set inside the lost tail
    with pytest.raises(ValueError, match="beyond the row's surviving length"):
        RaggedArray(1, 3, (-1,), (0,))
    for lost in ((-1,), (4,)):
        with pytest.raises(ValueError, match="row length out of range"):
            RaggedArray(1, 3, (0,), lost)
    with pytest.raises(ValueError, match="row count mismatch"):
        RaggedArray(2, 3, (0, 0), (0,))


@pytest.mark.parametrize("bits", ([], [1], [True, False, True], [2], [-1], [257],
                                  [0, 1, 1, 0, 1, 0, 0, 1, 1]))
def test_row_to_int_accepts_only_bits(bits):
    """0/1 ints and bools round-trip; any other entry is an error, not its
    low bit."""
    if all(b in (0, 1) for b in bits):
        assert _row_to_int(bits) == sum(int(b) << j for j, b in enumerate(bits))
        assert _int_to_row(_row_to_int(bits), len(bits)) == [int(b) for b in bits]
    else:
        with pytest.raises(ValueError, match="must be 0 or 1"):
            _row_to_int(bits)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            _row_to_int([0, 1] + bits + [1])


@pytest.mark.parametrize("entry", (1.0, "1", None, b"\x01"))
def test_row_to_int_raises_type_error_on_an_entry_that_is_no_int(entry):
    """The table that maps every byte other than 0 and 1 to a digit that
    int(..., 2) rejects checks values only: an entry bytearray() cannot
    take is still a TypeError, wherever it sits in the row."""
    for bits in ([entry], [0, 1, entry], (1,) * 900 + (entry,)):
        with pytest.raises(TypeError):
            _row_to_int(bits)


def test_from_lists_rejects_non_binary_entries():
    with pytest.raises(ValueError, match="must be 0 or 1"):
        BitArray.from_lists([[2, 0], [1, 3]])
    assert BitArray.from_lists([[True, 0], [1, False]]).rows == (1, 1)


def test_apply_pattern_on_empty_array():
    empty = BitArray(0, 3, ())
    assert apply_te_pattern(empty, ()) == RaggedArray(0, 3, (), ())
    with pytest.raises(ValueError):
        apply_te_pattern(empty, (0,))


@pytest.mark.parametrize("rows", ((0, -1, 3), (8, 0, 0), (0, 0, 1 << 40)))
def test_bit_array_rejects_rows_out_of_range(rows):
    with pytest.raises(ValueError, match="row value exceeds declared length"):
        BitArray(3, 3, rows)
    assert BitArray(3, 3, (0, 7, 5)).rows == (0, 7, 5)
    assert BitArray(0, 3, ()).rows == ()


def reversed_bytes_row_to_int(bits):
    """The `bytes(reversed(bits))` body `_row_to_int` had before it packed
    through a bytearray, kept as its oracle."""
    try:
        packed = bytes(reversed(bits))
        if packed.translate(None, b"\x00\x01"):
            raise ValueError
    except ValueError:
        raise ValueError("row entries must be 0 or 1") from None
    return int(packed.translate(bytes.maketrans(b"\x00\x01", b"01")) or b"0", 2)


def test_row_to_int_matches_reversed_bytes_body():
    rng = random.Random(2000)
    for length in list(range(65)) + list(range(65, 2000, 29)) + [2000]:
        bits = [rng.getrandbits(1) for _ in range(length)]
        want = reversed_bytes_row_to_int(bits)
        assert _row_to_int(bits) == want, length
        assert _row_to_int(tuple(bits)) == want, length
        assert _row_to_int([b == 1 for b in bits]) == want, length
        # a buffer whose items are wider than a byte is read item by item
        assert _row_to_int(array.array("i", bits)) == want, length
    for bad in ([2], [-1], [257]):
        for bits in (bad, tuple(bad), [1] * 1000 + bad + [0]):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                _row_to_int(bits)


@pytest.mark.parametrize("p", [(1.0, 0), ("1", 0), (None, 0), (0, 1.5), ("1", "0")])
def test_apply_te_pattern_rejects_non_int_entries(p):
    x = BitArray(2, 3, (0b101, 0b111))
    with pytest.raises(ValueError, match="must be ints"):
        apply_te_pattern(x, p)
    assert apply_te_pattern(x, (True, False)) == apply_te_pattern(x, (1, 0))


def test_parse_ragged_needs_the_row_length():
    """Without a '# L=' line the full row length is unknown: a file whose
    rows are all short would otherwise get a wrong L."""
    with pytest.raises(ValueError, match="row length"):
        parse_ragged("101\n011\n")
    assert parse_ragged("# L=4\n101\n01\n") == ragged([[1, 0, 1], [0, 1]], 4)
    assert parse_ragged("# L=4\n101\n01\n").lost == (1, 2)


def test_question_mark_tail_reads_as_the_short_row():
    """A full-length row ending in '?' is that row with its '?' tail lost,
    the same array as the row written short; a row of '?' only lost every
    position."""
    for marked, short in (("10??", "10"), ("????", ""), ("1011", "1011"),
                          ("0???", "0")):
        assert parse_ragged(f"# L=4\n{marked}\n0110\n") == \
            parse_ragged(f"# L=4\n{short}\n0110\n")
    assert parse_ragged("# L=4\n10??\n").lost == (2,)
