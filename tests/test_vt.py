import random
import threading
from functools import lru_cache
from itertools import combinations

import pytest

from arraycodes.errors import CorruptInputError
from arraycodes.vt import (_NO_INSERTION, _SUM16, _encode_table, _insert_table, _placement,
                           _word_sums, position_residues, position_sum, vt_codewords,
                           vt_decode, vt_decode_int, vt_encode_int, vt_insert,
                           vt_modulus_exponent)
from conftest import oracle_data_runs, oracle_gather


def deletions(word):
    seen = set()
    for i in range(len(word)):
        seen.add(tuple(word[:i] + word[i + 1:]))
    return seen


def test_syndrome_values():
    assert position_sum(0b0000, 3) % 8 == 0
    assert position_sum(0b1001, 3) % 8 == 5
    for j in range(1, 7):
        assert position_sum(1 << (j - 1), 3) % 8 == j % 8


def test_modulus_exponent():
    assert [vt_modulus_exponent(L) for L in (1, 2, 3, 4, 7, 8, 10)] == [1, 2, 2, 3, 3, 4, 4]


def test_decode_all_zero():
    L = 6
    assert vt_decode([0] * (L - 1), 0, L) == [0] * L


@pytest.mark.parametrize("L", range(2, 9))
def test_exhaustive_single_deletion_decoding(L):
    q = 1 << vt_modulus_exponent(L)
    coset_total = 0
    for a in range(q):
        for cw in vt_codewords(L, a):
            coset_total += 1
            for y in deletions(cw):
                assert vt_decode(list(y), a, L) == cw
    assert coset_total == 1 << L   # the syndrome classes partition F_2^L


@pytest.mark.parametrize("L", range(2, 9))
def test_deletion_balls_disjoint_within_coset(L):
    q = 1 << vt_modulus_exponent(L)
    for a in range(q):
        words = list(vt_codewords(L, a))
        balls = [deletions(w) for w in words]
        for i, j in combinations(range(len(words)), 2):
            assert not (balls[i] & balls[j]), (L, a, words[i], words[j])


def test_decode_corrupt_input():
    # 0111 has syndrome 2+3+4 = 9 = 1 mod 8; no codeword of VT_7(5) yields it
    with pytest.raises(CorruptInputError):
        vt_decode([0, 1, 1, 1], 7, 5)


def test_systematic_zero():
    assert vt_encode_int(0, 0, 5) == 0


@pytest.mark.parametrize("L", range(2, 11))
def test_systematic_encoder_roundtrip(L):
    h = vt_modulus_exponent(L)
    q = 1 << h
    rng = random.Random(L)
    slots = data_positions(L)
    for a in range(q):
        for _ in range(min(1 << (L - h), 16)):
            d = rng.getrandbits(L - h)
            x = vt_encode_int(d, a, L)
            assert position_sum(x, h) % q == a
            assert [x >> (p - 1) & 1 for p in slots] == to_bits(d, L - h)
            assert placed_data(x, L) == d
            for pos in range(L):
                y = (x & ((1 << pos) - 1)) | ((x >> (pos + 1)) << pos)
                assert vt_decode_int(y, a, L) == x


def test_encoder_image_size():
    # exactly 2^(L-h) distinct codewords per coset
    L, a = 6, 3
    h = vt_modulus_exponent(L)
    image = {vt_encode_int(d, a, L) for d in range(1 << (L - h))}
    assert len(image) == 1 << (L - h)


# --- list reference oracle ---------------------------------------------------
#
# The list-based bodies the row-int kernels replaced, kept verbatim in
# behaviour as the reference for the differential tests below.

def data_positions(L):
    """The positions 1..L that are not powers of two."""
    return [j for j in range(1, L + 1) if j & (j - 1)]


def oracle_syndrome(bits, q):
    return sum(j * b for j, b in enumerate(bits, start=1)) % q


def oracle_decode(y, a, L):
    q = 1 << vt_modulus_exponent(L)
    w = sum(y)
    deficiency = (a - oracle_syndrome(y, q)) % q
    if deficiency > L:
        raise CorruptInputError("syndrome deficiency exceeds any insertion weight")
    out = list(y)
    if deficiency <= w:
        ones_seen = 0
        pos = len(y)
        while pos > 0 and ones_seen < deficiency:
            if y[pos - 1] == 1:
                ones_seen += 1
            pos -= 1
        if ones_seen != deficiency:
            raise CorruptInputError("not enough ones for the required reinsertion")
        out.insert(pos, 0)
    else:
        zeros_needed = deficiency - w - 1
        zeros_seen = 0
        pos = 0
        while pos < len(y) and zeros_seen < zeros_needed:
            if y[pos] == 0:
                zeros_seen += 1
            pos += 1
        if zeros_seen != zeros_needed:
            raise CorruptInputError("not enough zeros for the required reinsertion")
        out.insert(pos, 1)
    if oracle_syndrome(out, q) != a % q:
        raise CorruptInputError("reinsertion does not reach the target syndrome")
    return out


def oracle_encode(data, a, L):
    h = vt_modulus_exponent(L)
    q = 1 << h
    slots = data_positions(L)
    x = [0] * (L + 1)
    for j, bit in zip(slots, data):
        x[j] = int(bit) & 1
    deficiency = (a - oracle_syndrome(x[1:], q)) % q
    for i in range(h):
        if (deficiency >> i) & 1:
            x[1 << i] = 1
    return x[1:]


def to_int(bits):
    return sum(b << j for j, b in enumerate(bits))


def to_bits(value, length):
    return [(value >> j) & 1 for j in range(length)]


def outcome(fn, *args):
    """The result of fn, or the exception class it raised."""
    try:
        return fn(*args)
    except CorruptInputError:
        return CorruptInputError


def check_syndrome(value, L):
    h = vt_modulus_exponent(L)
    bits = to_bits(value, L)
    assert position_sum(value, h) % (1 << h) == oracle_syndrome(bits, 1 << h)


def check_decode(value, a, L):
    y = to_bits(value, L - 1)
    want = outcome(oracle_decode, y, a, L)
    got = outcome(vt_decode_int, value, a, L)
    if want is CorruptInputError:
        assert got is CorruptInputError, (L, a, y)
        assert outcome(vt_decode, y, a, L) is CorruptInputError
    else:
        assert got == to_int(want), (L, a, y)
        assert vt_decode(y, a, L) == want


def check_encode(value, a, L):
    data = to_bits(value, L - vt_modulus_exponent(L))
    want = oracle_encode(data, a, L)
    row = vt_encode_int(value, a, L)
    assert row == to_int(want), (L, a, data)
    assert placed_data(row, L) == value


@pytest.mark.parametrize("L", range(1, 11))
def test_int_kernels_match_oracle_exhaustively(L):
    q = 1 << vt_modulus_exponent(L)
    for value in range(1 << L):
        check_syndrome(value, L)
    for a in range(q):
        for value in range(1 << (L - 1)):
            check_decode(value, a, L)
        for value in range(1 << (L - vt_modulus_exponent(L))):
            check_encode(value, a, L)


@pytest.mark.parametrize("L", (31, 63, 127))
def test_int_kernels_match_oracle_random(L):
    rng = random.Random(L)
    q = 1 << vt_modulus_exponent(L)
    for _ in range(300):
        a = rng.randrange(q)
        check_syndrome(rng.getrandbits(L), L)
        check_decode(rng.getrandbits(L - 1), a, L)
        check_encode(rng.getrandbits(L - vt_modulus_exponent(L)), a, L)
        # a true single deletion from a codeword decodes back to it
        row = vt_encode_int(rng.getrandbits(L - vt_modulus_exponent(L)), a, L)
        pos = rng.randrange(L)
        y = (row & ((1 << pos) - 1)) | ((row >> (pos + 1)) << pos)
        check_decode(y, a, L)
        assert vt_decode_int(y, a, L) == row


# --- position sums against the popcount oracle and the definition ------------
#
# The masked-popcount body, kept as the oracle of the 16-bit table paths:
# sum_k popcount(x & M_k) * 2^k, M_k holding the positions with bit k set.
# Rows longer than 31 positions run the same formula with masks built
# another way, so they are also checked against sum_j j*x_j bit by bit.

@lru_cache(maxsize=None)
def oracle_masks(h):
    return tuple((k, sum(1 << (j - 1) for j in range(1, 1 << h) if j >> k & 1))
                 for k in range(h))


def oracle_position_sum(x, h):
    s = 0
    for k, mask in oracle_masks(h):
        s += (x & mask).bit_count() << k
    return s


@pytest.mark.parametrize("L", range(1, 17))
def test_position_sum_matches_popcount_oracle_exhaustively(L):
    # every L-bit row; the (L-1)-bit rows vt_decode_int sums are among them
    h = vt_modulus_exponent(L)
    rows = range(1 << L)
    want = [oracle_position_sum(x, h) for x in rows]
    assert [position_sum(x, h) for x in rows] == want
    assert position_residues(rows, h) == [w % (1 << h) for w in want]


@pytest.mark.parametrize("L", (*range(17, 33), 63, 64, 127, 255, 300, 1100))
def test_position_sum_matches_popcount_oracle_random(L):
    """Random rows, and rows with bits at positions 16 and 17, either side
    of the split between the two 16-bit tables."""
    rng = random.Random(L)
    h = vt_modulus_exponent(L)
    rows = [rng.getrandbits(L) for _ in range(200)]
    rows += [rng.getrandbits(L - 1) for _ in range(200)]
    rows += [0, 1, (1 << L) - 1, (1 << (L - 1)) - 1, 1 << (L - 1)]
    rows += [1 << 15, 1 << 16, 3 << 15]
    rows += [rng.getrandbits(L) | 3 << 15 for _ in range(50)]
    rows += [rng.getrandbits(L) & ~(3 << 15) | 1 << 16 for _ in range(50)]
    want = [oracle_position_sum(x, h) for x in rows]
    assert [position_sum(x, h) for x in rows] == want
    assert position_residues(rows, h) == [w % (1 << h) for w in want]


@pytest.mark.parametrize("L", range(1, 40))
def test_array_residues_match_popcount_oracle(L):
    """`position_residues` (the word multiplies up to 31 positions, one row
    at a time beyond) on arrays of 0, 1, 5, 31 and 300 rows, each row
    full-length or short (its top bits clear, as a deletion leaves it),
    against the popcount oracle."""
    rng = random.Random(7000 + L)
    h = vt_modulus_exponent(L)
    for n in (0, 1, 5, 31, 300):
        rows = [rng.getrandbits(L) if rng.randrange(2) else rng.getrandbits(rng.randrange(L))
                for _ in range(n)]
        assert position_residues(rows, h) == [oracle_position_sum(x, h) % (1 << h)
                                              for x in rows], (L, n)


def test_word_sums_kernel_matches_position_sum():
    """The SWAR kernel on its own, as `TedCode`'s lane encoder calls it:
    byte 3 of each 8-byte word is congruent to the word's position sum mod
    32, on random words of up to 31 bits and on the empty, the lowest and
    the full ones."""
    rng = random.Random(31)
    words = [rng.getrandbits(rng.randrange(32)) for _ in range(1000)]
    words += [0, 1, 1 << 30, (1 << 31) - 1]
    packed = b"".join(w.to_bytes(8, "little") for w in words)
    sums = _word_sums(packed).to_bytes(len(packed), "little")[3::8]
    assert [s % 32 for s in sums] == [position_sum(w, 5) % 32 for w in words]


def definitional_position_sum(x, L):
    return sum(j for j in range(1, L + 1) if x >> (j - 1) & 1)


@pytest.mark.parametrize("L", (32, 63, 64, 1100))
def test_position_sum_matches_definition(L):
    rng = random.Random(2000 + L)
    h = vt_modulus_exponent(L)
    rows = [rng.getrandbits(L) for _ in range(100)]
    rows += [0, (1 << L) - 1, 1 << (L - 1)] + [1 << j for j in range(L)]
    want = [definitional_position_sum(x, L) for x in rows]
    assert [position_sum(x, h) for x in rows] == want
    assert position_residues(rows, h) == [w % (1 << h) for w in want]


# --- 16-bit position-sum table and table-placed redundancy --------------------

def test_sum16_table_matches_popcount_oracle_on_every_value():
    assert len(_SUM16) == 1 << 16
    assert list(_SUM16) == [oracle_position_sum(x, 5) for x in range(1 << 16)]


@pytest.mark.parametrize("L", (15, 16, 17, 32, 33))
def test_position_sum_at_table_chunk_boundaries(L):
    """Rows either side of 16 positions (one table lookup) and of 32 (two
    lookups, then the masked popcounts), including rows as wide as h allows."""
    h = vt_modulus_exponent(L)
    widest = (1 << h) - 1
    rng = random.Random(1000 + L)
    rows = [rng.getrandbits(L) for _ in range(300)]
    rows += [rng.getrandbits(widest) for _ in range(300)]
    rows += [1 << j for j in range(widest)]
    rows += [(1 << j) - 1 for j in range(widest + 1)]
    rows += [((1 << widest) - 1) ^ (1 << j) for j in range(widest)]
    want = [oracle_position_sum(x, h) for x in rows]
    assert [position_sum(x, h) for x in rows] == want
    assert position_residues(rows, h) == [w % (1 << h) for w in want]


@pytest.mark.parametrize("L", (31, 63, 255, 256, 300))
def test_vt_encode_int_matches_oracle_for_every_deficiency(L):
    """Every target a against a fixed data word runs every deficiency
    residue, so every placement of the redundancy bits on the power
    positions is checked against the list encoder."""
    h = vt_modulus_exponent(L)
    rng = random.Random(3000 + L)
    for value in (0, (1 << (L - h)) - 1, rng.getrandbits(L - h)):
        for a in range(1 << h):
            check_encode(value, a, L)


# --- masked-shift gather, scatter and table select against the loop bodies ---
#
# The run-walking gather and scatter and the clear-lowest-bit select, kept
# as the oracles of the masked shifts of `_placement(h)` and of the select
# table.

def oracle_scatter(data, L):
    x = 0
    for first, width in oracle_data_runs(L):
        x |= (data & ((1 << width) - 1)) << first
        data >>= width
    return x


def oracle_kth_lowest_one(v, k):
    for _ in range(k - 1):
        v &= v - 1
    return (v & -v).bit_length() - 1


def oracle_powers(deficiency):
    """Bit i of the deficiency at position 2^i, bit 2^i - 1."""
    return sum((deficiency >> i & 1) << (1 << i) - 1 for i in range(deficiency.bit_length()))


def placed(value, pairs):
    """The OR of (value & mask) << shift over (mask, shift) pairs."""
    out = 0
    for mask, shift in pairs:
        out |= (value & mask) << shift
    return out


def placed_data(x, L):
    """The data bits of a row int x < 2^L, by the gather of `_placement`."""
    data = 0
    for mask, shift in _placement(L.bit_length()).runs:
        data |= x >> shift & mask
    return data


def test_placement_matches_the_run_oracles():
    """For h = 1..10 the masked shifts of `_placement(h)` scatter data as
    `oracle_scatter` does, gather it as `oracle_gather` does, and put every
    deficiency on the power positions, at the shortest and the longest row
    of that h: every value up to 2^12, seeded ones beyond."""
    rng = random.Random(10)

    def values(bits):
        if bits <= 12:
            return range(1 << bits)
        return [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(500)]

    for h in range(1, 11):
        runs, powers = _placement(h)
        for L in (1 << (h - 1), (1 << h) - 1):
            for data in values(L - h):
                assert placed(data, runs) == oracle_scatter(data, L), (L, data)
            for x in values(L):
                assert placed_data(x, L) == oracle_gather(x, L), (L, x)
        for deficiency in range(1 << h):
            assert placed(deficiency, powers) == oracle_powers(deficiency), h


def test_lane_masks_place_what_the_tables_place():
    """For rows of at most 8 positions, every entry d << h | a of the byte
    table `_encode_table(L)` is the data d on the run masks of `_placement`
    and the deficiency on its power masks, both as the oracles place them."""
    for L in range(1, 9):
        h = vt_modulus_exponent(L)
        runs, powers = _placement(h)
        data_mask = placed((1 << (L - h)) - 1, runs)
        assert data_mask == oracle_scatter((1 << (L - h)) - 1, L)
        assert placed((1 << h) - 1, powers) == oracle_powers((1 << h) - 1)
        table = _encode_table(L)
        for v in range(1 << L):
            d, a = v >> h, v & ((1 << h) - 1)
            scattered = placed(d, runs)
            assert scattered == oracle_scatter(d, L), (L, v)
            deficiency = (a - position_sum(scattered, h)) % (1 << h)
            assert table[v] & data_mask == scattered, (L, v)
            assert table[v] == scattered | oracle_powers(deficiency), (L, v)


def test_data16_gathers_every_16_bit_row():
    """The gather of `_placement(5)` on every row of 16 positions, power
    positions set or not, is the run oracle's."""
    assert all(placed_data(x, 16) == oracle_gather(x, 16) for x in range(1 << 16))


def test_scatter11_is_the_inverse_of_data16():
    """The scatter of `_placement(5)` puts every 11-bit data word of a row
    of 16 positions where the run oracle does, and the gather takes it back."""
    runs = _placement(5).runs
    for d in range(1 << 11):
        x = placed(d, runs)
        assert x == oracle_scatter(d, 16), d
        assert placed_data(x, 16) == d, d


@pytest.mark.parametrize("L", range(1, 9))
def test_byte_tables_match_the_row_kernels_exhaustively(L):
    """Rows of at most 8 positions encode by one read of `_encode_table(L)`,
    entry d << h | a."""
    h = vt_modulus_exponent(L)
    table = _encode_table(L)
    assert len(table) == 1 << L
    assert list(table) == [vt_encode_int(v >> h, v & ((1 << h) - 1), L) for v in range(1 << L)]


def check_gather_scatter(data, a, L):
    h = vt_modulus_exponent(L)
    row = vt_encode_int(data, a, L)
    assert row & oracle_scatter((1 << (L - h)) - 1, L) == oracle_scatter(data, L)
    assert position_sum(row, h) % (1 << h) == a
    assert placed_data(row, L) == oracle_gather(row, L) == data


@pytest.mark.parametrize("L", (15, 16, 17, 31, 32, 33, 63, 300, 1023))
def test_gather_and_scatter_match_the_run_oracle(L):
    """Round trips either side of each power of two from 16 to 32, and on
    long rows with many runs."""
    h = vt_modulus_exponent(L)
    rng = random.Random(4000 + L)
    k = L - h
    datas = [0, (1 << k) - 1] + [1 << j for j in range(k)]
    datas += [rng.getrandbits(k) for _ in range(300)]
    for data in datas:
        check_gather_scatter(data, rng.randrange(1 << h), L)
    # rows with power positions set as well: the gather must skip them
    for _ in range(300):
        x = rng.getrandbits(L)
        assert placed_data(x, L) == oracle_gather(x, L)


def oracle_insert(y, deficiency, L):
    """The VT repair with its two cases apart, each placed by the
    clear-lowest-bit loop: a 0 at the (w - D + 1)-th lowest one of y (at
    the end when D = 0), or a 1 just above the (D - w - 1)-th lowest zero
    (at index 0 when there is none to skip)."""
    w = y.bit_count()
    if deficiency <= w:
        bit = 0
        pos = L - 1 if deficiency == 0 else oracle_kth_lowest_one(y, w - deficiency + 1)
    else:
        bit, zeros = 1, deficiency - w - 1
        pos = oracle_kth_lowest_one(~y & ((1 << (L - 1)) - 1), zeros) + 1 if zeros else 0
    return y & ((1 << pos) - 1) | (y >> pos) << (pos + 1) | bit << pos


def check_insert(y, L):
    for deficiency in range(L + 1):
        assert vt_insert(y, deficiency, L) == oracle_insert(y, deficiency, L), \
            (L, y, deficiency)


def test_select_matches_the_loop_on_every_byte():
    """Every byte value as the 8 received bits of a 9-position row, and as
    the low byte of a 17-position one, at every deficiency 0..L."""
    for y in range(256):
        check_insert(y, 9)
        check_insert(y | 0x5A00, 17)


@pytest.mark.parametrize("L", (7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 255, 256))
def test_select_matches_the_loop_on_random_rows(L):
    rng = random.Random(5000 + L)
    rows = [rng.getrandbits(L - 1) for _ in range(100)]
    rows += [(1 << (L - 1)) - 1, 1 << (L - 2), 1, 0, rng.getrandbits(L - 1) | 1 << (L - 2)]
    for y in rows:
        check_insert(y, L)


def raises_in_time(error, call, *args):
    """call(*args) raises `error`; a call that spins instead fails the test
    after 10 s, on a daemon thread that cannot hold up the interpreter's exit."""
    raised = []

    def run():
        try:
            call(*args)
        except error:
            raised.append(True)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(10)
    assert not worker.is_alive(), "no raise within 10 s"
    assert raised, f"no {error.__name__}"


@pytest.mark.parametrize("v", (0, 1, 0xFF, 0x8001, (1 << 255) | 1))
def test_select_past_the_last_one_raises_instead_of_spinning(v):
    """A deficiency below 0 would have the select skip more ones of y than
    it has, and one above L more zeros: both raise before the select."""
    L = v.bit_length() + 1
    raises_in_time(ValueError, vt_insert, v, -1, L)
    raises_in_time(ValueError, vt_insert, v, -L, L)
    raises_in_time(CorruptInputError, vt_insert, v, L + 1, L)


@pytest.mark.parametrize("L", range(1, 13))
def test_decode_reaches_the_residue_whenever_the_deficiency_fits(L):
    """`vt_decode_int` raises only when the deficiency D exceeds L; at
    D <= L the reinsertion has enough zeros and lands on residue a without
    a check.  Every (L-1)-bit y and every a: an L-bit row, residue a, and
    y is that row with one bit deleted."""
    h = vt_modulus_exponent(L)
    q = 1 << h
    for a in range(q):
        for y in range(1 << (L - 1)):
            if (a - position_sum(y, h)) % q > L:
                with pytest.raises(CorruptInputError):
                    vt_decode_int(y, a, L)
                continue
            row = vt_decode_int(y, a, L)
            assert row >> L == 0 and position_sum(row, h) % q == a, (L, a, y)
            assert any(row & ((1 << p) - 1) | (row >> (p + 1)) << p == y
                       for p in range(L)), (L, a, y)


@pytest.mark.parametrize("L", range(1, 13))
def test_insert_at_the_received_deficiency_is_vt_decode(L):
    """`vt_insert` given D = (a - position_sum(y)) mod 2^h returns what
    `vt_decode_int(y, a, L)` returns, or raises where it raises, for every
    (L-1)-bit y and every a."""
    h = vt_modulus_exponent(L)
    q = 1 << h
    for a in range(q):
        for y in range(1 << (L - 1)):
            deficiency = (a - position_sum(y, h)) % q
            if deficiency > L:
                for call in (lambda: vt_insert(y, deficiency, L),
                             lambda: vt_decode_int(y, a, L)):
                    with pytest.raises(CorruptInputError):
                        call()
                continue
            assert vt_insert(y, deficiency, L) == vt_decode_int(y, a, L), (L, a, y)


@pytest.mark.parametrize("L", range(1, 9))
def test_insert_table_is_vt_insert_at_every_row_and_deficiency(L):
    """Entry D << (L-1) | y of `_insert_table(L)` is `vt_insert(y, D, L)`
    for every (L-1)-bit y and every D < 2^h.  Where D > L the entry is the
    sentinel None, and `vt_insert` raises CorruptInputError with
    `_NO_INSERTION`, the message `TedCode.decode` raises at the sentinel."""
    h = vt_modulus_exponent(L)
    table = _insert_table(L)
    assert len(table) == 1 << (h + L - 1)
    for deficiency in range(1 << h):
        for y in range(1 << (L - 1)):
            entry = table[deficiency << (L - 1) | y]
            if deficiency > L:
                assert entry is None, (L, deficiency, y)
                with pytest.raises(CorruptInputError) as exc:
                    vt_insert(y, deficiency, L)
                assert str(exc.value) == _NO_INSERTION
            else:
                assert entry == vt_insert(y, deficiency, L), (L, deficiency, y)
