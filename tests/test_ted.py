import hashlib
import random

import pytest

from arraycodes.arrays import BitArray, RaggedArray, _int_to_row
from arraycodes.channel import (ChannelSpec, apply_channel,
                                enumerate_channel_instances, random_instance,
                                roundtrip_harness)
from arraycodes.dc import DcCode
from arraycodes.errors import (ArrayCodeError, CapacityExceededError,
                               ChannelContractError, CorruptInputError,
                               NotACodewordError)
from arraycodes import ted as ted_module
from arraycodes.rs import ReedSolomon
from arraycodes.ted import TedCode, theta_symbol
from arraycodes.vt import (_NO_INSERTION, _insert_table, position_residues, vt_data_int,
                           vt_decode_int, vt_encode_int, vt_insert)
from conftest import ragged, unbudgeted
from test_fuzz import _damage, _ragged
from test_rs import _oracle_decode


def test_theta_packing():
    # L=5, e=1: row 10010 -> syndrome (1+4) mod 8 = 5, tail bit 0
    assert theta_symbol([1, 0, 0, 1, 0], 1, 3) == 5
    assert theta_symbol([0, 0, 0, 0, 0], 1, 3) == 0
    # tail bit lands above the syndrome bits
    assert theta_symbol([1, 0, 0, 1, 1], 1, 3) == ((5 + 5) % 8) | (1 << 3)


def test_theta_injective_on_tuple_domain():
    seen = {}
    for value in range(1 << 5):
        row = [(value >> j) & 1 for j in range(5)]
        sym = theta_symbol(row, 2, 3)
        s = sum(j * b for j, b in enumerate(row, start=1)) % 8
        tail = (row[3], row[4])
        key = (s, tail)
        if key in seen:
            assert seen[key] == sym
        seen[key] = sym
    assert len(set(seen.values())) == len(seen)


@pytest.mark.parametrize("h,e", [(h, e) for h in range(1, 7) for e in range(4)
                                 if e < 1 << (h - 1)])
def test_symbols_match_theta_symbol(h, e):
    """The whole-array symbols (the VT residues alone when e = 0) equal
    `theta_symbol` row by row, at the shortest and the longest L of this h
    the tail fits."""
    rng = random.Random(100 * h + e)
    for L in sorted({(1 << (h - 1)) + e, (1 << h) - 1}):
        code = TedCode(min(8, (1 << (h + e)) - 1), L, 0, e)
        assert code.h == h
        rows = list(range(1 << L)) if L <= 10 else [rng.getrandbits(L) for _ in range(300)]
        want = [theta_symbol([(x >> j) & 1 for j in range(L)], e, h) for x in rows]
        assert code._symbols(rows) == want


# Every (L, e) that TedCode accepts at rows of at most 8 positions: e < (L+1)
# - 2^(h-1), with one row more than the e redundancy rows (t = 0).
BYTE_CODES = [(L, e) for L in range(1, 9) for e in range(L + 1 - (1 << (L.bit_length() - 1)))]


def test_byte_table_matches_theta_symbol_on_every_row():
    """Rows of at most 8 positions read their symbols from one byte table,
    entry v theta of the row int v; longer rows have none."""
    assert len(BYTE_CODES) == 15
    for L, e in BYTE_CODES:
        code = TedCode(e + 1, L, 0, e)
        table = code._byte_rows.theta
        assert len(table) == 256
        want = [theta_symbol([(x >> j) & 1 for j in range(L)], e, code.h)
                for x in range(1 << L)]
        assert list(table[:1 << L]) == want, (L, e)
        assert code._symbols(list(range(1 << L))) == want, (L, e)
    assert TedCode(5, 9, 2, 1)._byte_rows is None
    assert TedCode(16, 31, 3, 0)._byte_rows is None


def test_the_one_row_code_runs_over_gf2():
    """TedCode(1,1,0,0) is the code of GF(2), whose outer code has byte
    lanes like every field of m <= 8: both messages encode, pass
    membership and come back from the array and its decode, and a damaged
    row exceeds the capacity of 0."""
    code = TedCode(1, 1, 0, 0)
    assert code.outer.field.m == 1 and code.outer._tables.byte_lanes
    for bit in (0, 1):
        x = code.encode([bit])
        assert x.rows == (bit,) and code.membership(x) and code.message_of(x) == [bit]
        assert code.decode(RaggedArray(1, 1, x.rows, (0,))) == x
    with pytest.raises(CapacityExceededError):
        code.decode(RaggedArray(1, 1, (0,), (1,)))


@pytest.mark.parametrize("L,e", BYTE_CODES)
def test_byte_table_symbols_match_the_residue_path(L, e):
    """`_symbols` through the byte table equals the path of longer rows:
    the VT residues of `position_residues`, the tail bits above them."""
    code = TedCode(e + 1, L, 0, e)
    rng = random.Random(10 * L + e)
    rows = [rng.getrandbits(L) for _ in range(500)]
    residues = position_residues(rows, code.h)
    want = [s | (row >> (L - e)) << code.h for s, row in zip(residues, rows)] if e else residues
    assert code._symbols(rows) == want
    assert code._symbols(tuple(rows)) == want


def test_feasibility_rejected():
    # L=4 gives h=3; the tail position 4 collides with the VT power positions
    with pytest.raises(ValueError):
        TedCode(3, 4, 1, 1)


def test_parameters_and_redundancy():
    code = TedCode(5, 7, 1, 1)
    assert code.h == 3 and code.R == 2
    assert code.message_bits == 5 * 7 - 2 * 4
    # the (1,1,1) redundancy with an MDS outer code: 2 + 2*ceil(log2(L+1))
    assert 5 * 7 - code.message_bits == 2 + 2 * 3


def test_zero_message():
    code = TedCode(5, 7, 1, 1)
    x = code.encode([0] * code.message_bits)
    assert all(r == 0 for r in x.rows)
    assert code.membership(x)


def test_encoder_output_membership_and_systematic():
    code = TedCode(5, 7, 1, 2)
    rng = random.Random(0)
    for _ in range(10):
        msg = [rng.randrange(2) for _ in range(code.message_bits)]
        x = code.encode(msg)
        assert code.membership(x)
        assert code.message_of(x) == msg


@pytest.mark.parametrize("code", [TedCode(5, 7, 2, 1), DcCode(7, 5, 2)],
                         ids=["ted", "dc"])
def test_encode_rejects_a_message_of_the_wrong_length(code):
    k = code.message_bits
    for length in (0, k - 1, k + 1):
        with pytest.raises(ValueError, match=f"message must have {k} bits"):
            code.encode([0] * length)


def test_exhaustive_roundtrip_small():
    code = TedCode(4, 7, 1, 1)
    record = roundtrip_harness(code, ChannelSpec("ted", t=1, s=1, e=1),
                               messages=4, exhaustive=True)
    assert record.failures == 0, record.first_counterexample


def test_ambiguous_sources_decode_correctly():
    """First two rows each one bit short: a deletion/TE mix in either order
    must land on the original codeword without knowing which occurred."""
    code = TedCode(4, 7, 1, 1)
    rng = random.Random(1)
    for _ in range(20):
        msg = [rng.randrange(2) for _ in range(code.message_bits)]
        x = code.encode(msg)
        # TE in row 1, arbitrary deletion in row 2
        out_a = apply_channel(x, unbudgeted("ted", x), ((1, 0, 0, 0), ((2, (3,)),)))
        # deletion in row 1, TE in row 2
        out_b = apply_channel(x, unbudgeted("ted", x), ((0, 1, 0, 0), ((1, (3,)),)))
        assert code.decode(out_a) == x
        assert code.decode(out_b) == x


def test_order_insensitivity_per_row():
    """Deleting then truncating reaches the same set of rows as truncating
    then deleting, and both decode to the same codeword."""
    code = TedCode(4, 7, 1, 1)
    rng = random.Random(2)
    msg = [rng.randrange(2) for _ in range(code.message_bits)]
    x = code.encode(msg)
    row = x.row_bits(1)
    for pos in range(1, 7):   # delete inside the surviving prefix
        te_then_del = row[:pos - 1] + row[pos:6]          # lose tail bit, then one bit
        after_del = row[:pos - 1] + row[pos:]
        del_then_te = after_del[:5]                       # one bit, then tail bit
        assert te_then_del == del_then_te
        lists = x.to_lists()
        lists[0] = te_then_del
        assert code.decode(ragged(lists, 7)) == x


def test_multi_bit_row_loss():
    # e=2: a row may lose up to e+1 = 3 bits (TE pair + one deletion)
    code = TedCode(5, 7, 1, 2)
    rng = random.Random(3)
    msg = [rng.randrange(2) for _ in range(code.message_bits)]
    x = code.encode(msg)
    out = apply_channel(x, unbudgeted("ted", x), ((2, 0, 0, 0, 0), ((1, (2,)),)))
    assert out.lost[0] == 3
    assert code.decode(out) == x


def test_capacity_and_contract_errors():
    code = TedCode(5, 7, 1, 1)
    x = code.encode([0] * code.message_bits)
    lists = x.to_lists()
    short = [row[:-1] for row in lists[:3]] + lists[3:]
    with pytest.raises(CapacityExceededError):
        code.decode(ragged(short, 7))
    deep = [lists[0][:4]] + lists[1:]
    with pytest.raises(ChannelContractError):
        code.decode(ragged(deep, 7))


def test_corrupt_input_detected():
    code = TedCode(5, 7, 2, 1)
    rng = random.Random(4)
    msg = [rng.randrange(2) for _ in range(code.message_bits)]
    x = code.encode(msg)
    lists = x.to_lists()
    for i in range(4):
        lists[i][0] ^= 1
    with pytest.raises(CorruptInputError):
        code.decode(ragged(lists, 7))


def test_ted_instance_enumeration_counts():
    # product rule at (1,1,1), n=2, L=3: sum over patterns of (1 + surviving cells)
    insts = list(enumerate_channel_instances(ChannelSpec("ted", t=1, s=1, e=1), 2, 3))
    assert len(insts) == len(set(insts))
    expected = 0
    for p in ((0, 0), (1, 0), (0, 1)):
        expected += 1 + sum(3 - pi for pi in p)
    assert len(insts) == expected


def test_decode_rejects_other_array_types():
    code = TedCode(5, 7, 2, 1)
    for other in (BitArray(5, 7, (0,) * 5), None, [[0] * 7] * 5):
        with pytest.raises(ValueError, match="TedCode decodes a RaggedArray, got "
                                             + type(other).__name__):
            code.decode(other)


@pytest.mark.parametrize("args", [(5.0, 7, 2, 1), (5, 7.0, 2, 1), (5, 7, 2.0, 1),
                                  (5, 7, 2, 1.0), (True, 7, 0, 0), (5, 7, "2", 1)])
def test_constructor_takes_only_int_parameters(args):
    """A float or bool parameter is a TypeError at construction, not a
    failure later inside encode."""
    with pytest.raises(TypeError, match="must be ints"):
        TedCode(*args)


@pytest.mark.parametrize("code", [TedCode(5, 7, 2, 1), DcCode(7, 5, 2)],
                         ids=lambda c: type(c).__name__)
def test_message_of_and_membership_reject_other_types(code):
    """An argument that is no BitArray is a TypeError, a damaged array of
    the right shape included."""
    damaged = RaggedArray(code.n, code.L, (0,) * code.n, (0,) * code.n)
    for method in (code.message_of, code.membership):
        for other in (None, damaged):
            with pytest.raises(TypeError, match="expected a BitArray, got "
                                                + type(other).__name__):
                method(other)


# --- row-by-row reference codec -------------------------------------------------
#
# The encoder and decoder bodies before the byte tables and the whole-array
# passes, one row at a time, with the symbol computed from the plain weighted
# sum; the references for `test_encode_matches_row_by_row_oracle` and
# `test_decode_matches_row_by_row_oracle`.

def oracle_symbol(code, row):
    L, e, h = code.L, code.e, code.h
    s = sum(j for j in range(1, L + 1) if row >> (j - 1) & 1)
    return s & ((1 << h) - 1) | (row >> (L - e)) << h


def oracle_encode(code, message):
    n, L, R, h, e = code.n, code.L, code.R, code.h, code.e
    k = n - R
    m = sum(bit << j for j, bit in enumerate(message))
    rows = [(m >> (i * L)) & ((1 << L) - 1) for i in range(k)]
    parity = code.outer._parity([oracle_symbol(code, row) for row in rows])
    rest = m >> (k * L)
    per_row = L - e - h
    for i, symbol in enumerate(parity):
        data = (rest >> (i * per_row)) & ((1 << per_row) - 1)
        tail = symbol >> h
        row = vt_encode_int(data | tail << per_row, symbol & ((1 << h) - 1), L)
        assert row >> (L - e) == tail
        rows.append(row)
    return BitArray(n, L, tuple(rows))


# The codes of rows of at most 8 positions that encode through the byte
# tables: the benchmark's TED(5,7), the top of the VT table at L = 8, the
# widest outer field of such rows (h + e = 6), and for each L from 1 to 8
# one shape at the largest e it admits (L = 1 admits only TedCode(1,1,0,0),
# which has no parity rows).  Then the codes of rows of 9 to 31 positions
# that encode in 64-bit lanes: TED(9,11), the benchmark's DC(31,31,8), the
# first lane shape L = 9, 255 lanes, h + e = 8 and no parity rows.  Past
# the lanes' rule: 32 positions, and h + e = 9.
ENCODE_ORACLE_CODES = [DcCode(7, 5, 2), TedCode(5, 7, 2, 1), TedCode(9, 6, 2, 2),
                       DcCode(15, 8, 3), TedCode(63, 7, 4, 3),
                       TedCode(1, 1, 0, 0), TedCode(3, 2, 1, 0), TedCode(7, 3, 2, 1),
                       TedCode(7, 4, 3, 0), TedCode(9, 5, 4, 1), TedCode(9, 6, 3, 2),
                       TedCode(9, 7, 2, 3), TedCode(9, 8, 4, 0), TedCode(9, 11, 2, 2),
                       DcCode(31, 31, 8), TedCode(31, 31, 4, 2), TedCode(255, 31, 2, 3),
                       TedCode(15, 15, 1, 4), TedCode(7, 9, 2, 1), TedCode(16, 31, 3, 0),
                       TedCode(4, 20, 0, 0),
                       DcCode(9, 32, 3), TedCode(31, 31, 2, 4)]


def in_lanes(code):
    """Whether the code encodes in 64-bit lanes: rows of 9 to 31 positions
    on an outer code of byte lanes."""
    return 8 < code.L <= 31 and code.h + code.e <= 8


def test_lane_rows_exactly_inside_their_rule():
    """`_lane_rows` is None exactly outside 8 < L <= 31 with h + e <= 8, on
    the oracle codes, which reach both sides, and at each bound."""
    assert {in_lanes(c) for c in ENCODE_ORACLE_CODES} == {True, False}
    for code in ENCODE_ORACLE_CODES:
        assert (code._lane_rows is not None) == in_lanes(code), code
    for code, lanes in [(TedCode(3, 8, 1, 0), False), (TedCode(3, 9, 1, 0), True),
                        (TedCode(7, 31, 1, 3), True), (TedCode(7, 31, 1, 4), False),
                        (TedCode(3, 32, 1, 0), False), (TedCode(3, 63, 1, 0), False)]:
        assert (code._lane_rows is not None) == lanes, code
        assert not lanes or code.outer._tables.byte_lanes


@pytest.mark.parametrize("code", ENCODE_ORACLE_CODES,
                         ids=lambda c: f"{c.n}x{c.L}-t{c.t}-e{c.e}")
def test_encode_matches_row_by_row_oracle(code):
    """The same array as the reference encoder on 200 seeded messages, and
    `message_of` gives each message back; also the all-zero and all-one
    messages."""
    assert (code._byte_rows is None) == (code.L > 8)
    assert (code._lane_rows is None) != in_lanes(code)
    for message in ([0] * code.message_bits, [1] * code.message_bits):
        x = code.encode(message)
        assert x == oracle_encode(code, message)
        assert code.message_of(x) == message
    rng = random.Random(repr(code))
    for _ in range(200):
        message = [rng.randrange(2) for _ in range(code.message_bits)]
        x = code.encode(message)
        assert x == oracle_encode(code, message)
        assert code.message_of(x) == message


def oracle_message_of(code, x):
    """The int path: a Horner over the rows, the parity rows' data by
    `vt_data_int`, then one unpack."""
    L, k = code.L, code.n - code.R
    per_row = L - code.e - code.h
    mask = (1 << per_row) - 1
    m = 0
    for row in reversed(x.rows[k:]):
        m = m << per_row | vt_data_int(row, L) & mask
    for row in reversed(x.rows[:k]):
        m = m << L | row
    return _int_to_row(m, k * L + code.R * per_row)


@pytest.mark.parametrize("code", ENCODE_ORACLE_CODES,
                         ids=lambda c: f"{c.n}x{c.L}-t{c.t}-e{c.e}")
def test_message_of_matches_the_int_path_oracle(code):
    """The same message as the int path on 200 seeded arrays of the code's
    shape, codewords or not, and a gather exactly for rows of at most 8
    positions."""
    assert (code._byte_rows is None) == (code.L > 8)
    rng = random.Random(repr(code))
    for _ in range(200):
        x = BitArray(code.n, code.L, tuple(rng.getrandbits(code.L) for _ in range(code.n)))
        assert code.message_of(x) == oracle_message_of(code, x)


def oracle_decode(code, received):
    if (received.n, received.L) != (code.n, code.L):
        raise ValueError("array shape mismatch")
    L, e, h = code.L, code.e, code.h
    symbols = []
    damaged = 0
    for i, (bits, missing) in enumerate(zip(received.rows, received.lost), start=1):
        if missing == 0:
            symbols.append(oracle_symbol(code, bits))
            continue
        if missing > e + 1:
            raise ChannelContractError(
                f"row {i} lost {missing} bits; at most e+1 = {e + 1} can "
                f"disappear from one row of this channel")
        symbols.append(None)
        damaged += 1
    if damaged > code.R:
        raise CapacityExceededError(
            f"{damaged} damaged rows exceed capacity t+e = {code.R}")
    try:
        codeword = _oracle_decode(code.outer, symbols)
    except NotACodewordError as exc:
        raise CorruptInputError("intact rows disagree with the outer code") from exc
    rows = []
    for i, (bits, k) in enumerate(zip(received.rows, received.lost), start=1):
        if k == 0:
            rows.append(bits)
            continue
        symbol = codeword[i - 1]
        tail = symbol >> h
        if k > 1:
            bits |= (tail >> (e - k + 1)) << (L - k)
        full = vt_decode_int(bits, symbol & ((1 << h) - 1), L)
        if full >> (L - e) != tail:
            raise CorruptInputError(
                f"row {i} decodes with the wrong tail; input out of contract")
        rows.append(full)
        symbols[i - 1] = oracle_symbol(code, full)
    if not code.outer.is_codeword(symbols):
        raise CorruptInputError("decoded array fails the membership rule")
    return BitArray(code.n, L, tuple(rows))


def _flip(rng, rows, pick):
    """Flip one bit in one or two of the rows whose length passes `pick`."""
    rows = list(rows)
    chosen = [i for i, (_, length) in enumerate(rows) if length and pick(length)]
    for i in rng.sample(chosen, min(len(chosen), rng.randint(1, 2))):
        bits, length = rows[i]
        rows[i] = (bits ^ 1 << rng.randrange(length), length)
    return rows


def _oracle_inputs(rng, code):
    n, L, e, R = code.n, code.L, code.e, code.R
    x = code.encode([rng.randrange(2) for _ in range(code.message_bits)])
    spec = ChannelSpec("ted", t=code.t, s=1, e=e)
    full = [(r, L) for r in x.rows]
    yield "valid", apply_channel(x, spec, random_instance(spec, n, L, rng))
    yield "over capacity", _ragged(L, _damage(rng, full, min(n, R + 1 + rng.randrange(2)),
                                              (1, e + 1)))
    out = _damage(rng, full, rng.randint(0, R - 1), (1, e + 1))
    yield "out of contract", _ragged(L, _damage(rng, out, 2, (e + 2, e + 4)))
    damaged = _damage(rng, full, rng.randint(1, R), (1, e + 1))
    yield "flipped intact", _ragged(L, _flip(rng, damaged, lambda length: length == L))
    yield "flipped damaged", _ragged(L, _flip(rng, damaged, lambda length: length < L))


def _outcome(decode, code, received):
    try:
        return decode(code, received)
    except ArrayCodeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("code", [TedCode(5, 7, 2, 1), TedCode(31, 31, 4, 2),
                                  DcCode(31, 31, 8), DcCode(15, 8, 3), TedCode(7, 6, 1, 2)],
                         ids=lambda c: f"{c.n}x{c.L}-t{c.t}-e{c.e}")
def test_decode_matches_row_by_row_oracle(code):
    """Same array, or same exception class and message, as the reference.
    Rows of at most 8 positions repair through `vt._insert_table`: at
    DC(15,8) a deficiency of 9..15 reads its sentinel, and TED(7,6,e=2)
    re-attaches tails of one and two bits before the read."""
    rng = random.Random(code.n * 1000 + code.L * 10 + code.e)
    seen, messages = set(), set()
    for _ in range(80):
        for kind, received in _oracle_inputs(rng, code):
            want = _outcome(oracle_decode, code, received)
            got = _outcome(TedCode.decode, code, received)
            assert got == want, (kind, received)
            seen.add((kind, "decoded" if isinstance(want, BitArray) else want[0]))
            messages.add(None if isinstance(want, BitArray) else want[1])
    # A flipped bit in a damaged row can repair to another member (with e = 0
    # the symbol is the VT syndrome the repair enforces), so any outcome of
    # that kind is allowed as long as both decoders agree.
    assert {("valid", "decoded"), ("over capacity", CapacityExceededError),
            ("out of contract", ChannelContractError),
            ("flipped intact", CorruptInputError)} <= seen
    assert any(kind == "flipped damaged" for kind, _ in seen)
    # A deficiency past L, where no insertion reaches it, exists below 2^h
    # exactly when L < 2^h - 1.
    assert (_NO_INSERTION in messages) == (code.L < (1 << code.h) - 1)


@pytest.mark.parametrize("fault", ["fill", "repair"])
@pytest.mark.parametrize("code", [TedCode(5, 7, 2, 1), TedCode(31, 31, 4, 2),
                                  DcCode(7, 5, 2), DcCode(31, 31, 8),
                                  TedCode(12, 255, t=2, e=1)],
                         ids=lambda c: f"{c.n}x{c.L}-t{c.t}-e{c.e}")
def test_membership_recheck_catches_a_wrong_repair(code, fault, monkeypatch):
    """Every decode of a damaged array raises CorruptInputError when one
    filled symbol is off by 1 ("fill"), or when the VT repair returns its
    row with the first bit flipped ("repair", which keeps the tail).  The
    membership re-check reads the repaired rows' own bits, so it catches
    every wrong repair, of rows missing one bit or (e > 0) more, and some of
    the wrong fills.  The codes cover both re-check branches: symbols of at
    most 8 bits, read from their syndrome rows in the repair loop, and the
    9-bit symbols of TED(12,255), re-checked together by
    `ReedSolomon._syndrome_at`.

    A code binds its fill and its repair table once, so the faults go into
    what binds them, and the decodes run on a fresh code object: the fill
    each outer code builds, and `vt._insert_table` for rows of at most 8
    positions (`vt_insert` beyond)."""
    if fault == "fill":
        build = ReedSolomon.__dict__["_fill_erasures"].func

        def wrong_build(rs):
            fill = build(rs)

            def wrong_fill(word, erased):
                syndrome = fill(word, erased)
                if erased:
                    word[erased[0]] ^= 1
                return syndrome
            return wrong_fill

        monkeypatch.setattr(ReedSolomon, "_fill_erasures", property(wrong_build))
    else:
        monkeypatch.setattr(ted_module, "_insert_table", lambda L: tuple(
            None if row is None else row ^ 1 for row in _insert_table(L)))
        monkeypatch.setattr(ted_module, "vt_insert",
                            lambda y, deficiency, L: vt_insert(y, deficiency, L) ^ 1)
    code = (DcCode(code.n, code.L, code.t) if isinstance(code, DcCode)
            else TedCode(code.n, code.L, code.t, code.e))
    rng = random.Random(code.n * 100 + code.L)
    spec = ChannelSpec("ted", t=code.t, s=1, e=code.e)
    messages = set()
    row_losses = set()
    for _ in range(60):
        x = code.encode([rng.randrange(2) for _ in range(code.message_bits)])
        received = apply_channel(x, spec, random_instance(spec, code.n, code.L, rng))
        if not any(received.lost):
            assert code.decode(received) == x
            continue
        row_losses.update(received.lost)
        with pytest.raises(CorruptInputError) as exc:
            code.decode(received)
        messages.add(str(exc.value))
    assert "decoded array fails the membership rule" in messages
    # rows missing one bit, and with a tail (e > 0) rows missing more
    assert 1 in row_losses and (max(row_losses) > 1) == (code.e > 0)
    if fault == "repair":
        assert messages == {"decoded array fails the membership rule"}


@pytest.mark.parametrize("code", [TedCode(5, 7, 2, 1), TedCode(9, 11, 2, 2),
                                  DcCode(31, 31, t=8)],
                         ids=lambda c: f"{c.n}x{c.L}-t{c.t}-e{c.e}")
def test_codec_outputs_rebuild_through_the_public_constructor(code):
    """encode and decode build their BitArray without re-checking the rows;
    the checked constructor accepts every one of them unchanged."""
    rng = random.Random(repr(code.descriptor()))
    spec = ChannelSpec("ted", t=code.t, s=1, e=code.e)
    for _ in range(100):
        x = code.encode([rng.randrange(2) for _ in range(code.message_bits)])
        assert BitArray(x.n, x.L, x.rows) == x and type(x.rows) is tuple
        decoded = code.decode(apply_channel(x, spec, random_instance(spec, code.n, code.L, rng)))
        assert BitArray(decoded.n, decoded.L, decoded.rows) == decoded == x
        assert type(decoded.rows) is tuple


def test_non_binary_entries_rejected():
    """A 2 used to be read as its low bit, 0; now it is an error."""
    for code in (TedCode(5, 7, 2, 1), DcCode(5, 7, t=2)):
        for bad in (2, -1, 257):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                code.encode([bad] + [0] * (code.message_bits - 1))
        assert code.encode([True] + [0] * (code.message_bits - 1)) == \
            code.encode([1] + [0] * (code.message_bits - 1))
    with pytest.raises(ValueError, match="must be 0 or 1"):
        theta_symbol([2, 0, 0, 1, 0], 1, 3)
    assert theta_symbol([True, 0, 0, 1, 0], 1, 3) == 5


@pytest.mark.parametrize("n, L, t, e", [(31, 2**40, 8, 0), (3, 2**31, 1, 0),
                                        (3, 2**30 + 100, 1, 1), (4, 2**29 + 100, 1, 2)])
def test_shape_without_outer_field_rejected(n, L, t, e):
    """h + e above 31 names no field `field_make` builds; the constructor
    says so, instead of the first `.outer` access."""
    h = L.bit_length()
    with pytest.raises(ValueError, match=rf"h \+ e = {h + e} exceeds 31"):
        TedCode(n, L, t, e)
    if e == 0:
        with pytest.raises(ValueError, match=rf"h \+ e = {h} exceeds 31"):
            DcCode(n, L, t)


def test_widest_outer_field_accepted():
    # h + e = 31 exactly; the outer code itself is not built here
    assert TedCode(3, 2**30 - 1, 1, 1).h == 30
    assert TedCode(4, 2**29 + 100, 1, 1).h == 30
    assert DcCode(3, 2**31 - 1, 1).h == 31


# --- message layout pin --------------------------------------------------------
#
# sha256 of `encode(m).rows` for 50 seeded messages on each code below,
# recorded before the VT row kernels became table driven.  A change to the
# data scatter, the redundancy placement or the message packing changes it.
# The codes straddle the row-length edges of those kernels: L = 16 fills the
# 16-bit data table, L = 31 is the last row without a run list, and L = 32
# and L = 1023 walk the runs past position 16.

LAYOUT_CODES = (DcCode(9, 16, 3), DcCode(31, 31, 8), DcCode(9, 32, 3),
                TedCode(5, 7, 2, 1), TedCode(7, 1023, 2, 2))
LAYOUT_DIGEST = "a17ed0ea0993e9e85bd76c7fa86d82c27b17fbd996f04b6a44febda8ccca9152"


def test_message_layout_pinned():
    digest = hashlib.sha256()
    for code in LAYOUT_CODES:
        rng = random.Random(repr(code))
        K = code.message_bits
        for _ in range(50):
            value = rng.getrandbits(K)
            m = [(value >> j) & 1 for j in range(K)]
            x = code.encode(m)
            assert code.message_of(x) == m
            digest.update(repr((code.n, code.L, code.e, x.rows)).encode())
    assert digest.hexdigest() == LAYOUT_DIGEST
