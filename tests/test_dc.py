import random

import pytest

from arraycodes.arrays import BitArray
from arraycodes.channel import (ChannelSpec, apply_channel,
                                enumerate_deletion_instances, random_instance,
                                roundtrip_harness)
from arraycodes.dc import DcCode
from arraycodes.ted import TedCode, theta_symbol
from arraycodes.errors import (ArrayCodeError, CapacityExceededError,
                               ChannelContractError, CorruptInputError)
from conftest import ragged, unbudgeted


def test_flagship_parameters():
    code = DcCode(7, 5, 2)
    assert code.h == 3
    assert code.message_bits == 29
    assert code.n * code.L - code.message_bits == 6


def test_zero_message_gives_zero_array():
    code = DcCode(7, 5, 2)
    x = code.encode([0] * 29)
    assert all(r == 0 for r in x.rows)
    assert code.membership(x)


def test_membership_of_encoder_output_and_flip():
    code = DcCode(7, 5, 2)
    rng = random.Random(0)
    for _ in range(10):
        msg = [rng.randrange(2) for _ in range(29)]
        x = code.encode(msg)
        assert code.membership(x)
        assert code.message_of(x) == msg
        # flipping one bit inside a redundancy row must change the syndrome
        rows = list(x.rows)
        rows[6] ^= 1 << 2
        assert not code.membership(BitArray(7, 5, tuple(rows)))


def test_message_layout_matches_flagship_figure():
    # first 25 bits fill rows 1..5; the last 4 land at (6,3), (6,5), (7,3), (7,5)
    code = DcCode(7, 5, 2)
    msg = [0] * 29
    for idx in (25, 26, 27, 28):
        msg[idx] = 1
    x = code.encode(msg)
    assert x.rows[5] >> 2 & 1 == 1 and x.rows[5] >> 4 & 1 == 1
    assert x.rows[6] >> 2 & 1 == 1 and x.rows[6] >> 4 & 1 == 1
    assert x.rows[:5] == (0,) * 5


def test_injectivity_exhaustive_small():
    code = DcCode(3, 3, 1)
    assert code.message_bits == 9 - 2
    seen = set()
    for value in range(1 << 7):
        msg = [(value >> b) & 1 for b in range(7)]
        x = code.encode(msg)
        assert code.membership(x)
        seen.add(x)
    assert len(seen) == 1 << 7


def test_decode_identity_without_damage():
    code = DcCode(5, 4, 1)
    rng = random.Random(1)
    msg = [rng.randrange(2) for _ in range(code.message_bits)]
    x = code.encode(msg)
    assert code.decode(ragged(x.to_lists(), 4)) == x


def test_exhaustive_two_row_deletion_sweep():
    code = DcCode(7, 5, 2)
    rng = random.Random(2)
    spec = ChannelSpec("del", t=2, s=1)
    instances = list(enumerate_deletion_instances([5] * 7, 2, 1))
    for _ in range(5):
        msg = [rng.randrange(2) for _ in range(29)]
        x = code.encode(msg)
        for inst in instances:
            received = apply_channel(x, spec, inst)
            assert code.decode(received) == x
            assert code.message_of(code.decode(received)) == msg


def test_capacity_and_contract_errors():
    code = DcCode(7, 5, 2)
    x = code.encode([0] * 29)
    three_short = apply_channel(x, unbudgeted("del", x), ((1, (1,)), (2, (3,)), (3, (5,))))
    with pytest.raises(CapacityExceededError):
        code.decode(three_short)
    lists = x.to_lists()
    lists[0] = lists[0][:3]   # row shortened by two
    with pytest.raises(ChannelContractError):
        code.decode(ragged(lists, 5))


def test_corrupt_input_detected():
    code = DcCode(7, 5, 2)
    rng = random.Random(3)
    msg = [rng.randrange(2) for _ in range(29)]
    x = code.encode(msg)
    lists = x.to_lists()
    lists[0][0] ^= 1
    lists[1][1] ^= 1
    lists[2][2] ^= 1   # three substitutions: sigma vector far from the code
    with pytest.raises(CorruptInputError):
        code.decode(ragged(lists, 5))


def test_coset_partition_small():
    """Classifying every 3x3 array by its outer-code syndrome splits the
    space into 2^(R*h) equal-status classes that cover everything."""
    code = DcCode(3, 3, 1)
    outer = code.outer
    f = outer.field
    buckets = {}
    for value in range(1 << 9):
        x = BitArray(3, 3, tuple((value >> (3 * i)) & 7 for i in range(3)))
        sig = tuple(theta_symbol(x.row_bits(i), 0, code.h) for i in range(1, 4))
        # coset label: difference from the interpolation through first k symbols
        parity = outer._parity(list(sig[: outer.k]))
        label = tuple(a ^ b for a, b in zip(sig[outer.k:], parity))
        buckets.setdefault(label, 0)
        buckets[label] += 1
    assert len(buckets) == 1 << (code.t * code.h)
    assert sum(buckets.values()) == 1 << 9


def test_redundancy_matches_mds_bound():
    for (n, L, t) in ((7, 5, 2), (5, 4, 1), (6, 6, 3)):
        code = DcCode(n, L, t)
        assert n * L - code.message_bits == t * code.h


def test_rejects_oversized_n():
    with pytest.raises(ValueError):
        DcCode(8, 5, 2)   # GF(8) outer code caps n at 7


def test_roundtrip_harness_capacity_probe():
    """Damage beyond capacity is reported as failures, not crashes."""
    code = DcCode(5, 4, 1)
    record = roundtrip_harness(code, ChannelSpec("del", t=2, s=1),
                               messages=3, exhaustive=True)
    assert record.failures > 0
    assert record.first_counterexample is not None


def outcome(fn, *args):
    try:
        return fn(*args)
    except ArrayCodeError as exc:
        return type(exc)


@pytest.mark.parametrize("n, L, t", ((7, 5, 2), (5, 4, 1), (6, 6, 3), (31, 31, 8)))
def test_dc_equals_ted_without_tail(n, L, t):
    """DcCode(n, L, t) is TedCode(n, L, t, 0): same codewords, messages and
    decode results (including which error is raised) on a seeded sample."""
    dc, ted = DcCode(n, L, t), TedCode(n, L, t, 0)
    assert dc.message_bits == ted.message_bits
    rng = random.Random(n * L + t)
    spec = ChannelSpec("del", t=t + 1, s=2)
    for _ in range(20):
        msg = [rng.randrange(2) for _ in range(dc.message_bits)]
        x = dc.encode(msg)
        assert x == ted.encode(msg)
        assert dc.message_of(x) == ted.message_of(x) == msg
        for _ in range(5):
            received = apply_channel(x, spec, random_instance(spec, n, L, rng))
            assert outcome(dc.decode, received) == outcome(ted.decode, received)


def test_dc_descriptor_format_unchanged():
    assert DcCode(7, 5, 2).descriptor() == {
        "kind": "dc", "n": 7, "L": 5, "t": 2, "outer": {"q": 8, "n": 7, "k": 5}}
    with pytest.raises(ValueError):
        DcCode(7, 5, 0)


def test_message_of_rejects_other_shapes():
    code = DcCode(7, 5, 2)
    for x in (BitArray(3, 5, (1, 2, 3)), BitArray(7, 4, (1,) * 7)):
        with pytest.raises(ValueError, match=f"expected a BitArray of shape 7 x 5, "
                                             f"got {x.n} x {x.L}$"):
            code.message_of(x)


def test_decode_rejects_a_bit_array():
    """An undamaged array is not a DC input: a ValueError naming the array
    type, not an AttributeError from reading its lost counts."""
    code = DcCode(7, 5, 2)
    with pytest.raises(ValueError, match="DcCode decodes a RaggedArray, got BitArray"):
        code.decode(BitArray(7, 5, (0,) * 7))


@pytest.mark.parametrize("args", [(7, 5, 2.0), (7.0, 5, 2), (7, 5.0, 2), (7, 5, True)])
def test_constructor_takes_only_int_parameters(args):
    with pytest.raises(TypeError, match="must be ints"):
        DcCode(*args)
