import hashlib
import random
import sys
import tracemalloc
from itertools import combinations, product

import pytest

from arraycodes import arrays
from arraycodes.arrays import (BitArray, RaggedArray, _int_to_row, _ragged_array,
                               apply_te_pattern, count_patterns, enumerate_patterns,
                               format_ragged, parse_ragged)
from arraycodes.channel import (DEFAULT_MAX_WORK, ChannelSpec, RunRecord,
                                apply_channel, enumerate_channel_instances,
                                enumerate_deletion_instances, random_instance,
                                roundtrip_harness)
from arraycodes.dc import DcCode
from arraycodes.te import TeCodec, construct_hasse
from arraycodes.ted import TedCode
from conftest import random_array, recursive_patterns, unbudgeted


def test_te_channel_instance():
    x = BitArray.from_lists([[1, 0, 1], [0, 0, 1]])
    out = apply_channel(x, ChannelSpec("te", e=3), (2, 1))
    assert out.to_lists() == [[1], [0, 0]] and out.lost == (2, 1)
    identity = apply_channel(x, ChannelSpec("te", e=3), (0, 0))
    assert identity.to_lists() == x.to_lists()


def test_te_and_ted_channels_share_one_output_type():
    """A TE pattern is a TED instance with no deletions: both give the same
    RaggedArray, and the TE codec decodes it back."""
    codec = TeCodec(construct_hasse(4, 3, 3))
    rng = random.Random(22)
    for x in (codec.encode([rng.randrange(2) for _ in range(codec.k)]) for _ in range(3)):
        for p in enumerate_patterns(3, 3, 4):
            out = apply_te_pattern(x, p)
            assert out == apply_channel(x, unbudgeted("ted", x), (p, ()))
            assert out.lost == p and codec.decode(out) == x


@pytest.mark.parametrize("spec", [ChannelSpec("te", e=3), ChannelSpec("del", t=2, s=2),
                                  ChannelSpec("ted", t=2, s=1, e=2)], ids=lambda s: s.kind)
def test_every_channel_output_roundtrips_through_text(spec):
    rng = random.Random(spec.kind)
    for x in (random_array(rng, 3, 3) for _ in range(3)):
        for inst in enumerate_channel_instances(spec, 3, 3):
            out = apply_channel(x, spec, inst)
            text = format_ragged(out)
            assert "?" not in text and parse_ragged(text) == out


def test_deletion_channel_instance():
    x = BitArray.from_lists([[1, 0, 1], [0, 1, 1]])
    out = apply_channel(x, unbudgeted("del", x), ((2, (3,)),))
    assert out.to_lists() == [[1, 0, 1], [0, 1]]


def test_ted_channel_order():
    x = BitArray.from_lists([[1, 0, 1, 1]])
    out = apply_channel(x, unbudgeted("ted", x), ((2,), ((1, (1,)),)))
    # tail bits go first, then the deletion indexes the truncated row
    assert out.to_lists() == [[0]]


def test_enumerate_te_count():
    spec = ChannelSpec("te", e=2)
    insts = list(enumerate_channel_instances(spec, 2, 2))
    assert len(insts) == len(set(insts)) == count_patterns(2, 2, 2) == 6


def test_enumerate_del_count():
    insts = list(enumerate_channel_instances(ChannelSpec("del", t=1, s=1), 4, 5))
    assert len(insts) == len(set(insts)) == 4 * 5


def test_enumerate_del_two_rows():
    insts = list(enumerate_channel_instances(ChannelSpec("del", t=2, s=1), 3, 2))
    # 3*2 single-row + C(3,2)*2*2 two-row layouts, the last row fastest
    assert len(insts) == len(set(insts)) == 6 + 12
    assert insts == [
        ((1, (1,)),), ((1, (2,)),), ((2, (1,)),), ((2, (2,)),), ((3, (1,)),), ((3, (2,)),),
        ((1, (1,)), (2, (1,))), ((1, (1,)), (2, (2,))), ((1, (2,)), (2, (1,))),
        ((1, (2,)), (2, (2,))), ((1, (1,)), (3, (1,))), ((1, (1,)), (3, (2,))),
        ((1, (2,)), (3, (1,))), ((1, (2,)), (3, (2,))), ((2, (1,)), (3, (1,))),
        ((2, (1,)), (3, (2,))), ((2, (2,)), (3, (1,))), ((2, (2,)), (3, (2,)))]
    for inst in insts:
        rows = [r for r, _ in inst]
        assert len(rows) == len(set(rows))


def test_enumerate_ted_count_product_rule():
    insts = list(enumerate_channel_instances(ChannelSpec("ted", t=1, s=1, e=1), 2, 3))
    expected = sum(1 + sum(3 - pi for pi in p) for p in ((0, 0), (1, 0), (0, 1)))
    assert len(insts) == len(set(insts)) == expected


def test_enumerate_ted_exhaustive_stream_pinned():
    # the 3011 instances the ted-exhaustive benchmark decodes, in order
    insts = list(enumerate_channel_instances(ChannelSpec("ted", t=2, s=1, e=1), 5, 7))
    assert len(insts) == 3011
    assert hashlib.sha256(repr(insts).encode()).hexdigest() == (
        "cfcdc5fb292855604fc919f3f04079f5ef05de805f145c5452b24fb0e31109dc")


def recursive_deletion_instances(row_lengths, t, s, include_empty=False):
    """The deletion enumerator that built each row's position choices once
    per row combination: the oracle for the stream and its order."""
    n = len(row_lengths)
    if include_empty:
        yield ()

    def row_choices(row):
        length = row_lengths[row - 1]
        out = []
        for count in range(1, min(s, length) + 1):
            for positions in combinations(range(1, length + 1), count):
                out.append((row, positions))
        return out

    for nrows in range(1, t + 1):
        for rows in combinations(range(1, n + 1), nrows):
            yield from product(*(row_choices(r) for r in rows))


@pytest.mark.parametrize("spec,n,L", [(ChannelSpec("del", t=1, s=1), 4, 5),
                                      (ChannelSpec("del", t=2, s=3), 4, 3),
                                      (ChannelSpec("del", t=3, s=2), 5, 4),
                                      (ChannelSpec("del", t=6, s=1), 3, 2),
                                      (ChannelSpec("ted", t=2, s=1, e=1), 5, 7),
                                      (ChannelSpec("ted", t=1, s=2, e=3), 4, 3),
                                      (ChannelSpec("ted", t=2, s=2, e=2), 3, 4),
                                      (ChannelSpec("ted", t=0, s=0, e=2), 3, 2)])
def test_deletion_streams_match_the_oracle(spec, n, L):
    if spec.kind == "del":
        want = list(recursive_deletion_instances([L] * n, spec.t, spec.s))
    else:
        want = [(p, inst) for p in recursive_patterns(spec.e, L, n)
                for inst in recursive_deletion_instances(
                    [L - pi for pi in p], spec.t, spec.s, include_empty=True)]
    assert list(enumerate_channel_instances(spec, n, L, max_work=None)) == want


def test_deletion_instances_on_mixed_row_lengths():
    for lengths in ([3, 0, 2, 5], [], [1, 1], [4, 2, 0, 7, 3]):
        for t in range(4):
            for s in range(4):
                for empty in (False, True):
                    assert list(enumerate_deletion_instances(lengths, t, s, empty)) == \
                        list(recursive_deletion_instances(lengths, t, s, empty))


def test_work_cap():
    with pytest.raises(RuntimeError):
        list(enumerate_channel_instances(ChannelSpec("te", e=4), 8, 8, max_work=10))


@pytest.mark.parametrize("spec,n,L", [(ChannelSpec("del", t=2, s=1), 3, 2),
                                      (ChannelSpec("ted", t=1, s=1, e=1), 2, 3)])
def test_work_cap_raises_on_the_first_instance_past_it(spec, n, L):
    insts = list(enumerate_channel_instances(spec, n, L, max_work=None))
    assert list(enumerate_channel_instances(spec, n, L, max_work=len(insts))) == insts
    stream = enumerate_channel_instances(spec, n, L, max_work=len(insts) - 1)
    assert [next(stream) for _ in range(len(insts) - 1)] == insts[:-1]
    with pytest.raises(RuntimeError, match="work cap"):
        next(stream)


def test_work_cap_on_a_long_te_stream():
    """The stream is lazy: a cap of 1000 on a stream far too long to list
    stops after 1000 instances."""
    stream = enumerate_channel_instances(ChannelSpec("te", e=40), 200, 40, max_work=1000)
    assert sum(1 for _ in zip(range(1000), stream)) == 1000
    with pytest.raises(RuntimeError, match="work cap"):
        next(stream)


@pytest.mark.parametrize("spec", [ChannelSpec("te", e=1), ChannelSpec("del", t=1, s=1),
                                  ChannelSpec("ted", t=1, s=1, e=1)])
def test_negative_work_cap_rejected(spec):
    with pytest.raises(ValueError, match="max_work"):
        next(enumerate_channel_instances(spec, 2, 3, max_work=-1))


def test_random_instance_within_budget():
    rng = random.Random(0)
    for _ in range(200):
        p = random_instance(ChannelSpec("te", e=3), 4, 5, rng)
        assert sum(p) <= 3 and all(0 <= v <= 5 for v in p)
        inst = random_instance(ChannelSpec("del", t=2, s=2), 4, 5, rng)
        assert len(inst) <= 2
        for row, positions in inst:
            assert 1 <= len(positions) <= 2
            assert len(set(positions)) == len(positions)


def test_harness_deterministic():
    code = DcCode(5, 4, 1)
    spec = ChannelSpec("del", t=1, s=1)
    a = roundtrip_harness(code, spec, messages=5, exhaustive=True, seed=42)
    b = roundtrip_harness(code, spec, messages=5, exhaustive=True, seed=42)
    assert (a.trials, a.failures) == (b.trials, b.failures)
    assert a.summary() == b.summary()


def test_harness_random_mode():
    code = DcCode(5, 4, 1)
    spec = ChannelSpec("del", t=1, s=1)
    rec = roundtrip_harness(code, spec, messages=3, exhaustive=False,
                            seed=7, max_work=25)
    assert rec.failures == 0
    assert rec.trials == 3 * 25
    rec = roundtrip_harness(code, spec, messages=2, exhaustive=False, seed=7)
    assert rec.trials == 2 * 100


def listed_harness(codec, spec, messages, seed, max_work):
    """The exhaustive harness that listed the whole stream before the first
    trial: the oracle for trial order, count and first counterexample."""
    rng = random.Random(seed)
    record = RunRecord(codec.descriptor(), spec, "exhaustive", seed)
    k = codec.message_bits
    msgs = [_int_to_row(rng.getrandbits(k), k) for _ in range(messages)]
    stream = list(enumerate_channel_instances(spec, codec.n, codec.L, max_work=max_work))
    for message in msgs:
        x = codec.encode(message)
        for inst in stream:
            received = apply_channel(x, spec, inst)
            record.trials += 1
            try:
                decoded = codec.decode(received)
            except Exception as exc:
                record.note_failure(message, inst, received, f"decoder raised {exc!r}")
                continue
            if decoded != x:
                record.note_failure(message, inst, received, "wrong codeword")
    return record


@pytest.mark.parametrize("code,spec", [(DcCode(5, 4, 1), ChannelSpec("del", t=2, s=1)),
                                       (DcCode(5, 4, 1), ChannelSpec("del", t=1, s=1)),
                                       (TedCode(4, 7, 1, 1), ChannelSpec("ted", t=2, s=1, e=1))])
def test_streamed_harness_matches_the_listed_stream(code, spec):
    got = roundtrip_harness(code, spec, messages=3, seed=5)
    want = listed_harness(code, spec, messages=3, seed=5, max_work=DEFAULT_MAX_WORK)
    assert vars(got) == vars(want)
    assert got.trials == 3 * len(list(enumerate_channel_instances(spec, code.n, code.L)))


def test_harness_over_the_cap_decodes_nothing():
    decodes = []

    class Counting(DcCode):
        def decode(self, received):
            decodes.append(received)
            return super().decode(received)

    # del t=1 s=1 on 5 x 4 has 20 instances
    with pytest.raises(RuntimeError, match="work cap"):
        roundtrip_harness(Counting(5, 4, 1), ChannelSpec("del", t=1, s=1),
                          messages=2, max_work=19)
    assert decodes == []
    assert roundtrip_harness(Counting(5, 4, 1), ChannelSpec("del", t=1, s=1),
                             messages=2, max_work=20).trials == 40 == len(decodes)


def test_exhaustive_harness_does_not_hold_the_stream():
    """Peak memory of a 4845-instance run stays far below the memory the
    listed stream takes."""
    codec = TeCodec(construct_hasse(16, 4, 4))
    spec = ChannelSpec("te", e=4)
    # Build the codec's and the enumerator's tables before measuring.
    roundtrip_harness(codec, spec, messages=1, exhaustive=False, max_work=5)
    list(enumerate_channel_instances(spec, 16, 4))
    tracemalloc.start()
    try:
        record = roundtrip_harness(codec, spec, messages=1)
        harness_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = list(enumerate_channel_instances(spec, 16, 4))
        listed_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.trials == len(held) == 4845 and record.failures == 0
    assert harness_peak < listed_peak / 4


@pytest.mark.parametrize("spec", [ChannelSpec("del", t=0, s=1), ChannelSpec("del", t=2, s=0)],
                         ids=["t0", "s0"])
def test_exhaustive_harness_rejects_a_channel_with_no_instance(spec):
    """A deletion channel that deletes nothing enumerates no instance; an
    exhaustive round trip over it would report success on zero trials."""
    decodes = []

    class Counting(DcCode):
        def decode(self, received):
            decodes.append(received)
            return super().decode(received)

    assert list(enumerate_channel_instances(spec, 7, 5)) == []
    with pytest.raises(ValueError, match="no instance"):
        roundtrip_harness(Counting(7, 5, 2), spec, messages=1, exhaustive=True)
    assert decodes == []


@pytest.mark.parametrize("instances", [0, -1])
def test_harness_rejects_fewer_than_one_instance(instances):
    with pytest.raises(ValueError, match="max_work"):
        roundtrip_harness(DcCode(5, 4, 1), ChannelSpec("del", t=1, s=1),
                          messages=1, exhaustive=False, max_work=instances)


@pytest.mark.parametrize("messages", [0, -5])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_harness_rejects_fewer_than_one_message(messages, exhaustive):
    with pytest.raises(ValueError, match="messages"):
        roundtrip_harness(DcCode(5, 4, 1), ChannelSpec("del", t=1, s=1),
                          messages=messages, exhaustive=exhaustive)


def test_failure_record_contains_replay_data():
    code = DcCode(5, 4, 1)
    rec = roundtrip_harness(code, ChannelSpec("del", t=2, s=1),
                            messages=2, exhaustive=True)
    assert rec.failures > 0
    ce = rec.first_counterexample
    assert set(ce) == {"message", "instance", "received", "detail"}
    assert len(ce["message"]) == code.message_bits


@pytest.mark.parametrize("row", (0, 3))
def test_ted_channel_rejects_rows_out_of_range(row):
    x = BitArray.from_lists([[1, 0, 1], [0, 1, 1]])
    spec = ChannelSpec("ted", t=1, s=1, e=1)
    with pytest.raises(ValueError, match="out of range"):
        apply_channel(x, spec, ((0, 0), ((row, (1,)),)))
    with pytest.raises(ValueError, match="out of range"):
        apply_channel(x, ChannelSpec("del", t=1, s=1), ((row, (1,)),))


@pytest.mark.parametrize("del_pos,ted_pos", ((0, 0), (4, 3)))
def test_channels_reject_deletion_positions_out_of_range(del_pos, ted_pos):
    """Positions index the row as it stands: 1..3 here, and 1..2 once the
    ted channel has erased the row's last bit."""
    x = BitArray.from_lists([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="deletion position"):
        apply_channel(x, ChannelSpec("del", t=1, s=1), ((1, (del_pos,)),))
    spec = ChannelSpec("ted", t=1, s=1, e=1)
    with pytest.raises(ValueError, match="deletion position"):
        apply_channel(x, spec, ((1, 0), ((1, (ted_pos,)),)))


def test_deletion_splices_row_ints():
    x = BitArray.from_lists([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]])
    out = apply_channel(x, unbudgeted("del", x), ((1, (2, 5)), (2, (1,))))
    assert out.to_lists() == [[1, 1, 1], [1, 1, 0, 1]]
    out = apply_channel(x, unbudgeted("ted", x), ((1, 2), ((1, (1,)), (2, (3,)))))
    assert out.to_lists() == [[0, 1, 1], [0, 1]]


def test_random_del_instance_caps_rows_and_deletions():
    """s > L and t > n draw valid instances on every seed."""
    x = BitArray.from_lists([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 0, 0]])
    for spec in (ChannelSpec("del", t=1, s=7), ChannelSpec("del", t=5, s=9)):
        for seed in range(40):
            inst = random_instance(spec, 3, 5, random.Random(seed))
            assert len(inst) <= min(spec.t, 3)
            assert all(1 <= len(positions) <= 5 for _, positions in inst)
            out = apply_channel(x, spec, inst)
            assert list(out.lost) == [
                sum(len(p) for r, p in inst if r == i) for i in (1, 2, 3)]


def _uncapped_del_instance(spec, n, L, rng):
    """The deletion draw as it was before the caps on t and s."""
    nrows = rng.randint(0, spec.t)
    chosen = rng.sample(range(1, n + 1), nrows)
    inst = []
    for row in sorted(chosen):
        count = rng.randint(1, spec.s)
        inst.append((row, tuple(sorted(rng.sample(range(1, L + 1), count)))))
    return tuple(inst)


@pytest.mark.parametrize("t,s,n,L", [(8, 1, 31, 31), (2, 2, 4, 5), (3, 5, 3, 5),
                                     (1, 1, 1, 1)])
def test_random_del_instance_unchanged_within_caps(t, s, n, L):
    """With t <= n and s <= L the capped draw consumes the generator as the
    uncapped one did, so seeded instance pools stay the same."""
    spec = ChannelSpec("del", t=t, s=s)
    for seed in range(5):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert random_instance(spec, n, L, new) == _uncapped_del_instance(spec, n, L, old)


@pytest.mark.parametrize("kind", ("te", "ted"))
def test_negative_tail_budget_rejected(kind):
    with pytest.raises(ValueError, match="e must be non-negative"):
        ChannelSpec(kind, t=1, s=1, e=-1)


@pytest.mark.parametrize("kind, budgets", [("del", {"t": 2, "s": 1.0}),
                                           ("del", {"t": 2.0, "s": 1}),
                                           ("te", {"e": 1.0}),
                                           ("ted", {"t": 2, "s": 1, "e": True}),
                                           ("te", {"e": 1, "s": "1"})])
def test_non_int_budgets_rejected(kind, budgets):
    """A float budget once built a spec whose random draws failed as a
    codec fault ("roundtrip FAILED") and whose exhaustive stream raised
    TypeError.  Every budget must be an int, as `TedCode` requires, even
    one the kind does not read."""
    with pytest.raises(TypeError, match="e, t and s must be ints"):
        ChannelSpec(kind, **budgets)


@pytest.mark.parametrize("spec,n,L", [(ChannelSpec("del", t=8, s=1), 31, 31),
                                      (ChannelSpec("del", t=3, s=4), 4, 5),
                                      (ChannelSpec("ted", t=2, s=1, e=1), 5, 7),
                                      (ChannelSpec("ted", t=3, s=2, e=4), 6, 9)])
def test_deletion_outputs_rebuild_through_the_public_constructor(spec, n, L):
    """The channel builds its RaggedArray without re-checking the rows; the
    checked constructor accepts every one of them unchanged."""
    rng = random.Random(repr(spec))
    for _ in range(300):
        x = BitArray(n, L, tuple(rng.getrandbits(L) for _ in range(n)))
        out = apply_channel(x, spec, random_instance(spec, n, L, rng))
        assert type(out) is RaggedArray and type(out.rows) is tuple
        assert RaggedArray(out.n, out.L, out.rows, out.lost) == out


def _reference_random_instance(spec, n, L, rng):
    """The random_instance body before its draws were hoisted: randint,
    sample for every position count, a ChannelSpec built per ted draw."""
    if spec.kind == "te":
        budget = spec.e
        p = [0] * n
        rows = list(range(n))
        rng.shuffle(rows)
        for row in rows:
            if budget == 0:
                break
            take = rng.randint(0, min(budget, L))
            p[row] = take
            budget -= take
        return tuple(p)
    if spec.kind == "del":
        # At most n rows and L deletions per row exist; within those caps
        # the draws are the same as uncapped.
        nrows = rng.randint(0, min(spec.t, n))
        chosen = rng.sample(range(1, n + 1), nrows)
        most = min(spec.s, L)
        inst = []
        for row in sorted(chosen):
            count = rng.randint(1, most)
            inst.append((row, tuple(sorted(rng.sample(range(1, L + 1), count)))))
        return tuple(inst)
    pattern = _reference_random_instance(ChannelSpec("te", e=spec.e), n, L, rng)
    lengths = [L - pi for pi in pattern]
    nrows = rng.randint(0, spec.t)
    candidates = [r for r in range(1, n + 1) if lengths[r - 1] >= spec.s]
    chosen = rng.sample(candidates, min(nrows, len(candidates)))
    inst = []
    for row in sorted(chosen):
        count = rng.randint(1, spec.s)
        inst.append((row, tuple(sorted(rng.sample(range(1, lengths[row - 1] + 1), count)))))
    return (pattern, tuple(inst))


# Rows at or below and above the 21 positions where Random.sample switches
# its internal method, s > 1, and t > n.
STREAM_CASES = (
    [(ChannelSpec("del", t=t, s=s), n, L)
     for t, s, n, L in ((8, 1, 31, 31), (2, 2, 4, 5), (3, 5, 3, 5), (9, 1, 40, 12),
                        (4, 3, 30, 30))]
    + [(ChannelSpec("ted", t=t, s=s, e=e), n, L)
       for t, s, e, n, L in ((2, 1, 1, 5, 7), (4, 1, 2, 31, 31), (3, 2, 4, 6, 9))]
    + [(ChannelSpec("te", e=e), n, L) for e, n, L in ((4, 16, 4), (9, 3, 2))])

# sha256 of the repr of the STREAM_CASES draws (2,000 per case and seed,
# seeds 0-4, in that order) as the reference body makes them on Python
# 3.10 to 3.13.  A Python whose Random.sample stops drawing what randrange
# draws for one element changes this digest and every seeded pool with it.
STREAM_DIGEST = "ae850e4e71e5038cb4a55e49e27d7eeae363fd1022019ed545467c0bf40f9c30"


def _stream(draw, spec, n, L, seed):
    rng = random.Random(seed)
    return [draw(spec, n, L, rng) for _ in range(2000)]


# Tail erasures that leave rows of exactly s positions, and of none.
@pytest.mark.parametrize("spec,n,L", STREAM_CASES
                         + [(ChannelSpec("ted", t=3, s=2, e=6), 4, 3)])
def test_random_instance_matches_the_reference_draws(spec, n, L):
    for seed in range(5):
        assert (_stream(random_instance, spec, n, L, seed)
                == _stream(_reference_random_instance, spec, n, L, seed))


def test_random_instance_stream_digest_pinned():
    digest = hashlib.sha256()
    for spec, n, L in STREAM_CASES:
        for seed in range(5):
            digest.update(repr(_stream(random_instance, spec, n, L, seed)).encode())
    assert digest.hexdigest() == STREAM_DIGEST


@pytest.mark.parametrize("spec", (ChannelSpec("del", t=3, s=0),
                                  ChannelSpec("ted", t=3, s=0, e=2)))
def test_zero_deletions_per_row_raise_as_the_reference(spec):
    raised = 0
    for seed in range(20):
        outcomes = []
        for draw in (random_instance, _reference_random_instance):
            try:
                outcomes.append(draw(spec, 4, 5, random.Random(seed)))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        raised += isinstance(outcomes[0], str)
    assert raised > 0


def test_harness_records_a_wrong_codeword():
    """A decoder that returns a member of the code other than the one sent
    is a failure with detail "wrong codeword", not a decoded trial."""
    class Wrong(DcCode):
        def decode(self, received):
            return self.encode([1 - b for b in self.message_of(super().decode(received))])

    code = Wrong(5, 4, 1)
    rec = roundtrip_harness(code, ChannelSpec("del", t=1, s=1), messages=2)
    assert rec.trials == rec.failures == 2 * 20
    ce = rec.first_counterexample
    assert ce["detail"] == "wrong codeword" and ce["instance"] == "((1, (1,)),)"
    sent = code.encode(ce["message"]).to_lists()
    assert ce["received"] == [sent[0][1:]] + sent[1:]


def test_harness_records_a_wrong_message_of():
    """A codec whose `message_of` does not read back the encoded message
    fails once per message, even when every decode is right."""
    class WrongMessage(DcCode):
        def message_of(self, x):
            return [1 - b for b in super().message_of(x)]

    code = WrongMessage(5, 4, 1)
    rec = roundtrip_harness(code, ChannelSpec("del", t=1, s=1), messages=2)
    assert rec.trials == 2 * 20 and rec.failures == 2
    ce = rec.first_counterexample
    assert ce["detail"] == "message_of(encode(m)) != m" and ce["instance"] == "None"
    assert ce["received"] == DcCode(5, 4, 1).encode(ce["message"]).to_lists()


def _delete(rows, lost, deletions, L):
    """The deletion step as the library first ran it on its own, kept as
    the oracle's second step: delete 1-indexed positions from the rows,
    row i holding L - lost[i] positions; every index is checked, so the
    rows stay valid.  A row or position that is no int raises ValueError."""
    try:
        for row, positions in deletions:
            if not 1 <= row <= len(rows):
                raise ValueError(f"row {row} out of range")
            bits, length = rows[row - 1], L - lost[row - 1]
            # Last position first, so the ones before it keep their index.
            if len(positions) > 1:
                positions = sorted(positions, reverse=True)
            for pos in positions:
                if not 1 <= pos <= length:
                    raise ValueError(f"deletion position {pos} out of range")
                bits = (bits & ((1 << (pos - 1)) - 1)) | ((bits >> pos) << (pos - 1))
                length -= 1
            rows[row - 1], lost[row - 1] = bits, L - length
    except TypeError:
        raise ValueError("deletion rows and positions must be ints") from None
    return _ragged_array(len(rows), L, tuple(rows), tuple(lost))


def two_step_ted_channel(x, instance):
    """The TED channel as first written, kept as the oracle: the tail
    erasures through `apply_te_pattern`, then the deletions on its
    truncated rows."""
    pattern, deletions = instance
    erased = apply_te_pattern(x, pattern)
    return _delete(list(erased.rows), list(erased.lost), deletions, x.L)


def test_ted_channel_matches_the_two_step_oracle():
    rng = random.Random(18)
    arrays = [random_array(rng, 5, 7) for _ in range(3)]
    spec = ChannelSpec("ted", t=2, s=1, e=1)
    for inst in enumerate_channel_instances(spec, 5, 7):
        for x in arrays:
            assert apply_channel(x, spec, inst) == two_step_ted_channel(x, inst)
    spec = ChannelSpec("ted", t=3, s=2, e=4)
    for _ in range(2000):
        x = random_array(rng, 6, 9)
        inst = random_instance(spec, 6, 9, rng)
        got = apply_channel(x, spec, inst)
        assert got == apply_channel(x, unbudgeted("ted", x), inst)
        assert got == two_step_ted_channel(x, inst)


def test_ted_channel_lengths_are_ints_for_a_bool_pattern():
    x = BitArray(3, 4, (0b1011, 0b0110, 0b1111))
    spec = unbudgeted("ted", x)
    out = apply_channel(x, spec, ((True, False, True), ((2, (1,)),)))
    assert out == apply_channel(x, spec, ((1, 0, 1), ((2, (1,)),)))
    assert out == two_step_ted_channel(x, ((True, False, True), ((2, (1,)),)))
    assert [type(k) for k in out.lost] == [int] * 3


@pytest.mark.parametrize("pattern,message", [
    ((0, 0), "does not match"), ((0, 0, 0, 0), "does not match"),
    ((-1, 0, 0), "out of range"), ((0, 5, 0), "out of range"),
    ((1.0, 0, 0), "must be ints"), (("1", 0, 0), "must be ints")])
def test_ted_and_te_channels_reject_a_bad_pattern_alike(pattern, message):
    x = BitArray(3, 4, (0b1011, 0b0110, 0b1111))
    with pytest.raises(ValueError, match=message) as ted_error:
        apply_channel(x, unbudgeted("ted", x), (pattern, ()))
    with pytest.raises(ValueError, match=message) as te_error:
        apply_te_pattern(x, pattern)
    assert str(ted_error.value) == str(te_error.value)


@pytest.mark.parametrize("kind", ["te", "ted"])
def test_apply_channel_rejects_a_non_int_entry_as_the_pattern_check_does(kind):
    # an entry that does not add up raises the pattern check's ValueError,
    # not the TypeError of summing it against the e budget
    x = BitArray(3, 4, (0b1011, 0b0110, 0b1111))
    spec = ChannelSpec(kind, e=2, t=1, s=1)
    pattern = ("1", 0, 0)
    with pytest.raises(ValueError, match="must be ints") as error:
        apply_channel(x, spec, pattern if kind == "te" else (pattern, ()))
    with pytest.raises(ValueError) as te_error:
        apply_te_pattern(x, pattern)
    assert str(error.value) == str(te_error.value)


@pytest.mark.parametrize("kind,instance", [
    ("del", ((1, ("2",)),)), ("del", (("1", (2,)),)), ("del", ((1, 2),)),
    ("del", ((1, (2, "3")),)), ("del", ((1.0, (2,)),)),
    ("ted", ((0, 0, 0), ((1, (2.5,)),))), ("ted", ((0, 0, 0), ((1, ("2",)),)))])
def test_a_non_int_deletion_row_or_position_raises_value_error(kind, instance):
    x = BitArray.from_lists([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]])
    spec = ChannelSpec(kind, e=1, t=1, s=2)
    message = "deletion rows and positions must be ints"
    with pytest.raises(ValueError, match=message):
        apply_channel(x, spec, instance)
    if kind == "del":
        with pytest.raises(ValueError, match=message):
            apply_channel(x, unbudgeted("del", x), instance)


# The instance contract, one malformed instance per case, as (instance
# part, exception type, message, budget).  A budget case breaks only the
# spec's e, t or s, so it raises under these specs alone.  Every other case
# must raise the same under the spec of no budget, and a te case the same
# through `apply_te_pattern`.
BAD_PATTERNS = [
    ((0, 0), ValueError, "pattern length does not match row count", False),
    ((-1, 0, 0), ValueError, "per-row erasure count out of range", False),
    ((0, 5, 0), ValueError, "per-row erasure count out of range", False),
    ((1.0, 0, 0), ValueError, "per-row erasure counts must be ints", False),
    (("1", 0, 0), ValueError, "per-row erasure counts must be ints", False),
    ((2, 1, 0), ValueError, "instance exceeds the e budget", True),
    (None, TypeError, "object of type 'NoneType' has no len()", False),
]
BAD_DELETIONS = [
    (((1, (1,)), (2, (1,)), (3, (1,))), ValueError, "too many deletion rows", True),
    (((1, (1,)), (1, (2,))), ValueError, "duplicate row in deletion instance", False),
    (((1, ()),), ValueError, "per-row deletion count out of range", False),
    (((1, (1, 2, 3)),), ValueError, "per-row deletion count out of range", True),
    (((0, (1,)),), ValueError, "row 0 out of range", False),
    (((4, (1,)),), ValueError, "row 4 out of range", False),
    (((1, (0,)),), ValueError, "deletion position 0 out of range", False),
    (((1.0, (1,)),), ValueError, "deletion rows and positions must be ints", False),
    ((("1", (1,)),), ValueError, "deletion rows and positions must be ints", False),
    (((1, (2.5,)),), ValueError, "deletion rows and positions must be ints", False),
    (((1, ("2",)),), ValueError, "deletion rows and positions must be ints", False),
    (((1, 2),), ValueError, "deletion rows and positions must be ints", False),
    (None, TypeError, "object of type 'NoneType' has no len()", False),
    (5, TypeError, "object of type 'int' has no len()", False),
]
CONTRACT_SPECS = {"te": ChannelSpec("te", e=2), "del": ChannelSpec("del", t=2, s=2),
                  "ted": ChannelSpec("ted", t=2, s=2, e=2)}
# Row 2 keeps 3 of its 4 positions under the ted pattern below, so a
# position past the row is 5 for the deletion channel and 4 for ted.
TED_PATTERN = (0, 1, 0)
CONTRACT_CASES = (
    [("te", p, *rest) for p, *rest in BAD_PATTERNS]
    + [("ted", (p, ()), *rest) for p, *rest in BAD_PATTERNS]
    + [("del", d, *rest) for d, *rest in BAD_DELETIONS]
    + [("ted", (TED_PATTERN, d), *rest) for d, *rest in BAD_DELETIONS]
    + [("del", ((2, (5,)),), ValueError, "deletion position 5 out of range", False),
       ("ted", (TED_PATTERN, ((2, (4,)),)), ValueError,
        "deletion position 4 out of range", False)])


def _raised(apply, *args):
    with pytest.raises(Exception) as error:
        apply(*args)
    return type(error.value), str(error.value)


@pytest.mark.parametrize("kind,instance,error,message,budget", CONTRACT_CASES)
def test_every_path_raises_the_same_for_a_malformed_instance(kind, instance, error,
                                                             message, budget):
    x = BitArray(3, 4, (0b1011, 0b0110, 0b1111))
    assert _raised(apply_channel, x, CONTRACT_SPECS[kind], instance) == (error, message)
    if not budget:
        assert _raised(apply_channel, x, unbudgeted(kind, x), instance) == (error, message)
        if kind == "te":
            assert _raised(apply_te_pattern, x, instance) == (error, message)


# Every instance of these enumerations is applied as it is yielded, marked
# with the (spec, n, L) it was made for, and as a plain tuple copy, which
# takes the full check.
MARKED_CASES = (
    [(ChannelSpec("te", e=e), 3, 3) for e in range(4)]
    + [(ChannelSpec("del", t=t, s=s), 3, 4) for t in (1, 2) for s in (1, 2)]
    + [(ChannelSpec("ted", t=1, s=1, e=1), 3, 3),
       (ChannelSpec("ted", t=2, s=1, e=1), 5, 7)])       # the ted-exhaustive stream


@pytest.fixture
def checks(monkeypatch):
    """The instances `arrays._check_instance` was called on, in order."""
    seen = []
    check = arrays._check_instance

    def spy(n, L, pattern, deletions, *budgets):
        seen.append((pattern, deletions))
        return check(n, L, pattern, deletions, *budgets)

    monkeypatch.setattr(arrays, "_check_instance", spy)
    return seen


@pytest.mark.parametrize("spec,n,L", MARKED_CASES,
                         ids=[f"{s.kind}-e{s.e}-t{s.t}-s{s.s}-{n}x{L}" for s, n, L in MARKED_CASES])
def test_a_marked_instance_skips_the_check_and_applies_as_a_plain_one(spec, n, L, checks):
    rng = random.Random(repr(spec))
    xs = [random_array(rng, n, L) for _ in range(2)]
    count = 0
    for inst in enumerate_channel_instances(spec, n, L):
        plain = tuple(inst)
        assert type(plain) is tuple and type(inst) is not tuple
        for x in xs:
            marked = apply_channel(x, spec, inst)
            assert checks == []
            checked = apply_channel(x, spec, plain)
            assert len(checks) == 1
            checks.clear()
            for out in (marked, checked):
                assert type(out) is RaggedArray and (out.n, out.L) == (n, L)
                assert type(out.rows) is tuple and type(out.lost) is tuple
                assert all(type(v) is int for v in out.rows + out.lost)
            assert (marked.rows, marked.lost) == (checked.rows, checked.lost)
        count += 1
    if spec.kind == "ted" and n == 5:
        assert count == 3011


def test_marked_instances_compare_hash_and_print_as_tuples():
    for spec, n, L in MARKED_CASES:
        for inst in enumerate_channel_instances(spec, n, L):
            plain = tuple(inst)
            assert inst == plain and hash(inst) == hash(plain)
            assert repr(inst) == repr(plain) and str(inst) == str(plain)
            assert isinstance(inst, tuple) and not hasattr(inst, "__dict__")
            assert sys.getsizeof(inst) == sys.getsizeof(plain)
            assert type(inst).made_for == (spec, n, L)


def test_each_enumeration_makes_its_own_mark():
    spec = ChannelSpec("te", e=1)
    first = next(enumerate_channel_instances(spec, 2, 2))
    again = next(enumerate_channel_instances(spec, 2, 2))
    other = next(enumerate_channel_instances(spec, 3, 2))
    assert first == again and type(first) is not type(again)
    assert type(other).made_for == (spec, 3, 2)


def _first(spec, n, L, keep):
    """The first instance of the stream that `keep` takes."""
    return next(i for i in enumerate_channel_instances(spec, n, L) if keep(i))


# A marked instance applied under another spec object or to an array of
# another shape, with the error the plain tuple raises there.
FOREIGN_CASES = [
    # a weight-3 pattern made for e = 4, applied with e = 2
    ("te", ChannelSpec("te", e=4), (3, 3), ChannelSpec("te", e=2), (3, 3),
     lambda i: sum(i) == 3, "instance exceeds the e budget"),
    ("ted", ChannelSpec("ted", t=1, s=1, e=4), (3, 3), ChannelSpec("ted", t=1, s=1, e=2),
     (3, 3), lambda i: sum(i[0]) == 3, "instance exceeds the e budget"),
    ("del", ChannelSpec("del", t=2, s=2), (3, 4), ChannelSpec("del", t=1, s=2), (3, 4),
     lambda i: len(i) == 2, "too many deletion rows"),
    # another n
    ("te", ChannelSpec("te", e=2), (3, 3), None, (4, 3),
     lambda i: True, "pattern length does not match row count"),
    ("del", ChannelSpec("del", t=1, s=1), (4, 3), None, (3, 3),
     lambda i: i[0][0] == 4, "row 4 out of range"),
    # another L
    ("te", ChannelSpec("te", e=4), (3, 4), None, (3, 3),
     lambda i: max(i) == 4, "per-row erasure count out of range"),
    ("del", ChannelSpec("del", t=1, s=1), (3, 4), None, (3, 3),
     lambda i: i[0][1] == (4,), "deletion position 4 out of range"),
    ("ted", ChannelSpec("ted", t=1, s=1, e=1), (3, 4), None, (3, 3),
     lambda i: i[1] == ((1, (4,)),), "deletion position 4 out of range"),
]


@pytest.mark.parametrize("kind,made,made_shape,used,shape,keep,message", FOREIGN_CASES,
                         ids=["te-budget", "ted-budget", "del-budget", "te-n", "del-n",
                              "te-L", "del-L", "ted-L"])
def test_a_marked_instance_elsewhere_raises_as_a_plain_one(kind, made, made_shape, used,
                                                            shape, keep, message, checks):
    inst = _first(made, *made_shape, keep)
    x = random_array(random.Random(kind), *shape)
    spec = used or made
    assert _raised(apply_channel, x, spec, inst) == (ValueError, message)
    assert _raised(apply_channel, x, spec, tuple(inst)) == (ValueError, message)
    assert len(checks) == 2


@pytest.mark.parametrize("spec,n,L", [MARKED_CASES[i] for i in (3, 7, 8)],
                         ids=["te", "del", "ted"])
def test_a_marked_instance_under_an_equal_spec_object_is_checked(spec, n, L, checks):
    twin = ChannelSpec(spec.kind, e=spec.e, t=spec.t, s=spec.s)
    assert twin == spec and twin is not spec
    x = random_array(random.Random(n), n, L)
    for inst in enumerate_channel_instances(spec, n, L):
        assert apply_channel(x, twin, inst) == apply_channel(x, spec, inst)
        assert len(checks) == 1
        checks.clear()
