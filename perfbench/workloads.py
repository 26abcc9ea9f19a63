"""The benchmark's workloads.

Constructing a workload is its set-up: it builds every input from the
seed and runs one untimed warm-up trial, so that lazy state such as the
`outer` Reed-Solomon code and the field tables exists before timing.  Each
`block` call then runs a block of checked trials.  Trials form a closed loop in one thread: the next
starts when the previous one has been checked.

The program is driven only through its public API, looked up on the
module at call time so that the traced run sees its wrappers.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Optional

from arraycodes import channel, dc, tables, te, ted

clock = time.perf_counter


class Block:
    """What one block of trials measured and what failed in it."""

    def __init__(self):
        self.decode_s: List[float] = []
        self.encode_s: List[float] = []
        self.trials = 0
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None
        self.wall_s = 0.0

    def fail(self, detail: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = detail

    def absorb(self, other: "Block") -> None:
        """Add another block's attempted and failed operations to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.first_failure = self.first_failure or other.first_failure


def _message(rng: random.Random, k: int) -> List[int]:
    value = rng.getrandbits(k)
    return [(value >> b) & 1 for b in range(k)]


def _encode(codec, message, out: Block):
    """Encode, time it and check `message_of`; None when that failed."""
    out.attempted += 1
    try:
        t0 = clock()
        x = codec.encode(message)
        out.encode_s.append(clock() - t0)
        if codec.message_of(x) == message:
            return x
        out.fail(f"message_of(encode(m)) != m for m={message}")
    except Exception as exc:
        out.fail(f"encode raised {exc!r} for m={message}")
    return None


def _trial(codec, spec, x, message, instance, out: Block) -> None:
    """Channel, decode (timed), compare array and message."""
    out.trials += 1
    out.attempted += 1
    try:
        received = channel.apply_channel(x, spec, instance)
        t0 = clock()
        decoded = codec.decode(received)
        out.decode_s.append(clock() - t0)
        if decoded == x and codec.message_of(decoded) == message:
            return
        out.fail(f"wrong decode: m={message} instance={instance!r}")
    except Exception as exc:
        out.fail(f"trial raised {exc!r}: m={message} instance={instance!r}")


def _warm_up(codec, spec, message, instance) -> Block:
    """One encode and one trial before timing; its checks still count."""
    checks = Block()
    x = _encode(codec, message, checks)
    if x is not None:
        _trial(codec, spec, x, message, instance, checks)
    return checks


class Sweep:
    """Exhaustive round trips: a block encodes the next few messages of
    the pool and pushes the first through every channel instance."""

    # Several distinct messages per block give each block a median encode
    # latency (still under 1 encode per 300 decodes); at the measured rates
    # a pool this large repeats no message within a run.
    encodes_per_block = 9
    messages_in_pool = 1024

    def __init__(self, codec, spec: channel.ChannelSpec, seed: int):
        self.codec, self.spec = codec, spec
        self.instances = list(channel.enumerate_channel_instances(
            spec, codec.n, codec.L))
        rng = random.Random(seed)
        self.messages = [_message(rng, codec.message_bits)
                         for _ in range(self.messages_in_pool)]
        self.checks = _warm_up(codec, spec, self.messages[0], self.instances[0])

    def block(self, index: int, on_trial: Optional[Callable] = None) -> Block:
        out = Block()
        start = clock()
        first = index * self.encodes_per_block
        encoded = [_encode(self.codec, self.messages[(first + j) % len(self.messages)], out)
                   for j in range(self.encodes_per_block)]
        message, x = self.messages[first % len(self.messages)], encoded[0]
        if x is not None:
            for k, instance in enumerate(self.instances):
                if on_trial is not None:
                    on_trial(index * len(self.instances) + k)
                _trial(self.codec, self.spec, x, message, instance, out)
        out.wall_s = clock() - start
        return out


class TedExhaustive(Sweep):
    """TED(5,7,t=2,e=1) under every (t=2, s=1, e=1) instance: small field,
    work spread over arrays, vt, channel, ted and rs; 26 erasure sets
    repeat across the 3011 instances, so an erasure-set cache would get
    its best case here."""

    name = "ted-exhaustive"
    trace_blocks = 8

    def __init__(self, seed: int):
        super().__init__(ted.TedCode(5, 7, t=2, e=1),
                         channel.ChannelSpec("ted", t=2, s=1, e=1), seed)


class DcWide:
    """DC(31,31,t=8): k=23 over GF(2^5), one fresh message and one random
    deletion instance per trial, 1 encode per decode.  Damaged-row sets
    almost never repeat, so an erasure-set cache gets no reuse."""

    name = "dc-wide"
    trace_blocks = 5
    trials_per_block = 40
    # Drawn before timing; at the measured rates a run stays inside the pool.
    messages_in_pool = 1024
    instances_in_pool = 8192

    def __init__(self, seed: int):
        self.codec = dc.DcCode(31, 31, t=8)
        self.spec = channel.ChannelSpec("del", t=8, s=1)
        rng = random.Random(seed)
        self.messages = [_message(rng, self.codec.message_bits)
                         for _ in range(self.messages_in_pool)]
        self.instances = [channel.random_instance(self.spec, 31, 31, rng)
                          for _ in range(self.instances_in_pool)]
        self.checks = _warm_up(self.codec, self.spec, self.messages[0],
                               self.instances[0])

    def block(self, index: int, on_trial: Optional[Callable] = None) -> Block:
        out = Block()
        start = clock()
        for k in range(self.trials_per_block):
            trial = index * self.trials_per_block + k
            if on_trial is not None:
                on_trial(trial)
            message = self.messages[trial % len(self.messages)]
            x = _encode(self.codec, message, out)
            if x is not None:
                _trial(self.codec, self.spec, x, message,
                       self.instances[trial % len(self.instances)], out)
        out.wall_s = clock() - start
        return out


# (construction, max weight searched, expected distance, expected exact)
# as recorded when the benchmark was defined.
VERIFY_SET = (
    ("construct_hasse(31,3,5)", lambda: te.construct_hasse(31, 3, 5), 5, 6, False),
    ("table_i_construct(31,5)", lambda: tables.table_i_construct(31, 5), 5, 5, True),
    ("construct_hasse(16,4,4)", lambda: te.construct_hasse(16, 4, 4), 5, 6, False),
)


class TeVerify(Sweep):
    """Tables I and II regenerated as acceptance criterion 10 does, the
    minimum-distance verifier on a fixed set, then TE(construct_hasse
    (16,4,4)) round trips under every pattern of 4 tail erasures.  The
    only workload for gf2 and te, and with no rs, vt or field arithmetic
    after set-up."""

    name = "te-verify"
    trace_blocks = 4

    def __init__(self, seed: int):
        super().__init__(te.TeCodec(te.construct_hasse(16, 4, 4)),
                         channel.ChannelSpec("te", e=4), seed)
        checks = self.checks
        for row in tables.table_i(range(3, 17), (2, 3, 4, 5)):
            checks.attempted += 1
            if row.columns["upper_measured"] != row.columns["upper_closed"]:
                checks.fail(f"table I row differs: {row.record()}")
        for row in tables.table_ii((4, 8, 16)):
            checks.attempted += 1
            if row.columns["upper_measured"] != row.columns["cell_closed"]:
                checks.fail(f"table II row differs: {row.record()}")
        self.verify_set = [(label, build(), max_e, d, exact)
                           for label, build, max_e, d, exact in VERIFY_SET]

    def verify_pass(self, out: Block) -> None:
        """One pass over the verify set, results checked."""
        for label, H, max_e, d, exact in self.verify_set:
            out.attempted += 1
            try:
                r = te.verify_min_distance(H, max_e)
            except Exception as exc:
                out.fail(f"verify {label} raised {exc!r}")
                continue
            witness_ok = (r.witness is not None and sum(r.witness) == d) if exact \
                else r.witness is None
            if (r.distance, r.exact) != (d, exact) or not witness_ok:
                out.fail(f"verify {label}: got {r}, expected distance {d} "
                         f"exact={exact}")


WORKLOADS = {w.name: w for w in (TedExhaustive, DcWide, TeVerify)}
