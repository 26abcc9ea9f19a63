"""Channel simulators and round-trip harnesses.

A concrete channel instance is data, not randomness: a TE instance is a
pattern tuple, a deletion instance maps rows to deletion positions, and a
combined instance applies the tail erasures first (order does not matter
per row; the reachable outputs coincide) followed by the deletions on the
truncated rows.

Applying an instance is a check, `arrays._check_instance`, then the erase
and delete arithmetic, `arrays._cut`.  The instances that
`enumerate_channel_instances` yields are valid by construction, and each
carries the (spec, n, L) it was made for in its class: `apply_channel`
skips the check for such an instance under that very spec object, on an
array of that n and L.  Every other instance is checked in full, in the
same order and with the same messages: a caller's tuple, a
`random_instance` draw, an instance read from a file or the command
line, one given to `arrays.apply_te_pattern`, and an enumerated one under
another spec object or on another shape.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations, islice, product, repeat
from typing import Iterator, Optional, Sequence, Tuple

from .arrays import (_NO_ERASURES, BitArray, RaggedArray, _cut, _damage, _int_to_row,
                     enumerate_patterns)

TeInstance = Tuple[int, ...]                 # erasure counts per row
DelInstance = Tuple[Tuple[int, Tuple[int, ...]], ...]   # (row, positions), 1-indexed

# Cap on the instances one exhaustive enumeration may yield.
DEFAULT_MAX_WORK = 2_000_000


@dataclass(frozen=True)
class ChannelSpec:
    kind: str                       # "te" | "del" | "ted"
    e: int = 0
    t: int = 0
    s: int = 0

    def __post_init__(self):
        if self.kind not in ("te", "del", "ted"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if any(type(v) is not int for v in (self.e, self.t, self.s)):
            raise TypeError("e, t and s must be ints")
        if self.kind in ("te", "ted") and self.e < 0:
            raise ValueError("e must be non-negative")
        if self.kind in ("del", "ted") and (self.t < 0 or self.s < 0):
            raise ValueError("t and s must be non-negative")


class _Enumerated(tuple):
    """An instance `enumerate_channel_instances` built.  Each call makes its
    own subclass, whose class attribute `made_for` is the (spec, n, L) of
    the call; an instance adds nothing to the tuple it holds, and compares,
    hashes and prints as that tuple."""

    __slots__ = ()
    made_for: Tuple[ChannelSpec, int, int]


def apply_channel(x: BitArray, spec: ChannelSpec, instance) -> RaggedArray:
    """Apply a concrete instance within the spec's budgets; every kind
    returns a RaggedArray.  A ted instance erases the tails first, then
    deletes positions indexed into the truncated rows.

    An instance that `enumerate_channel_instances` made for this very spec
    object and x's n and L is valid by construction and goes straight to
    the arithmetic; every other instance is checked in full first."""
    if spec.kind == "te":
        pattern, deletions = instance, ()
    elif spec.kind == "del":
        pattern, deletions = _NO_ERASURES, instance
    else:
        pattern, deletions = instance
    if isinstance(instance, _Enumerated):
        made_spec, n, L = instance.made_for
        if made_spec is spec and n == x.n and L == x.L:
            return _cut(x, pattern, deletions)
    return _damage(x, pattern, deletions, spec.e, spec.t, spec.s)


def enumerate_deletion_instances(row_lengths: Sequence[int], t: int, s: int,
                                 include_empty: bool = False) -> Iterator[DelInstance]:
    """Every way to pick up to t rows and 1..s deletion positions in each.

    Row positions refer to the current row lengths (after any earlier
    truncation).  The empty instance is excluded unless requested, matching
    the instance counts used by the exhaustive harnesses.  Each row
    length's position choices, then each row's (row, positions) list, are
    built once per call; the instances are products over row combinations.
    """
    choices = {length: [c for count in range(1, min(s, length) + 1)
                        for c in combinations(range(1, length + 1), count)]
               for length in set(row_lengths)}
    per_row = [[(row, c) for c in choices[length]]
               for row, length in enumerate(row_lengths, 1)]
    stream = chain.from_iterable(product(*rows) for nrows in range(1, t + 1)
                                 for rows in combinations(per_row, nrows))
    return chain([()], stream) if include_empty else stream


def enumerate_channel_instances(spec: ChannelSpec, n: int, L: int,
                                max_work: Optional[int] = DEFAULT_MAX_WORK) -> Iterator:
    """Deterministic stream of all distinct instances of a channel.

    TE instances delegate to the pattern enumerator (zero pattern included);
    deletion instances exclude the empty one; combined instances pair every
    pattern with every deletion layout on the truncated rows (the empty
    deletion layout included, so pure-TE damage is covered).  A stream of
    more than `max_work` instances raises RuntimeError in place of instance
    max_work + 1; None means no cap, and a negative cap raises ValueError.
    Each instance comes as a tuple subclass made for this call, which
    `apply_channel` applies without checking it under this spec object on
    an n x L array.
    """
    if max_work is not None and max_work < 0:
        raise ValueError(f"max_work must be None or at least 0, got {max_work}")
    if spec.kind == "te":
        stream = enumerate_patterns(spec.e, L, n)
    elif spec.kind == "del":
        stream = enumerate_deletion_instances([L] * n, spec.t, spec.s)
    else:
        stream = chain.from_iterable(
            zip(repeat(p), enumerate_deletion_instances(
                [L - pi for pi in p], spec.t, spec.s, include_empty=True))
            for p in enumerate_patterns(spec.e, L, n))
    marked = type("_Enumerated", (_Enumerated,), {"__slots__": (), "made_for": (spec, n, L)})
    yield from map(marked, islice(stream, max_work))
    if next(stream, None) is not None:
        raise RuntimeError("instance enumeration exceeds the work cap")


def _te_draw(e: int, n: int, L: int, rng: random.Random) -> TeInstance:
    """Visit the rows in shuffled order, each taking a uniform share of
    what is left of the e budget (at most L)."""
    p = [0] * n
    rows = list(range(n))
    rng.shuffle(rows)
    randrange = rng.randrange
    for row in rows:
        if e == 0:
            break
        take = randrange(0, min(e, L) + 1)
        p[row] = take
        e -= take
    return tuple(p)


def random_instance(spec: ChannelSpec, n: int, L: int, rng: random.Random):
    """Uniform rows without replacement, then uniform positions.

    The draw sequence is a contract: the same seeded generator gives the
    same instance across releases and supported Pythons, so seeded pools
    and `channel --seed` outputs do not change.  `randrange(a, b + 1)` is
    what `randint(a, b)` draws, and for one position it is what
    `sample(range(1, L + 1), 1)` draws; the count draw stays even when it
    can only be 1, because it still consumes generator bits.
    """
    if spec.kind == "te":
        return _te_draw(spec.e, n, L, rng)
    randrange = rng.randrange
    s = spec.s
    if spec.kind == "del":
        # At most n rows exist; within that cap the draw is the same as
        # uncapped.
        pattern = (0,) * n
        chosen = rng.sample(range(1, n + 1), randrange(0, min(spec.t, n) + 1))
    else:
        pattern = _te_draw(spec.e, n, L, rng)
        nrows = randrange(0, spec.t + 1)
        candidates = [r for r, p in enumerate(pattern, 1) if L - p >= s]
        chosen = rng.sample(candidates, min(nrows, len(candidates)))
    chosen.sort()
    # At most L deletions per row exist; a ted candidate keeps s positions,
    # so the cap is s there.
    most = min(s, L) + 1
    inst = []
    for row in chosen:
        length = L - pattern[row - 1]
        count = randrange(1, most)
        if count == 1:
            inst.append((row, (randrange(1, length + 1),)))
        else:
            inst.append((row, tuple(sorted(rng.sample(range(1, length + 1), count)))))
    return tuple(inst) if spec.kind == "del" else (pattern, tuple(inst))


@dataclass
class RunRecord:
    codec: dict
    spec: ChannelSpec
    mode: str
    seed: Optional[int]
    trials: int = 0
    failures: int = 0
    first_counterexample: Optional[dict] = None

    def note_failure(self, message, instance, received, detail: str) -> None:
        self.failures += 1
        if self.first_counterexample is None:
            self.first_counterexample = {
                "message": list(message),
                "instance": repr(instance),
                "received": received.to_lists(),
                "detail": detail,
            }

    def summary(self) -> str:
        status = "ok" if self.failures == 0 else "FAILED"
        return (f"roundtrip {status}: codec={self.codec} channel={self.spec} "
                f"mode={self.mode} seed={self.seed} trials={self.trials} "
                f"failures={self.failures}")


def roundtrip_harness(codec, spec: ChannelSpec, *, messages: int = 20,
                      exhaustive: bool = True, seed: int = 0,
                      max_work: Optional[int] = None) -> RunRecord:
    """Encode random messages, one `getrandbits` each, check that
    `message_of` reads each one back, push them through every channel
    instance (or `max_work` sampled ones, 100 when None), decode, compare.
    An exhaustive run streams the instances, so its memory does not grow
    with their number; one whose enumeration exceeds `max_work` instances
    (`DEFAULT_MAX_WORK` when None) raises RuntimeError before it decodes
    anything, and one whose channel has no instance (a `del` channel with
    t = 0 or s = 0) raises ValueError.  `messages` or `max_work` below 1
    raises ValueError.

    Failures are recorded, not raised; the first counterexample keeps the
    full (message, instance, received) triple for replay.  A `message_of`
    failure has no instance: its received array is the encoded one.
    """
    if messages < 1:
        raise ValueError(f"messages must be at least 1, got {messages}")
    if max_work is None:
        max_work = DEFAULT_MAX_WORK if exhaustive else 100
    elif max_work < 1:
        raise ValueError(f"max_work must be at least 1, got {max_work}")
    rng = random.Random(seed)
    n, L = codec.n, codec.L
    if exhaustive:
        # The deterministic stream is made again for each message, not held:
        # a counting pass that stores nothing raises past the cap, or on a
        # stream with no instance, before any message is encoded.
        stream = enumerate_channel_instances(spec, n, L, max_work=max_work)
        if next(stream, None) is None:
            raise ValueError(f"{spec} has no instance on {n} x {L} arrays: "
                             f"an exhaustive round trip would run no trial")
        deque(stream, maxlen=0)
    record = RunRecord(codec.descriptor(), spec,
                       "exhaustive" if exhaustive else "random", seed)
    k = codec.message_bits
    msgs = [_int_to_row(rng.getrandbits(k), k) for _ in range(messages)]
    arrays = [(m, codec.encode(m)) for m in msgs]
    if not exhaustive:
        sampled = [random_instance(spec, n, L, rng) for _ in range(max_work)]
    for message, x in arrays:
        if codec.message_of(x) != message:
            record.note_failure(message, None, x, "message_of(encode(m)) != m")
        stream = (enumerate_channel_instances(spec, n, L, max_work=max_work)
                  if exhaustive else sampled)
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
