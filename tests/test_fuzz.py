"""Seeded fuzz test of the DC/TED decoders: whatever ragged array comes in,
decode returns a member of the code or raises an ArrayCodeError."""

import random

import pytest

from arraycodes.arrays import RaggedArray
from arraycodes.channel import ChannelSpec, apply_channel, random_instance
from arraycodes.dc import DcCode
from arraycodes.errors import ArrayCodeError
from arraycodes.ted import TedCode

CODES = [DcCode(5, 7, 2), DcCode(9, 15, 3), TedCode(4, 5, 1, 0),
         TedCode(5, 7, 2, 1), TedCode(7, 9, 2, 1), TedCode(6, 10, 1, 2),
         TedCode(12, 20, 2, 2)]


def _damage(rng, rows, nrows, lost):
    """Delete a random number of bits in the range `lost` from each of
    `nrows` random rows."""
    rows = list(rows)
    for i in rng.sample(range(len(rows)), nrows):
        bits, length = rows[i]
        for _ in range(min(rng.randint(*lost), length)):
            pos = rng.randrange(length)
            bits = (bits & ((1 << pos) - 1)) | ((bits >> (pos + 1)) << pos)
            length -= 1
        rows[i] = (bits, length)
    return rows


def _flip_intact(rng, rows, L):
    """Flip random bits in one to three full-length rows, if any."""
    rows = list(rows)
    intact = [i for i, (_, length) in enumerate(rows) if length == L]
    for i in rng.sample(intact, min(len(intact), rng.randint(1, 3))):
        bits, length = rows[i]
        for _ in range(rng.randint(1, 3)):
            bits ^= 1 << rng.randrange(L)
        rows[i] = (bits, length)
    return rows


def _inputs(rng, code):
    """One received array of each kind for a fresh codeword."""
    n, L, e = code.n, code.L, code.e
    x = code.encode([rng.randrange(2) for _ in range(code.message_bits)])
    spec = ChannelSpec("ted", t=code.t, s=1, e=e)
    valid = apply_channel(x, spec, random_instance(spec, n, L, rng))
    full = [(r, L) for r in x.rows]
    yield "valid", x, valid
    yield "over capacity", x, _damage(rng, full, min(n, code.R + 1), (1, e + 1))
    yield "out of contract", x, _damage(rng, full, rng.randint(1, code.R), (e + 2, e + 4))
    yield "flipped intact rows", x, _flip_intact(
        rng, _damage(rng, full, rng.randint(0, code.R), (1, 1)), L)
    yield "flipped, no damage", x, _flip_intact(rng, full, L)
    yield "random", x, [(rng.getrandbits(length), length)
                        for length in (rng.randint(max(0, L - e - 2), L)
                                       for _ in range(n))]


@pytest.mark.parametrize("code", CODES, ids=lambda c: f"{c.n}x{c.L}-t{c.t}-e{c.e}")
def test_decode_returns_member_or_array_code_error(code):
    rng = random.Random(repr(code.descriptor()))
    outcomes = set()
    for _ in range(150):
        for kind, x, received in _inputs(rng, code):
            if not isinstance(received, RaggedArray):
                received = RaggedArray(code.n, code.L, tuple(received))
            try:
                out = code.decode(received)
            except ArrayCodeError:
                outcomes.add((kind, "raised"))
                assert kind != "valid"
                continue
            outcomes.add((kind, "decoded"))
            assert (out.n, out.L) == (code.n, code.L)
            assert code.membership(out), kind
            if kind == "valid":
                assert out == x
            # Full-length rows come back as they were received.
            for (bits, length), row in zip(received.rows, out.rows):
                assert length < code.L or bits == row
    # Every kind of input was tried, and the damaged kinds were caught.
    assert {("valid", "decoded"), ("over capacity", "raised"),
            ("out of contract", "raised"), ("flipped intact rows", "raised"),
            ("flipped, no damage", "raised"), ("random", "raised")} <= outcomes
