"""Seeded fuzz tests, and exhaustive ones at tiny shapes: whatever array
comes in, the DC/TED and TE decoders return a member of the code or raise
an ArrayCodeError (an InvalidInputError for an argument of the wrong type
or shape), and the TE parity-check loader returns a parity check or raises
ValueError."""

import itertools
import random
import struct

import pytest

from arraycodes.arrays import BitArray, RaggedArray
from arraycodes.basecodes import extended_hamming_pcm, hamming_pcm
from arraycodes.channel import (ChannelSpec, apply_channel,
                                enumerate_channel_instances, random_instance)
from arraycodes.dc import DcCode
from arraycodes.errors import ArrayCodeError, InvalidInputError
from arraycodes.te import (TeCodec, TeParityCheck, construct_1,
                           construct_claim5, construct_claim7, construct_even,
                           construct_hasse, te_decode)
from arraycodes.ted import TedCode

CODES = [DcCode(5, 7, 2), DcCode(9, 15, 3), TedCode(4, 5, 1, 0),
         TedCode(5, 7, 2, 1), TedCode(7, 9, 2, 1), TedCode(6, 10, 1, 2),
         TedCode(12, 20, 2, 2)]


def _ragged(L, rows):
    """The RaggedArray of (bits, length) rows of full length L."""
    return RaggedArray(len(rows), L, tuple(bits for bits, _ in rows),
                       tuple(L - length for _, length in rows))


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
                received = _ragged(code.L, received)
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
            for bits, lost, row in zip(received.rows, received.lost, out.rows):
                assert lost or bits == row
    # Every kind of input was tried, and the damaged kinds were caught.
    assert {("valid", "decoded"), ("over capacity", "raised"),
            ("out of contract", "raised"), ("flipped intact rows", "raised"),
            ("flipped, no damage", "raised"), ("random", "raised")} <= outcomes


# (builder, TE distance)
TE_CODES = {
    "c1-ham7": (lambda: construct_1(hamming_pcm(7), 7, 1), 3),
    "even-ham7": (lambda: construct_even(extended_hamming_pcm(7), 7, 1), 4),
    "claim5-6": (lambda: construct_claim5(6), 5),
    "claim7-8": (lambda: construct_claim7(8), 6),
    "hasse-16-4-4": (lambda: construct_hasse(16, 4, 4), 6),
}


def _erase(rng, x, weight):
    """Erase `weight` tail cells of x, one at a time in random rows: the
    (surviving bits, lost count) of each row."""
    p = [0] * x.n
    for _ in range(weight):
        p[rng.choice([i for i in range(x.n) if p[i] < x.L])] += 1
    full = (1 << x.L) - 1
    return [(row & full >> pi, pi) for row, pi in zip(x.rows, p)]


def _te_inputs(rng, codec, d):
    """One erased array of each kind for a fresh codeword."""
    n, L = codec.n, codec.L
    x = codec.encode([rng.randrange(2) for _ in range(codec.message_bits)])
    yield "within", x, _erase(rng, x, rng.randint(0, d - 1))
    yield "beyond", x, _erase(rng, x, rng.randint(d, min(n * L, d + 3)))
    rows = _erase(rng, x, rng.randint(0, d - 1))
    for _ in range(rng.randint(1, 3)):
        i = rng.choice([i for i, (_, pi) in enumerate(rows) if pi < L])
        bits, pi = rows[i]
        rows[i] = (bits ^ 1 << rng.randrange(L - pi), pi)
    yield "flipped", x, rows
    yield "random", x, [(rng.getrandbits(L - pi), pi)
                        for pi in (rng.randint(0, L) for _ in range(n))]


@pytest.mark.parametrize("name", sorted(TE_CODES))
def test_te_decode_returns_member_or_array_code_error(name):
    build, d = TE_CODES[name]
    codec = TeCodec(build())
    H = codec.H
    rng = random.Random(name)
    outcomes = set()
    for _ in range(300):
        for kind, x, rows in _te_inputs(rng, codec, d):
            received = RaggedArray(H.n, H.L, tuple(r for r, _ in rows),
                                   tuple(pi for _, pi in rows))
            try:
                out = codec.decode(received)
            except ArrayCodeError:
                outcomes.add((kind, "raised"))
                assert kind != "within"
                continue
            outcomes.add((kind, "decoded"))
            assert (out.n, out.L) == (H.n, H.L)
            assert H.contains(out), kind
            if kind == "within":
                assert out == x
            # The surviving bits come back as they were received.
            for row, got, pi in zip(received.rows, out.rows, received.lost):
                assert got & ((1 << (H.L - pi)) - 1) == row
    assert {("within", "decoded"), ("beyond", "raised"), ("flipped", "raised"),
            ("random", "raised")} <= outcomes


# Byte offsets and formats of the header fields after the magic (header
# ">4sHIIIiH"): version, r, n, L, field_m, provenance length.
HEADER_FIELDS = ((4, "H"), (6, "I"), (10, "I"), (14, "I"), (18, "i"), (22, "H"))


def _mutations(rng, blob):
    yield "truncated", blob[:rng.randrange(len(blob))]
    yield "extended", blob + bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
    flipped = bytearray(blob)
    for _ in range(rng.randint(1, 3)):
        flipped[rng.randrange(len(blob))] ^= rng.randint(1, 255)
    yield "byte flip", bytes(flipped)
    offset, fmt = rng.choice(HEADER_FIELDS)
    size = struct.calcsize(">" + fmt)
    old = struct.unpack(">" + fmt, blob[offset:offset + size])[0]
    bits = 8 * size
    value = rng.choice([0, 1, old + 1, max(old - 1, 0), rng.getrandbits(bits)])
    if fmt == "i":
        value = (value + (1 << 31)) % (1 << 32) - (1 << 31)
    else:
        value %= 1 << bits
    yield "header field", blob[:offset] + struct.pack(">" + fmt, value) + blob[offset + size:]


def test_te_loader_returns_parity_check_or_value_error():
    rng = random.Random(20)
    outcomes = set()
    for build, _ in TE_CODES.values():
        blob = build().to_bytes()
        for _ in range(200):
            for kind, mutated in _mutations(rng, blob):
                try:
                    H = TeParityCheck.from_bytes(mutated)
                except ValueError:
                    outcomes.add((kind, "rejected"))
                    continue
                outcomes.add((kind, "loaded"))
                assert isinstance(H, TeParityCheck)
                assert TeParityCheck.from_bytes(H.to_bytes()) == H
    assert {("truncated", "rejected"), ("extended", "rejected"),
            ("byte flip", "rejected"), ("byte flip", "loaded"),
            ("header field", "rejected"), ("header field", "loaded")} <= outcomes


# (codec, its in-contract channel, row lengths, members decoded)
TOTALITY = {
    # row lengths L - 1 and L, plus one shorter: 14^3 arrays
    "dc-3-3-1": lambda: (DcCode(3, 3, 1), ChannelSpec("del", t=1, s=1),
                         range(1, 4), 896),
    # row lengths L - e - 1 .. L, plus one shorter: 15^3 arrays
    "ted-3-3-1-1": lambda: (TedCode(3, 3, 1, 1), ChannelSpec("ted", t=1, s=1, e=1),
                            range(0, 4), 416),
    # every erasure count of a 3 x 2 array: 7^3 arrays
    "c1-ham3": lambda: (TeCodec(construct_1(hamming_pcm(3), 3, 1)),
                        ChannelSpec("te", e=2), range(0, 3), 160),
}


@pytest.mark.parametrize("name", sorted(TOTALITY))
def test_decoders_are_total_on_every_tiny_input(name):
    """Every received array at a tiny shape decodes to a member or raises
    an ArrayCodeError, and every in-contract channel output of every
    codeword is one of them and decodes back to that codeword."""
    codec, spec, lengths, want_members = TOTALITY[name]()
    n, L = codec.n, codec.L
    member = codec.H.contains if isinstance(codec, TeCodec) else codec.membership
    cells = [(v, k) for k in lengths for v in range(1 << k)]
    inputs = set()
    for rows in itertools.product(cells, repeat=n):
        inputs.add(_ragged(L, rows))
    assert len(inputs) == len(cells) ** n
    members = 0
    for received in inputs:
        try:
            out = codec.decode(received)
        except ArrayCodeError:
            continue
        assert isinstance(out, BitArray) and member(out), received
        members += 1
    assert members == want_members
    for value in range(1 << codec.message_bits):
        x = codec.encode([value >> b & 1 for b in range(codec.message_bits)])
        for instance in enumerate_channel_instances(spec, n, L):
            received = apply_channel(x, spec, instance)
            assert received in inputs
            assert codec.decode(received) == x, (x, instance)


# Every decoder, named.
DECODERS = {
    "dc-7-5-2": lambda: DcCode(7, 5, 2),
    "ted-5-7-2-1": lambda: TedCode(5, 7, 2, 1),
    "ted-12-20-2-2": lambda: TedCode(12, 20, 2, 2),
    "te-codec-hasse-16-4-4": lambda: TeCodec(construct_hasse(16, 4, 4)),
}


def _intact(n, L):
    """The all-zero RaggedArray of shape n x L, no row damaged."""
    return RaggedArray(n, L, (0,) * n, (0,) * n)


def _malformed(n, L):
    """Each malformed argument of a decoder of n x L arrays: no array, the
    undamaged array type, and arrays one row or one column off."""
    yield from (None, 5, "x", [[0] * L for _ in range(n)], BitArray(n, L, (0,) * n))
    for dn, dL in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        yield _intact(n + dn, L + dL)


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_decoders_reject_malformed_arguments_with_invalid_input_error(name):
    """A wrong type or shape is an InvalidInputError, an ArrayCodeError
    that is also a ValueError, from the codec's decode and from te_decode;
    a well-formed array of that shape goes through."""
    assert issubclass(InvalidInputError, ArrayCodeError)
    assert issubclass(InvalidInputError, ValueError)
    codec = DECODERS[name]()
    n, L = codec.n, codec.L
    decoders = [codec.decode]
    if isinstance(codec, TeCodec):
        decoders.append(lambda received: te_decode(codec.H, received))
    for decode in decoders:
        for argument in _malformed(n, L):
            with pytest.raises(InvalidInputError):
                decode(argument)
        assert decode(_intact(n, L)) == BitArray(n, L, (0,) * n)
