"""Pin every TE construction, base-code matrix and systematic encoder layout
to one sha256, so a refactor of the construction code shows any change in
its output.  A call that raises ValueError contributes its message."""

import hashlib
import random

from arraycodes.basecodes import (bch_pcm, claim5_base_pcm, cyclic_pcm,
                                  extended_hamming_pcm, hamming_pcm)
from arraycodes.gf2 import gf2_relations
from arraycodes.tables import table_i_construct
from arraycodes.te import (TeEncoder, construct_1, construct_claim5,
                           construct_claim7, construct_even, construct_hasse,
                           construct_hasse_raw, construct_parity)
from conftest import te_oracle_rows, transpose

PINNED = "25414152b9b4fcd15b810054d116639022156b38fd0e06a20999fd99a187e2ac"


def _matrix_bytes(M):
    """(nrows, ncols, rows, columns), the layout the pin was taken in; the
    rows are read off the columns."""
    r, columns = M
    rows = tuple(transpose(columns, r))
    return repr((r, len(columns), rows, list(columns))).encode()


def _code_bytes(H, with_encoder):
    out = H.to_bytes()
    if with_encoder:
        enc = TeEncoder(H)
        ones = enc.encode([1] * enc.k)
        out += repr((enc.message_cells, ones.rows)).encode()
    return out


def _builds(n):
    """(label, build) for each TE construction of the pinned grid on n rows."""
    builds = []
    for L in range(1, 6):
        for e in range(1, 7):
            builds.append((f"hasse {n} {L} {e}",
                           lambda n=n, L=L, e=e: construct_hasse(n, L, e)))
            builds.append((f"hasse-raw {n} {L} {e}",
                           lambda n=n, L=L, e=e: construct_hasse_raw(n, L, e)))
    builds.append((f"claim5 {n}", lambda n=n: construct_claim5(n)))
    builds.append((f"claim7 {n}", lambda n=n: construct_claim7(n)))
    for L in (1, 2, 3):
        builds.append((f"parity {n} {L}", lambda n=n, L=L: construct_parity(n, L)))
    for t in (1, 2):
        builds.append((f"c1 {n} {t}",
                       lambda n=n, t=t: construct_1(hamming_pcm(n * t), n, t)))
        builds.append((f"even {n} {t}",
                       lambda n=n, t=t: construct_even(
                           extended_hamming_pcm(n * t), n, t)))
    return builds


def _entries():
    """(label, thunk) for every call of the pinned grid; a thunk returns bytes."""
    for n in range(1, 40):
        enc = n <= 12
        for label, build in _builds(n):
            yield label, lambda build=build, enc=enc: _code_bytes(build(), enc)
        yield f"hamming {n}", lambda n=n: _matrix_bytes(hamming_pcm(n))
        yield f"ext-hamming {n}", lambda n=n: _matrix_bytes(extended_hamming_pcm(n))
        yield f"cyclic-1 {n}", lambda n=n: _matrix_bytes(cyclic_pcm(1, n))
        yield f"claim5-base {n}", lambda n=n: _matrix_bytes(claim5_base_pcm(n)[0])
        for d in range(3, 7):
            yield f"bch {n} {d}", lambda n=n, d=d: _matrix_bytes(bch_pcm(n, d)[0])
    for n in range(3, 17):
        for d in range(2, 6):
            yield f"table-i {n} {d}", lambda n=n, d=d: table_i_construct(n, d).to_bytes()


def construction_digest():
    digest = hashlib.sha256()
    for label, thunk in _entries():
        try:
            body = thunk()
        except ValueError as exc:
            body = f"ValueError: {exc}".encode()
        digest.update(label.encode() + b"\0" + body + b"\0")
    return digest.hexdigest()


def test_constructions_match_pinned_digest():
    assert construction_digest() == PINNED


def test_encode_int_matches_the_per_row_split():
    """`TeCodec._encode_int` reads its codeword from lane-layout tables;
    on every TE construction of the pinned grid, the rows are the per-row
    shifts of the flat codeword that XORs the generator images of
    `gf2_relations`, for the zero and all-ones messages and three random
    ones."""
    rng = random.Random(40)
    for rows_in_grid in range(1, 40):
        for label, build in _builds(rows_in_grid):
            try:
                H = build()
            except ValueError:
                continue
            enc = TeEncoder(H)
            images = gf2_relations(H.all_columns())
            n, L, k = enc.n, enc.L, enc.k
            for message in (0, (1 << k) - 1, *(rng.getrandbits(k) for _ in range(3))):
                rows = te_oracle_rows(images, message, n, L)
                assert enc._encode_int(message).rows == rows, (label, message)
