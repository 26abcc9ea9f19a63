import random

from arraycodes.gf2 import BitMatrix, gf2_rank, gf2_row_reduce, transpose


def from_lists(entries):
    """BitMatrix from a list of 0/1 rows."""
    ncols = len(entries[0]) if entries else 0
    rows = tuple(sum((v & 1) << j for j, v in enumerate(row)) for row in entries)
    return BitMatrix(len(entries), ncols, rows)


def test_rank_identity_and_zero():
    eye = from_lists([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert gf2_rank(eye.rows) == 4
    zero = from_lists([[0] * 5 for _ in range(3)])
    assert gf2_rank(zero.rows) == 0


def test_rank_hamming_743():
    # parity matrix of the [7,4,3] Hamming code: columns are 1..7 in binary
    cols = [[(j >> b) & 1 for b in range(3)] for j in range(1, 8)]
    H = from_lists([[cols[j][b] for j in range(7)] for b in range(3)])
    assert gf2_rank(H.rows) == 3


def test_rank_equals_transpose_rank():
    rng = random.Random(0)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        M = BitMatrix(nrows, ncols,
                      tuple(rng.randrange(1 << ncols) for _ in range(nrows)))
        assert gf2_rank(M.rows) == gf2_rank(M.columns())


def test_row_reduce_pivots_sorted_unique():
    rows = [0b1011, 0b1110, 0b0101]
    reduced, pivots = gf2_row_reduce(rows, 4)
    assert pivots == sorted(set(pivots))
    assert len(reduced) == len(pivots) == gf2_rank(rows)


def test_transpose_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        count, width = rng.randint(0, 12), rng.randint(0, 12)
        vectors = [rng.randrange(1 << width) for _ in range(count)]
        columns = transpose(vectors, width)
        assert len(columns) == width
        assert all(c >> count == 0 for c in columns)
        assert all((columns[j] >> k & 1) == (vectors[k] >> j & 1)
                   for j in range(width) for k in range(count))
        assert transpose(columns, count) == vectors


def test_transpose_width_zero():
    assert transpose([], 0) == []
    assert transpose([0, 0, 0], 0) == []
    assert transpose([], 3) == [0, 0, 0]
