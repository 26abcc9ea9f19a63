import random

from arraycodes.gf2 import BitMatrix, gf2_rank, gf2_row_reduce


def test_rank_identity_and_zero():
    eye = BitMatrix.from_lists([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert eye.rank() == 4
    zero = BitMatrix.from_lists([[0] * 5 for _ in range(3)])
    assert zero.rank() == 0


def test_rank_hamming_743():
    # parity matrix of the [7,4,3] Hamming code: columns are 1..7 in binary
    cols = [[(j >> b) & 1 for b in range(3)] for j in range(1, 8)]
    H = BitMatrix.from_lists([[cols[j][b] for j in range(7)] for b in range(3)])
    assert H.rank() == 3


def test_rank_equals_transpose_rank():
    rng = random.Random(0)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        M = BitMatrix(nrows, ncols,
                      tuple(rng.randrange(1 << ncols) for _ in range(nrows)))
        assert M.rank() == gf2_rank(M.columns())


def test_row_reduce_pivots_sorted_unique():
    rows = [0b1011, 0b1110, 0b0101]
    reduced, pivots = gf2_row_reduce(rows, 4)
    assert pivots == sorted(set(pivots))
    assert len(reduced) == len(pivots) == gf2_rank(rows)
