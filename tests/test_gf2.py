import random

from arraycodes.gf2 import gf2_rank, gf2_relations, xor_table
from conftest import transpose


def test_rank_identity_and_zero():
    assert gf2_rank([1 << i for i in range(4)]) == 4
    assert gf2_rank([0] * 3) == 0
    assert gf2_rank([]) == 0


def test_rank_hamming_743():
    # parity check of the [7,4,3] Hamming code: columns are 1..7 in binary
    columns = list(range(1, 8))
    assert gf2_rank(columns) == 3
    assert gf2_rank(transpose(columns, 3)) == 3


def test_rank_equals_transpose_rank():
    rng = random.Random(0)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [rng.randrange(1 << ncols) for _ in range(nrows)]
        assert gf2_rank(rows) == gf2_rank(transpose(rows, ncols))


def test_rank_when_the_span_never_fills_the_used_bits():
    # The OR has two bits but the rank is 1: the early exit cannot fire.
    assert gf2_rank([0b11, 0b11]) == 1
    assert gf2_rank([0b101, 0, 0b101, 0b101]) == 1


def test_rank_stops_once_the_basis_spans_the_used_bits():
    # The basis fills at the third vector; a dependent and a zero vector
    # follow.
    assert gf2_rank([1, 2, 3, 4, 0]) == 3
    assert gf2_rank([0b100, 0b010, 0b001, 0b111, 0b110]) == 3


def test_rank_matches_the_relations_on_wide_random_sets():
    """Counts above and below the number of bits the vectors set, so that
    the early exit both fires and cannot."""
    rng = random.Random(3)
    for _ in range(400):
        count, width = rng.randint(0, 12), rng.randint(0, 16)
        vectors = [rng.randrange(1 << width) for _ in range(count)]
        assert gf2_rank(vectors) == len(vectors) - len(gf2_relations(vectors))


def test_relations_on_random_vectors():
    """Each relation XORs its vectors to 0 and has its own index as top bit;
    the top bits are exactly the vectors in the span of the vectors before
    them, every lower bit is one of the others, and the span has
    2^(len - relations) elements."""
    rng = random.Random(2)
    for _ in range(300):
        count, width = rng.randint(0, 10), rng.randint(0, 6)
        vectors = [rng.randrange(1 << width) for _ in range(count)]
        relations = gf2_relations(vectors)
        tops = [rel.bit_length() - 1 for rel in relations]
        for rel in relations:
            s = 0
            for k, vec in enumerate(vectors):
                if rel >> k & 1:
                    s ^= vec
            assert s == 0
        assert tops == [k for k in range(count)
                        if vectors[k] in set(xor_table(vectors[:k]))]
        independent = sum(1 << k for k in range(count) if k not in tops)
        assert all((rel ^ 1 << top) & ~independent == 0
                   for rel, top in zip(relations, tops))
        assert len(set(xor_table(vectors))) == 2 ** (count - len(relations))
        assert count - len(relations) == gf2_rank(vectors)


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
