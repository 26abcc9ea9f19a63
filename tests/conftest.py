import random
from functools import lru_cache
from itertools import combinations

from arraycodes.arrays import BitArray, RaggedArray, enumerate_patterns
from arraycodes.channel import ChannelSpec


def random_array(rng: random.Random, n: int, L: int) -> BitArray:
    return BitArray(n, L, tuple(rng.randrange(1 << L) for _ in range(n)))


def ragged(entries, L: int) -> RaggedArray:
    """The RaggedArray of rows of L positions whose surviving bits are the
    0/1 lists in `entries`, first position first."""
    return RaggedArray(len(entries), L,
                       tuple(sum(b << j for j, b in enumerate(row)) for row in entries),
                       tuple(L - len(row) for row in entries))


def transpose(vectors, width: int):
    """The same bit matrix read the other way: bit k of output j is bit j of
    vectors[k], for j < width (every vector is below 2^width)."""
    out = [0] * width
    for k, vec in enumerate(vectors):
        while vec:
            low = vec & -vec
            out[low.bit_length() - 1] |= 1 << k
            vec ^= low
    return out


def te_oracle_rows(images, message: int, n: int, L: int) -> tuple:
    """The rows of a TE codeword from the generator images of
    `gf2_relations(H.all_columns())`: the flat XOR of the images of the
    message's set bits, cut into n rows of L bits one shift per row."""
    flat = 0
    for b, image in enumerate(images):
        if message >> b & 1:
            flat ^= image
    return tuple(flat >> (i * L) & ((1 << L) - 1) for i in range(n))


def unbudgeted(kind: str, x: BitArray) -> ChannelSpec:
    """The `kind` channel spec whose budgets hold every instance on x: all
    n*L positions erased, all n rows with deletions, all L positions each."""
    return ChannelSpec(kind, e=x.n * x.L, t=x.n, s=x.L)


def all_arrays(n: int, L: int):
    for value in range(1 << (n * L)):
        yield BitArray(n, L, tuple((value >> (i * L)) & ((1 << L) - 1)
                                   for i in range(n)))


def recursive_patterns(e, L, n):
    """The per-row recursive enumerator the block tables replaced: the
    oracle for their stream and its order."""
    if e < 0 or L < 0 or n < 0:
        raise ValueError("parameters must be non-negative")
    cap = min(e, L)

    def rec(prefix, budget):
        if len(prefix) == n:
            yield prefix
            return
        for v in range(0, min(cap, budget) + 1):
            yield from rec(prefix + (v,), budget - v)

    yield from rec((), e)


def min_pattern_erasures(x: BitArray, y: BitArray, patterns_by_weight) -> int:
    """Independent oracle for the distance: the lightest pattern whose
    erasure makes the two arrays identical (direct masked comparison)."""
    for weight, patterns in patterns_by_weight:
        for masks in patterns:
            if all((a & m) == (b & m) for a, b, m in zip(x.rows, y.rows, masks)):
                return weight
    raise AssertionError("full erasure always equalizes")


def patterns_grouped_by_weight(e: int, L: int, n: int):
    """Patterns as per-row keep-masks, grouped and sorted by total weight."""
    groups = {}
    for p in enumerate_patterns(e, L, n):
        masks = tuple((1 << (L - pi)) - 1 for pi in p)
        groups.setdefault(sum(p), []).append(masks)
    return sorted(groups.items())


@lru_cache(maxsize=None)
def _deleted(word: tuple, s: int) -> frozenset:
    """Every word left by deleting s positions of `word`."""
    return frozenset(tuple(v for i, v in enumerate(word) if i not in dead)
                     for dead in combinations(range(len(word)), s))


def fll_oracle(x, y) -> int:
    """Minimum s with some s deletions on each side giving equal words."""
    x, y = tuple(x), tuple(y)
    for s in range(len(x) + 1):
        if not _deleted(x, s).isdisjoint(_deleted(y, s)):
            return s
    return len(x)


def code_corrects_all_te(codewords, e: int, L: int, n: int) -> bool:
    """Direct correctability check: no two codewords collide after any
    pattern of at most e tail erasures."""
    for p in enumerate_patterns(e, L, n):
        masks = [(1 << (L - pi)) - 1 for pi in p]
        seen = {}
        for cw in codewords:
            key = tuple(r & m for r, m in zip(cw.rows, masks))
            if key in seen and seen[key] != cw:
                return False
            seen[key] = cw
    return True
