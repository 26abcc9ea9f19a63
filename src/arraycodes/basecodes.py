"""Base binary codes feeding the array-code constructions.

Three families are needed: shortened Hamming codes (distance 3), their
single-parity extensions (distance 4), and shortened cyclic/BCH codes for
distances 5 and 6.  Each builder returns its parity check in column form,
`ParityColumns(r, columns)`: one r-bit int per code coordinate, the form
the constructions interleave into array cells.  Cyclic codes are handled
through their generator polynomial g(x): column j is x^j mod g(x), so
membership is exactly divisibility by g.  Shortening keeps a window of
consecutive coordinates, which preserves the cyclic-shift arguments the
distance proofs rely on.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from .field import Gf2m, field_make


class ParityColumns(NamedTuple):
    """A binary parity check: columns[j] is the r-bit column of coordinate
    j, and a word c is a codeword iff the columns of its one bits XOR to 0."""

    r: int
    columns: Tuple[int, ...]


def hamming_pcm(n: int) -> ParityColumns:
    """Parity check of an [n, n-r, 3] shortened Hamming code.

    Columns are the binary representations of 1..n; r = ceil(log2(n+1)).
    Any two columns are distinct and nonzero, so the distance is 3
    (for n >= 3; shorter codes degenerate but stay valid parity checks).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return ParityColumns(max(1, n.bit_length()), tuple(range(1, n + 1)))


def extended_hamming_pcm(n: int) -> ParityColumns:
    """Parity check of the [n+1, n-r, 4] extension of hamming_pcm(n).

    Appends an overall parity coordinate: columns become (h_j, 1) plus the
    new column (0, 1), the parity bit being bit r.
    """
    r, columns = hamming_pcm(n)
    parity = 1 << r
    return ParityColumns(r + 1, tuple(c | parity for c in columns) + (parity,))


# --- cyclic machinery -------------------------------------------------------

def _poly_mul(a: int, b: int) -> int:
    """Multiply binary polynomials (ints, bit i = coeff of x^i)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def minimal_polynomial(f: Gf2m, elem: int) -> int:
    """Minimal polynomial over GF(2) of an element of GF(2^m).

    Computed as prod (x - c) over the conjugacy class {elem^(2^k)}; the
    product is expanded with field-coefficient polynomials and must come out
    with coefficients in {0, 1}.
    """
    conjugates = []
    c = elem
    while c not in conjugates:
        conjugates.append(c)
        c = f.mul(c, c)
    # poly as list of field coefficients, low degree first; start with 1
    poly: List[int] = [1]
    for c in conjugates:
        nxt = [0] * (len(poly) + 1)
        for i, coef in enumerate(poly):
            nxt[i + 1] ^= coef           # x * coef
            nxt[i] ^= f.mul(coef, c)     # (-c) * coef, char 2
        poly = nxt
    out = 0
    for i, coef in enumerate(poly):
        if coef not in (0, 1):
            raise AssertionError("minimal polynomial has non-binary coefficient")
        out |= coef << i
    return out


def bch_generator(mu: int, designed_distance: int, with_parity_factor: bool = False) -> int:
    """Generator polynomial of a narrow-sense BCH code of length 2^mu - 1.

    lcm of the minimal polynomials of alpha^1 .. alpha^(designed_distance-1);
    with_parity_factor additionally multiplies by (x + 1), giving the
    even-weight subcode (one more consecutive root at alpha^0).
    """
    f = field_make(mu)
    factors = []
    seen_roots = set()
    for i in range(1, designed_distance):
        root = f.alpha_pow(i)
        if root in seen_roots:
            continue
        mp = minimal_polynomial(f, root)
        factors.append(mp)
        c = root
        while c not in seen_roots:
            seen_roots.add(c)
            c = f.mul(c, c)
    g = 0b11 if with_parity_factor else 1
    for mp in factors:
        g = _poly_mul(g, mp)
    return g


def cyclic_pcm(g: int, length: int) -> ParityColumns:
    """Parity check of the cyclic code with generator g, shortened to a
    window of the first `length` coordinates.

    Column j (0-based) is x^j mod g packed into r = deg(g) bits, so a word
    c is a codeword iff sum c_j (x^j mod g) = 0 iff g divides c(x).
    """
    if g < 1:
        raise ValueError(f"generator polynomial must be positive, got {g}")
    if length < 1:
        raise ValueError("length must be positive")
    r = g.bit_length() - 1
    cols = []
    c = 1 if r else 0    # x^0 mod g, which is 0 when g = 1
    for _ in range(length):
        cols.append(c)
        c <<= 1          # x^(j+1) = x * x^j, reduced once by g
        if c >> r & 1:
            c ^= g
    return ParityColumns(r, tuple(cols))


def bch_degree(length: int) -> int:
    """Degree mu of the shortest BCH code, of length 2^mu - 1 with mu >= 2,
    that has a window of `length` coordinates."""
    return max(2, length.bit_length())


def bch_pcm(length: int, designed_distance: int) -> Tuple[ParityColumns, int]:
    """Shortened narrow-sense BCH parity check for a given window length.

    mu = bch_degree(length).  Returns (pcm, mu).  For designed distance
    2t+1 the redundancy is at most t*mu.
    """
    mu = bch_degree(length)
    even = designed_distance % 2 == 0
    delta = designed_distance if not even else designed_distance - 1
    g = bch_generator(mu, delta, with_parity_factor=even)
    if g.bit_length() - 1 >= (1 << mu) - 1:
        raise ValueError("designed distance too large for this length")
    return cyclic_pcm(g, length), mu


def claim5_base_pcm(n: int) -> Tuple[ParityColumns, int]:
    """Base code for the distance-5 array construction on n rows.

    A [n+4, n+4-(2m+1), >=6] window of the even-weight double-error BCH code
    of length 2^m - 1, m = ceil(log2(n+5)): generator (x+1) m1(x) m3(x).
    Returns (pcm, m); the pcm has r = 2m+1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = (n + 4).bit_length()   # smallest m with 2^m >= n+5
    g = bch_generator(m, 5, with_parity_factor=True)
    expected_r = 2 * m + 1
    if g.bit_length() - 1 != expected_r:
        raise AssertionError("unexpected generator degree for the distance-6 cyclic base")
    return cyclic_pcm(g, n + 4), m
