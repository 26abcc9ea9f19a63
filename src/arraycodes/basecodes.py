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

from typing import NamedTuple, Tuple

from .field import field_make


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

def bch_generator(mu: int, designed_distance: int, with_parity_factor: bool = False) -> int:
    """Generator polynomial of a narrow-sense BCH code of length 2^mu - 1.

    The product of (x - alpha^j) over the root exponents J: the cyclotomic
    cosets {i 2^k mod 2^mu - 1} of i = 1 .. designed_distance - 1, plus
    j = 0 when with_parity_factor asks for the factor (x + 1) of the
    even-weight subcode (one more consecutive root at alpha^0).  J is closed
    under doubling, so the product, expanded one root at a time with field
    coefficients (low degree first), must have every coefficient in {0, 1}.
    """
    f = field_make(mu)
    units = (1 << mu) - 1
    roots = {0} if with_parity_factor else set()
    for i in range(1, designed_distance):
        j = i % units
        while j not in roots:
            roots.add(j)
            j = 2 * j % units
    poly = [1]
    exp, log = f._exp, f._log
    for j in roots:
        if log is None:      # no log tables: m = 1 or m > 16
            c = f.alpha_pow(j)
            poly = [hi ^ f.mul(lo, c) for hi, lo in zip([0] + poly, poly + [0])]
        else:                # log[0] + j indexes the zero region of exp
            poly = [hi ^ exp[log[lo] + j] for hi, lo in zip([0] + poly, poly + [0])]
    if max(poly) > 1:
        raise AssertionError("BCH generator has a non-binary coefficient")
    return sum(c << k for k, c in enumerate(poly))


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
    m = bch_degree(n + 4)
    g = bch_generator(m, 5, with_parity_factor=True)
    if g.bit_length() - 1 != 2 * m + 1:
        raise AssertionError("unexpected generator degree for the distance-6 cyclic base")
    return cyclic_pcm(g, n + 4), m
