"""Systematic Reed-Solomon codes over GF(2^m), erasure decoding only.

Codewords are evaluations of a degree < k polynomial at the points
x_i = alpha^i, i = 0 .. n-1, and the message occupies the first k
coordinates.  The code is handled in parity-check form (Roth, Introduction
to Coding Theory, ch. 5-6).  Its dual is the generalized RS code on the same
points with column multipliers v_i = 1 / prod_{j != i} (x_i - x_j), so

    H[r][i] = v_i * x_i^r,    0 <= r < n-k,

is a parity-check matrix: a word is a codeword exactly when its n-k
syndromes vanish.  Encoding multiplies the message by the systematic parity
matrix P[i][p] = L_i(x_{k+p}), where L_i is the Lagrange basis polynomial
of the first k points.  Only erasures occur in this package: the decoder
takes the syndromes of the surviving symbols, builds the erasure locator
and fills each erased symbol by Forney's formula.  The modified syndromes
beyond the erasure count must vanish, or the survivors match no codeword.
H, P and the Forney scale factors depend only on (field, n, k) and are
built once per code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapacityExceededError, NotACodewordError
from .field import Gf2m


class _Tables(NamedTuple):
    points: Tuple[int, ...]                  # x_i = alpha^i
    inv_points: Tuple[int, ...]              # 1 / x_i
    h_rows: Tuple[Tuple[int, ...], ...]      # H[r][i] = v_i x_i^r
    parity_rows: Tuple[Tuple[int, ...], ...]  # parity_rows[p][i] = P[i][p]
    forney_scale: Tuple[int, ...]            # x_i / v_i


@dataclass(frozen=True)
class ReedSolomon:
    """[n, k, n-k+1] systematic Reed-Solomon code over a Gf2m field."""

    field: Gf2m
    n: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ValueError("need 1 <= k <= n")
        if self.n > self.field.order - 1:
            raise ValueError(
                f"length {self.n} exceeds 2^m - 1 = {self.field.order - 1}; "
                "extended evaluation points are not supported")

    @property
    def distance(self) -> int:
        return self.n - self.k + 1

    @property
    def erasure_capacity(self) -> int:
        return self.n - self.k

    @cached_property
    def _tables(self) -> _Tables:
        f, n, k = self.field, self.n, self.k
        mul = f.mul
        x = [f.alpha_pow(i) for i in range(n)]

        def prod_diff(z: int, indices) -> int:
            """prod over j in indices of (z - x_j); minus is xor in GF(2^m)."""
            return reduce(mul, (z ^ x[j] for j in indices), 1)

        inv_v = [prod_diff(x[i], (j for j in range(n) if j != i)) for i in range(n)]
        row = [f.inv(u) for u in inv_v]
        h_rows = []
        for _ in range(n - k):
            h_rows.append(tuple(row))
            row = [mul(h, xi) for h, xi in zip(row, x)]
        inv_denom = [f.inv(prod_diff(x[i], (j for j in range(k) if j != i)))
                     for i in range(k)]
        parity_rows = tuple(
            tuple(mul(inv_denom[i], prod_diff(x[p], (j for j in range(k) if j != i)))
                  for i in range(k))
            for p in range(k, n))
        return _Tables(points=tuple(x),
                       inv_points=tuple(f.inv(xi) for xi in x),
                       h_rows=tuple(h_rows),
                       parity_rows=parity_rows,
                       forney_scale=tuple(mul(xi, u) for xi, u in zip(x, inv_v)))

    def _syndromes(self, word: Sequence[int]) -> List[int]:
        mul = self.field.mul
        return [reduce(xor, map(mul, row, word), 0) for row in self._tables.h_rows]

    def encode(self, message: Sequence[int]) -> List[int]:
        """Systematic encoding: output[0:k] equals the message."""
        if len(message) != self.k:
            raise ValueError(f"message must have {self.k} symbols")
        msg = [int(m) for m in message]
        mul = self.field.mul
        return msg + [reduce(xor, map(mul, row, msg), 0)
                      for row in self._tables.parity_rows]

    def decode_erasures(self, received: Sequence[Optional[int]]) -> List[int]:
        """Fill in erased symbols (None entries); returns the full codeword.

        Raises CapacityExceededError with more than n - k erasures and
        NotACodewordError when the survivors are mutually inconsistent.
        """
        if len(received) != self.n:
            raise ValueError("received word has the wrong length")
        erased = [i for i, v in enumerate(received) if v is None]
        if len(erased) > self.erasure_capacity:
            raise CapacityExceededError(
                f"{len(erased)} erasures exceed capacity {self.erasure_capacity}")
        f = self.field
        mul = f.mul
        tables = self._tables
        word = [0 if v is None else int(v) for v in received]
        syn = self._syndromes(word)
        # Erasure locator Lambda(z) = prod_{j erased} (1 + x_j z), low first.
        lam = [1]
        for j in erased:
            xj = tables.points[j]
            lam = [a ^ mul(b, xj) for a, b in zip(lam + [0], [0] + lam)]
        # Modified syndromes S(z) Lambda(z) mod z^(n-k): the first len(erased)
        # form the evaluator Omega, the rest are zero exactly when some
        # codeword agrees with every surviving symbol.
        eps = len(erased)
        modified = [reduce(xor, (mul(lam[a], syn[d - a]) for a in range(min(d, eps) + 1)))
                    for d in range(self.n - self.k)]
        if any(modified[eps:]):
            raise NotACodewordError("surviving symbols are not consistent with any codeword")
        omega = modified[:eps]
        # Formal derivative: only odd powers of Lambda survive in char 2.
        lam_prime = [lam[d + 1] if d % 2 == 0 else 0 for d in range(eps)]
        for j in erased:
            z = tables.inv_points[j]
            num = den = 0
            for w, l in zip(reversed(omega), reversed(lam_prime)):
                num = mul(num, z) ^ w
                den = mul(den, z) ^ l
            # Forney: v_j c_j = x_j Omega(1/x_j) / Lambda'(1/x_j).
            word[j] = mul(mul(num, tables.forney_scale[j]), f.inv(den))
        return word

    def message_of(self, codeword: Sequence[int]) -> List[int]:
        return [int(v) for v in codeword[: self.k]]

    def is_codeword(self, word: Sequence[int]) -> bool:
        if len(word) != self.n:
            return False
        return not any(self._syndromes(word))
