"""Arithmetic over GF(2^m) in polynomial basis.

Field elements are plain ints in [0, 2^m): bit i is the coefficient of x^i,
so the zero element is 0 and the residue of x (the generator alpha) is 2.
Each degree uses a fixed, published primitive polynomial so that every
encoder in this package is bit-reproducible across runs and machines.
Every field of m <= 16, GF(2) included, has exp/log tables for `mul`, `pow`
and `inv`; "no log tables" means m > 16 throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Primitive polynomials over GF(2), one per extension degree.  Bit i is the
# coefficient of x^i (the x^m term included).  Standard minimal-weight table
# (Zierler/Stahnke); each makes x a generator of the multiplicative group.
PRIMITIVE_POLYS = {
    1: 0b11,                    # x + 1
    2: 0b111,                   # x^2 + x + 1
    3: 0b1011,                  # x^3 + x + 1
    4: 0b10011,                 # x^4 + x + 1
    5: 0b100101,                # x^5 + x^2 + 1
    6: 0b1000011,               # x^6 + x + 1
    7: 0b10000011,              # x^7 + x + 1
    8: 0b100011101,             # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,            # x^9 + x^4 + 1
    10: 0b10000001001,          # x^10 + x^3 + 1
    11: 0b100000000101,         # x^11 + x^2 + 1
    12: 0b1000001010011,        # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,       # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,      # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,     # x^15 + x + 1
    16: 0b10001000000001011,    # x^16 + x^12 + x^3 + x + 1
    17: 0b100000000000001001,   # x^17 + x^3 + 1
    18: 0b1000000000010000001,  # x^18 + x^7 + 1
    19: 0b10000000000000100111,
    20: 0b100000000000000001001,
    21: 0b1000000000000000000101,
    22: 0b10000000000000000000011,
    23: 0b100000000000000000100001,
    24: 0b1000000000000000010000111,
    25: 0b10000000000000000000001001,
    26: 0b100000000000000000001000111,
    27: 0b1000000000000000000000100111,
    28: 0b10000000000000000000000001001,
    29: 0b100000000000000000000000000101,
    30: 0b1000000000000000000000001010011,
    31: 0b10000000000000000000000000001001,
}

_LOG_TABLE_MAX_M = 16


@dataclass(frozen=True)
class Gf2m:
    """The field GF(2^m) with a fixed primitive polynomial.

    alpha (= 2, the residue of x) generates the multiplicative group, so
    alpha**(2^m - 1) == 1 and no smaller positive power is 1.  For m <= 16
    the tables are built here, and a polynomial breaking that raises
    ValueError; past it they are None.
    """

    m: int
    poly: int
    _exp: tuple = field(default=None, init=False, repr=False, compare=False)
    _log: tuple = field(default=None, init=False, repr=False, compare=False)
    # Size of the multiplicative group, 2^m - 1, stored once for the hot
    # mul/inv/pow paths.
    _units: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        m, n = self.m, (1 << self.m) - 1
        object.__setattr__(self, "_units", n)
        if m > _LOG_TABLE_MAX_M:
            return
        # exp holds alpha^i for i < 2(2^m - 1), so that the sum of two logs
        # needs no reduction, then zeros up to index 4(2^m - 1): log[0] is
        # 2(2^m - 1), so any sum involving it lands among them.
        exp = [0] * (4 * n + 1)
        log = [2 * n] * (n + 1)
        # alpha must first return to 1 at step 2^m - 1, with exp[n - 1] set.
        x = 1
        for i in range(n):
            exp[i] = exp[i + n] = x
            log[x] = i
            x <<= 1            # times alpha = x, reduced by the polynomial
            if x >> m:
                x ^= self.poly
            if x == 1:
                break
        if x != 1 or not exp[n - 1]:
            raise ValueError(f"polynomial {self.poly:#b} is not primitive of degree {m}")
        object.__setattr__(self, "_exp", tuple(exp))
        object.__setattr__(self, "_log", tuple(log))

    @property
    def order(self) -> int:
        """Number of field elements, 2^m."""
        return 1 << self.m

    @property
    def alpha(self) -> int:
        return 2 if self.m > 1 else 1

    def _mul_slow(self, a: int, b: int) -> int:
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.poly
        return result

    def mul(self, a: int, b: int) -> int:
        log = self._log
        if log is None:      # m > 16
            return self._mul_slow(a, b)
        # log[0] points past every sum of two nonzero logs, into the zero
        # region of the extended exp table: no zero test, no modulo.
        return self._exp[log[a] + log[b]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        if self._log is not None:
            return self._exp[(self._log[a] * e) % self._units]
        e %= self._units
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self._log is not None:
            # alpha^-l == alpha^(2^m - 1 - l), an index in 1 .. 2^m - 1 of
            # the doubled exp table (a negative one would read the zero
            # region).
            return self._exp[self._units - self._log[a]]
        return self.pow(a, self._units - 1)

    def alpha_pow(self, e: int) -> int:
        return self.pow(self.alpha, e)


def field_make(m: int) -> Gf2m:
    """Build GF(2^m), 1 <= m <= 31, with the published primitive polynomial."""
    if m not in PRIMITIVE_POLYS:
        raise ValueError(f"extension degree must be in 1..31, got {m}")
    return Gf2m(m, PRIMITIVE_POLYS[m])
