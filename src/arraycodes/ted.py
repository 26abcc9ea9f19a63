"""Combined tail-erasure + deletion correcting codes.

Each row contributes the tuple (VT syndrome, last e bits), packed into one
symbol of GF(2^(h+e)); the n symbols must form a codeword of an outer
Reed-Solomon code of distance t+e+1.  Any row shortened by the channel is
an outer erasure; once its tuple is back, a row missing k >= 2 bits gets
its known tail re-attached and the one remaining gap is a plain VT
deletion, whatever mix of tail loss and deletion actually occurred.  The
symbols of the received rows, short ones included, come from one pass
over the array, so the VT repair takes its deficiency as the filled
residue minus the received one, less the position sum of any re-attached
tail bits, and no repair sums a received row again.

With e = 0 the symbol is the VT syndrome alone: that is the (t,1)
deletion-correcting code, `arraycodes.dc.DcCode`.  Rows stay bitset ints
from the message to the decoded array.

One width rule splits each path of the codec: a row of at most 8
positions is a byte, and reads the tables of `TedCode._byte_rows`, built
once per code.  Longer rows go through their symbols, `ReedSolomon._parity`
and `vt_encode_int` to encode, and `vt_insert` to repair.  The row-split
kernel, `arrays._split_rows`, cuts the systematic rows of both.  A gather
for longer rows would take a tuple per byte of the row, which measured
slower than the int path they keep: each parity row's data, read back with
`vt_data_int`, is gathered in the loop that reads it, the systematic rows
are packed below it by `arrays._join_rows`, the inverse of the split, and
one unpack gives the message.  Encoding likewise cuts each parity row's
data from the message in the loop that writes the row.

Every symbol is below 2^(h+e) by construction, so the codec calls the outer
code's private kernels, `ReedSolomon._parity` and the fill
`ReedSolomon._fill_erasures` (built once per outer code), and reads its
parity rows `_tables.par` at symbols, all of which trust their caller on
that range.

Decoding checks its own output: the outer fill returns the syndrome of the
intact rows' symbols, and since syndromes are linear, that syndrome XOR the
syndrome rows of the repaired rows' own symbols is the syndrome of the
returned array, so the membership re-check costs O(eps) in the number eps
of damaged rows, not O(n).  It runs inside the repair loop, in the one pass
over the damaged rows: on the outer code's byte lanes (h + e <= 8) a
repaired row's own symbol indexes its position's syndrome row; wider
symbols are re-checked together by `ReedSolomon._syndrome_at` after the
loop.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress
from operator import getitem, xor
from typing import List, Optional, Sequence

from .arrays import (BitArray, RaggedArray, _bit_array, _cell_gather, _check_bit_array,
                     _check_received, _int_to_row, _join_rows, _row_to_int, _split_rows)
from .errors import (CapacityExceededError, ChannelContractError,
                     CorruptInputError, NotACodewordError)
from .field import PRIMITIVE_POLYS, field_make
from .rs import ReedSolomon
from .vt import (_BYTE_SUM, _LOW_BITS, _NO_INSERTION, _encode_table, _insert_table,
                 position_residues, position_sum, vt_data_int, vt_encode_int, vt_insert,
                 vt_modulus_exponent)

# The largest extension degree m that `field_make` builds GF(2^m) for.
_WIDEST_FIELD = max(PRIMITIVE_POLYS)


# `TedCode._byte_rows`: the tables of rows of at most 8 positions.
_ByteRows = namedtuple("_ByteRows", "theta parity codewords gather repair")


def theta_symbol(row_bits: Sequence[int], e: int, h: int) -> int:
    """Pack a row's (VT syndrome mod 2^h, last e bits) into one element of
    GF(2^(h+e)): syndrome in the low h bits, tail above it (earliest tail
    bit lowest)."""
    L = len(row_bits)
    row = _row_to_int(row_bits)
    s = position_sum(row, L.bit_length()) & ((1 << h) - 1)
    return s | (row >> (L - e)) << h


@dataclass(frozen=True)
class TedCode:
    """(t,1,e) tail-erasure-deletion code over n x L arrays.

    The symbol packing puts the h syndrome bits low and the e tail bits
    high (tail bit of position L-e+1 first); the packing is a fixed
    bijection, so serialized codecs stay stable.
    """

    n: int
    L: int
    t: int
    e: int

    def __post_init__(self):
        if any(type(v) is not int for v in (self.n, self.L, self.t, self.e)):
            raise TypeError("n, L, t and e must be ints")
        if self.n < 1 or self.L < 1:
            raise ValueError("n and L must be positive")
        if self.t < 0 or self.e < 0:
            raise ValueError("need t >= 0 and e >= 0")
        if self.R >= self.n:
            raise ValueError("t + e must be smaller than n")
        h = self.h
        if not self.e < (self.L + 1) - (1 << (h - 1)):
            raise ValueError(
                f"systematic encoding needs e < (L+1) - 2^(h-1) = "
                f"{self.L + 1 - (1 << (h - 1))}; the last e positions would "
                f"collide with the VT redundancy positions")
        if h + self.e > _WIDEST_FIELD:
            raise ValueError(
                f"outer field GF(2^{h + self.e}) is not supported: h + e = "
                f"{h + self.e} exceeds {_WIDEST_FIELD}, the widest field")
        if self.n > (1 << (h + self.e)) - 1:
            raise ValueError(
                f"outer Reed-Solomon code over GF(2^{h + self.e}) supports at "
                f"most {(1 << (h + self.e)) - 1} rows, got n={self.n}")

    @cached_property
    def h(self) -> int:
        return vt_modulus_exponent(self.L)

    @property
    def R(self) -> int:
        """Outer erasure capacity, t + e redundancy rows."""
        return self.t + self.e

    @property
    def message_bits(self) -> int:
        """K = n*L - R*(e+h)."""
        return self.n * self.L - self.R * (self.e + self.h)

    @cached_property
    def outer(self) -> ReedSolomon:
        return ReedSolomon(field_make(self.h + self.e), self.n, self.n - self.R)

    @cached_property
    def _byte_rows(self) -> Optional[_ByteRows]:
        """The tables of rows of at most 8 positions, None for longer rows.
        Such a row is a byte, and such a code has h + e <= 6 (h <= 4, e <= 3,
        e = 0 at L = 8), so every outer symbol fits in a byte and is one
        chunk of the outer code: `par` holds one row per systematic row.

        - theta: entry v is theta of the row int v, so an array's symbols
          are one `translate`: `_BYTE_SUM` read through `_LOW_BITS[h]`, the
          tail bits OR-ed in as one 256-byte int.
        - parity: entry [i][v] is the outer parity row of systematic row i
          at theta(v), v < 2^L, so the parity is one XOR over the systematic
          rows; at most 56 x 128 references to ints of `par` (TED(63,7,e=3)).
        - codewords: `vt._encode_table(L)`, read once per parity row at its
          data, tail and VT residue.
        - gather: `arrays._cell_gather` of every position of the systematic
          rows, then the first L - e - h data positions of each parity row,
          so `message_of` reads each row as one tuple.
        - repair: `vt._insert_table(L)`, read once per damaged row, the
          re-attached tail's sum read from `_BYTE_SUM`; its sentinel for a
          deficiency past L raises the CorruptInputError of `vt_insert`."""
        L, h, e = self.L, self.h, self.e
        if L > 8:
            return None
        theta = _BYTE_SUM.translate(_LOW_BITS[h])
        if e:
            tails = bytes((v >> (L - e)) << h for v in range(256))
            theta = (int.from_bytes(theta, "little")
                     | int.from_bytes(tails, "little")).to_bytes(256, "little")
        values = theta[:1 << L]
        k = self.n - self.R
        # position j + 1 is a VT power position exactly when j & (j + 1) == 0
        data = [j for j in range(L) if j & (j + 1)][:L - e - h]
        cells = chain(range(k * L), (i * L + j for i in range(k, self.n) for j in data))
        return _ByteRows(
            theta=theta,
            parity=tuple(tuple(map(row.__getitem__, values)) for row in self.outer._tables.par),
            codewords=_encode_table(L), gather=_cell_gather(cells, L), repair=_insert_table(L))

    def _symbols(self, rows: Sequence[int]) -> List[int]:
        """theta of each full-length row int, a new list: one `translate`
        through the byte rows' theta up to 8 positions, and beyond, the VT
        residues themselves when e = 0."""
        byte_rows = self._byte_rows
        if byte_rows is not None:
            return list(bytes(rows).translate(byte_rows.theta))
        h, e = self.h, self.e
        residues = position_residues(rows, h)
        if not e:
            return residues
        shift = self.L - e
        return [s | (row >> shift) << h for s, row in zip(residues, rows)]

    def membership(self, x: BitArray) -> bool:
        _check_bit_array(x, self.n, self.L)
        return self.outer.is_codeword(self._symbols(x.rows))

    def encode(self, message: Sequence[int]) -> BitArray:
        K = self.message_bits
        if len(message) != K:
            raise ValueError(f"message must have {K} bits")
        n, L, R, h, e = self.n, self.L, self.R, self.h, self.e
        k = n - R
        m = _row_to_int(message)
        rows = _split_rows(m, k, L)
        outer = self.outer
        byte_rows = self._byte_rows
        if byte_rows is not None:
            # one parity row per systematic row, read at the row's value
            parity = outer._unpack(reduce(xor, map(getitem, byte_rows.parity, rows), 0))
            codewords = byte_rows.codewords
        else:
            parity = outer._parity(self._symbols(rows))
            codewords = None
        # The R = t + e parity rows' data is cut in the loop that writes
        # them: a kernel call would cost more than these few shifts.
        rest = m >> (k * L)
        per_row = L - e - h
        dmask, hmask = (1 << per_row) - 1, (1 << h) - 1
        parity_rows = []
        for i, symbol in enumerate(parity):
            data = (rest >> (i * per_row)) & dmask
            tail = symbol >> h
            # The feasibility precondition keeps the last e positions out of
            # the power positions, so appending the tail to the data lands
            # the tail bits exactly at positions L-e+1 .. L.
            data |= tail << per_row
            if codewords is not None:
                row = codewords[data << h | symbol & hmask]
            else:
                row = vt_encode_int(data, symbol & hmask, L)
            if row >> (L - e) != tail:
                raise AssertionError("tail placement violated; encoder bug")
            parity_rows.append(row)
        return _bit_array(n, L, rows + tuple(parity_rows))

    def message_of(self, x: BitArray) -> List[int]:
        _check_bit_array(x, self.n, self.L)
        byte_rows = self._byte_rows
        if byte_rows is not None:
            rows = x.rows
            message: List[int] = []
            for i, shift, table in byte_rows.gather:
                message += table[rows[i] >> shift & 255]
            return message
        L, k = self.L, self.n - self.R
        per_row = L - self.e - self.h
        mask = (1 << per_row) - 1
        # The parity rows' data, last row first, gathered in the loop that
        # reads it (a kernel call would cost more at R = t + e rows); then
        # the systematic rows below it, packed by the kernel.
        rows = x.rows
        m = 0
        for row in reversed(rows[k:]):
            m = m << per_row | vt_data_int(row, L) & mask
        m = m << k * L | _join_rows(rows[:k], L)
        return _int_to_row(m, k * L + self.R * per_row)

    def decode(self, received: RaggedArray) -> BitArray:
        _check_received(received, type(self).__name__, self.n, self.L)
        L, e, h = self.L, self.e, self.h
        lost = received.lost
        damaged = list(compress(range(self.n), lost))
        if max(lost) > e + 1:
            i = next(i for i in damaged if lost[i] > e + 1)
            raise ChannelContractError(
                f"row {i + 1} lost {lost[i]} bits; at most e+1 = {e + 1} "
                f"can disappear from one row of this channel")
        if len(damaged) > self.R:
            raise CapacityExceededError(
                f"{len(damaged)} damaged rows exceed capacity t+e = {self.R}")
        # Damaged rows enter the outer code as erasures, 0 until filled.  The
        # low h bits of a short row's received symbol are its VT residue.
        received_symbols = self._symbols(received.rows)
        word = received_symbols.copy()
        for i in damaged:
            word[i] = 0
        outer = self.outer
        try:
            syndrome = outer._fill_erasures(word, damaged)
        except NotACodewordError as exc:
            raise CorruptInputError("intact rows disagree with the outer code") from exc
        # The membership re-check runs in the repair loop: on the outer
        # code's byte lanes (h + e <= 8) a symbol indexes its position's
        # syndrome row.
        syn = outer._tables.syn if outer._tables.byte_lanes else None
        byte_rows = self._byte_rows
        theta, repair = (None, None) if byte_rows is None else (byte_rows.theta, byte_rows.repair)
        rows = list(received.rows)
        repaired = []     # theta of each repaired row, on wider fields only
        hmask = (1 << h) - 1
        for i in damaged:
            symbol = word[i]
            tail = symbol >> h
            row = rows[i]
            k = lost[i]
            # The VT deficiency: the filled residue minus the received one
            # (the tails above them cancel mod 2^h).
            deficiency = symbol - received_symbols[i]
            if k > 1:
                # Re-attach the k-1 known trailing bits; whatever mix of tail
                # loss and deletion occurred, the result is the original row
                # minus exactly one bit.
                known = (tail >> (e - k + 1)) << (L - k)
                row |= known
                deficiency -= (_BYTE_SUM[known] if repair is not None
                               else position_sum(known, h))
            # the repaired row, and theta of it from its own bits
            if repair is not None:
                full = repair[(deficiency & hmask) << (L - 1) | row]
                if full is None:
                    raise CorruptInputError(_NO_INSERTION)
                own = theta[full]
            else:
                full = vt_insert(row, deficiency & hmask, L)
                own = position_sum(full, h) & hmask | full >> (L - e) << h
            if own >> h != tail:
                raise CorruptInputError(
                    f"row {i + 1} decodes with the wrong tail; input out of contract")
            rows[i] = full
            if syn is not None:
                syndrome ^= syn[i][own]
            else:
                repaired.append(own)
        if repaired:
            syndrome ^= outer._syndrome_at(damaged, repaired)
        # Intact rows are returned as received: with the repaired rows' own
        # symbols this is the returned array's syndrome.
        if syndrome:
            raise CorruptInputError("decoded array fails the membership rule")
        return _bit_array(self.n, L, tuple(rows))

    def descriptor(self) -> dict:
        return {"kind": "ted", "n": self.n, "L": self.L, "t": self.t, "e": self.e,
                "outer": {"q": 1 << (self.h + self.e), "n": self.n,
                          "k": self.n - self.R}}
