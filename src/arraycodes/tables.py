"""Reproduction of the three summary tables at desk scale.

Upper-bound columns are measured from actually constructed parity checks
(GF(2) rank of the column set); closed forms are evaluated next to them so
regeneration can assert integer equality.  Lower-bound columns evaluate the
printed closed forms; the computable packing values are reported alongside
for context but are not always equal to the printed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .bounds import te_sphere_packing
from .dc import DcCode
from .te import construct_claim5, construct_hasse, construct_interleaved
from .vt import vt_modulus_exponent


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


@dataclass(frozen=True)
class TableRow:
    table: str
    params: Dict[str, object]
    columns: Dict[str, object]

    def record(self) -> str:
        parts = [f"table={self.table}"]
        parts.extend(f"{k}={v}" for k, v in self.params.items())
        parts.extend(f"{k}={v}" for k, v in self.columns.items())
        return " ".join(parts)


# --- Table I: redundancy of tail-erasure codes, arrays n x (d-1) -------------

def table_i_closed_upper(n: int, d: int) -> int:
    if d == 2:
        return 1
    if d == 3:
        return _ceil_log2(n + 1)
    if d == 4:
        return _ceil_log2(n + 1) + 1
    if d == 5:
        return min(2 * _ceil_log2(n + 5) + 1, 2 * _ceil_log2(2 * n + 1))
    raise ValueError("closed forms cover d in 2..5")


def table_i_closed_lower(n: int, d: int) -> int:
    if d == 2:
        return 1
    if d in (3, 4):
        return _ceil_log2(n + 1)
    if d == 5:
        return 2 * _ceil_log2(n + 1) - 1
    raise ValueError("closed forms cover d in 2..5")


def table_i_construct(n: int, d: int):
    """The constructions behind the upper column; returns the best parity
    check (smallest measured redundancy) for the row."""
    if d == 5:
        return min(construct_claim5(n), construct_interleaved(n, 5), key=lambda H: H.redundancy)
    if d in (2, 3, 4):
        return construct_interleaved(n, d)
    raise ValueError("constructions cover d in 2..5")


def table_i(n_values: Iterable[int], d_values: Iterable[int]) -> List[TableRow]:
    rows = []
    for n in n_values:
        for d in d_values:
            H = table_i_construct(n, d)
            upper_closed = table_i_closed_upper(n, d)
            lower_closed = table_i_closed_lower(n, d)
            packing = te_sphere_packing(n, d - 1, d)["redundancy_lower_bound"]
            rows.append(TableRow(
                "I", {"n": n, "L": d - 1, "d": d},
                {"upper_measured": H.redundancy,
                 "upper_closed": upper_closed,
                 "lower_closed": lower_closed,
                 "lower_packing": packing,
                 "gap": H.redundancy - lower_closed}))
    return rows


# --- Table II: redundancy of the derivative-family constructions -------------

def _table_ii_closed(L: int, e: int) -> Tuple[int, int]:
    """(a, c) of the cell's closed form a*log2(n) + c."""
    if e not in (2, 3, 4, 5):
        raise ValueError("table covers e in 2..5")
    return (1 if e <= 3 else 2), (1 if e == 2 else 2 if L == 2 else 3)


def table_ii_formula(L: int, e: int) -> str:
    a, c = _table_ii_closed(L, e)
    return f"{'' if a == 1 else f'{a}*'}log2(n)+{c}"


def table_ii_cell(n: int, L: int, e: int) -> int:
    """Closed-form cell instantiated at n: exact for powers of two, the
    integer ceiling otherwise (redundancy is an integer)."""
    a, c = _table_ii_closed(L, e)
    return math.ceil(a * math.log2(n) + c - 1e-9)


# The (L, e) cells of each n, in the paper's order.
_TABLE_II_CELLS = tuple((L, e) for e in (2, 3, 4, 5) for L in (2, 3, 4))


def table_ii(n_values: Iterable[int]) -> List[TableRow]:
    rows = []
    for n in n_values:
        for L, e in _TABLE_II_CELLS:
            H = construct_hasse(n, L, e)
            rows.append(TableRow(
                "II", {"n": n, "L": L, "e": e},
                {"upper_measured": H.redundancy,
                 "cell_closed": table_ii_cell(n, L, e),
                 "formula": table_ii_formula(L, e)}))
    return rows


# --- Table III: redundancy of (t,1) deletion-correcting codes ----------------

def table_iii(params: Iterable) -> List[TableRow]:
    """params: iterable of (n, L, t).  The closed forms of the constructive
    column, one per regime, and the regimes that apply at n.  An n or t
    below 1 raises ValueError before any row is built."""
    params = list(params)
    for n, L, t in params:
        if n < 1 or t < 1:
            raise ValueError(f"Table III needs n >= 1 and t >= 1, got n = {n}, t = {t}")
    rows = []
    for n, L, t in params:
        h = vt_modulus_exponent(L)
        measured = None
        if t < n <= (1 << h) - 1:
            code = DcCode(n, L, t)
            measured = n * L - code.message_bits
        applicable = []
        if n <= (1 << h) + 1:
            applicable.append("n<=2^h+1")
        if n % (1 << h) == 0:
            applicable.append("n=c*2^h")
        applicable.append("general")
        rows.append(TableRow("III", {"n": n, "L": L, "t": t, "s": 1}, {
            "h": h, "upper_measured": measured,
            "closed[n<=2^h+1]": t * h,
            "closed[n=c*2^h]": t * math.log2(n),
            "closed[general]": t * (math.log2(n) + h),
            "applicable": ",".join(applicable)}))
    return rows


def render_rows(rows: Sequence[TableRow], fmt: str = "text") -> str:
    if fmt == "records":
        return "\n".join(r.record() for r in rows) + "\n"
    if not rows:
        return ""
    headers: List[str] = []
    for r in rows:
        for k in list(r.params) + list(r.columns):
            if k not in headers:
                headers.append(k)
    table = [["table"] + headers]
    for r in rows:
        merged = {**r.params, **r.columns}
        table.append([r.table] + [str(merged.get(h, "")) for h in headers])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"
