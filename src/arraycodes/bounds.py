"""Cardinality bounds and ball volumes for the three error models.

Everything that can be exact is exact: big integers for counts and
products, Fractions for ratio bounds.  The one exception is the combined
upper bound whose denominator contains sqrt/ln; it is evaluated in double
precision and labelled as asymptotic guidance.  Brute-force counterparts
(ball enumeration, maximum code search) live here too so each formula can
be cross-checked at desk scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from .arrays import (BitArray, _damaged_rows, _fll_rows, rho_te_distance,
                     run_stats)


@dataclass(frozen=True)
class BoundReport:
    name: str
    params: Tuple[Tuple[str, object], ...]
    value: object
    provenance: str                 # "formula" | "brute-force" | "construction"
    note: str = ""

    def record(self) -> str:
        parts = [f"name={self.name}"]
        parts.extend(f"{k}={v}" for k, v in self.params)
        parts.append(f"value={self.value}")
        parts.append(f"provenance={self.provenance}")
        if self.note:
            parts.append(f"note={self.note!r}")
        return " ".join(parts)


def _report(name: str, params: dict, value, provenance: str, note: str = "") -> BoundReport:
    return BoundReport(name, tuple(sorted(params.items())), value, provenance, note)


# --- tail-erasure ball volumes ----------------------------------------------

def v_te_general(r: int, n: int, L: int) -> int:
    """Ball volume under the tail-erasure metric, any radius.

    A row is at distance w >= 1 from a given row in 2^(w-1) ways (w <= L),
    so the volume is the sum of the coefficients up to z^r of
    (1 + sum_{w=1..L} 2^(w-1) z^w)^n, which `arrays._damaged_rows`
    evaluates with q = (2^0, ..., 2^(min(L, r) - 1)).
    """
    if r < 0 or n < 0 or L < 0:
        raise ValueError("arguments must be non-negative")
    return _damaged_rows(n, [1 << w for w in range(min(L, r))], min(r, n * L))


def v_te_small(r: int, n: int, L: int) -> int:
    """Simplified volume for r <= L:
    1 + sum_{k=1..r} sum_{i=1..k} C(n,i) C(k-1,i-1) 2^(k-i)."""
    if r > L:
        raise ValueError("this expression requires r <= L")
    if r < 0:
        raise ValueError("radius must be non-negative")
    total = 1
    for k in range(1, r + 1):
        for i in range(1, k + 1):
            total += math.comb(n, i) * math.comb(k - 1, i - 1) * (1 << (k - i))
    return total


def ball_count_brute(center: BitArray, r: int) -> int:
    """|{Y : rho_TE(center, Y) <= r}| by full enumeration of the 2^(nL)
    arrays, guarded at nL <= 16 (0.7 s in CPython 3.11 on a 2-CPU Xeon)."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    n, L = center.n, center.L
    if n * L > 16:
        raise ValueError(f"combinatorial guard: n*L <= 16, got {n * L}")
    count = 0
    for value in range(1 << (n * L)):
        rows = tuple((value >> (i * L)) & ((1 << L) - 1) for i in range(n))
        y = BitArray(n, L, rows)
        if rho_te_distance(center, y) <= r:
            count += 1
    return count


def te_sphere_packing(n: int, L: int, d: int) -> Dict[str, object]:
    """Packing bound M <= 2^(nL) / V(floor((d-1)/2)) plus the implied
    redundancy lower bound ceil(log2 V)."""
    if d < 1:
        raise ValueError(f"d must be at least 1, got d = {d}")
    r = (d - 1) // 2
    vol = v_te_general(r, n, L)
    m_max = (1 << (n * L)) // vol
    red_lb = (vol - 1).bit_length()   # ceil(log2 vol) for vol >= 1
    return {"radius": r, "volume": vol, "m_max": m_max,
            "redundancy_lower_bound": red_lb,
            "report": _report("te-sphere-packing", {"n": n, "L": L, "d": d},
                              m_max, "formula",
                              note=f"redundancy >= {red_lb}")}


def claim8_bound(n: int, d: int, a_nd: int, a_nd_provenance: str = "supplied") -> BoundReport:
    """Column-split bound: at most A(n,d) * 2^(n(d-2)) arrays."""
    if d < 2:
        raise ValueError("needs d >= 2")
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    if a_nd < 1:
        raise ValueError(f"A(n,d) must be at least 1, got {a_nd}")
    value = a_nd * (1 << (n * (d - 2)))
    return _report("te-column-split", {"n": n, "d": d, "A(n,d)": a_nd},
                   value, "formula", note=f"A(n,d) {a_nd_provenance}")


def singleton_te(n: int, L: int, M: int) -> int:
    """d <= nL - ceil(log2 M) + 1."""
    if n < 0 or L < 0:
        raise ValueError("n and L must be non-negative")
    if M < 1:
        raise ValueError("M must be positive")
    return n * L - (M - 1).bit_length() + 1


# --- deletion-side bounds -----------------------------------------------------

def dc_bound_part1(n: int, L: int, t: int, s: int, m_s_L: int,
                   m_provenance: str = "supplied") -> BoundReport:
    """Largest (t,s) code is at most (M_s(L))^t * 2^(L(n-t))."""
    if not (0 <= t <= n):
        raise ValueError("need 0 <= t <= n")
    if L < 0:
        raise ValueError(f"need L >= 0, got L = {L}")
    if s < 0:
        raise ValueError(f"need s >= 0, got s = {s}")
    if m_s_L < 1:
        raise ValueError("M_s(L) must be positive")
    value = (m_s_L ** t) * (1 << (L * (n - t)))
    return _report("dc-first-rows", {"n": n, "L": L, "t": t, "s": s, "M_s(L)": m_s_L},
                   value, "formula", note=f"M_s(L) {m_provenance}")


def dc_bound_part2(n: int, L: int, t: int, s: int) -> Dict[str, object]:
    """Packing bound for t, s >= 2, exact rational."""
    if t < 2 or s < 2:
        raise ValueError("this bound needs t >= 2 and s >= 2")
    if n < 1 or L < 1:
        raise ValueError("n and L must be positive")
    th, sh = t // 2, s // 2
    denom = (Fraction(n, th) * Fraction(L, sh) ** sh) ** th
    value = Fraction(1 << (n * L)) / denom
    red_lb = float(th * (math.log2(n) + sh * math.log2(L)))
    return {"value": value,
            "redundancy_lower_bound": red_lb,
            "report": _report("dc-packing", {"n": n, "L": L, "t": t, "s": s},
                              value, "formula",
                              note=f"redundancy >= ~{red_lb:.3f} asymptotically")}


def dc_bound_part3(n: int, L: int, t: int) -> Dict[str, object]:
    """Packing bound for s = 1, t >= 2: (2^(nL)+1) / (n/floor(t/2))^floor(t/2)."""
    if t < 2:
        raise ValueError("this bound needs t >= 2")
    if n < 1 or L < 1:
        raise ValueError("n and L must be positive")
    th = t // 2
    value = Fraction((1 << (n * L)) + 1) / (Fraction(n, th) ** th)
    red_lb = float(th * math.log2(n))
    return {"value": value,
            "redundancy_lower_bound": red_lb,
            "report": _report("dc-packing-s1", {"n": n, "L": L, "t": t, "s": 1},
                              value, "formula",
                              note=f"redundancy >= ~{red_lb:.3f} asymptotically")}


# --- maximum-code searches ----------------------------------------------------

# The most vertices one search's clique covers may visit: about 10 s in
# CPython 3.11 on a shared 2-CPU Xeon.
_SEARCH_WORK = 16_000_000


def _max_independent_set(adjacency: List[int], cap: Optional[int] = None) -> int:
    """Branch-and-bound maximum independent set; adjacency[v] is a bitset.

    The pruning bound is a greedy clique cover of the candidate set (each
    cover clique contributes at most one vertex), which is what makes the
    confusability graphs tractable.  The optional cap allows early exit
    once a known upper bound is met.  Its time does not follow from the
    graph's size: past `_SEARCH_WORK` cover visits it raises ValueError.
    """
    nverts = len(adjacency)
    full = (1 << nverts) - 1
    best = 0
    work = 0

    def greedy(candidates: int) -> int:
        size = 0
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            size += 1
            candidates &= ~(adjacency[v] | (1 << v))
        return size

    def clique_cover_bound(candidates: int) -> int:
        count = 0
        rem = candidates
        while rem:
            count += 1
            low = rem & -rem
            v = low.bit_length() - 1
            rem &= ~low
            joint = adjacency[v]
            grow = rem & joint
            while grow:
                ulow = grow & -grow
                u = ulow.bit_length() - 1
                rem &= ~ulow
                joint &= adjacency[u]
                grow = rem & joint
        return count

    best = greedy(full)
    if cap is not None and best >= cap:
        return best

    def expand(candidates: int, size: int):
        # recursion only on the include branch (depth <= solution size);
        # exclusion iterates in place
        nonlocal best, work
        while candidates:
            work += candidates.bit_count()     # what the cover below visits
            if work > _SEARCH_WORK:
                raise ValueError(f"combinatorial guard: the search exceeds "
                                 f"{_SEARCH_WORK} vertex visits")
            if size + clique_cover_bound(candidates) <= best:
                return
            if cap is not None and best >= cap:
                return
            low = candidates & -candidates
            v = low.bit_length() - 1
            expand(candidates & ~(adjacency[v] | low), size + 1)
            candidates &= ~low
        if size > best:
            best = size

    expand(full, 0)
    return best


@lru_cache(maxsize=None)
def m_s_brute(L: int, s: int) -> int:
    """Exact largest s-deletion-correcting code of length L (confusability
    graph independence number).  Guarded at L <= 10 and by the search's
    work budget; s = 1 fits that budget up to L = 7."""
    if L < 0 or s < 0:
        raise ValueError("L and s must be non-negative")
    if L > 10:
        raise ValueError("combinatorial guard: L <= 10")
    if s >= L:
        return 1
    if s == 0:
        return 1 << L
    adjacency = [0] * (1 << L)
    for a in range(1 << L):
        for b in range(a + 1, 1 << L):
            if _fll_rows(a, b, L) <= s:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    return _max_independent_set(adjacency)


def _greedy_lexicode(n: int, d: int) -> int:
    chosen: List[int] = []
    for v in range(1 << n):
        if all((v ^ c).bit_count() >= d for c in chosen):
            chosen.append(v)
    return len(chosen)


def a_n_d_upper(n: int, d: int) -> int:
    """Cheapest valid upper bounds on A(n,d): Singleton, sphere packing,
    and Plotkin where it applies."""
    best = 1 << (n - d + 1)
    radius = (d - 1) // 2
    vol = sum(math.comb(n, i) for i in range(radius + 1))
    best = min(best, (1 << n) // vol)
    if d % 2 == 0 and 2 * d > n:
        best = min(best, 2 * (d // (2 * d - n)))
    if d % 2 == 1 and 2 * d + 1 > n:
        best = min(best, 2 * ((d + 1) // (2 * d + 1 - n)))
    return best


def a_n_d_brute(n: int, d: int) -> int:
    """Exact A(n,d) for small n: greedy lexicode meets a bound where it can,
    branch-and-bound otherwise.  Past d = n only one word fits, since two
    distinct words of length n differ in at most n places.  Between, the
    2^n words are enumerated only for n <= 10."""
    if n < 0:
        raise ValueError("length must be non-negative")
    if d < 1:
        raise ValueError("distance must be at least 1")
    if d == 1:
        return 1 << n
    if d > n:
        return 1
    if n > 10:
        raise ValueError(f"combinatorial guard: n <= 10 for 2 <= d <= n, got n = {n}")
    upper = a_n_d_upper(n, d)
    greedy = _greedy_lexicode(n, d)
    if greedy == upper:
        return greedy
    adjacency = [0] * (1 << n)
    for a in range(1 << n):
        for b in range(a + 1, 1 << n):
            if (a ^ b).bit_count() < d:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    return _max_independent_set(adjacency, cap=upper)


# --- combined-model bound ------------------------------------------------------

def delete_append_ball(x: BitArray, i: int) -> Set[BitArray]:
    """Arrays reachable by deleting one bit of row i then appending a bit."""
    row, L = x.rows[i - 1], x.L
    # row i with position pos + 1 deleted, as a row of L - 1 positions
    shortened = {row & ((1 << pos) - 1) | (row >> (pos + 1)) << pos for pos in range(L)}
    out: Set[BitArray] = set()
    for short in shortened:
        for b in (0, 1):
            rows = list(x.rows)
            rows[i - 1] = short | b << (L - 1)
            out.add(BitArray(x.n, L, tuple(rows)))
    return out


def ted_ball(x: BitArray) -> Dict[str, object]:
    """The per-row delete-append balls, their union, and the run-count
    identities |ball_i| = 2 r(x_i), |union| <= 2 R(X)."""
    per_row = {i: delete_append_ball(x, i) for i in range(1, x.n + 1)}
    union: Set[BitArray] = set()
    for ball in per_row.values():
        union |= ball
    runs, total_runs = run_stats(x)
    sizes_ok = all(len(per_row[i]) == 2 * runs[i - 1] for i in range(1, x.n + 1))
    return {"per_row": per_row, "union": union, "run_counts": runs,
            "total_runs": total_runs, "sizes_match_2r": sizes_ok,
            "union_le_2R": len(union) <= 2 * total_runs}


def ted_upper_bound(n: int, L: int) -> Dict[str, object]:
    """Finite evaluation 2^(nL) / (nL - 2 sqrt(nL ln nL)) next to the
    asymptotic 2^(nL)/(nL); both are guidance, not exact bounds.  Defined
    for 9 <= nL <= 1033: the denominator is positive and the value fits a
    float."""
    if n < 1 or L < 1:
        raise ValueError(f"n and L must be positive, got n = {n}, L = {L}")
    N = n * L
    denom = N - 2.0 * math.sqrt(N * math.log(N))
    if denom <= 0:
        raise ValueError(
            f"finite expression nonpositive for nL = {N}; defined for nL >= 9")
    finite = Fraction(1 << N) / Fraction(denom)
    if finite > sys.float_info.max:
        raise ValueError(f"finite expression past the float range (max "
                         f"{sys.float_info.max:.4g}) for nL = {N}; defined for nL <= 1033")
    asymptotic = Fraction(1 << N, N)
    return {"finite": finite, "asymptotic": asymptotic,
            "redundancy_guidance": math.log2(n) + math.log2(L),
            "report": _report("ted-upper", {"n": n, "L": L},
                              float(finite), "formula",
                              note="asymptotic guidance only")}
