"""Row-deletion-correcting array codes: each row is a codeword of a VT coset
and the coset labels, read as field symbols, form a Reed-Solomon codeword.

A deletion shortens its row, so damaged row indices are visible from the
lengths alone; the outer code recovers their VT syndromes as erasures and
the VT decoder repairs each short row.  With an MDS outer code the
redundancy is t * ceil(log2(L+1)) bits for up to t single-deletion rows.
That is the combined code with no tail bits in its symbols, so the codec
is `TedCode` with e = 0.
"""

from __future__ import annotations

from .ted import TedCode


class DcCode(TedCode):
    """(t,1)-deletion-correcting code over n x L arrays.

    phi, the bijection between syndrome residues and field elements, is the
    binary-representation map; any other bijection gives an equivalent code.
    """

    def __init__(self, n: int, L: int, t: int):
        if not (1 <= t < n):
            raise ValueError("need 1 <= t < n")
        super().__init__(n, L, t, 0)

    def descriptor(self) -> dict:
        desc = super().descriptor()
        desc["kind"] = "dc"
        del desc["e"]
        return desc
