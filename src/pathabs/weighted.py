"""When semiring-weighted detours commute, with each other and with contraction.

``pabstract.detour`` clears the row and column of the detoured vertex and adds
the product through it to every other entry.  Two such detours need not
commute: the exact criterion (cancellative carriers) is a 2-cycle between the
two vertices plus an asymmetric through-product, and a witness entry is
returned when it fires.  A detour and the contraction of two other vertices
always commute.

A multigraph here is simply a counting-semiring digraph whose arc values are
multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .digraph import Digraph, DigraphError, contract_blocks
from .pabstract import detour


def _mul(s, a, b):
    """Product with absence propagation: absent times anything is absent."""
    if a is None or b is None:
        return None
    return s.mul(a, b)


def _add(s, a, b):
    """Sum with absence as the neutral case."""
    if a is None:
        return b
    if b is None:
        return a
    return s.add(a, b)


def double_detour(d: Digraph, v: int, w: int) -> Digraph:
    """Detour at v, then at w."""
    if v == w:
        raise DigraphError("double detour needs two distinct vertices")
    return detour(detour(d, v), w)


def double_detour_entry(d: Digraph, v: int, w: int, x: int, y: int):
    """Closed-form entry of the double detour, for cross-checking.

    Off the rows/columns of {v, w} and off the diagonal, detouring v then w
    accumulates the direct value, both one-stop products, both two-stop
    products, and the v-w-v three-stop product.
    """
    if len({v, w, x, y}) != 4:
        raise DigraphError("entry formula needs four distinct vertices")
    s = d.semiring
    mu = d.value
    total = mu(x, y)
    total = _add(s, total, _mul(s, mu(x, v), mu(v, y)))
    total = _add(s, total, _mul(s, mu(x, w), mu(w, y)))
    total = _add(s, total, _mul(s, _mul(s, mu(x, v), mu(v, w)), mu(w, y)))
    total = _add(s, total, _mul(s, _mul(s, mu(x, w), mu(w, v)), mu(v, y)))
    loop = _mul(s, mu(v, w), mu(w, v))
    total = _add(s, total, _mul(s, _mul(s, mu(x, v), loop), mu(v, y)))
    return s.normalize(total) if total is not None else None


@dataclass(frozen=True)
class CommutationReport:
    commute: bool
    witness: Optional[tuple[int, int]] = None


def detours_commute(d: Digraph, v: int, w: int) -> CommutationReport:
    """Decide whether detouring v then w equals detouring w then v.

    For cancellative carriers (counting, real) the exact criterion is: the
    detours differ iff v and w carry a 2-cycle and some entry (x, y) off their
    rows/columns has asymmetric through-products mu(x,v)*mu(v,y) !=
    mu(x,w)*mu(w,y); the first such (x, y) in sorted order is the witness.
    On idempotent-addition carriers (boolean, min-plus) the extra term is
    absorbed and detours always commute.
    """
    if v == w:
        raise DigraphError("commutation needs two distinct vertices")
    d.require_vertex(v)
    d.require_vertex(w)
    s = d.semiring
    if not s.cancellative:
        return CommutationReport(commute=True)
    if d.value(v, w) is None or d.value(w, v) is None:
        return CommutationReport(commute=True)
    others = sorted(d.vertices - {v, w})
    for x in others:
        for y in others:
            if x == y:
                continue
            through_v = _mul(s, d.value(x, v), d.value(v, y))
            through_w = _mul(s, d.value(x, w), d.value(w, y))
            if through_v != through_w:
                return CommutationReport(commute=False, witness=(x, y))
    return CommutationReport(commute=True)


def weighted_contract_commutes(d: Digraph, u: int, v: int, w: int) -> bool:
    """Detour at u and contraction of {v, w} commute; always true."""
    if len({u, v, w}) != 3:
        raise DigraphError("needs three distinct vertices")
    left = contract_blocks(detour(d, u), [{v, w}])
    right = detour(contract_blocks(d, [{v, w}]), u)
    return left == right
