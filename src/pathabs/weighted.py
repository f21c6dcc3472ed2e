"""Semiring-weighted detours and their commutation.

The weighted detour clears the row and column of the detoured vertex and adds
the product through it to every other entry; on the boolean semiring this is
arc-for-arc the plain detour.  Weighted detours need not commute: the exact
criterion (cancellative carriers) is a 2-cycle between the two vertices plus an
asymmetric through-product, and a witness entry is returned when it fires.
``weighted_detour`` is the per-vertex reference for ``pabstract.detour_set``
where no dropped cycle lies on a route between distinct survivors.

A multigraph here is simply a counting-semiring digraph whose arc values are
multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .digraph import Digraph, DigraphError, contract_blocks


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


def weighted_detour(d: Digraph, v: int) -> Digraph:
    """Clear v's row and column; add the product through v everywhere else."""
    d.require_vertex(v)
    s = d.semiring
    arcs = {k: val for k, val in d.arcs.items() if k[0] != v and k[1] != v}
    into = {x: val for (x, y), val in d.arcs.items() if y == v}
    outof = {y: val for (x, y), val in d.arcs.items() if x == v}
    for x, a in into.items():
        for y, b in outof.items():
            if x == y:
                continue
            total = _add(s, arcs.get((x, y)), _mul(s, a, b))
            total = s.normalize(total)
            if total is None:
                arcs.pop((x, y), None)
            else:
                arcs[(x, y)] = total
    return Digraph(d.vertices, arcs, s, dict(d.merged))


def double_detour(d: Digraph, v: int, w: int) -> Digraph:
    """Detour at v, then at w."""
    if v == w:
        raise DigraphError("double detour needs two distinct vertices")
    return weighted_detour(weighted_detour(d, v), w)


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
    left = contract_blocks(weighted_detour(d, u), [{v, w}])
    right = weighted_detour(contract_blocks(d, [{v, w}]), u)
    return left == right
