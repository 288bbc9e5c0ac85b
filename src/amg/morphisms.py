"""Morphism checking and isomorphism search between finite structures.

A morphism is the pair (f, f0): f maps the source carrier into the target
carrier, f0 maps source units to target units. f0 is stored explicitly so
the compatibility condition is a checkable equation rather than a
definition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import _SLICE, Structure

ISO_SEARCH_BOUND = 64


@dataclass
class MorphismPair:
    """Carrier map f (target ids, indexed by source id) and units map f0."""

    f: tuple[int, ...]
    f0: dict[int, int] = field(default_factory=dict)

    @classmethod
    def identity(cls, G: Structure) -> "MorphismPair":
        return cls(tuple(range(G.order)), {u: u for u in G.units})


def _check_dims(Gs: Structure, Gt: Structure, m: MorphismPair) -> None:
    if len(m.f) != Gs.order:
        raise ValueError(f"map has {len(m.f)} entries, source order is {Gs.order}")
    for v in m.f:
        if not 0 <= v < Gt.order:
            raise ValueError(f"map value {v} out of range for the target")
    if set(m.f0) != set(Gs.units):
        raise ValueError("unit map must cover exactly the source units")
    for v in m.f0.values():
        if not 0 <= v < Gt.order:
            raise ValueError(f"unit map value {v} out of range for the target")


def is_morphism(Gs: Structure, Gt: Structure, m: MorphismPair) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Check f(x*y) = f(x)*f(y) on composable pairs and the anchor conditions
    alpha' o f = f0 o alpha and beta' o f = f0 o beta (theta' o f = f0 o theta
    for almost groupoids).

    The anchor conditions are checked first (witness (x,)), then products
    over composable pairs in index order (witness (x, y)); an undefined
    target product counts as a product violation.
    """
    if type(Gs) is not type(Gt):
        raise TypeError("source and target must be structures of the same kind")
    _check_dims(Gs, Gt, m)
    f, f0, n = m.f, m.f0, Gs.order
    sa, sb, ta, tb = Gs.alpha, Gs.beta, Gt.alpha, Gt.beta
    for x, fx in enumerate(f):
        if ta[fx] != f0[sa[x]] or tb[fx] != f0[sb[x]]:
            return False, (x,)
    Ts, Tt = Gs.table.cells, Gt.table.cells
    fa = np.array(f, dtype=np.intp)
    rows = max(1, _SLICE // n)
    for lo in range(0, n, rows):
        P = Ts[lo : lo + rows]
        bad = (P >= 0) & (Tt[fa[lo : lo + rows, None], fa] != fa[P])  # fa[-1] is masked
        if bad.any():  # argmax finds the first failing cell in index order
            x, y = divmod(int(bad.argmax()), n)
            return False, (lo + x, y)
    return True, None


is_almost_morphism = is_brandt_morphism = is_morphism


def is_isomorphism(Gs: Structure, Gt: Structure, m: MorphismPair) -> bool:
    """True iff m is a morphism and both f and f0 are bijections."""
    ok, _ = is_morphism(Gs, Gt, m)
    if not ok:
        return False
    if Gs.order != Gt.order or len(set(m.f)) != Gt.order:
        return False
    if len(Gs.units) != len(Gt.units):
        return False
    return set(m.f0.values()) == set(Gt.units)


def _fiber_signatures(G: Structure, orders: dict[int, int]) -> dict[int, tuple]:
    """Unit -> isotropy group order, out- and in-degree, and sorted element orders."""
    out_deg = Counter(G.alpha)
    in_deg = Counter(G.beta)
    return {
        u: (len(fib), out_deg[u], in_deg[u], tuple(sorted(orders[x] for x in fib)))
        for u, fib in G.fibers.items()
    }


def find_isomorphism(Gs: Structure, Gt: Structure) -> Optional[MorphismPair]:
    """Backtracking search for an isomorphism; None when there is none.

    Units are matched first against units with equal fiber signatures
    (isotropy group order, degree counts and element orders); each
    remaining element is matched, in ascending index order, against the
    targets whose anchors are the images of its anchors and, for elements
    of an isotropy group, whose element order is the same. Candidates are
    tried in ascending order, so the search is deterministic and returns
    the identity for G against itself.
    """
    if type(Gs) is not type(Gt):
        raise TypeError("source and target must be structures of the same kind")
    if Gs.order > ISO_SEARCH_BOUND or Gt.order > ISO_SEARCH_BOUND:
        raise ValueError(f"isomorphism search is bounded at order {ISO_SEARCH_BOUND}")
    if Gs.order != Gt.order or len(Gs.units) != len(Gt.units):
        return None

    order_s = {x: Gs.element_order(x) for fib in Gs.fibers.values() for x in fib}
    order_t = {x: Gt.element_order(x) for fib in Gt.fibers.values() for x in fib}
    sig_s = _fiber_signatures(Gs, order_s)
    sig_t = _fiber_signatures(Gt, order_t)
    if sorted(sig_s.values()) != sorted(sig_t.values()):
        return None

    n = Gs.order
    Ts, Tt = Gs.table.cells.tolist(), Gt.table.cells.tolist()  # lists: fast cell reads
    variables = list(Gs.units) + [x for x in range(n) if not Gs.is_unit(x)]
    anchored_t: dict[tuple[int, int], list[int]] = {}
    for t in range(n):
        anchored_t.setdefault((Gt.alpha[t], Gt.beta[t]), []).append(t)

    preimages: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # x -> pairs with product x
    for a, row in enumerate(Ts):
        for b, p in enumerate(row):
            if p >= 0:
                preimages[p].append((a, b))

    f = [-1] * n
    used = [False] * n
    assigned: list[int] = []

    def candidates(x: int) -> list[int]:
        if x in sig_s:
            return [t for t in Gt.units if sig_t[t] == sig_s[x]]
        pool = anchored_t.get((f[Gs.alpha[x]], f[Gs.beta[x]]), [])
        return [t for t in pool if order_t.get(t) == order_s.get(x)]

    def consistent(x: int, t: int) -> bool:
        ix = Gs.iota[x]
        if ix == x:
            if Gt.iota[t] != t:
                return False
        elif f[ix] != -1 and Gt.iota[t] != f[ix]:
            return False
        for a in assigned + [x]:
            fa = t if a == x else f[a]
            for (p, q), (fp, fq) in (((a, x), (fa, t)), ((x, a), (t, fa))):
                ps = Ts[p][q]
                pt = Tt[fp][fq]
                if (ps >= 0) != (pt >= 0):
                    return False
                if ps >= 0:
                    fr = t if ps == x else f[ps]
                    if fr != -1 and fr != pt:
                        return False
        for a, b in preimages[x]:
            if f[a] != -1 and f[b] != -1 and Tt[f[a]][f[b]] != t:
                return False
        return True

    def extend(k: int) -> bool:
        if k == n:
            return True
        x = variables[k]
        for t in candidates(x):
            if used[t] or not consistent(x, t):
                continue
            f[x] = t
            used[t] = True
            assigned.append(x)
            if extend(k + 1):
                return True
            assigned.pop()
            f[x] = -1
            used[t] = False
        return False

    if not extend(0):
        return None
    pair = MorphismPair(tuple(f), {u: f[u] for u in Gs.units})
    if not is_isomorphism(Gs, Gt, pair):
        raise RuntimeError("search produced a non-isomorphism")
    return pair
