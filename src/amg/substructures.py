"""Substructure constructions and predicates for finite groupoids of both
kinds, written over composability: x*y is defined iff beta(x) = alpha(y).

All operations are pure and read-only over verified structures; results are
ElementSubset values sorted by element index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import AlmostGroupoid, ElementSubset, Structure, _fiber_rows


class EmptyIntersectionError(Exception):
    """Intersection of a subgroupoid family is empty."""


@dataclass(frozen=True)
class SubgroupoidReport:
    """Closure verdicts for a candidate subgroupoid.

    is_normal implies is_wide implies is_subgroupoid; units holds the image
    of the candidate under the units map(s); witness names the first
    violating element or pair when a check fails.
    """

    is_subgroupoid: bool
    is_wide: bool
    is_normal: bool
    units: ElementSubset
    witness: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.is_normal and not self.is_wide:
            raise ValueError("normal requires wide")
        if self.is_wide and not self.is_subgroupoid:
            raise ValueError("wide requires subgroupoid")


def _require_owned(G: Structure, H: ElementSubset) -> None:
    if H.owner is not G:
        raise ValueError("subset belongs to a different structure")
    if not H.members:
        raise ValueError("subset must be non-empty")


def is_subgroupoid(G: Structure, H: ElementSubset) -> SubgroupoidReport:
    """Check closure of H under defined products and inversion, wideness, normality.

    The unit set of H is its image under alpha and beta; H is wide when both
    images are the whole unit set. Normality uses the defined conjugates
    g*h*inv(g), which requires alpha(h) = beta(h) = beta(g).
    """
    _require_owned(G, H)
    mem = set(H.members)
    T = G.table.cells
    alpha, beta, iota = G.alpha, G.beta, G.iota

    witness: Optional[tuple[int, ...]] = None
    closed = True
    for x in H.members:
        for y in H.members:
            if beta[x] == alpha[y] and int(T[x, y]) not in mem:
                closed = False
                witness = (x, y)
                break
        if not closed:
            break
    if closed:
        for x in H.members:
            if iota[x] not in mem:
                closed = False
                witness = (x,)
                break

    sources = {alpha[x] for x in H.members}
    targets = {beta[x] for x in H.members}
    units_h = ElementSubset.from_ids(G, sources | targets)
    wide = closed and sources == G._unit_set == targets

    normal = wide
    if wide:
        for h in H.members:
            if alpha[h] != beta[h]:
                continue
            for g in G._by_target[alpha[h]]:
                conj = int(T[int(T[g, h]), iota[g]])
                if conj not in mem:
                    normal = False
                    witness = (g, h)
                    break
            if not normal:
                break

    return SubgroupoidReport(closed, wide, normal, units_h, witness)


is_almost_subgroupoid = is_brandt_subgroupoid = is_subgroupoid


def isotropy_subgroupoid(G: Structure) -> ElementSubset:
    """Union of all isotropy groups: the elements x with alpha(x) = beta(x).
    For an almost groupoid this is the carrier."""
    return ElementSubset.from_ids(G, (x for fib in G.fibers.values() for x in fib))


brandt_isotropy_subgroupoid = isotropy_subgroupoid


def disjoint_union_subgroupoids(G: Structure, *subgroupoids: ElementSubset) -> ElementSubset:
    """Union of a pairwise-disjoint family of subgroupoids of G.

    Raises ValueError when members overlap or fail the subgroupoid check;
    the result is re-checked and is a subgroupoid with the union of the
    members' unit sets.
    """
    if not subgroupoids:
        raise ValueError("at least one subgroupoid required")
    seen: set[int] = set()
    for H in subgroupoids:
        rep = is_subgroupoid(G, H)
        if not rep.is_subgroupoid:
            raise ValueError(f"input {H!r} is not a subgroupoid (witness {rep.witness})")
        overlap = seen & set(H.members)
        if overlap:
            raise ValueError(f"inputs are not disjoint; shared element {G.names[min(overlap)]}")
        seen.update(H.members)
    out = ElementSubset.from_ids(G, seen)
    if not is_subgroupoid(G, out).is_subgroupoid:
        raise RuntimeError("disjoint union failed the subgroupoid check")
    return out


def centralizer(G: Structure, a: int) -> ElementSubset:
    """Elements g of the isotropy group at alpha(a) with g*a = a*g; none
    when alpha(a) != beta(a), as a*g is then undefined."""
    if not 0 <= a < G.order:
        raise IndexError(f"element index out of range: {a}")
    T = G.table.cells
    fib = G.fibers[G.alpha[a]]
    return ElementSubset.from_ids(G, (g for g in fib if T[g, a] == T[a, g]))


def center(G: Structure) -> ElementSubset:
    """Elements commuting with every member of their isotropy group."""
    T = G.table.cells
    out: list[int] = []
    for xs, ys in _fiber_rows(G):
        out += xs[(T[xs, ys] == T[ys, xs]).all(axis=-1), 0].tolist()
    return ElementSubset.from_ids(G, out)


def set_product(G: Structure, H: ElementSubset, K: ElementSubset) -> ElementSubset:
    """All defined products h*k with h in H and k in K, deduplicated and sorted."""
    _require_owned(G, H)
    _require_owned(G, K)
    T = G.table.cells
    alpha, beta = G.alpha, G.beta
    out = {
        int(T[h, k])
        for h in H.members
        for k in K.members
        if beta[h] == alpha[k]
    }
    return ElementSubset.from_ids(G, out)


def hk_commutes(G: Structure, H: ElementSubset, K: ElementSubset) -> bool:
    """True iff the set products HK and KH coincide."""
    return set_product(G, H, K).members == set_product(G, K, H).members


def intersect_subgroupoids(G: Structure, family: Sequence[ElementSubset]) -> ElementSubset:
    """Intersection of a family of subgroupoids; empty intersections are an error."""
    if not family:
        raise ValueError("at least one subgroupoid required")
    for H in family:
        rep = is_subgroupoid(G, H)
        if not rep.is_subgroupoid:
            raise ValueError(f"input {H!r} is not a subgroupoid (witness {rep.witness})")
    common = set(family[0].members)
    for H in family[1:]:
        common &= set(H.members)
    if not common:
        raise EmptyIntersectionError("subgroupoids have empty intersection")
    return ElementSubset.from_ids(G, common)


def generated_subgroupoid(G: Structure, S: ElementSubset) -> ElementSubset:
    """Smallest subgroupoid containing S, by worklist closure under inversion
    and the defined products x*y and y*x of each new x with the members y."""
    _require_owned(G, S)
    T = G.table.cells
    alpha, beta, iota = G.alpha, G.beta, G.iota
    members = set(S.members)
    queue = list(S.members)
    while queue:
        x = queue.pop()
        ax, bx = alpha[x], beta[x]
        new = {iota[x]}
        for y in members:
            if bx == alpha[y]:
                new.add(int(T[x, y]))
            if beta[y] == ax:
                new.add(int(T[y, x]))
        new -= members
        members |= new
        queue += new
    return ElementSubset.from_ids(G, members)


def cyclic_subgroupoid(G: Structure, a: int) -> ElementSubset:
    """All powers of a, a cyclic subgroup of the isotropy group at alpha(a);
    a, inv(a) and their units when alpha(a) != beta(a)."""
    if not 0 <= a < G.order:
        raise IndexError(f"element index out of range: {a}")
    e = G.alpha[a]
    if G.beta[a] != e:
        return ElementSubset.from_ids(G, (a, G.iota[a], e, G.beta[a]))
    out = {e}
    cur = a
    while cur != e:
        out.add(cur)
        cur = G.mul(cur, a)
    return ElementSubset.from_ids(G, out)


def fiber_group(S: Structure, u: int) -> AlmostGroupoid:
    """The isotropy group at u packaged as a one-unit almost groupoid.

    Element names are inherited from S; the single unit is u itself.
    """
    fib = S.isotropy_group(u).members
    pos = {x: i for i, x in enumerate(fib)}
    names = tuple(S.names[x] for x in fib)
    e = pos[u]
    theta = tuple(e for _ in fib)
    iota = tuple(pos[S.iota[x]] for x in fib)
    rows = [[pos[S.mul(x, y)] for y in fib] for x in fib]
    return AlmostGroupoid(names, (e,), theta, iota, rows)
