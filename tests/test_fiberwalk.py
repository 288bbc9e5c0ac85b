"""Differential tests of the fiber walk (core._fiber_rows) against the
per-pair loops it replaced.

derived_identities, AlmostGroupoid.is_abelian and center run block masks
over one walk of the in-fiber pairs, and is_morphism one row-sliced block
compare. The loops they replaced are kept here verbatim as oracles; reports,
verdicts and witnesses must be equal, on verified structures and on
unverified mutants, at every cap and with the slice size made small enough
that fibers span several slices.
"""

import random
from typing import Optional

import numpy as np
import pytest

import amg
from amg import core, morphisms
from amg.core import AlmostGroupoid, ElementSubset, Law, Structure, VerificationReport, _Collector
from amg.morphisms import MorphismPair, _check_dims
from conftest import brandt_products, builtin_catalog


# ------------------------------------------------------------ loop oracles


def derived_identities_loops(G: AlmostGroupoid, *, max_violations_per_law: Optional[int] = 100) -> VerificationReport:
    """Exhaustively assert the theorem-level identities of a verified structure.

    Every check is a consequence of the axioms, so a verified structure
    passes them all; reported violations indicate a verifier defect. Each
    violation message starts with the identity name from
    DERIVED_IDENTITY_NAMES. Closure of composability under products is
    implied by theta-of-product together with the table-domain law, and
    injectivity of iota by iota-involution; neither gets a separate check.
    """
    col = _Collector(max_violations_per_law)
    law = Law.DERIVED_IDENTITY
    names, theta, iota = G.names, G.theta, G.iota
    T = G.table.cells
    n = G.order

    def fail(ident: str, witness: tuple[int, ...], detail: str) -> bool:
        return col.add(law, witness, f"{ident}: {detail}")

    for u in G.units:
        if theta[u] != u:
            fail("theta-fixes-units", (u,), f"theta({names[u]}) = {names[theta[u]]}")
        if T[u, u] != u:
            fail("unit-self-product", (u,), f"{names[u]}*{names[u]} != {names[u]}")
        if iota[u] != u:
            fail("iota-fixes-units", (u,), f"inv({names[u]}) = {names[iota[u]]}")

    for u, fib in G.fibers.items():
        for x in fib:
            for y in fib:
                p = int(T[x, y])
                if p < 0 or theta[p] != theta[x]:
                    fail("theta-of-product", (x, y), f"theta({names[x]}*{names[y]}) != theta({names[x]})")

    # theta-of-inverse and theta-after-iota state one predicate, as do
    # double-inverse and iota-involution; each is computed once.
    inverse_moves_theta = [theta[iota[x]] != theta[x] for x in range(n)]
    not_involution = [iota[iota[x]] != x for x in range(n)]

    for x in range(n):
        if inverse_moves_theta[x]:
            fail("theta-of-inverse", (x,), f"theta(inv({names[x]})) != theta({names[x]})")
        if theta[theta[x]] != theta[x]:
            fail("theta-idempotent", (x,), f"theta(theta({names[x]})) != theta({names[x]})")

    for u, fib in G.fibers.items():
        for x in fib:
            row = [int(T[x, y]) for y in fib]
            if len(set(row)) != len(row):
                fail("cancellation", (x,), f"left multiplication by {names[x]} is not injective")
            colv = [int(T[y, x]) for y in fib]
            if len(set(colv)) != len(colv):
                fail("cancellation", (x,), f"right multiplication by {names[x]} is not injective")

    for u, fib in G.fibers.items():
        for x in fib:
            for y in fib:
                p = int(T[x, y])
                if p >= 0 and iota[p] != T[iota[y], iota[x]]:
                    fail("inverse-of-product", (x, y), f"inv({names[x]}*{names[y]}) != inv({names[y]})*inv({names[x]})")

    for x in range(n):
        if not_involution[x]:
            fail("double-inverse", (x,), f"inv(inv({names[x]})) != {names[x]}")

    for u, fib in G.fibers.items():
        for x in fib:
            for y in fib:
                p = int(T[x, y])
                if p < 0:
                    continue
                if T[iota[x], p] != y:
                    fail("solve-in-fiber", (x, y), f"inv({names[x]})*({names[x]}*{names[y]}) != {names[y]}")
                if T[p, iota[y]] != x:
                    fail("solve-in-fiber", (x, y), f"({names[x]}*{names[y]})*inv({names[y]}) != {names[x]}")

    for x in range(n):
        if inverse_moves_theta[x]:
            fail("theta-after-iota", (x,), f"(theta o iota)({names[x]}) != theta({names[x]})")
        if not_involution[x]:
            fail("iota-involution", (x,), f"(iota o iota)({names[x]}) != {names[x]}")

    for u, fib in G.fibers.items():
        for x in fib:
            for y in fib:
                p = int(T[x, y])
                if p == y and x != theta[y]:
                    fail("unit-uniqueness", (x, y), f"{names[x]}*{names[y]} = {names[y]} but {names[x]} != theta({names[y]})")
                if p == x and y != theta[x]:
                    fail("unit-uniqueness", (x, y), f"{names[x]}*{names[y]} = {names[x]} but {names[y]} != theta({names[x]})")

    for a in range(n):
        sq = int(T[a, a])
        if sq < 0 or T[sq, a] < 0:
            fail("small-powers-defined", (a,), f"{names[a]}^2 or {names[a]}^3 is undefined")

    return col.report()


def is_abelian_loops(self) -> bool:
    T = self.table.cells
    for fib in self.fibers.values():
        for i, x in enumerate(fib):
            for y in fib[i + 1 :]:
                if T[x, y] != T[y, x]:
                    return False
    return True


def center_loops(G: AlmostGroupoid) -> ElementSubset:
    """Elements commuting with every member of their fiber."""
    T = G.table.cells
    out = []
    for fib in G.fibers.values():
        for a in fib:
            if all(T[x, a] == T[a, x] for x in fib):
                out.append(a)
    return ElementSubset.from_ids(G, out)


def is_morphism_loops(Gs: Structure, Gt: Structure, m: MorphismPair) -> tuple[bool, Optional[tuple[int, ...]]]:
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
    f, f0 = m.f, m.f0
    for x in range(Gs.order):
        if Gt.alpha[f[x]] != f0[Gs.alpha[x]] or Gt.beta[f[x]] != f0[Gs.beta[x]]:
            return False, (x,)
    Ts, Tt = Gs.table.cells, Gt.table.cells
    for x in range(Gs.order):
        for y in range(Gs.order):
            p = int(Ts[x, y])
            if p < 0:
                continue
            q = int(Tt[f[x], f[y]])
            if q < 0 or q != f[p]:
                return False, (x, y)
    return True, None


# ------------------------------------------------------------------ inputs


def structures():
    out = list(builtin_catalog())
    # runs of fibers of different sizes, so the walk changes block shape
    out.append(("union", amg.disjoint_union(amg.z6_example(), amg.cyclic_group(5))))
    out.append(("product", amg.direct_product(amg.symmetric_group_3(), amg.z_bundle(2, 2))))
    return out


STRUCTURES = structures()
IDS = [name for name, _ in STRUCTURES]
CAPS = (100, 3, 1, None)


@pytest.fixture(params=[core._SLICE, 7, 1], ids=["slice-default", "slice-7", "slice-1"])
def slice_size(request, monkeypatch):
    monkeypatch.setattr(core, "_SLICE", request.param)
    monkeypatch.setattr(morphisms, "_SLICE", request.param)
    return request.param


def mutant(G: AlmostGroupoid, rng: random.Random, edits: int) -> AlmostGroupoid:
    """An unverified copy of G with seeded edits, each one of: a cell set to
    a random element (changing or defining it), a cell undefined, an inverse
    changed, or theta of an element moved to another unit."""
    n = G.order
    T = G.table.cells.copy()
    theta, iota = list(G.theta), list(G.iota)
    for _ in range(edits):
        kind = rng.randrange(4 if len(G.units) > 1 else 3)
        x, y = rng.randrange(n), rng.randrange(n)
        if kind == 0:
            T[x, y] = rng.randrange(n)
        elif kind == 1:
            T[x, y] = -1
        elif kind == 2:
            iota[x] = rng.randrange(n)
        else:
            theta[x] = rng.choice([u for u in G.units if u != theta[x]])
    return AlmostGroupoid(G.names, G.units, theta, iota, T, check=False)


def scrambled(G: AlmostGroupoid, rng: random.Random) -> AlmostGroupoid:
    """An unverified copy of G with every defined cell set to a random element."""
    T = G.table.cells
    noise = np.array([[rng.randrange(G.order) for _ in range(G.order)] for _ in range(G.order)])
    return AlmostGroupoid(G.names, G.units, G.theta, G.iota, np.where(T >= 0, noise, -1), check=False)


def assert_walk_equals_loops(G: AlmostGroupoid, label: str) -> None:
    for cap in CAPS:
        got = amg.derived_identities(G, max_violations_per_law=cap)
        assert got == derived_identities_loops(G, max_violations_per_law=cap), (label, cap)
        assert all(type(w) is int for v in got.violations for w in v.witness)
    assert G.is_abelian() == is_abelian_loops(G), label
    assert amg.center(G) == center_loops(G), label


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("name,G", STRUCTURES, ids=IDS)
def test_walk_equals_loops_on_builtins(name, G, slice_size):
    assert amg.derived_identities(G).passed
    assert_walk_equals_loops(G, name)


@pytest.mark.parametrize("name,G", STRUCTURES, ids=IDS)
def test_walk_equals_loops_on_mutants(name, G, slice_size):
    rng = random.Random(name)
    for i in range(10):
        M = mutant(G, rng, rng.choice((1, 1, 2, 5, 40)))
        assert_walk_equals_loops(M, f"{name} mutant {i}")


def test_shared_cap_keeps_the_first_failures_in_loop_order(slice_size):
    """Mutants with well over 100 derived-identity failures spread over
    several identities, so the shared cap truncates across them."""
    rng = random.Random(11)
    for G in (amg.z6_example(), amg.matrix_bundle(5), amg.cyclic_group(12)):
        S = scrambled(G, rng)
        full = derived_identities_loops(S, max_violations_per_law=None)
        assert len(full.violations) > 100
        assert len({v.message.split(":")[0] for v in full.violations}) > 3
        for M in (S, mutant(G, rng, 60)):
            assert_walk_equals_loops(M, repr(G))


def relabelled(G: Structure, perm: list[int]) -> Structure:
    """The copy of G whose element x is perm[x], named as before."""
    P = np.asarray(perm)
    back = np.argsort(P)
    T = G.table.cells
    table = np.where(T >= 0, P[T], -1)[np.ix_(back, back)]
    maps = [tuple(P[np.asarray(getattr(G, label))][back].tolist()) for label in G._maps]
    names = tuple(G.names[x] for x in back.tolist())
    return type(G)(names, sorted(perm[u] for u in G.units), *maps, table)


def morphism_cases():
    almost = [G for _, G in STRUCTURES]
    brandt = [amg.pair_groupoid(k) for k in range(1, 5)] + [amg.rstar_groupoid(5, 2)]
    brandt += [amg.almost_to_brandt(G) for G in almost[::3]]
    brandt += [B for _, B in brandt_products()]
    rng = random.Random(5)
    for G in almost + brandt:
        perm = list(range(G.order))
        rng.shuffle(perm)
        yield G, G, list(range(G.order)), {u: u for u in G.units}
        yield G, relabelled(G, perm), perm, {u: perm[u] for u in G.units}
    for m, n in ((2, 3), (2, 6), (3, 4)):
        G = amg.z_bundle(m, n)
        yield G, amg.cyclic_group(n), [x % n for x in range(G.order)], {u: 0 for u in G.units}


def test_is_morphism_equals_loop(slice_size):
    rng = random.Random(3)
    failures = 0
    for Gs, Gt, f, f0 in morphism_cases():
        maps = [(f, f0)]
        for _ in range(3):  # one to three images moved
            g = list(f)
            for _ in range(rng.randint(1, 3)):
                g[rng.randrange(len(g))] = rng.randrange(Gt.order)
            maps.append((g, f0))
        if len(Gt.units) > 1:
            u = rng.choice(Gs.units)
            maps.append((f, {**f0, u: rng.choice([v for v in Gt.units if v != f0[u]])}))
        for g, g0 in maps:
            m = amg.MorphismPair(tuple(g), dict(g0))
            got = amg.is_morphism(Gs, Gt, m)
            assert got == is_morphism_loops(Gs, Gt, m), (Gs, Gt, g, g0)
            assert got[1] is None or all(type(w) is int for w in got[1])
            failures += not got[0]
    assert failures > 100


BRANDT = [(f"pair{k}", amg.pair_groupoid(k)) for k in (2, 3)] + brandt_products()


@pytest.mark.parametrize("name,B", BRANDT, ids=[name for name, _ in BRANDT])
def test_center_equals_loop_on_brandt_groupoids(name, B, slice_size):
    assert amg.center(B) == center_loops(B), name


def test_find_isomorphism_of_relabelled_brandt_product():
    """pair(2) x Z4 has isotropy groups of order 4, so the search must match
    element orders within them; pair(2) x Klein four has the same shape and
    other element orders."""
    P = dict(brandt_products())["pair2_x_z4"]
    perm = list(range(P.order))
    random.Random(16).shuffle(perm)
    copy = relabelled(P, perm)
    m = amg.find_isomorphism(P, copy)
    assert m is not None and amg.is_isomorphism(P, copy, m)
    other = amg.direct_product(amg.pair_groupoid(2), amg.klein_four_group())
    assert amg.find_isomorphism(P, other) is None
