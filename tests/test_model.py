"""Differential tests of the shared model: an almost groupoid is the Brandt
groupoid with alpha = beta = theta, so both presentations must give the
same verdicts and witnesses."""

import random

import pytest

import amg
from amg.core import Law
from conftest import brandt_products, builtin_catalog

CATALOG = builtin_catalog()
LAW_PAIRS = {
    Law.TABLE_DOMAIN: Law.TABLE_DOMAIN,
    Law.AG1: Law.B1_ASSOC,
    Law.AG2: Law.B2_IDENTITIES,
    Law.AG3: Law.B3_INVERSES,
    Law.THETA_SURJECTIVE: Law.ALPHA_BETA_SURJECTIVE,
}


def cell_mutants(G, rng: random.Random):
    """One table per cell: a defined cell is changed or undefined, an
    undefined one defined, each at random."""
    T = G.table.cells
    n = G.order
    for x in range(n):
        for y in range(n):
            M = T.copy()
            if T[x, y] < 0:
                M[x, y] = rng.randrange(n)
            elif n > 1 and rng.random() < 0.5:
                M[x, y] = rng.choice([v for v in range(n) if v != T[x, y]])
            else:
                M[x, y] = -1
            yield (x, y), M


def witnesses(report, law):
    return [v.witness for v in report.violations if v.law == law]


@pytest.mark.parametrize("name,G", CATALOG, ids=[name for name, _ in CATALOG])
def test_verify_brandt_of_alpha_eq_beta_matches_verify_almost(name, G):
    rng = random.Random(name)
    tables = [((-1, -1), G.table.cells)] + list(cell_mutants(G, rng))
    for cell, M in tables:
        for cap in (100, 1):
            a = amg.verify_almost(G.names, G.units, G.theta, G.iota, M, max_violations_per_law=cap)
            b = amg.verify_brandt(G.names, G.units, G.theta, G.theta, G.iota, M,
                                  max_violations_per_law=cap)
            assert a.passed == b.passed and a.truncated == b.truncated, (name, cell, cap)
            assert set(a.failed_laws()) <= set(LAW_PAIRS), (name, cell)
            assert {LAW_PAIRS[law] for law in a.failed_laws()} == set(b.failed_laws()), (name, cell)
            for law, twin in LAW_PAIRS.items():
                assert witnesses(a, law) == witnesses(b, twin), (name, cell, cap, law)


@pytest.mark.parametrize("name,G", CATALOG, ids=[name for name, _ in CATALOG])
def test_morphism_verdicts_agree_across_presentations(name, G):
    B = amg.almost_to_brandt(G)
    rng = random.Random(name)
    n = G.order
    maps = [list(range(n))]
    for _ in range(4):
        f = list(range(n))
        x = rng.randrange(n)
        f[x] = rng.randrange(n)
        maps.append(f)
    for f in maps:
        m = amg.MorphismPair(tuple(f), {u: u for u in G.units})
        assert amg.is_morphism(G, G, m) == amg.is_morphism(B, B, m), (name, f)
        assert amg.is_isomorphism(G, G, m) == amg.is_isomorphism(B, B, m), (name, f)


@pytest.mark.parametrize("name,G", CATALOG, ids=[name for name, _ in CATALOG])
def test_subgroupoid_reports_agree_across_presentations(name, G):
    B = amg.almost_to_brandt(G)
    rng = random.Random(name)
    n = G.order
    subsets = [list(G.units), list(range(n))] + [list(f) for f in G.fibers.values()]
    subsets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(8)]
    for S in subsets:
        a = amg.is_subgroupoid(G, G.subset(S))
        b = amg.is_subgroupoid(B, B.subset(S))
        assert (a.is_subgroupoid, a.is_wide, a.is_normal, a.units.members, a.witness) == (
            b.is_subgroupoid, b.is_wide, b.is_normal, b.units.members, b.witness), (name, S)
    assert amg.isotropy_subgroupoid(G).members == amg.isotropy_subgroupoid(B).members
    for u in G.units:
        assert G.isotropy_group(u).members == B.isotropy_group(u).members


BRANDT = [("pair3", amg.pair_groupoid(3)), ("rstar5_2", amg.rstar_groupoid(5, 2))] + brandt_products()


def subgroupoid_by_definition(B, S):
    """(closed, wide, normal, units) of S from plain lists: closure under
    composable products and inversion, alpha and beta onto the units, and
    g*h*inv(g) in S for every h in S with alpha(h) = beta(h) = beta(g)."""
    src, dst, iota, T = list(B.alpha), list(B.beta), list(B.iota), B.table.cells.tolist()
    S = set(S)
    closed = all(T[x][y] in S for x in S for y in S if dst[x] == src[y]) and all(iota[x] in S for x in S)
    wide = closed and {src[x] for x in S} == set(B.units) == {dst[x] for x in S}
    normal = wide and all(T[T[g][h]][iota[g]] in S for h in S if src[h] == dst[h]
                          for g in range(B.order) if dst[g] == src[h])
    return closed, wide, normal, tuple(sorted({src[x] for x in S} | {dst[x] for x in S}))


def closure_by_definition(B, seeds):
    src, dst, iota, T = list(B.alpha), list(B.beta), list(B.iota), B.table.cells.tolist()
    S = set(seeds)
    while True:
        grown = S | {iota[x] for x in S} | {T[x][y] for x in S for y in S if dst[x] == src[y]}
        if grown == S:
            return S
        S = grown


@pytest.mark.parametrize("name,B", BRANDT, ids=[name for name, _ in BRANDT])
def test_subgroupoid_reports_match_the_definition_on_brandt_groupoids(name, B):
    """On connected Brandt groupoids, with wide subgroupoids generated from
    the units and a few seeded elements, so that normal and non-normal ones
    both occur when the isotropy groups are not trivial."""
    rng = random.Random(name)
    n = B.order
    subsets = [list(B.units), list(range(n))] + [list(f) for f in B.fibers.values()]
    subsets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(8)]
    subsets += [closure_by_definition(B, set(B.units) | set(rng.sample(range(n), k)))
                for k in (1, 1, 2, 2, 3)]
    verdicts = set()
    for S in subsets:
        rep = amg.is_subgroupoid(B, B.subset(S))
        want = subgroupoid_by_definition(B, S)
        assert (rep.is_subgroupoid, rep.is_wide, rep.is_normal, rep.units.members) == want, (name, S)
        assert (rep.witness is None) == (want[0] and (want[2] or not want[1])), (name, S)
        verdicts.add(want[:3])
    # a wide subgroupoid that is not normal needs a non-trivial isotropy group
    assert ((True, True, False) in verdicts) == (max(map(len, B.fibers.values())) > 1)
    assert amg.isotropy_subgroupoid(B).members == tuple(x for x in range(n) if B.alpha[x] == B.beta[x])


def test_duplicate_names_are_aliases():
    assert amg.is_almost_subgroupoid is amg.is_brandt_subgroupoid is amg.is_subgroupoid
    assert amg.is_almost_morphism is amg.is_brandt_morphism is amg.is_morphism
    assert amg.brandt_isotropy_subgroupoid is amg.isotropy_subgroupoid


def test_almost_groupoid_anchors_are_theta(z6):
    assert z6.alpha == z6.beta == z6.theta
    B = amg.almost_to_brandt(z6)
    assert B.fibers == z6.fibers
    assert amg.brandt_to_almost(B) == z6
    assert z6 != B and B != z6
    assert repr(z6) == "<AlmostGroupoid order=18 units=6>"
    assert repr(B) == "<BrandtGroupoid order=18 units=6>"


def test_caches_are_cached_properties():
    from functools import cached_property

    from amg.core import ElementSubset, _StructureBase

    for owner, attr in ((_StructureBase, "_unit_set"), (_StructureBase, "fibers"),
                        (_StructureBase, "_by_target"), (ElementSubset, "_member_set")):
        assert isinstance(vars(owner)[attr], cached_property), attr
    G = amg.pair_groupoid(3)
    H = G.carrier()
    assert "_unit_set" not in vars(G) and "_member_set" not in vars(H)
    assert G.is_unit(G.units[1]) and G.units[0] in H
    assert "_unit_set" in vars(G) and "_member_set" in vars(H)


def test_brandt_element_order_on_isotropy_elements():
    R = amg.rstar_groupoid(5, 2)
    for u, fib in R.fibers.items():
        for x in fib:
            k, cur = 1, x
            while cur != u:
                cur = int(R.table.cells[cur, x])
                k += 1
            assert R.element_order(x) == k
