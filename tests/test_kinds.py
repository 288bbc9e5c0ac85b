"""Differential tests of the routines written once over alpha and beta:
direct_product, disjoint_union, set_product, generated_subgroupoid,
centralizer and cyclic_subgroupoid.

The almost-only versions they replaced, which read theta, are kept here
verbatim as oracles: on almost groupoids, built or unverified, the results
must be equal. On Brandt groupoids each routine must match its definition,
computed from plain lists over the composable pairs.
"""

import random

import numpy as np
import pytest

import amg
from amg.core import MAX_CARRIER, AlmostGroupoid, ElementSubset
from amg.families import _block_table
from amg.substructures import _require_owned
from conftest import brandt_products, builtin_catalog
from test_fiberwalk import mutant


# ------------------------------------------------------------ theta oracles


def direct_product_theta(G1: AlmostGroupoid, G2: AlmostGroupoid) -> AlmostGroupoid:
    """Componentwise product; pairs compose iff both components compose."""
    n1, n2 = G1.order, G2.order
    if n1 * n2 > MAX_CARRIER:
        raise ValueError(f"order {n1 * n2} exceeds bound {MAX_CARRIER}")
    idx = lambda i, j: i * n2 + j
    names = tuple(f"({G1.names[i]},{G2.names[j]})" for i in range(n1) for j in range(n2))
    if len(set(names)) != len(names):
        raise ValueError("component names collide under pairing")
    units = tuple(idx(u, v) for u in G1.units for v in G2.units)
    theta = tuple(idx(G1.theta[i], G2.theta[j]) for i in range(n1) for j in range(n2))
    iota = tuple(idx(G1.iota[i], G2.iota[j]) for i in range(n1) for j in range(n2))
    # cell ((i, j), (k, l)) of the product, as axes i, j, k, l
    T1 = G1.table.cells[:, None, :, None]
    T2 = G2.table.cells[None, :, None, :]
    T = np.where((T1 >= 0) & (T2 >= 0), idx(T1, T2), -1).reshape(n1 * n2, n1 * n2)
    return AlmostGroupoid(names, units, theta, iota, T)


def disjoint_union_theta(G1: AlmostGroupoid, G2: AlmostGroupoid) -> AlmostGroupoid:
    """Tagged union with no cross products; unit counts add.

    When the two name sets collide, every name is prefixed with "L:" or
    "R:" to keep them distinct.
    """
    n1, n2 = G1.order, G2.order
    if n1 + n2 > MAX_CARRIER:
        raise ValueError(f"order {n1 + n2} exceeds bound {MAX_CARRIER}")
    if set(G1.names) & set(G2.names):
        names = tuple(f"L:{s}" for s in G1.names) + tuple(f"R:{s}" for s in G2.names)
    else:
        names = G1.names + G2.names
    units = tuple(G1.units) + tuple(u + n1 for u in G2.units)
    theta = tuple(G1.theta) + tuple(v + n1 for v in G2.theta)
    iota = tuple(G1.iota) + tuple(v + n1 for v in G2.iota)
    table = _block_table([G1.table.cells, G2.table.cells])
    return AlmostGroupoid(names, units, theta, iota, table)


def centralizer_theta(G: AlmostGroupoid, a: int) -> ElementSubset:
    """Elements of the isotropy group of theta(a) commuting with a."""
    if not 0 <= a < G.order:
        raise IndexError(f"element index out of range: {a}")
    T = G.table.cells
    fib = G.fibers[G.theta[a]]
    return ElementSubset.from_ids(G, (g for g in fib if T[g, a] == T[a, g]))


def set_product_theta(G: AlmostGroupoid, H: ElementSubset, K: ElementSubset) -> ElementSubset:
    """All defined products h*k with h in H and k in K, deduplicated and sorted."""
    _require_owned(G, H)
    _require_owned(G, K)
    T = G.table.cells
    theta = G.theta
    out = {
        int(T[h, k])
        for h in H.members
        for k in K.members
        if theta[h] == theta[k]
    }
    return ElementSubset.from_ids(G, out)


def generated_subgroupoid_theta(G: AlmostGroupoid, S: ElementSubset) -> ElementSubset:
    """Smallest subgroupoid containing S, by worklist closure under
    multiplication and inversion."""
    _require_owned(G, S)
    T = G.table.cells
    theta, iota = G.theta, G.iota
    members = set(S.members)
    queue = list(S.members)
    while queue:
        x = queue.pop()
        ix = iota[x]
        if ix not in members:
            members.add(ix)
            queue.append(ix)
        for y in tuple(members):
            if theta[x] == theta[y]:
                for p in (int(T[x, y]), int(T[y, x])):
                    if p not in members:
                        members.add(p)
                        queue.append(p)
    return ElementSubset.from_ids(G, members)


# ------------------------------------------------------ plain definitions


def plain(G):
    """alpha, beta, iota and the table rows as plain lists."""
    return list(G.alpha), list(G.beta), list(G.iota), G.table.cells.tolist()


def closure_by_definition(G, seeds) -> set:
    src, dst, iota, T = plain(G)
    S = set(seeds)
    while True:
        grown = S | {iota[x] for x in S} | {T[x][y] for x in S for y in S if dst[x] == src[y]}
        if grown == S:
            return S
        S = grown


def centralizer_by_definition(G, a) -> set:
    src, dst, _, T = plain(G)
    return {g for g in range(G.order) if src[g] == dst[g] == src[a]
            and T[g][a] >= 0 and T[a][g] >= 0 and T[g][a] == T[a][g]}


def set_product_by_definition(G, H, K) -> set:
    src, dst, _, T = plain(G)
    return {T[h][k] for h in H for k in K if dst[h] == src[k]}


def fields(G):
    return (list(G.names), list(G.units), list(G.alpha), list(G.beta), list(G.iota),
            G.table.cells.tolist())


def product_by_definition(G1, G2):
    pairs = [(i, j) for i in range(G1.order) for j in range(G2.order)]
    at = {p: k for k, p in enumerate(pairs)}
    T1, T2 = G1.table.cells.tolist(), G2.table.cells.tolist()
    maps = [[at[m1[i], m2[j]] for i, j in pairs]
            for m1, m2 in ((G1.alpha, G2.alpha), (G1.beta, G2.beta), (G1.iota, G2.iota))]
    T = [[at[T1[i][k], T2[j][l]] if T1[i][k] >= 0 and T2[j][l] >= 0 else -1 for k, l in pairs]
         for i, j in pairs]
    names = [f"({G1.names[i]},{G2.names[j]})" for i, j in pairs]
    return (names, sorted(at[u, v] for u in G1.units for v in G2.units), *maps, T)


def union_by_definition(G1, G2):
    tagged = [(0, i) for i in range(G1.order)] + [(1, j) for j in range(G2.order)]
    at = {p: k for k, p in enumerate(tagged)}
    parts = (G1, G2)
    maps = [[at[s, getattr(parts[s], label)[i]] for s, i in tagged] for label in ("alpha", "beta", "iota")]
    cells = [G.table.cells.tolist() for G in parts]
    T = [[at[s, cells[s][i][j]] if s == t and cells[s][i][j] >= 0 else -1 for t, j in tagged]
         for s, i in tagged]
    names = [parts[s].names[i] for s, i in tagged]
    if len(set(names)) < len(names):
        names = [("L:", "R:")[s] + parts[s].names[i] for s, i in tagged]
    units = sorted(at[s, u] for s in (0, 1) for u in parts[s].units)
    return (names, units, *maps, T)


# ------------------------------------------------------------------ inputs


CATALOG = builtin_catalog()
GROUPS = [(name, G) for name, G in CATALOG if len(G.units) == 1 and G.order <= 8]
BRANDT = ([("pair1", amg.pair_groupoid(1)), ("pair2", amg.pair_groupoid(2)),
           ("pair3", amg.pair_groupoid(3)), ("rstar5_2", amg.rstar_groupoid(5, 2)),
           ("brandt_z6ex", amg.almost_to_brandt(amg.z6_example()))]
          + brandt_products()
          + [("union_pair2_z6ex", amg.disjoint_union(amg.pair_groupoid(2), amg.z6_example()))])


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def queries(G, rng: random.Random):
    """Seed sets for closures and subset pairs for set products."""
    n = G.order
    seeds = [[a] for a in range(n)] + [rng.sample(range(n), min(n, 2)) for _ in range(6)]
    pairs = [(rng.sample(range(n), rng.randint(1, n)), rng.sample(range(n), rng.randint(1, n)))
             for _ in range(6)]
    return seeds, pairs


def assert_substructures_equal_theta_oracles(G, label):
    rng = random.Random(label)
    seeds, pairs = queries(G, rng)
    for a in range(G.order):
        assert outcome(amg.centralizer, G, a) == outcome(centralizer_theta, G, a), (label, a)
    for S in seeds:
        got = outcome(amg.generated_subgroupoid, G, G.subset(S))
        assert got == outcome(generated_subgroupoid_theta, G, G.subset(S)), (label, S)
    for H, K in pairs:
        h, k = G.subset(H), G.subset(K)
        assert outcome(amg.set_product, G, h, k) == outcome(set_product_theta, G, h, k), (label, H, K)


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("name,G", CATALOG, ids=[name for name, _ in CATALOG])
def test_substructures_equal_theta_oracles_on_almost_groupoids(name, G):
    assert_substructures_equal_theta_oracles(G, name)
    rng = random.Random(name)
    for i in range(6):
        assert_substructures_equal_theta_oracles(mutant(G, rng, rng.choice((1, 2, 5))), f"{name} mutant {i}")


def test_products_and_unions_equal_theta_oracles_on_almost_groupoids():
    small = [(name, G) for name, G in CATALOG if G.order <= 8]
    rng = random.Random(7)
    count = 0
    for (n1, G1) in small:
        for (n2, G2) in small:
            for new, old in ((amg.direct_product, direct_product_theta),
                             (amg.disjoint_union, disjoint_union_theta)):
                got = new(G1, G2)
                assert got.kind == "almost" and got == old(G1, G2), (new.__name__, n1, n2)
                count += 1
            # unverified operands: both raise the same VerificationError
            M = mutant(G1, rng, 1)
            for new, old in ((amg.direct_product, direct_product_theta),
                             (amg.disjoint_union, disjoint_union_theta)):
                assert outcome(new, M, G2) == outcome(old, M, G2), (new.__name__, n1, n2)
    big = dict(CATALOG)
    for a, b in (("z6ex", "z3"), ("matrix5", "zb2_2"), ("s3", "zb2_6")):
        assert amg.direct_product(big[a], big[b]) == direct_product_theta(big[a], big[b])
        assert amg.disjoint_union(big[a], big[b]) == disjoint_union_theta(big[a], big[b])
    assert count > 500


@pytest.mark.parametrize("name,B", BRANDT, ids=[name for name, _ in BRANDT])
def test_substructures_match_definitions_on_brandt_groupoids(name, B):
    rng = random.Random(name)
    seeds, pairs = queries(B, rng)
    for a in range(B.order):
        assert set(amg.centralizer(B, a)) == centralizer_by_definition(B, a), (name, a)
        assert set(amg.cyclic_subgroupoid(B, a)) == closure_by_definition(B, [a]), (name, a)
    for S in seeds:
        assert set(amg.generated_subgroupoid(B, B.subset(S))) == closure_by_definition(B, S), (name, S)
    for H, K in pairs:
        got = amg.set_product(B, B.subset(H), B.subset(K))
        assert set(got) == set_product_by_definition(B, H, K), (name, H, K)
    non_loops = [a for a in range(B.order) if B.alpha[a] != B.beta[a]]
    assert all(len(amg.centralizer(B, a)) == 0 for a in non_loops)


def test_products_and_unions_match_definitions_on_mixed_kinds():
    operands = [B for _, B in BRANDT if B.order <= 18] + [amg.cyclic_group(3), amg.symmetric_group_3()]
    for G1 in operands:
        for G2 in operands:
            almost = G1.kind == G2.kind == "almost"
            for build, definition in ((amg.direct_product, product_by_definition),
                                      (amg.disjoint_union, union_by_definition)):
                if G1.order * G2.order > 400:
                    continue
                got = build(G1, G2)
                assert (got.kind == "almost") == almost, (build.__name__, G1, G2)
                assert fields(got) == definition(G1, G2), (build.__name__, G1, G2)


def test_products_of_brandt_presentations_are_presentations_of_products():
    small = [G for _, G in CATALOG if G.order <= 6]
    for G1 in small:
        for G2 in small[::2]:
            B1, B2 = amg.almost_to_brandt(G1), amg.almost_to_brandt(G2)
            assert amg.direct_product(B1, B2) == amg.almost_to_brandt(amg.direct_product(G1, G2))
            assert amg.disjoint_union(B1, B2) == amg.almost_to_brandt(amg.disjoint_union(G1, G2))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pair_times_group_is_connected_with_that_isotropy_group(k):
    """Brandt's theorem read backwards: product pair:k G is transitive and
    every isotropy group is isomorphic to G."""
    for name, G in GROUPS:
        P = amg.direct_product(amg.pair_groupoid(k), G)
        assert P.kind == "brandt" and P.order == k * k * G.order and len(P.units) == k
        assert P.is_transitive(), (k, name)
        for u in P.units:
            assert amg.find_isomorphism(amg.fiber_group(P, u), G) is not None, (k, name, u)
