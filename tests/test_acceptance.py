"""Acceptance criteria, one test per criterion.

Each test prints a single pass line with its runtime (visible under -s) and
enforces the stated per-test ceiling.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

import amg
from conftest import (
    FIXTURES,
    builtin_catalog,
    oracle_closed_subsets,
    oracle_fiber_subgroups,
    oracle_group_center,
)
from test_families import Z6_IOTA, Z6_PRODUCTS, Z6_THETA


@contextmanager
def ceiling(name: str, seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    print(f"{name}: PASS in {elapsed:.2f}s (limit {seconds:g}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds:g}s ceiling ({elapsed:.2f}s)"


def test_criterion_1_z6_golden_reproduction():
    with ceiling("criterion 1 (order-18 golden values)", 1.0):
        g = amg.z6_example()
        ix = g.index_of
        assert g.order == 18 and len(g.units) == 6
        assert g.names[g.theta[ix("p7")]] == "u3"
        assert g.names[g.iota[ix("p4")]] == "p12"
        assert g.names[g.iota[ix("u6")]] == "u6"
        assert g.isotropy_group(ix("u3")).names() == ("u3", "p5", "p7")
        assert g.isotropy_group(ix("u1")).names() == ("u1", "p3", "p11")
        assert g.names[g.mul(ix("u6"), ix("p10"))] == "p10"
        assert g.names[g.mul(ix("p4"), ix("p4"))] == "p12"
        assert g.names[g.mul(ix("p8"), ix("p6"))] == "u4"
        assert not g.composable(ix("p1"), ix("p10"))
        with pytest.raises(amg.UndefinedProductError):
            g.mul(ix("p1"), ix("p10"))
        c_p1 = amg.centralizer(g, ix("p1"))
        assert c_p1.names() == ("u5", "p1", "p9")
        assert c_p1 == g.isotropy_group(ix("u5"))
        assert amg.centralizer(g, ix("u1")) == g.isotropy_group(ix("u1"))
        carrier = tuple(range(18))
        assert amg.isotropy_subgroupoid(g).members == carrier
        assert amg.center(g).members == carrier


def test_criterion_2_z6_full_table_match():
    with ceiling("criterion 2 (published tables byte-match)", 1.0):
        g = amg.z6_example()
        rendered = amg.render_tables(g)
        assert rendered == (FIXTURES / "z6_tables.txt").read_text(encoding="utf-8")
        # the golden file is faithful to the published tables: same theta
        # and iota rows, and exactly the 54 published product cells
        assert g.table.defined_count() == 54 == len(Z6_PRODUCTS)
        for name, t in Z6_THETA.items():
            assert g.names[g.theta[g.index_of(name)]] == t
        for name, t in Z6_IOTA.items():
            assert g.names[g.iota[g.index_of(name)]] == t
        for x in range(18):
            for y in range(18):
                v = g.table.get(x, y)
                key = (g.names[x], g.names[y])
                if v is None:
                    assert key not in Z6_PRODUCTS
                else:
                    assert Z6_PRODUCTS[key] == g.names[v]
        header = rendered.splitlines()[0]
        assert len(header.split("|")[1].split()) == 18


def test_criterion_3_axiom_suites():
    with ceiling("criterion 3 (axiom suites across families)", 5.0):
        almost = []
        for m in (1, 2, 3):
            for n in range(1, 9):
                almost.append(amg.z_bundle(m, n))
        for p in (2, 3, 5, 7):
            almost.append(amg.matrix_bundle(p))
        for k in range(1, 6):
            almost.append(amg.null_almost_groupoid(k))
        for n in range(1, 9):
            almost.append(amg.cyclic_group(n))
        almost.append(amg.symmetric_group_3())
        for G in almost:
            assert amg.verify_almost(G.names, G.units, G.theta, G.iota, G.table).passed
            assert amg.derived_identities(G).passed
        brandt = [amg.pair_groupoid(k) for k in range(1, 6)] + [amg.rstar_groupoid(5, 2)]
        for B in brandt:
            assert amg.verify_brandt(B.names, B.units, B.alpha, B.beta, B.iota, B.table).passed


def test_criterion_4_pair_groupoid_is_not_almost():
    with ceiling("criterion 4 (pair groupoid rejection)", 1.0):
        assert isinstance(amg.brandt_to_almost(amg.pair_groupoid(1)), amg.AlmostGroupoid)
        for k in range(2, 7):
            B = amg.pair_groupoid(k)
            with pytest.raises(amg.NotAlmostError) as err:
                amg.brandt_to_almost(B)
            w = err.value.witness
            assert B.alpha[w] != B.beta[w]
            x, y = B.names[w].strip("()").split(",")
            assert x != y


def test_criterion_5_morphism_suite():
    with ceiling("criterion 5 (bundle projection morphisms)", 1.0):
        for n in range(2, 9):
            src = amg.z_bundle(2, n)
            dst = amg.cyclic_group(n)
            f = tuple(c for a in range(2) for c in range(n))
            proj = amg.MorphismPair(f, {u: 0 for u in src.units})
            ok, witness = amg.is_almost_morphism(src, dst, proj)
            assert ok and witness is None
            assert not amg.is_isomorphism(src, dst, proj)
            for G in (src, dst):
                ident = amg.MorphismPair.identity(G)
                assert amg.is_almost_morphism(G, G, ident)[0]
                assert amg.is_isomorphism(G, G, ident)
            # one mutated map per structure is rejected with a witness:
            # sending a source unit to a non-identity target breaks u*u = u
            mutated = list(f)
            mutated[src.units[0]] = 1
            bad = amg.MorphismPair(tuple(mutated), dict(proj.f0))
            ok_bad, witness_bad = amg.is_almost_morphism(src, dst, bad)
            assert not ok_bad and witness_bad is not None
            ident_f = list(range(dst.order))
            ident_f[0], ident_f[1] = ident_f[1], ident_f[0]
            bad_dst = amg.MorphismPair(tuple(ident_f), {0: 0})
            ok_bad2, witness_bad2 = amg.is_almost_morphism(dst, dst, bad_dst)
            assert not ok_bad2 and witness_bad2 is not None


def test_criterion_6_substructure_oracles():
    with ceiling("criterion 6 (generated-subgroupoid oracle sweep)", 30.0):
        small = [(label, G) for label, G in builtin_catalog() if G.order <= 12]
        assert len(small) >= 20
        for label, G in small:
            closed = oracle_closed_subsets(G)
            closed_sets = [set(C) for C in closed]
            seeds = [(a,) for a in range(G.order)] + list(
                itertools.combinations(range(G.order), 2)
            )
            for seed in seeds:
                got = set(amg.generated_subgroupoid(G, G.subset(seed)).members)
                expected = None
                sset = set(seed)
                for C in closed_sets:
                    if sset <= C:
                        expected = C if expected is None else expected & C
                assert got == expected, (label, seed)
        for label, G in small:
            for a in range(G.order):
                orbit = amg.cyclic_subgroupoid(G, a)
                fib = G.fibers[G.theta[a]]
                assert set(orbit.members) <= set(fib), label
                assert len(fib) % len(orbit) == 0, label


def test_criterion_7_center_and_product_properties():
    with ceiling("criterion 7 (center, HK products, intersections)", 30.0):
        catalog = [(l, G) for l, G in builtin_catalog() if G.order <= 20]
        for label, G in catalog:
            # center equals the union of per-fiber brute-force group centers
            expected: set[int] = set()
            for u in G.units:
                fib = list(G.fibers[u])
                pos = {x: i for i, x in enumerate(fib)}
                table = [[pos[G.mul(x, y)] for y in fib] for x in fib]
                expected |= {fib[i] for i in oracle_group_center(table)}
            z = amg.center(G)
            assert set(z.members) == expected, label
            rep = amg.is_almost_subgroupoid(G, z)
            assert rep.is_subgroupoid and rep.is_wide and rep.is_normal, label

        rng = random.Random(20260810)
        pool = [amg.z6_example(), amg.z_bundle(2, 6), amg.matrix_bundle(5), amg.symmetric_group_3()]
        subgroups = {id(G): {u: oracle_fiber_subgroups(G, u) for u in G.units} for G in pool}
        commuting = 0
        intersected = 0
        while commuting < 100:
            G = rng.choice(pool)
            per_unit = subgroups[id(G)]
            h: set[int] = set()
            k: set[int] = set()
            for u in G.units:
                h |= rng.choice(per_unit[u])
                k |= rng.choice(per_unit[u])
            H, K = G.subset(h), G.subset(k)
            assert amg.is_almost_subgroupoid(G, H).is_wide
            assert amg.is_almost_subgroupoid(G, K).is_wide
            if amg.hk_commutes(G, H, K):
                commuting += 1
                prod = amg.set_product(G, H, K)
                prep = amg.is_almost_subgroupoid(G, prod)
                assert prep.is_subgroupoid and prep.is_wide
            inter = amg.intersect_subgroupoids(G, [H, K])
            irep = amg.is_almost_subgroupoid(G, inter)
            assert irep.is_subgroupoid and irep.is_wide
            intersected += 1
        assert commuting == 100 and intersected >= 100


def test_criterion_8_isotropy_groups_isomorphic():
    with ceiling("criterion 8 (isotropy groups pairwise isomorphic)", 5.0):
        targets = [amg.pair_groupoid(k) for k in (1, 2, 3, 4)] + [amg.rstar_groupoid(5, 2)]
        for B in targets:
            groups = [amg.fiber_group(B, u) for u in B.units]
            for ga, gb in itertools.combinations(groups, 2):
                assert amg.find_isomorphism(ga, gb) is not None


def test_criterion_9_round_trip_and_fuzz():
    with ceiling("criterion 9 (round-trip and mutation fuzz)", 30.0):
        fixture_files = sorted(FIXTURES.glob("*.agt"))
        assert fixture_files
        for path in fixture_files:
            text = path.read_text(encoding="utf-8")
            assert amg.serialize(amg.parse(text)) == text, path.name

        base = (FIXTURES / "z6_example.agt").read_bytes()
        rng = random.Random(20260810)
        outcomes = {"parse_error": 0, "verification_error": 0, "structure": 0}
        for _ in range(10_000):
            data = bytearray(base)
            pos = rng.randrange(len(data))
            data[pos] = rng.randrange(256)
            text = bytes(data).decode("utf-8", errors="replace")
            try:
                G = amg.parse(text)
            except amg.AgtParseError:
                outcomes["parse_error"] += 1
            except amg.VerificationError:
                outcomes["verification_error"] += 1
            else:
                assert G.order >= 1
                outcomes["structure"] += 1
        assert sum(outcomes.values()) == 10_000
        assert outcomes["parse_error"] > 0 and outcomes["structure"] > 0


def test_criterion_10_largest_families_verify_at_scale():
    with ceiling("criterion 10 (largest families build and verify)", 60.0):
        for G in (amg.matrix_bundle(61), amg.z_bundle(64, 64), amg.z_bundle(1, 4096),
                  amg.pair_groupoid(64), amg.cyclic_group(4096)):
            assert G.order in (3660, 4096)
            if G.kind == "almost":
                report = amg.verify_almost(G.names, G.units, G.theta, G.iota, G.table)
            else:
                report = amg.verify_brandt(G.names, G.units, G.alpha, G.beta, G.iota, G.table)
            assert report.passed, G
