"""Built-in families: golden values, bounds, and combinator laws."""

import numpy as np
import pytest

import amg

# Transcription of the published order-18 example: the theta and iota rows
# and all 54 defined product cells, keyed by element name.
Z6_THETA = {
    "u1": "u1", "u2": "u2", "u3": "u3", "u4": "u4", "u5": "u5", "u6": "u6",
    "p1": "u5", "p2": "u6", "p3": "u1", "p4": "u2", "p5": "u3", "p6": "u4",
    "p7": "u3", "p8": "u4", "p9": "u5", "p10": "u6", "p11": "u1", "p12": "u2",
}
Z6_IOTA = {
    "u1": "u1", "u2": "u2", "u3": "u3", "u4": "u4", "u5": "u5", "u6": "u6",
    "p1": "p9", "p2": "p10", "p3": "p11", "p4": "p12", "p5": "p7", "p6": "p8",
    "p7": "p5", "p8": "p6", "p9": "p1", "p10": "p2", "p11": "p3", "p12": "p4",
}
Z6_PRODUCTS = {
    ("u1", "u1"): "u1", ("u1", "p3"): "p3", ("u1", "p11"): "p11",
    ("u2", "u2"): "u2", ("u2", "p4"): "p4", ("u2", "p12"): "p12",
    ("u3", "u3"): "u3", ("u3", "p5"): "p5", ("u3", "p7"): "p7",
    ("u4", "u4"): "u4", ("u4", "p6"): "p6", ("u4", "p8"): "p8",
    ("u5", "u5"): "u5", ("u5", "p1"): "p1", ("u5", "p9"): "p9",
    ("u6", "u6"): "u6", ("u6", "p2"): "p2", ("u6", "p10"): "p10",
    ("p1", "u5"): "p1", ("p1", "p1"): "p9", ("p1", "p9"): "u5",
    ("p2", "u6"): "p2", ("p2", "p2"): "p10", ("p2", "p10"): "u6",
    ("p3", "u1"): "p3", ("p3", "p3"): "p11", ("p3", "p11"): "u1",
    ("p4", "u2"): "p4", ("p4", "p4"): "p12", ("p4", "p12"): "u2",
    ("p5", "u3"): "p5", ("p5", "p5"): "p7", ("p5", "p7"): "u3",
    ("p6", "u4"): "p6", ("p6", "p6"): "p8", ("p6", "p8"): "u4",
    ("p7", "u3"): "p7", ("p7", "p5"): "u3", ("p7", "p7"): "p5",
    ("p8", "u4"): "p8", ("p8", "p6"): "u4", ("p8", "p8"): "p6",
    ("p9", "u5"): "p9", ("p9", "p1"): "u5", ("p9", "p9"): "p1",
    ("p10", "u6"): "p10", ("p10", "p2"): "u6", ("p10", "p10"): "p2",
    ("p11", "u1"): "p11", ("p11", "p3"): "u1", ("p11", "p11"): "p3",
    ("p12", "u2"): "p12", ("p12", "p4"): "u2", ("p12", "p12"): "p4",
}


def test_z6_example_matches_published_tables(z6):
    assert z6.order == 18
    assert len(Z6_PRODUCTS) == 54
    for g, t in Z6_THETA.items():
        assert z6.names[z6.theta[z6.index_of(g)]] == t, g
    for g, t in Z6_IOTA.items():
        assert z6.names[z6.iota[z6.index_of(g)]] == t, g
    defined = {}
    for x in range(18):
        for y in range(18):
            v = z6.table.get(x, y)
            if v is not None:
                defined[(z6.names[x], z6.names[y])] = z6.names[v]
    assert defined == Z6_PRODUCTS


def test_z6_example_counts(z6):
    assert len(z6.units) == 6
    assert z6.order - len(z6.units) == 12
    assert z6.table.defined_count() == 54
    assert all(len(fib) == 3 for fib in z6.fibers.values())


def test_null_almost_groupoid():
    g = amg.null_almost_groupoid(3)
    assert g.units == (0, 1, 2)
    assert g.theta == g.iota == (0, 1, 2)
    assert g.table.defined_count() == 3
    assert amg.center(g).members == (0, 1, 2)
    one = amg.null_almost_groupoid(1)
    assert one.order == 1 and one.is_abelian()
    with pytest.raises(ValueError):
        amg.null_almost_groupoid(0)


def test_from_group():
    z6g = amg.cyclic_group(6)
    assert len(z6g.units) == 1 and z6g.is_abelian()
    assert z6g.table.defined_count() == 36
    s3 = amg.symmetric_group_3()
    assert not s3.is_abelian()
    z1 = amg.cyclic_group(1)
    assert amg.find_isomorphism(z1, amg.null_almost_groupoid(1)) is not None
    # identity need not be index 0
    table = [[1, 0], [0, 1]]
    g = amg.from_group(table, ["x", "e"])
    assert g.units == (1,)


def test_from_group_rejects_non_groups():
    with pytest.raises(amg.NotAGroupError):
        amg.from_group([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(amg.NotAGroupError):
        amg.from_group([[1, 0], [0, 0]])  # no identity
    # a loop with two-sided inverses that is not associative
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(amg.NotAGroupError) as err:
        amg.from_group(loop)
    assert len(err.value.witness) == 3
    # entries are range-checked before the int32 cast, which would read
    # 2**32 as 0, the trivial group
    for bad in (np.array([[2**32]]), [[2**32]], np.array([[0.7]]), [[0.5]]):
        with pytest.raises(ValueError):
            amg.from_group(bad)


def test_z_bundle():
    g = amg.z_bundle(2, 6)
    assert g.order == 12 and len(g.units) == 2
    assert all(len(fib) == 6 for fib in g.fibers.values())
    trivial = amg.z_bundle(1, 1)
    assert trivial.order == 1
    with pytest.raises(ValueError):
        amg.z_bundle(0, 3)
    with pytest.raises(ValueError):
        amg.z_bundle(70, 70)


def test_matrix_bundle():
    g2 = amg.matrix_bundle(2)
    assert g2.order == 2 and len(g2.units) == 2
    g3 = amg.matrix_bundle(3)
    a21 = g3.index_of("A(2,1)")
    sq = g3.mul(a21, a21)
    assert g3.names[sq] == "A(1,1)"
    assert sq == g3.theta[a21]
    g5 = amg.matrix_bundle(5)
    assert g5.order == 20 and len(g5.units) == 5
    # every isotropy group is the multiplicative group of the field
    for p in (2, 3, 5, 7):
        g = amg.matrix_bundle(p)
        target = amg.cyclic_group(p - 1)
        for u in g.units:
            assert amg.find_isomorphism(amg.fiber_group(g, u), target) is not None
    with pytest.raises(ValueError):
        amg.matrix_bundle(4)
    with pytest.raises(ValueError):
        amg.matrix_bundle(67)


def test_pair_groupoid():
    b = amg.pair_groupoid(3)
    assert b.order == 9 and len(b.units) == 3
    assert b.is_transitive()
    one = amg.pair_groupoid(1)
    assert one.order == 1
    amg.brandt_to_almost(one)  # succeeds for a single point
    with pytest.raises(amg.NotAlmostError) as err:
        amg.brandt_to_almost(amg.pair_groupoid(2))
    assert amg.pair_groupoid(2).names[err.value.witness] == "(1,2)"
    with pytest.raises(ValueError):
        amg.pair_groupoid(0)
    with pytest.raises(ValueError):
        amg.pair_groupoid(65)


def test_rstar_groupoid():
    r = amg.rstar_groupoid(5, 2)
    assert r.order == 16 and len(r.units) == 4
    assert r.is_transitive()
    i12, i14 = r.index_of("(1,2)"), r.index_of("(1,4)")
    assert r.names[r.mul(i12, i14)] == "(1,4)"  # b*2 = 3*2 = 1 mod 5
    # a = 1 collapses to the pair groupoid on the nonzero residues
    p = amg.rstar_groupoid(3, 1)
    assert amg.find_isomorphism(p, amg.pair_groupoid(2)) is not None
    with pytest.raises(ValueError):
        amg.rstar_groupoid(6, 1)
    with pytest.raises(ValueError):
        amg.rstar_groupoid(5, 0)
    with pytest.raises(ValueError):
        amg.rstar_groupoid(37, 2)


def test_direct_product():
    g = amg.z_bundle(2, 2)
    prod = amg.direct_product(g, amg.cyclic_group(1))
    assert amg.find_isomorphism(prod, g) is not None
    n6 = amg.direct_product(amg.null_almost_groupoid(2), amg.null_almost_groupoid(3))
    assert amg.find_isomorphism(n6, amg.null_almost_groupoid(6)) is not None
    mixed = amg.direct_product(amg.z_bundle(2, 2), amg.z_bundle(1, 3))
    z6g = amg.cyclic_group(6)
    for u in mixed.units:
        assert amg.find_isomorphism(amg.fiber_group(mixed, u), z6g) is not None
    with pytest.raises(ValueError):
        amg.direct_product(amg.null_almost_groupoid(70), amg.null_almost_groupoid(70))


def test_disjoint_union():
    u2 = amg.disjoint_union(amg.null_almost_groupoid(1), amg.null_almost_groupoid(1))
    assert amg.find_isomorphism(u2, amg.null_almost_groupoid(2)) is not None
    mix = amg.disjoint_union(amg.z_bundle(1, 2), amg.z_bundle(1, 3))
    assert mix.order == 5 and len(mix.units) == 2
    sizes = sorted(len(f) for f in mix.fibers.values())
    assert sizes == [2, 3]
    # unit counts add; colliding names get side prefixes
    g = amg.z6_example()
    both = amg.disjoint_union(g, g)
    assert len(both.units) == 2 * len(g.units)
    assert both.names[0] == "L:u1" and both.names[18] == "R:u1"


def test_combinators_commute_up_to_isomorphism():
    a, b, c = amg.z_bundle(1, 2), amg.z_bundle(1, 3), amg.null_almost_groupoid(2)
    assert amg.find_isomorphism(amg.direct_product(a, b), amg.direct_product(b, a)) is not None
    assert amg.find_isomorphism(
        amg.direct_product(amg.direct_product(a, b), c),
        amg.direct_product(a, amg.direct_product(b, c)),
    ) is not None
    assert amg.find_isomorphism(amg.disjoint_union(a, b), amg.disjoint_union(b, a)) is not None
    assert amg.find_isomorphism(
        amg.disjoint_union(amg.disjoint_union(a, b), c),
        amg.disjoint_union(a, amg.disjoint_union(b, c)),
    ) is not None


def test_transitivity_of_embedded_almost_groupoids():
    # single unit <=> transitive image under the brandt embedding
    for G in (amg.cyclic_group(4), amg.symmetric_group_3()):
        assert amg.almost_to_brandt(G).is_transitive()
    for G in (amg.z_bundle(2, 3), amg.null_almost_groupoid(2), amg.z6_example()):
        assert not amg.almost_to_brandt(G).is_transitive()


def test_family_spec_round_trip():
    spec = amg.parse_family_token("zbundle:2:6")
    assert spec == amg.FamilySpec("zbundle", (2, 6))
    g = amg.build_family(spec)
    assert g == amg.z_bundle(2, 6)
    assert amg.build_family(amg.FamilySpec("group-s3")) == amg.symmetric_group_3()
    prod = amg.build_family(
        amg.FamilySpec("union", (), (amg.FamilySpec("null", (1,)), amg.FamilySpec("null", (2,))))
    )
    assert prod.order == 3
    with pytest.raises(ValueError):
        amg.parse_family_token("zbundle:2")
    with pytest.raises(ValueError):
        amg.parse_family_token("nosuch:1")
    with pytest.raises(ValueError):
        amg.parse_family_token("product:null:1")
    with pytest.raises(ValueError):
        amg.parse_family_token("zbundle:x:y")
    mixed = amg.build_family(
        amg.FamilySpec("union", (), (amg.FamilySpec("pair", (2,)), amg.FamilySpec("null", (1,))))
    )
    assert mixed.kind == "brandt"


def test_prime_check():
    assert [n for n in range(20) if amg.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
