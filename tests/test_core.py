"""Structure types, axiom verification, and the derived identities."""

import numpy as np
import pytest

import amg
from amg.core import Law


def test_composable_and_mul_examples(z6):
    ix = z6.index_of
    assert not z6.composable(ix("p1"), ix("p10"))
    assert z6.composable(ix("p8"), ix("p6"))
    for x in range(z6.order):
        assert z6.composable(x, x)
    assert z6.names[z6.mul(ix("p4"), ix("p4"))] == "p12"
    assert z6.names[z6.mul(ix("p8"), ix("p6"))] == "u4"
    for u in z6.units:
        assert z6.mul(u, u) == u
    with pytest.raises(amg.UndefinedProductError):
        z6.mul(ix("p1"), ix("p10"))
    with pytest.raises(IndexError):
        z6.mul(0, 99)
    with pytest.raises(IndexError):
        z6.composable(-1, 0)


def test_mul_preserves_theta(z6):
    for u, fib in z6.fibers.items():
        for x in fib:
            for y in fib:
                assert z6.theta[z6.mul(x, y)] == z6.theta[x]


def test_power(z6):
    ix = z6.index_of
    p4 = ix("p4")
    assert z6.power(p4, 0) == z6.theta[p4]
    assert z6.names[z6.power(p4, 1)] == "p4"
    assert z6.names[z6.power(p4, 2)] == "p12"
    assert z6.names[z6.power(p4, 3)] == "u2"
    assert z6.power(p4, -1) == z6.iota[p4]
    for a in range(z6.order):
        for m in range(-8, 9):
            for n in range(-8, 9):
                assert z6.power(a, m + n) == z6.mul(z6.power(a, m), z6.power(a, n))


def test_isotropy_groups(z6):
    ix = z6.index_of
    assert z6.isotropy_group(ix("u3")).names() == ("u3", "p5", "p7")
    assert z6.isotropy_group(z6.theta[ix("p3")]).names() == ("u1", "p3", "p11")
    with pytest.raises(ValueError):
        z6.isotropy_group(ix("p1"))
    null = amg.null_almost_groupoid(3)
    for u in null.units:
        assert null.isotropy_group(u).members == (u,)
    # closure of each fiber under mul and iota, with u as identity
    for u, fib in z6.fibers.items():
        fset = set(fib)
        for x in fib:
            assert z6.iota[x] in fset
            assert z6.mul(u, x) == x == z6.mul(x, u)
            for y in fib:
                assert z6.mul(x, y) in fset


def test_is_abelian(z6):
    assert z6.is_abelian()
    assert amg.null_almost_groupoid(4).is_abelian()
    assert not amg.symmetric_group_3().is_abelian()


def test_verify_almost_passes_on_examples(z6):
    rep = amg.verify_almost(z6.names, z6.units, z6.theta, z6.iota, z6.table)
    assert rep.passed and not rep.violations
    for k in (1, 2, 5):
        g = amg.null_almost_groupoid(k)
        assert amg.verify_almost(g.names, g.units, g.theta, g.iota, g.table).passed


def test_verify_detects_cell_mutation(z6):
    ix = z6.index_of
    rows = [list(r) for r in z6.table.rows()]
    rows[ix("p4")][ix("p4")] = ix("u1")
    rep = amg.verify_almost(z6.names, z6.units, z6.theta, z6.iota, rows)
    assert not rep.passed
    assert {Law.AG1, Law.AG3} & set(rep.failed_laws())
    assert any(ix("p4") in v.witness for v in rep.violations)
    with pytest.raises(amg.VerificationError):
        amg.AlmostGroupoid(z6.names, z6.units, z6.theta, z6.iota, rows)


def test_mutation_robustness_exhaustive():
    # flipping any defined cell to a different element of the same fiber
    # must break at least one law; exhaustive on order <= 18 structures
    for G in (amg.z6_example(), amg.z_bundle(2, 3), amg.symmetric_group_3()):
        rows = [list(r) for r in G.table.rows()]
        for x in range(G.order):
            for y in range(G.order):
                old = rows[x][y]
                if old is None:
                    continue
                for alt in G.fibers[G.theta[old]]:
                    if alt == old:
                        continue
                    rows[x][y] = alt
                    rep = amg.verify_almost(G.names, G.units, G.theta, G.iota, rows)
                    assert not rep.passed, (G, x, y, alt)
                rows[x][y] = old


def test_table_domain_law_is_its_own_check(z6):
    rows = [list(r) for r in z6.table.rows()]
    ix = z6.index_of
    rows[ix("p1")][ix("p10")] = ix("p1")  # across fibers
    rep = amg.verify_almost(z6.names, z6.units, z6.theta, z6.iota, rows)
    assert Law.TABLE_DOMAIN in rep.failed_laws()


def test_theta_surjectivity_check():
    g = amg.null_almost_groupoid(2)
    rep = amg.verify_almost(g.names, (0,), (0, 1), g.iota, g.table)
    assert Law.THETA_SURJECTIVE in rep.failed_laws()
    rep2 = amg.verify_almost(g.names, (0, 1), (0, 0), g.iota, g.table)
    assert not rep2.passed


def test_verify_brandt_on_pair_groupoid():
    b = amg.pair_groupoid(3)
    rep = amg.verify_brandt(b.names, b.units, b.alpha, b.beta, b.iota, b.table)
    assert rep.passed
    # redefining iota as the identity breaks the inverses law for k >= 2
    rep2 = amg.verify_brandt(b.names, b.units, b.alpha, b.beta, tuple(range(b.order)), b.table)
    assert Law.B3_INVERSES in rep2.failed_laws()


def test_verify_brandt_iota_injectivity():
    b = amg.pair_groupoid(2)
    iota = list(b.iota)
    ix = b.index_of
    iota[ix("(1,2)")] = iota[ix("(2,1)")]
    rep = amg.verify_brandt(b.names, b.units, b.alpha, b.beta, iota, b.table)
    assert Law.IOTA_INJECTIVE in rep.failed_laws()


def test_verification_report_invariant():
    with pytest.raises(ValueError):
        amg.VerificationReport(passed=False, violations=())
    with pytest.raises(ValueError):
        amg.VerificationReport(
            passed=True,
            violations=(amg.Violation(Law.AG1, (0,), "x"),),
        )


def test_law_report_names():
    assert Law.TABLE_DOMAIN.value == "TableDomain"
    assert Law.THETA_SURJECTIVE.value == "ThetaSurjective"
    assert Law.B1_ASSOC.value == "B1_Assoc"
    assert Law.ALPHA_BETA_SURJECTIVE.value == "AlphaBetaSurjective"


def test_name_validation():
    with pytest.raises(ValueError):
        amg.null_almost_groupoid(0)
    with pytest.raises(ValueError):
        amg.AlmostGroupoid(("a", "a"), (0,), (0, 0), (0, 1), [[0, None], [None, 1]])
    for bad in ("a b", "", "x#y", "x.y", "."):
        with pytest.raises(ValueError):
            amg.AlmostGroupoid((bad,), (0,), (0,), (0,), [[0]])


def test_equals_sign_is_reserved_in_names():
    # morphism files write source=target pairs, so a name with '=' could not
    # be read back
    for bad in ("a=b", "=", "x="):
        with pytest.raises(ValueError, match="reserved character"):
            amg.AlmostGroupoid((bad,), (0,), (0,), (0,), [[0]])
        with pytest.raises(ValueError, match="reserved character"):
            amg.BrandtGroupoid((bad,), (0,), (0,), (0,), (0,), [[0]])


def test_carrier_bound():
    with pytest.raises(ValueError):
        amg.null_almost_groupoid(amg.MAX_CARRIER + 1)


def test_dimension_errors():
    g = amg.null_almost_groupoid(2)
    with pytest.raises(ValueError):
        amg.verify_almost(g.names, g.units, (0,), g.iota, g.table)
    with pytest.raises(ValueError):
        amg.verify_almost(g.names, g.units, g.theta, (0, 5), g.table)
    with pytest.raises(ValueError):
        amg.verify_almost(g.names, g.units, g.theta, g.iota, [[0]])


def test_conversions_round_trip(z6):
    b = amg.almost_to_brandt(z6)
    assert b.alpha == z6.theta and b.beta == z6.theta
    assert amg.verify_brandt(b.names, b.units, b.alpha, b.beta, b.iota, b.table).passed
    assert amg.brandt_to_almost(b) == z6
    null = amg.null_almost_groupoid(1)
    nb = amg.almost_to_brandt(null)
    assert nb.alpha == nb.beta == nb.iota == (0,)
    assert amg.brandt_to_almost(amg.almost_to_brandt(amg.z_bundle(2, 6))) == amg.z_bundle(2, 6)


def test_brandt_to_almost_rejects_pair_groupoid():
    b = amg.pair_groupoid(3)
    with pytest.raises(amg.NotAlmostError) as err:
        amg.brandt_to_almost(b)
    w = err.value.witness
    assert b.alpha[w] != b.beta[w]
    assert b.names[w] == "(1,2)"


def test_brandt_to_almost_rejects_rstar():
    with pytest.raises(amg.NotAlmostError):
        amg.brandt_to_almost(amg.rstar_groupoid(5, 2))


def test_is_transitive():
    assert amg.pair_groupoid(3).is_transitive()
    assert not amg.almost_to_brandt(amg.z6_example()).is_transitive()
    assert amg.almost_to_brandt(amg.cyclic_group(4)).is_transitive()
    # disjoint union of two pair groupoids: no arrows between components
    b = amg.pair_groupoid(2)
    n = b.order
    names = tuple(f"L:{s}" for s in b.names) + tuple(f"R:{s}" for s in b.names)
    units = b.units + tuple(u + n for u in b.units)
    alpha = b.alpha + tuple(v + n for v in b.alpha)
    beta = b.beta + tuple(v + n for v in b.beta)
    iota = b.iota + tuple(v + n for v in b.iota)
    rows = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            v = b.table.get(i, j)
            if v is not None:
                rows[i][j] = v
                rows[n + i][n + j] = n + v
    bb = amg.BrandtGroupoid(names, units, alpha, beta, iota, rows)
    assert not bb.is_transitive()


def test_brandt_structure_function_identities():
    for b in (amg.pair_groupoid(3), amg.rstar_groupoid(5, 2), amg.almost_to_brandt(amg.z_bundle(2, 3))):
        n = b.order
        for x in range(n):
            assert b.alpha[b.iota[x]] == b.beta[x]
            assert b.beta[b.iota[x]] == b.alpha[x]
            assert b.iota[b.iota[x]] == x
        for x in range(n):
            for y in range(n):
                if not b.composable(x, y):
                    continue
                p = b.mul(x, y)
                assert b.alpha[p] == b.alpha[x]
                assert b.beta[p] == b.beta[y]
                assert b.mul(b.iota[y], b.iota[x]) == b.iota[p]
        for u in b.units:
            assert b.alpha[u] == b.beta[u] == b.iota[u] == u
            assert b.mul(u, u) == u


def test_derived_identities_pass_on_builtins(builtins):
    for label, G in builtins:
        rep = amg.derived_identities(G)
        assert rep.passed, (label, rep.violations[:3])


def test_derived_identity_names_count():
    assert len(amg.DERIVED_IDENTITY_NAMES) == 14


def test_derived_identities_detect_broken_oracle_structure(z6):
    # build a bypassed structure with a wrong iota and confirm detection
    iota = list(z6.iota)
    ix = z6.index_of
    iota[ix("p3")], iota[ix("p5")] = iota[ix("p5")], iota[ix("p3")]
    broken = amg.AlmostGroupoid(z6.names, z6.units, z6.theta, iota, z6.table, check=False)
    rep = amg.derived_identities(broken)
    assert not rep.passed


def test_partial_table_api(z6):
    t = z6.table
    assert t.size == 18
    assert t.defined_count() == 54
    assert t.get(0, 1) is None
    assert t.is_defined(0, 0)
    with pytest.raises(IndexError):
        t.get(0, 18)
    assert amg.PartialTable(t.cells) == t
    with pytest.raises(ValueError):
        amg.PartialTable([[0, 1], [2, 3]])  # entries out of range
    with pytest.raises(ValueError):
        amg.PartialTable(np.zeros((2, 3), dtype=int))
    # range and dtype are checked before the int32 cast, which would wrap
    # 2**32 to 0 and truncate 0.7 to 0
    for bad in (np.array([[2**32]]), np.array([[0.7]]), [[2**32]], [[2**70]], [[0.7]]):
        with pytest.raises(ValueError):
            amg.PartialTable(bad)
    with pytest.raises(ValueError):
        amg.AlmostGroupoid(("a",), (0,), (0,), (0,), np.array([[2**32]]))


def test_structures_are_immutable(z6):
    with pytest.raises(AttributeError):
        z6.names = ()
    assert not z6.table.cells.flags.writeable


def test_verifier_reports_are_deterministic(z6):
    rows = [list(r) for r in z6.table.rows()]
    for x, y in ((0, 0), (6, 6)):
        rows[x][y] = None
    r1 = amg.verify_almost(z6.names, z6.units, z6.theta, z6.iota, rows)
    r2 = amg.verify_almost(z6.names, z6.units, z6.theta, z6.iota, rows)
    assert r1 == r2
    assert not r1.passed
    # law-major order; within a law, witnesses ascend lexicographically
    by_law: dict = {}
    for v in r1.violations:
        by_law.setdefault(v.law, []).append(v.witness)
    for witnesses in by_law.values():
        assert witnesses == sorted(witnesses)
