"""Each oracle must accept the right answer and reject a planted wrong one.

Run with: python3 -m pytest -q perfbench/test_oracles.py (no amg import needed).
"""

import itertools

import oracles
from oracles import Model

ZB13 = """agt 1
kind: almost
elements: (0,0) (0,1) (0,2)
units: (0,0)
theta: (0,0) (0,0) (0,0)
iota: (0,0) (0,2) (0,1)
table:
(0,0) (0,1) (0,2)
(0,1) (0,2) (0,0)
(0,2) (0,0) (0,1)
"""

PAIR2 = """agt 1
kind: brandt
elements: (1,1) (1,2) (2,1) (2,2)
units: (1,1) (2,2)
alpha: (1,1) (1,1) (2,2) (2,2)
beta: (1,1) (2,2) (1,1) (2,2)
iota: (1,1) (2,1) (1,2) (2,2)
table:
(1,1) (1,2) . .
. . (1,1) (1,2)
(2,1) (2,2) . .
. . (2,1) (2,2)
"""


def group(table) -> Model:
    """One-unit model of a group table whose identity is element 0."""
    n = len(table)
    iota = [next(y for y in range(n) if table[x][y] == 0) for x in range(n)]
    return Model("almost", [str(i) for i in range(n)], [0], [0] * n, [0] * n, iota,
                 [list(r) for r in table])


def semidirect(m, r, k) -> Model:
    idx = lambda i, j: i * k + j
    return group([[idx((i1 + pow(r, j1, m) * i2) % m, (j1 + j2) % k)
                   for i2 in range(m) for j2 in range(k)] for i1 in range(m) for j1 in range(k)])


def test_family_formulas_against_hand_written_files():
    for text, argv in ((ZB13, ["zbundle", "1", "3"]), (PAIR2, ["pair", "2"])):
        want = oracles.family_model(argv)
        assert oracles.check_same_structure(oracles.read_agt(text), want) == []
        wrong = text.replace("(0,1) (0,2) (0,0)\n", "(0,1) (0,0) (0,2)\n").replace(
            ". . (1,1) (1,2)", ". . (1,2) (1,1)")
        assert oracles.check_same_structure(oracles.read_agt(wrong), want)


def test_family_formulas_s3_and_product():
    s3 = oracles.s3_model()
    ix = {s: i for i, s in enumerate(s3.names)}
    assert s3.names[s3.table[ix["(12)"]][ix["(13)"]]] == "(132)"
    prod = oracles.family_model(["product", "group-s3", "group-zn:2"])
    px = {s: i for i, s in enumerate(prod.names)}
    assert prod.names[prod.table[px["((12),1)"]][px["((13),1)"]]] == "((132),0)"
    assert prod.names[prod.table[px["((12),1)"]][px["((13),1)"]]] != "((123),0)"


def test_info_facts():
    facts = oracles.info_facts(oracles.zbundle_model(2, 2))
    right = "kind: almost\norder: 4\nunits: 2\nfibers: (0,0)=2 (1,0)=2\nabelian: yes\n"
    assert oracles.parse_info(right) == facts
    assert oracles.parse_info(right.replace("abelian: yes", "abelian: no")) != facts
    brandt = oracles.info_facts(oracles.pair_model(2))
    assert brandt["transitive"] and brandt["fibers"] == {"(1,1)": 1, "(2,2)": 1}


def test_verify_output():
    laws = "\n".join(f"{name} OK" for name in oracles.BRANDT_LAWS)
    right = f"kind: brandt\norder: 4\nunits: 2\n{laws}\nresult: PASS\n"
    assert oracles.check_verify_output(right, "brandt", True) == []
    assert oracles.check_verify_output(right.replace("B1_Assoc OK", "B1_Assoc FAIL"), "brandt", True)
    assert oracles.check_verify_output(right, "almost", True)


def brute_counts(m: Model) -> dict:
    """Every law instance of m evaluated directly."""
    T, n = m.table, m.order
    law_domain, law_assoc, law_unit, law_inv = m.laws()[:4]
    counts = {law: 0 for law in m.laws()}
    counts[law_domain] = sum(oracles.violates(m, law_domain, (x, y)) for x in range(n) for y in range(n))
    counts[law_assoc] = sum(not oracles.assoc_holds(T, *t) for t in itertools.product(range(n), repeat=3))
    counts[law_unit] = sum((T[m.src[x]][x] != x) + (T[x][m.dst[x]] != x) for x in range(n))
    counts[law_inv] = sum((T[x][m.iota[x]] != m.src[x]) + (T[m.iota[x]][x] != m.dst[x]) for x in range(n))
    return counts


def test_true_counts_match_brute_force():
    for base in (oracles.cyclic_model(4), oracles.zbundle_model(2, 3), oracles.pair_model(2),
                 oracles.s3_model()):
        pre = oracles.preimages(base.table)
        n = base.order
        for x, y in itertools.product(range(n), repeat=2):
            for value in {-1, 0, n - 1, (base.table[x][y] + 1) % n}:
                if value == base.table[x][y]:
                    continue
                mutant = base.with_cell(x, y, value)
                assert oracles.true_counts(mutant, (x, y), pre) == brute_counts(mutant)


def test_rejection_check_and_witnesses():
    base = oracles.cyclic_model(3)
    mutant = base.with_cell(1, 1, 0)  # 1+1 should be 2
    truth = oracles.true_counts(mutant, (1, 1), oracles.preimages(base.table))
    items = [("AG1", (x, y, z)) for x, y, z in itertools.product(range(3), repeat=3)
             if not oracles.assoc_holds(mutant.table, x, y, z)]
    items += [("AG3", (x,)) for x in range(3) if oracles.violates(mutant, "AG3", (x,))]
    assert oracles.check_rejection(mutant, items, False, truth, 100) == []
    assert oracles.check_rejection(mutant, items, True, truth, 100)  # accepted mutant
    assert oracles.check_rejection(mutant, items[1:], False, truth, 100)  # count too low
    assert oracles.check_rejection(mutant, items, False, truth, 1)  # cap ignored
    planted = items[:-1] + [("AG1", (0, 0, 0))]
    assert not oracles.violates(mutant, "AG1", (0, 0, 0))
    assert oracles.check_rejection(mutant, planted, False, truth, 100)


def test_word_closure_and_subgroupoid_verdict():
    z6 = oracles.cyclic_model(6)
    assert oracles.word_closure(z6, [2]) == {0, 2, 4}
    assert oracles.word_closure(z6, [2]) != {0, 2}
    right = (True, True, True, [0], None)
    assert oracles.check_subgroupoid_report(z6, [0, 2, 4], right) == []
    assert oracles.check_subgroupoid_report(z6, [0, 2], right)
    assert oracles.check_subgroupoid_report(z6, [0, 2], (False, False, False, [0], (2, 2))) == []
    assert oracles.check_subgroupoid_report(z6, [0, 2], (False, False, False, [0], (0, 0)))


def test_substructure_recomputations():
    s3 = oracles.s3_model()
    ix = {s: i for i, s in enumerate(s3.names)}
    assert oracles.centralizer(s3, ix["(12)"]) == {ix["e"], ix["(12)"]}
    assert oracles.center(s3) == {ix["e"]}
    assert oracles.powers(s3, ix["(123)"]) == {ix["e"], ix["(123)"], ix["(132)"]}
    assert oracles.set_product(s3, [ix["(12)"]], [ix["(13)"]]) == {ix["(132)"]}


def test_morphism_answer():
    zb, z3 = oracles.zbundle_model(2, 3), oracles.cyclic_model(3)
    f, f0 = [x % 3 for x in range(6)], {0: 0, 3: 0}
    assert oracles.check_morphism_answer(zb, z3, f, f0, True, None) == []
    bad = [0, 2, 2, 0, 1, 2]
    assert oracles.check_morphism_answer(zb, z3, bad, f0, True, None)
    assert oracles.check_morphism_answer(zb, z3, bad, f0, False, (1, 1)) == []
    assert oracles.check_morphism_answer(zb, z3, bad, f0, False, (4, 4))


def test_isomorphism_map():
    z4 = oracles.cyclic_model(4)
    assert oracles.check_isomorphism(z4, z4, [0, 3, 2, 1], {0: 0}) == []
    assert oracles.check_isomorphism(z4, z4, [0, 2, 1, 3], {0: 0})  # not a homomorphism
    assert oracles.check_isomorphism(z4, z4, [0, 1, 1, 3], {0: 0})  # not a bijection
    pair = oracles.pair_model(2)
    assert oracles.check_isomorphism(pair, pair, [3, 2, 1, 0], {0: 3, 3: 0}) == []
    assert oracles.check_isomorphism(pair, pair, [3, 2, 1, 0], {0: 0, 3: 3})


def test_invariant_certificate():
    a, b = semidirect(4, 1, 4), semidirect(4, 3, 4)
    assert oracles.invariants(a)["element_orders"] == oracles.invariants(b)["element_orders"]
    assert oracles.check_non_isomorphic(a, b) == []
    assert oracles.check_non_isomorphic(semidirect(16, 9, 4), semidirect(16, 5, 4)) == []
    # Z4 x Z4 and Z4 x|_1 Z4 are the same group: no certificate may exist.
    assert oracles.check_non_isomorphic(a, semidirect(4, 1, 4))


def test_position_inside():
    text = "agt 1\nkind: almost\n"
    assert oracles.position_inside(text, 2, 13)
    assert not oracles.position_inside(text, 2, 14)
    assert not oracles.position_inside(text, 4, 1)
