"""Shared builders and independent oracles for the test suite.

Oracle helpers here deliberately avoid the library's own predicates: they
work on plain integer lists extracted from the structures, so they can
cross-check the implementation.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import amg

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def builtin_catalog() -> list[tuple[str, amg.AlmostGroupoid]]:
    """The almost-groupoid built-ins exercised by the oracle sweeps."""
    out: list[tuple[str, amg.AlmostGroupoid]] = []
    for k in range(1, 6):
        out.append((f"null{k}", amg.null_almost_groupoid(k)))
    for n in (2, 3, 4, 6, 8):
        out.append((f"z{n}", amg.cyclic_group(n)))
    out.append(("s3", amg.symmetric_group_3()))
    out.append(("klein4", amg.klein_four_group()))
    for n in range(2, 9):
        out.append((f"zb1_{n}", amg.z_bundle(1, n)))
    for m, n in ((2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 4)):
        out.append((f"zb{m}_{n}", amg.z_bundle(m, n)))
    out.append(("matrix2", amg.matrix_bundle(2)))
    out.append(("matrix3", amg.matrix_bundle(3)))
    out.append(("z6ex", amg.z6_example()))
    out.append(("matrix5", amg.matrix_bundle(5)))
    return out


def brandt_products() -> list[tuple[str, amg.BrandtGroupoid]]:
    """Connected Brandt groupoids whose isotropy groups are not trivial:
    `amg gen product pair:3 group-s3` and `product pair:2 group-zn:4`."""
    return [("pair3_x_s3", amg.direct_product(amg.pair_groupoid(3), amg.symmetric_group_3())),
            ("pair2_x_z4", amg.direct_product(amg.pair_groupoid(2), amg.cyclic_group(4)))]


@pytest.fixture(scope="session")
def builtins():
    return builtin_catalog()


@pytest.fixture(scope="session")
def z6():
    return amg.z6_example()


def raw_tables(G: amg.AlmostGroupoid):
    """Plain-python (theta, iota, table rows) for oracle code."""
    T = [[int(v) for v in row] for row in G.table.cells]
    return list(G.theta), list(G.iota), T


def oracle_closed_subsets(G: amg.AlmostGroupoid) -> list[frozenset[int]]:
    """Every non-empty subset closed under defined products and inversion,
    found by raw enumeration (independent of the library predicates)."""
    n = G.order
    theta, iota, T = raw_tables(G)
    out = []
    for mask in range(1, 1 << n):
        S = [i for i in range(n) if (mask >> i) & 1]
        ok = True
        for x in S:
            if not (mask >> iota[x]) & 1:
                ok = False
                break
            for y in S:
                if theta[x] == theta[y] and not (mask >> T[x][y]) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(S))
    return out


def oracle_group_center(table: list[list[int]]) -> set[int]:
    """Center of a total group table by raw commutation scan."""
    n = len(table)
    return {a for a in range(n) if all(table[a][x] == table[x][a] for x in range(n))}


def oracle_fiber_subgroups(G: amg.AlmostGroupoid, u: int) -> list[frozenset[int]]:
    """All subgroups of the isotropy group at u, by subset enumeration."""
    theta, iota, T = raw_tables(G)
    fib = [x for x in range(G.order) if theta[x] == u]
    subsets = []
    m = len(fib)
    for mask in range(1, 1 << m):
        S = [fib[i] for i in range(m) if (mask >> i) & 1]
        Sset = set(S)
        if u not in Sset:
            continue
        if all(iota[x] in Sset and all(T[x][y] in Sset for y in S) for x in S):
            subsets.append(frozenset(S))
    return subsets


def oracle_word_closure(G: amg.AlmostGroupoid, seeds: list[int]) -> set[int]:
    """Signed-word products x1^e1 * ... * xk^ek by left extension."""
    theta, iota, T = raw_tables(G)
    letters = set(seeds) | {iota[x] for x in seeds}
    words = set(letters)
    frontier = set(letters)
    while frontier:
        nxt = set()
        for w in frontier:
            for s in letters:
                if theta[w] == theta[s]:
                    p = T[w][s]
                    if p not in words:
                        words.add(p)
                        nxt.add(p)
        frontier = nxt
    return words
