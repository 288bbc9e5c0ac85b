"""Differential tests of the associativity fast path (Light's test over the
anchor structure) against the exhaustive check it may skip.

The fast path may only accept: whenever it accepts a table, the exhaustive
routine must find no violation, and every report must equal the report the
exhaustive routine alone gives.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amg
from amg import core
from amg.core import Law, _assoc_accepts, _check_assoc, _Collector
from conftest import brandt_products, builtin_catalog

SRC = str(Path(core.__file__).resolve().parents[1])


def structures():
    out = list(builtin_catalog())
    out += [(f"pair{k}", amg.pair_groupoid(k)) for k in range(1, 7)]
    out += [("rstar5_2", amg.rstar_groupoid(5, 2)), ("rstar7_3", amg.rstar_groupoid(7, 3))]
    out += [(f"brandt_{name}", amg.almost_to_brandt(G)) for name, G in builtin_catalog()]
    out += brandt_products()
    # at least _LIGHT_MIN_ORDER elements, so that verification takes the fast path
    out += [("zb4_8", amg.z_bundle(4, 8)), ("brandt_zb4_8", amg.almost_to_brandt(amg.z_bundle(4, 8)))]
    return out


STRUCTURES = structures()


def anchors(G):
    return np.asarray(G.alpha, dtype=np.int32), np.asarray(G.beta, dtype=np.int32)


def exhaustive_assoc(T, names, cap=None):
    col = _Collector(cap)
    _check_assoc(T, names, col, Law.AG1)
    return col


def verify(G, table, cap=100):
    if G.kind == "almost":
        return amg.verify_almost(G.names, G.units, G.theta, G.iota, table, max_violations_per_law=cap)
    return amg.verify_brandt(G.names, G.units, G.alpha, G.beta, G.iota, table,
                             max_violations_per_law=cap)


def exhaustive_verify(G, table, cap, monkeypatch):
    """The report of the exhaustive associativity check alone."""
    with monkeypatch.context() as m:
        m.setattr(core, "_assoc_accepts", lambda T, al, be: False)
        return verify(G, table, cap)


def cell_mutants(G, rng: random.Random):
    """Every single-cell mutant: each defined cell changed to a seeded other
    value and undefined, each undefined cell defined."""
    T = G.table.cells
    n = G.order
    for x in range(n):
        for y in range(n):
            if T[x, y] >= 0:
                if n > 1:
                    M = T.copy()
                    M[x, y] = rng.choice([v for v in range(n) if v != T[x, y]])
                    yield M
                M = T.copy()
                M[x, y] = -1
                yield M
            else:
                M = T.copy()
                M[x, y] = rng.randrange(n)
                yield M


@pytest.mark.parametrize("name,G", STRUCTURES, ids=[name for name, _ in STRUCTURES])
def test_fast_path_accepts_verified_structures(name, G):
    assert _assoc_accepts(G.table.cells, *anchors(G)), name


def test_verification_takes_the_fast_path_from_light_min_order(monkeypatch):
    calls = []

    def spy(T, al, be):
        calls.append(len(T))
        return _assoc_accepts(T, al, be)

    structures = (amg.z6_example(), amg.z_bundle(4, 8), amg.pair_groupoid(6))
    monkeypatch.setattr(core, "_assoc_accepts", spy)
    for G in structures:
        assert verify(G, G.table).passed
    assert calls == [32, 36] and core._LIGHT_MIN_ORDER == 32


def test_fast_path_accepts_large_structures():
    for G in (amg.z_bundle(8, 64), amg.matrix_bundle(23), amg.pair_groupoid(24),
              amg.rstar_groupoid(23, 5),
              amg.direct_product(amg.symmetric_group_3(), amg.cyclic_group(85)),
              amg.disjoint_union(amg.z6_example(), amg.cyclic_group(30))):
        assert _assoc_accepts(G.table.cells, *anchors(G)), G


@pytest.mark.parametrize("name,G", STRUCTURES, ids=[name for name, _ in STRUCTURES])
def test_fast_accept_implies_exhaustive_pass(name, G, monkeypatch):
    rng = random.Random(name)
    al, be = anchors(G)
    composable = be[:, None] == al[None, :]
    for M in cell_mutants(G, rng):
        if not np.array_equal(M >= 0, composable):
            # the fast path runs only once the table-domain law holds
            assert verify(G, M, cap=1).failed_laws()[0] == Law.TABLE_DOMAIN, name
            continue
        if _assoc_accepts(M, al, be):
            col = exhaustive_assoc(M, G.names)
            assert not col.items and not col.counts, name
        for cap in (100, 1):
            assert verify(G, M, cap) == exhaustive_verify(G, M, cap, monkeypatch), name


def order5_loop(seed: int) -> np.ndarray:
    """A seeded non-associative loop of order 5 in which every element has a
    two-sided inverse: a reduced Latin square with 0 as identity."""
    rng = random.Random(seed)
    n = 5
    while True:
        T = np.full((n, n), -1, dtype=np.int32)
        T[0, :] = T[:, 0] = np.arange(n)

        def fill(k: int) -> bool:
            if k == n * n:
                return True
            x, y = divmod(k, n)
            if T[x, y] >= 0:
                return fill(k + 1)
            for v in rng.sample(range(n), n):
                if v in T[x, :] or v in T[:, y]:
                    continue
                T[x, y] = v
                if fill(k + 1):
                    return True
            T[x, y] = -1
            return False

        assert fill(0)
        inverse = (T == 0) & (T.T == 0)
        if inverse.any(axis=1).all() and exhaustive_assoc(T, [str(i) for i in range(n)]).items:
            return T


@pytest.mark.parametrize("seed", range(5))
def test_non_associative_loop_is_rejected_exhaustively(seed, monkeypatch):
    T = order5_loop(seed)
    n = len(T)
    names = tuple(f"g{i}" for i in range(n))
    iota = tuple(int(np.flatnonzero(T[x] == 0)[0]) for x in range(n))
    theta = (0,) * n
    al = np.zeros(n, dtype=np.int32)
    assert not _assoc_accepts(T, al, al)
    G = amg.AlmostGroupoid(names, (0,), theta, iota, T, check=False)
    B = amg.BrandtGroupoid(names, (0,), theta, theta, iota, T, check=False)
    for H, law in ((G, Law.AG1), (B, Law.B1_ASSOC)):
        for cap in (100, 1):
            report = verify(H, T, cap)
            assert report.failed_laws() == (law,)
            assert report == exhaustive_verify(H, T, cap, monkeypatch)
            expected = exhaustive_assoc(T, names, cap).items
            assert [(v.witness, v.message) for v in report.violations] == [
                (v.witness, v.message) for v in expected]
    # from_group names the first triple (a, b, c), in index order, with
    # (a*b)*c != a*(b*c)
    with pytest.raises(amg.NotAGroupError, match="not associative") as err:
        amg.from_group(T)
    left, right = T[T], T[np.arange(n)[:, None, None], T]
    assert err.value.witness == tuple(int(v) for v in np.argwhere(left != right)[0])


def test_non_associative_fiber_among_groups_is_rejected(monkeypatch):
    """The loop as one fiber of an almost groupoid, and as the isotropy
    group of a connected Brandt groupoid on three units."""
    L = order5_loop(7)
    q = len(L)
    # almost: Z_4 fiber, then the loop fiber
    Z = amg.cyclic_group(4)
    T = np.full((4 + q, 4 + q), -1, dtype=np.int32)
    T[:4, :4] = Z.table.cells
    T[4:, 4:] = L + 4
    names = tuple(f"z{i}" for i in range(4)) + tuple(f"l{i}" for i in range(q))
    theta = (0,) * 4 + (4,) * q
    iota = tuple(Z.iota) + tuple(4 + int(np.flatnonzero(L[x] == 0)[0]) for x in range(q))
    G = amg.AlmostGroupoid(names, (0, 4), theta, iota, T, check=False)
    # brandt: elements (x, y, g) with (x, y, g)(y, z, h) = (x, z, gh)
    k = 3
    idx = lambda x, y, g: (x * k + y) * q + g
    order = k * k * q
    TB = np.full((order, order), -1, dtype=np.int32)
    for x in range(k):
        for y in range(k):
            for z in range(k):
                for g in range(q):
                    for h in range(q):
                        TB[idx(x, y, g), idx(y, z, h)] = idx(x, z, L[g, h])
    bnames = tuple(f"({x},{y},{g})" for x in range(k) for y in range(k) for g in range(q))
    alpha = tuple(idx(x, x, 0) for x in range(k) for y in range(k) for g in range(q))
    beta = tuple(idx(y, y, 0) for x in range(k) for y in range(k) for g in range(q))
    inv = [int(np.flatnonzero(L[g] == 0)[0]) for g in range(q)]
    biota = tuple(idx(y, x, inv[g]) for x in range(k) for y in range(k) for g in range(q))
    units = tuple(idx(x, x, 0) for x in range(k))
    B = amg.BrandtGroupoid(bnames, units, alpha, beta, biota, TB, check=False)
    for H, law in ((G, Law.AG1), (B, Law.B1_ASSOC)):
        assert not _assoc_accepts(H.table.cells, *anchors(H))
        for cap in (100, 1):
            report = verify(H, H.table, cap)
            assert report.failed_laws() == (law,)
            assert report == exhaustive_verify(H, H.table, cap, monkeypatch)


def test_fast_path_declines_when_closure_fails():
    # z_bundle(2, 2) with one product moved into the other fiber: the domain
    # law holds, anchor closure does not
    G = amg.z_bundle(2, 2)
    M = G.table.cells.copy()
    M[1, 1] = 2
    al, be = anchors(G)
    assert np.array_equal(M >= 0, be[:, None] == al[None, :])
    assert not _assoc_accepts(M, al, be)
    assert exhaustive_assoc(M, G.names).items


# The one-fiber product, `amg gen product group-s3 group-zn:85`, is where the
# fiber walk of derived_identities and is_abelian does all its work.
PRODUCT_510 = amg.direct_product(amg.symmetric_group_3(), amg.cyclic_group(85))


@pytest.mark.parametrize("G,args", [(amg.z_bundle(8, 64), ["verify", "--laws"]),
                                    (amg.pair_groupoid(24), ["verify"]),
                                    (PRODUCT_510, ["verify", "--laws"]), (PRODUCT_510, ["info"])],
                         ids=["zbundle-laws", "pair", "product-laws", "product-info"])
def test_verify_does_not_import_numpy_ma(tmp_path, G, args):
    path = tmp_path / "ladder.agt"
    path.write_text(amg.serialize(G), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "amg", args[0], str(path), *args[1:]],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "amg.core" in imported
    assert "numpy.ma" not in imported
