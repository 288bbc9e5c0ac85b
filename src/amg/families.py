"""Built-in structure families at desk scale, plus product and union combinators.

Element naming is fixed per family so serialized files are stable:
the order-18 example uses u1..u6 and p1..p12, bundle families use "(a,c)",
the matrix family uses "A(a,k)", and point-pair families use "(x,y)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    MAX_CARRIER,
    AlmostGroupoid,
    BrandtGroupoid,
    PartialTable,
    Structure,
    VerificationError,
)


class NotAGroupError(ValueError):
    """A candidate multiplication table fails a group axiom."""

    def __init__(self, reason: str, witness: tuple[int, ...] = ()):
        super().__init__(reason)
        self.witness = witness


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def from_group(table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None) -> AlmostGroupoid:
    """Present a group table as an almost groupoid over its single unit. A
    non-associative table raises NotAGroupError naming the first failing
    triple in index order, as the verifying constructor reports it."""
    T = np.asarray(table)
    if T.dtype.kind not in "iu":
        raise ValueError(f"group table entries must be integers, got dtype {T.dtype}")
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("group table must be square")
    n = T.shape[0]
    if n == 0 or n > MAX_CARRIER:
        raise ValueError(f"group order must be in 1..{MAX_CARRIER}")
    if T.min() < 0 or T.max() >= n:
        raise NotAGroupError("table entries out of range")
    T = T.astype(np.int32)
    idx = np.arange(n)
    e = next((c for c in range(n) if np.array_equal(T[c], idx) and np.array_equal(T[:, c], idx)), None)
    if e is None:
        raise NotAGroupError("table has no two-sided identity")
    inverse = (T == e) & (T.T == e)  # inverse[a, b]: a*b = b*a = e
    missing = np.flatnonzero(~inverse.any(axis=1))
    if len(missing):
        a = int(missing[0])
        raise NotAGroupError(f"element {a} has no inverse", (a,))
    inv = inverse.argmax(axis=1).tolist()
    if names is None:
        names = [f"g{i}" for i in range(n)]
    theta = tuple(e for _ in range(n))
    try:
        return AlmostGroupoid(tuple(names), (e,), theta, tuple(inv), PartialTable(T))
    except VerificationError as exc:
        # a total table with a two-sided identity and inverses fails only AG1
        raise NotAGroupError("table is not associative", exc.report.violations[0].witness) from None


def _block_table(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The table with the given tables down its diagonal, each shifted to
    its own index range; every product between two blocks is undefined."""
    order = sum(len(b) for b in blocks)
    T = np.full((order, order), -1, dtype=np.int32)
    lo = 0
    for b in blocks:
        hi = lo + len(b)
        T[lo:hi, lo:hi] = np.where(b >= 0, b + lo, -1)
        lo = hi
    return T


def cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.int32)
    return (idx[:, None] + idx) % n


def cyclic_group(n: int) -> AlmostGroupoid:
    """The additive group of integers modulo n, elements named 0..n-1."""
    if n < 1:
        raise ValueError("modulus must be positive")
    return from_group(cyclic_table(n), [str(i) for i in range(n)])


_S3_PERMS = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))
_S3_NAMES = ("e", "(12)", "(13)", "(23)", "(123)", "(132)")


def symmetric_group_3() -> AlmostGroupoid:
    """S3 with composition sigma*tau = apply tau, then sigma."""
    pos = {p: i for i, p in enumerate(_S3_PERMS)}
    table = [
        [pos[tuple(p[q[i]] for i in range(3))] for q in _S3_PERMS]
        for p in _S3_PERMS
    ]
    return from_group(table, _S3_NAMES)


def klein_four_group() -> AlmostGroupoid:
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return from_group(table, ("e", "a", "b", "c"))


def null_almost_groupoid(k: int) -> AlmostGroupoid:
    """k isolated units; the only defined products are u*u = u."""
    if k < 1:
        raise ValueError("size must be at least 1")
    if k > MAX_CARRIER:
        raise ValueError(f"size exceeds bound {MAX_CARRIER}")
    names = tuple(f"u{i + 1}" for i in range(k))
    ident = tuple(range(k))
    T = np.full((k, k), -1, dtype=np.int32)
    np.fill_diagonal(T, np.arange(k))
    return AlmostGroupoid(names, ident, ident, ident, T)


def z_bundle(m: int, n: int) -> AlmostGroupoid:
    """Bundle of m copies of the cyclic group Z_n over an m-point base.

    Elements (a, c) with a in [0, m) and c in Z_n; products add the second
    coordinate within a fixed first coordinate.
    """
    if m < 1 or n < 1:
        raise ValueError("base and fiber sizes must be positive")
    if m * n > MAX_CARRIER:
        raise ValueError(f"order {m * n} exceeds bound {MAX_CARRIER}")
    names = tuple(f"({a},{c})" for a in range(m) for c in range(n))
    idx = lambda a, c: a * n + c
    units = tuple(idx(a, 0) for a in range(m))
    theta = tuple(idx(a, 0) for a in range(m) for c in range(n))
    iota = tuple(idx(a, (-c) % n) for a in range(m) for c in range(n))
    return AlmostGroupoid(names, units, theta, iota, _block_table([cyclic_table(n)] * m))


def matrix_bundle(p: int) -> AlmostGroupoid:
    """Upper-triangular matrices A(a, k) over the p-element field, a nonzero.

    theta(A(a,k)) = A(1,k); products multiply the a-coordinate within a
    fixed k; order is p*(p-1).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > 61:
        raise ValueError("prime must be at most 61")
    fiber = p - 1
    idx = lambda a, k: k * fiber + (a - 1)
    names = tuple(f"A({a},{k})" for k in range(p) for a in range(1, p))
    units = tuple(idx(1, k) for k in range(p))
    theta = tuple(idx(1, k) for k in range(p) for a in range(1, p))
    iota = tuple(idx(pow(a, -1, p), k) for k in range(p) for a in range(1, p))
    a = np.arange(1, p, dtype=np.int32)
    block = a[:, None] * a % p - 1  # idx(a1 * a2, 0)
    return AlmostGroupoid(names, units, theta, iota, _block_table([block] * p))


def z6_example() -> AlmostGroupoid:
    """The order-18 almost groupoid on H x Z6 with H = {0, 2, 4}.

    theta(a,b) = (0, b-a), (a,b)*(c,d) = (a+c, b+c) when b-a = d-c, and
    iota(a,b) = (-a, b-2a), all modulo 6. Elements are named u1..u6 for the
    units (0,0)..(0,5) and p1..p12 for (2,0)..(2,5), (4,0)..(4,5).
    """
    pairs = [(0, b) for b in range(6)] + [(2, b) for b in range(6)] + [(4, b) for b in range(6)]
    names = tuple(f"u{i + 1}" for i in range(6)) + tuple(f"p{j + 1}" for j in range(12))
    pos = {pr: i for i, pr in enumerate(pairs)}
    theta = tuple(pos[(0, (b - a) % 6)] for a, b in pairs)
    iota = tuple(pos[((-a) % 6, (b - 2 * a) % 6)] for a, b in pairs)
    order = 18
    rows = [[None] * order for _ in range(order)]
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if (b - a) % 6 == (d - c) % 6:
                rows[i][j] = pos[((a + c) % 6, (b + c) % 6)]
    return AlmostGroupoid(names, tuple(range(6)), theta, iota, rows)


def pair_groupoid(k: int) -> BrandtGroupoid:
    """The pair groupoid on k points: (x,y)*(y,z) = (x,z)."""
    if not 1 <= k <= 64:
        raise ValueError("point count must be in 1..64")
    idx = lambda x, y: (x - 1) * k + (y - 1)
    names = tuple(f"({x},{y})" for x in range(1, k + 1) for y in range(1, k + 1))
    units = tuple(idx(x, x) for x in range(1, k + 1))
    alpha = tuple(idx(x, x) for x in range(1, k + 1) for y in range(1, k + 1))
    beta = tuple(idx(y, y) for x in range(1, k + 1) for y in range(1, k + 1))
    iota = tuple(idx(y, x) for x in range(1, k + 1) for y in range(1, k + 1))
    T = np.full((k * k, k * k), -1, dtype=np.int32)
    x, y, z = np.ogrid[1 : k + 1, 1 : k + 1, 1 : k + 1]
    T[idx(x, y), idx(y, z)] = idx(x, z)
    return BrandtGroupoid(names, units, alpha, beta, iota, T)


def rstar_groupoid(p: int, a: int) -> BrandtGroupoid:
    """Pairs over the nonzero residues mod p with twisted anchors.

    With b the inverse of a, alpha(x,y) = (x, ax), beta(x,y) = (by, y),
    (x,y)*(by,u) = (x,u), and iota(x,y) = (by, ax).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > 31:
        raise ValueError("prime must be at most 31")
    a = a % p
    if a == 0:
        raise ValueError("parameter a must be a unit mod p")
    b = pow(a, -1, p)
    q = p - 1
    idx = lambda x, y: (x - 1) * q + (y - 1)
    elems = [(x, y) for x in range(1, p) for y in range(1, p)]
    names = tuple(f"({x},{y})" for x, y in elems)
    alpha = tuple(idx(x, a * x % p) for x, y in elems)
    beta = tuple(idx(b * y % p, y) for x, y in elems)
    iota = tuple(idx(b * y % p, a * x % p) for x, y in elems)
    units = tuple(sorted({idx(x, a * x % p) for x in range(1, p)}))
    T = np.full((q * q, q * q), -1, dtype=np.int32)
    x, y, u = np.ogrid[1:p, 1:p, 1:p]
    T[idx(x, y), idx(b * y % p, u)] = idx(x, u)
    return BrandtGroupoid(names, units, alpha, beta, iota, T)


def _assemble(G1: Structure, G2: Structure, names, table, combine) -> Structure:
    """Units and maps combine(G1's, G2's), almost when both operands are."""
    m = lambda label: combine(getattr(G1, label), getattr(G2, label))
    if G1.kind == G2.kind == "almost":
        return AlmostGroupoid(names, m("units"), m("alpha"), m("iota"), table)
    return BrandtGroupoid(names, m("units"), m("alpha"), m("beta"), m("iota"), table)


def direct_product(G1: Structure, G2: Structure) -> Structure:
    """Componentwise product; pairs compose iff both components compose. By
    Brandt's theorem, direct_product(pair_groupoid(k), G) for a group G is
    the connected Brandt groupoid with k units and isotropy group G."""
    n1, n2 = G1.order, G2.order
    if n1 * n2 > MAX_CARRIER:
        raise ValueError(f"order {n1 * n2} exceeds bound {MAX_CARRIER}")
    names = tuple(f"({G1.names[i]},{G2.names[j]})" for i in range(n1) for j in range(n2))
    if len(set(names)) != len(names):
        raise ValueError("component names collide under pairing")
    # cell ((i, j), (k, l)) of the product, as axes i, j, k, l
    T1 = G1.table.cells[:, None, :, None]
    T2 = G2.table.cells[None, :, None, :]
    T = np.where((T1 >= 0) & (T2 >= 0), T1 * n2 + T2, -1).reshape(n1 * n2, n1 * n2)
    return _assemble(G1, G2, names, T, lambda m1, m2: tuple(a * n2 + b for a in m1 for b in m2))


def disjoint_union(G1: Structure, G2: Structure) -> Structure:
    """Tagged union with no cross products; G2's units and maps are shifted.

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
    table = _block_table([G1.table.cells, G2.table.cells])
    return _assemble(G1, G2, names, table, lambda m1, m2: tuple(m1) + tuple(v + n1 for v in m2))


@dataclass(frozen=True)
class FamilySpec:
    """A buildable family name with its integer parameters.

    product and union carry two sub-specs instead of integers.
    """

    family: str
    params: tuple[int, ...] = ()
    subs: tuple["FamilySpec", ...] = ()


FAMILY_NAMES = (
    "group-zn",
    "group-s3",
    "null",
    "zbundle",
    "matrix",
    "z6",
    "pair",
    "rstar",
    "product",
    "union",
)

_ARITY = {
    "group-zn": 1,
    "group-s3": 0,
    "null": 1,
    "zbundle": 2,
    "matrix": 1,
    "z6": 0,
    "pair": 1,
    "rstar": 2,
}


def parse_family_token(token: str) -> FamilySpec:
    """Parse a compact spec like "zbundle:2:6" into a FamilySpec."""
    parts = token.split(":")
    name = parts[0]
    if name in ("product", "union"):
        raise ValueError("product and union cannot be nested in a compact spec")
    if name not in _ARITY:
        raise ValueError(f"unknown family {name!r}")
    if len(parts) - 1 != _ARITY[name]:
        raise ValueError(f"family {name} takes {_ARITY[name]} parameter(s)")
    try:
        params = tuple(int(s) for s in parts[1:])
    except ValueError:
        raise ValueError(f"family parameters must be integers: {token!r}") from None
    return FamilySpec(name, params)


def build_family(spec: FamilySpec):
    """Instantiate a FamilySpec; returns an almost or Brandt groupoid."""
    fam, p = spec.family, spec.params
    if fam == "group-zn":
        return cyclic_group(p[0])
    if fam == "group-s3":
        return symmetric_group_3()
    if fam == "null":
        return null_almost_groupoid(p[0])
    if fam == "zbundle":
        return z_bundle(p[0], p[1])
    if fam == "matrix":
        return matrix_bundle(p[0])
    if fam == "z6":
        return z6_example()
    if fam == "pair":
        return pair_groupoid(p[0])
    if fam == "rstar":
        return rstar_groupoid(p[0], p[1])
    if fam in ("product", "union"):
        if len(spec.subs) != 2:
            raise ValueError(f"{fam} takes exactly two sub-specs")
        g1, g2 = (build_family(s) for s in spec.subs)
        return direct_product(g1, g2) if fam == "product" else disjoint_union(g1, g2)
    raise ValueError(f"unknown family {fam!r}")
