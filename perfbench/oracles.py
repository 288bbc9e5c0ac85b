"""Independent checkers for the benchmark: plain Python, no import of amg.

Every structure here is a Model: element names, unit indices, source and
target anchors, inversion, and a list-of-lists product table with -1 for
undefined cells. An almost groupoid is the case src == dst == theta, so one
set of checks serves both kinds: x*y is defined exactly when dst[x] == src[y].

Each check_* function returns a list of problems; an empty list accepts the
program's answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

ALMOST_LAWS = ("TableDomain", "AG1", "AG2", "AG3", "ThetaSurjective")
BRANDT_LAWS = ("TableDomain", "B1_Assoc", "B2_Identities", "B3_Inverses",
               "AlphaBetaSurjective", "IotaInjective")
DERIVED_IDENTITIES = (
    "theta-fixes-units", "unit-self-product", "iota-fixes-units", "theta-of-product",
    "theta-of-inverse", "theta-idempotent", "cancellation", "inverse-of-product",
    "double-inverse", "solve-in-fiber", "theta-after-iota", "iota-involution",
    "unit-uniqueness", "small-powers-defined",
)


@dataclass
class Model:
    kind: str  # "almost" or "brandt"
    names: list
    units: list
    src: list  # theta (almost) or alpha (brandt)
    dst: list  # theta (almost) or beta (brandt)
    iota: list
    table: list  # table[x][y] = index of x*y, or -1

    @property
    def order(self) -> int:
        return len(self.names)

    def laws(self) -> tuple:
        return ALMOST_LAWS if self.kind == "almost" else BRANDT_LAWS

    def with_cell(self, x: int, y: int, value: int) -> "Model":
        table = list(self.table)
        row = list(table[x])
        row[y] = value
        table[x] = row
        return Model(self.kind, self.names, self.units, self.src, self.dst, self.iota, table)


# ---------------------------------------------------------------- families
# Built from each family's definition, with the element names the CLI uses.

def _from_pairs(kind, elems, name, src, dst, inv, mul, units):
    """Model from element keys and functions on keys; mul returns None when undefined."""
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for x in elems:
        row = []
        for y in elems:
            p = mul(x, y)
            row.append(-1 if p is None else index[p])
        table.append(row)
    return Model(kind, [name(e) for e in elems], sorted(index[u] for u in units),
                 [index[src(e)] for e in elems], [index[dst(e)] for e in elems],
                 [index[inv(e)] for e in elems], table)


def zbundle_model(m: int, n: int) -> Model:
    """(a,c)*(a,d) = (a, c+d mod n); theta(a,c) = (a,0)."""
    elems = [(a, c) for a in range(m) for c in range(n)]
    th = lambda e: (e[0], 0)
    return _from_pairs(
        "almost", elems, lambda e: f"({e[0]},{e[1]})", th, th,
        lambda e: (e[0], -e[1] % n),
        lambda x, y: (x[0], (x[1] + y[1]) % n) if x[0] == y[0] else None,
        [(a, 0) for a in range(m)])


def matrix_model(p: int) -> Model:
    """A(a,k)*A(b,k) = A(ab mod p, k) for nonzero a, b; theta = A(1,k)."""
    elems = [(a, k) for k in range(p) for a in range(1, p)]
    th = lambda e: (1, e[1])
    return _from_pairs(
        "almost", elems, lambda e: f"A({e[0]},{e[1]})", th, th,
        lambda e: (pow(e[0], p - 2, p), e[1]),
        lambda x, y: (x[0] * y[0] % p, x[1]) if x[1] == y[1] else None,
        [(1, k) for k in range(p)])


def pair_model(k: int) -> Model:
    """(x,y)*(y,z) = (x,z); alpha(x,y) = (x,x), beta(x,y) = (y,y)."""
    elems = [(x, y) for x in range(1, k + 1) for y in range(1, k + 1)]
    return _from_pairs(
        "brandt", elems, lambda e: f"({e[0]},{e[1]})",
        lambda e: (e[0], e[0]), lambda e: (e[1], e[1]), lambda e: (e[1], e[0]),
        lambda x, y: (x[0], y[1]) if x[1] == y[0] else None,
        [(x, x) for x in range(1, k + 1)])


def rstar_model(p: int, a: int) -> Model:
    """Pairs of nonzero residues; with b = 1/a: alpha(x,y) = (x,ax),
    beta(x,y) = (by,y), (x,y)*(by,u) = (x,u), iota(x,y) = (by,ax)."""
    a %= p
    b = pow(a, p - 2, p)
    elems = [(x, y) for x in range(1, p) for y in range(1, p)]
    return _from_pairs(
        "brandt", elems, lambda e: f"({e[0]},{e[1]})",
        lambda e: (e[0], a * e[0] % p), lambda e: (b * e[1] % p, e[1]),
        lambda e: (b * e[1] % p, a * e[0] % p),
        lambda x, y: (x[0], y[1]) if y[0] == b * x[1] % p else None,
        [(x, a * x % p) for x in range(1, p)])


def cyclic_model(n: int) -> Model:
    elems = list(range(n))
    unit = lambda e: 0
    return _from_pairs("almost", elems, str, unit, unit, lambda e: -e % n,
                       lambda x, y: (x + y) % n, [0])


def _cycle_perm(name: str) -> tuple:
    """Permutation of {1,2,3} (as a tuple of images) from cycle notation."""
    img = {1: 1, 2: 2, 3: 3}
    if name != "e":
        pts = [int(c) for c in name.strip("()")]
        for i, p in enumerate(pts):
            img[p] = pts[(i + 1) % len(pts)]
    return (img[1], img[2], img[3])


def s3_model() -> Model:
    """S3 on {1,2,3}, (s*t)(i) = s(t(i)), elements named in cycle notation."""
    names = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    perm = {s: _cycle_perm(s) for s in names}
    by_perm = {v: k for k, v in perm.items()}
    compose = lambda s, t: by_perm[tuple(perm[s][perm[t][i] - 1] for i in range(3))]
    inverse = lambda s: next(t for t in names if compose(s, t) == "e")
    unit = lambda e: "e"
    return _from_pairs("almost", names, str, unit, unit, inverse, compose, ["e"])


def product_model(m1: Model, m2: Model) -> Model:
    """Componentwise product of two almost groupoids; names "(a,b)"."""
    elems = [(i, j) for i in range(m1.order) for j in range(m2.order)]
    th = lambda e: (m1.src[e[0]], m2.src[e[1]])

    def mul(x, y):
        p, q = m1.table[x[0]][y[0]], m2.table[x[1]][y[1]]
        return None if p < 0 or q < 0 else (p, q)

    return _from_pairs(
        "almost", elems, lambda e: f"({m1.names[e[0]]},{m2.names[e[1]]})", th, th,
        lambda e: (m1.iota[e[0]], m2.iota[e[1]]), mul,
        [(u, v) for u in m1.units for v in m2.units])


def family_model(argv: list) -> Model:
    """Model for `amg gen` arguments such as ["zbundle", "8", "64"] or
    ["product", "group-s3", "group-zn:85"]."""
    name, params = argv[0], argv[1:]
    if name == "product":
        return product_model(*(family_model(t.split(":")) for t in params))
    ints = [int(p) for p in params]
    builders = {"zbundle": zbundle_model, "matrix": matrix_model, "pair": pair_model,
                "rstar": rstar_model, "group-zn": cyclic_model, "group-s3": s3_model}
    return builders[name](*ints)


# ---------------------------------------------------------------- AGT text

def read_agt(text: str) -> Model:
    """Read canonical AGT text with str.split; raises ValueError when malformed."""
    lines = [ln.split("#", 1)[0].split() for ln in text.split("\n")]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != ["agt", "1"]:
        raise ValueError("missing header 'agt 1'")
    sections = {}
    i = 1
    while i < len(lines) and lines[i][0] != "table:":
        sections[lines[i][0]] = lines[i][1:]
        i += 1
    names = sections.get("elements:", [])
    index = {s: k for k, s in enumerate(names)}
    rows = lines[i + 1:]
    if len(index) != len(names) or len(rows) != len(names):
        raise ValueError("element list and table rows disagree")
    kind = sections["kind:"][0]
    look = lambda key: [index[s] for s in sections[key]]
    src, dst = (look("theta:"),) * 2 if kind == "almost" else (look("alpha:"), look("beta:"))
    table = [[-1 if s == "." else index[s] for s in row] for row in rows]
    if any(len(row) != len(names) for row in table):
        raise ValueError("ragged table")
    return Model(kind, names, sorted(look("units:")), src, dst, look("iota:"), table)


def check_same_structure(got: Model, want: Model) -> list:
    """Equality up to element order: names, kind, units, anchors, inverses, products."""
    if got.kind != want.kind:
        return [f"kind {got.kind} != {want.kind}"]
    if sorted(got.names) != sorted(want.names):
        return ["element names differ"]
    w = {s: i for i, s in enumerate(want.names)}
    to_w = [w[s] for s in got.names]
    lift = lambda v: -1 if v < 0 else to_w[v]
    problems = []
    if sorted(to_w[u] for u in got.units) != sorted(want.units):
        problems.append("units differ")
    for label, g, t in (("source", got.src, want.src), ("target", got.dst, want.dst),
                        ("inverse", got.iota, want.iota)):
        if any(t[to_w[x]] != to_w[v] for x, v in enumerate(g)):
            problems.append(f"{label} map differs")
    for x, row in enumerate(got.table):
        wrow = want.table[to_w[x]]
        if any(wrow[to_w[y]] != lift(v) for y, v in enumerate(row)):
            problems.append(f"product row of {got.names[x]} differs")
            break
    return problems


def position_inside(text: str, line: int, col: int) -> bool:
    """True when a 1-based (line, column) lies in the document, end of line included."""
    lines = text.split("\n")
    return 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1


# ---------------------------------------------------------------- CLI output

def info_facts(m: Model) -> dict:
    """What `amg info` should print, computed from the table."""
    T, n = m.table, m.order
    fibers = {m.names[u]: sum(1 for x in range(n) if m.src[x] == u and m.dst[x] == u)
              for u in m.units}
    facts = {"kind": m.kind, "order": n, "units": len(m.units), "fibers": fibers}
    if m.kind == "almost":
        facts["abelian"] = all(T[x][y] == T[y][x] for x in range(n) for y in range(n))
    else:
        facts["transitive"] = len({(m.src[x], m.dst[x]) for x in range(n)}) == len(m.units) ** 2
    return facts


def parse_info(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, val = line.partition(": ")
        if key in ("order", "units"):
            out[key] = int(val)
        elif key == "fibers":
            out[key] = {s.rsplit("=", 1)[0]: int(s.rsplit("=", 1)[1]) for s in val.split()}
        elif key in ("abelian", "transitive"):
            out[key] = val == "yes"
        else:
            out[key] = val
    return out


def check_verify_output(stdout: str, kind: str, laws: bool) -> list:
    """Every law line, and every derived identity of an almost file, reads OK."""
    marks = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1] in ("OK", "FAIL"):
            marks[parts[0]] = parts[1]
    expected = list(ALMOST_LAWS if kind == "almost" else BRANDT_LAWS)
    if laws and kind == "almost":
        expected += DERIVED_IDENTITIES
    problems = [f"{name} not OK" for name in expected if marks.get(name) != "OK"]
    if sorted(marks) != sorted(expected):
        problems.append("unexpected law lines")
    if "result: PASS" not in stdout.splitlines():
        problems.append("result is not PASS")
    return problems


# ---------------------------------------------------------------- violations

def _prod(T, x, y):
    return -1 if x < 0 or y < 0 else T[x][y]


def assoc_holds(T, x: int, y: int, z: int) -> bool:
    """(x*y)*z defined iff x*(y*z) defined, and equal when defined."""
    return _prod(T, _prod(T, x, y), z) == _prod(T, x, _prod(T, y, z))


def violates(m: Model, law: str, w: tuple) -> bool:
    """True when witness w is a real violation of law in m."""
    T, src, dst, inv = m.table, m.src, m.dst, m.iota
    if law == "TableDomain":
        x, y = w
        return (T[x][y] >= 0) != (dst[x] == src[y])
    if law in ("AG1", "B1_Assoc"):
        return not assoc_holds(T, *w)
    (x,) = w
    if law in ("AG2", "B2_Identities"):
        return T[src[x]][x] != x or T[x][dst[x]] != x
    if law in ("AG3", "B3_Inverses"):
        return T[x][inv[x]] != src[x] or T[inv[x]][x] != dst[x]
    return False


def preimages(T) -> dict:
    """value -> list of cells (x, y) holding it."""
    pre = {}
    for x, row in enumerate(T):
        for y, v in enumerate(row):
            pre.setdefault(v, []).append((x, y))
    return pre


def true_counts(m: Model, cell: tuple, base_pre: dict) -> dict:
    """Number of violations per law of m, whose table differs from a verified
    base only at cell; base_pre is preimages() of the base table.

    Only law instances that read the mutated cell can fail, so enumerating
    those is exact.
    """
    T, src, dst, inv, n = m.table, m.src, m.dst, m.iota, m.order
    a, b = cell
    new = T[a][b]

    def cells_holding(v):
        out = [c for c in base_pre.get(v, ()) if c != cell]
        return out + [cell] if new == v else out

    assoc = {(a, b, z) for z in range(n)} | {(x, a, b) for x in range(n)}
    assoc |= {(x, y, b) for x, y in cells_holding(a)}
    assoc |= {(a, y, z) for y, z in cells_holding(b)}
    law_domain, law_assoc, law_unit, law_inv = m.laws()[:4]
    counts = {law: 0 for law in m.laws()}
    counts[law_domain] = int((new >= 0) != (dst[a] == src[b]))
    counts[law_assoc] = sum(1 for t in assoc if not assoc_holds(T, *t))
    # Unit law: src(x)*x = x reads (src x, x); x*dst(x) = x reads (x, dst x).
    counts[law_unit] = int(src[b] == a and T[a][b] != b) + int(dst[a] == b and T[a][b] != a)
    # Inverse law: x*inv(x) = src(x) reads (x, inv x); inv(x)*x = dst(x) reads (inv x, x).
    counts[law_inv] = int(inv[a] == b and T[a][b] != src[a]) + int(inv[b] == a and T[a][b] != dst[b])
    return counts


def check_rejection(m: Model, report_items: list, passed: bool, truth: dict, cap: int) -> list:
    """report_items: (law name, witness) pairs from a verification report of m."""
    problems = [] if not passed else ["mutant accepted"]
    got = Counter(law for law, _ in report_items)
    for law, count in truth.items():
        if got.get(law, 0) != min(count, cap):
            problems.append(f"{law}: reported {got.get(law, 0)}, true {count}, cap {cap}")
    problems += [f"{law} witness {w} is not a violation"
                 for law, w in report_items if not violates(m, law, w)]
    return problems


# ---------------------------------------------------------------- substructures

def word_closure(m: Model, seeds) -> set:
    """Elements written as defined products of seeds and their inverses."""
    gens = {s for s in seeds} | {m.iota[s] for s in seeds}
    out, todo = set(gens), list(gens)
    while todo:
        w = todo.pop()
        for g in gens:
            p = m.table[w][g]
            if p >= 0 and p not in out:
                out.add(p)
                todo.append(p)
    return out


def centralizer(m: Model, a: int) -> set:
    T = m.table
    return {g for g in range(m.order) if m.src[g] == m.src[a] and T[g][a] == T[a][g]}


def center(m: Model) -> set:
    T, n = m.table, m.order
    return {a for a in range(n) if all(T[x][a] == T[a][x] for x in range(n) if m.src[x] == m.src[a])}


def powers(m: Model, a: int) -> set:
    out, cur = {m.src[a]}, a
    while cur not in out:
        out.add(cur)
        cur = m.table[cur][a]
    return out


def set_product(m: Model, H, K) -> set:
    T = m.table
    return {T[h][k] for h in H for k in K if T[h][k] >= 0}


def subgroupoid_verdict(m: Model, H) -> tuple:
    """(closed, wide, normal, unit indices) of a subset, from the definitions."""
    T, inv, hs = m.table, m.iota, set(H)
    closed = all(T[x][y] < 0 or T[x][y] in hs for x in hs for y in hs)
    closed = closed and all(inv[x] in hs for x in hs)
    units = {m.src[x] for x in hs} | {m.dst[x] for x in hs}
    wide = closed and {m.src[x] for x in hs} == set(m.units) == {m.dst[x] for x in hs}
    normal = wide and all(
        _prod(T, T[g][h], inv[g]) < 0 or T[T[g][h]][inv[g]] in hs
        for h in hs for g in range(m.order))
    return closed, wide, normal, units


def check_subgroupoid_report(m: Model, H, rep: tuple) -> list:
    """rep: (is_subgroupoid, is_wide, is_normal, unit indices, witness)."""
    closed, wide, normal, units, witness = rep
    problems = [] if (closed, wide, normal, set(units)) == subgroupoid_verdict(m, H) else ["verdict differs"]
    hs = set(H)
    if not closed:
        if witness is None:
            problems.append("no witness")
        elif len(witness) == 1 and m.iota[witness[0]] in hs:
            problems.append("inverse witness is closed")
        elif len(witness) == 2 and _prod(m.table, *witness) in hs | {-1}:
            problems.append("product witness is closed")
    return problems


# ---------------------------------------------------------------- morphisms

def morphism_failures(ms: Model, mt: Model, f, f0: dict, first: bool = False) -> list:
    """Anchor failures (x,) and product failures (x, y) of the pair (f, f0)."""
    out = []
    for x in range(ms.order):
        if mt.src[f[x]] != f0[ms.src[x]] or mt.dst[f[x]] != f0[ms.dst[x]]:
            out.append((x,))
            if first:
                return out
    Ts, Tt = ms.table, mt.table
    for x in range(ms.order):
        for y in range(ms.order):
            p = Ts[x][y]
            if p >= 0 and Tt[f[x]][f[y]] != f[p]:
                out.append((x, y))
                if first:
                    return out
    return out


def check_morphism_answer(ms: Model, mt: Model, f, f0: dict, ok: bool, witness) -> list:
    truth = not morphism_failures(ms, mt, f, f0, first=True)
    if ok != truth:
        return [f"answered {ok}, true {truth}"]
    if not ok and tuple(witness) not in morphism_failures(ms, mt, f, f0):
        return [f"witness {witness} does not fail"]
    return []


def check_isomorphism(ms: Model, mt: Model, f, f0: dict) -> list:
    """f is a bijection preserving every defined product, with units to units."""
    n = ms.order
    problems = []
    if mt.order != n or sorted(f) != list(range(n)):
        return ["not a bijection"]
    if sorted(f[u] for u in ms.units) != sorted(mt.units) or any(f0[u] != f[u] for u in ms.units):
        problems.append("units not mapped to units")
    Ts, Tt = ms.table, mt.table
    if any((Ts[x][y] >= 0) != (Tt[f[x]][f[y]] >= 0) or (Ts[x][y] >= 0 and Tt[f[x]][f[y]] != f[Ts[x][y]])
           for x in range(n) for y in range(n)):
        problems.append("a product is not preserved")
    return problems


def invariants(m: Model) -> dict:
    """Isomorphism invariants of a one-fiber structure: order, abelian-ness,
    centre size and the element-order histogram."""
    orders = Counter(len(powers(m, x)) for x in range(m.order))
    return {"order": m.order, "abelian": info_facts(m).get("abelian"),
            "center": len(center(m)), "element_orders": sorted(orders.items())}


def check_non_isomorphic(ma: Model, mb: Model) -> list:
    """Certify non-isomorphism by an invariant other than element orders."""
    ia, ib = invariants(ma), invariants(mb)
    if ia["order"] != ib["order"] or ia["abelian"] != ib["abelian"] or ia["center"] != ib["center"]:
        return []
    return ["no invariant separates the pair"]
