"""Finite Brandt groupoids and almost groupoids with exact axiom checking.

Elements are integers 0..n-1 with a parallel tuple of display names. The
partial multiplication is an n-by-n table whose undefined cells hold -1.
Structures verify their defining axioms on construction and are immutable
afterwards, so they are safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterable, Iterator, Optional, Union

import numpy as np

MAX_CARRIER = 4096

ElementId = int


class UndefinedProductError(Exception):
    """Multiplication of a pair that is not composable."""

    def __init__(self, x: int, y: int, name_x: str = "", name_y: str = ""):
        what = f"{name_x} and {name_y}" if name_x else f"elements {x} and {y}"
        super().__init__(f"product of {what} is not defined")
        self.pair = (x, y)


class NotAlmostError(Exception):
    """Conversion of a groupoid whose source and target maps differ."""

    def __init__(self, witness: int, name: str):
        super().__init__(f"element {name} has alpha != beta; not an almost groupoid")
        self.witness = witness


class VerificationError(Exception):
    """Raised when a structure fails its exhaustive axiom check."""

    def __init__(self, report: "VerificationReport"):
        head = [v.message for v in report.violations[:3]]
        more = len(report.violations) - len(head)
        if more > 0:
            head.append(f"... and {more} more")
        super().__init__("; ".join(head) or "verification failed")
        self.report = report


class Law(enum.Enum):
    """Checked laws; values are the names used in reports."""

    TABLE_DOMAIN = "TableDomain"
    AG1 = "AG1"
    AG2 = "AG2"
    AG3 = "AG3"
    THETA_SURJECTIVE = "ThetaSurjective"
    B1_ASSOC = "B1_Assoc"
    B2_IDENTITIES = "B2_Identities"
    B3_INVERSES = "B3_Inverses"
    ALPHA_BETA_SURJECTIVE = "AlphaBetaSurjective"
    IOTA_INJECTIVE = "IotaInjective"
    DERIVED_IDENTITY = "DerivedIdentity"


ALMOST_LAWS = (Law.TABLE_DOMAIN, Law.AG1, Law.AG2, Law.AG3, Law.THETA_SURJECTIVE)
BRANDT_LAWS = (
    Law.TABLE_DOMAIN,
    Law.B1_ASSOC,
    Law.B2_IDENTITIES,
    Law.B3_INVERSES,
    Law.ALPHA_BETA_SURJECTIVE,
    Law.IOTA_INJECTIVE,
)


@dataclass(frozen=True)
class Violation:
    law: Law
    witness: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an axiom check; passed is true iff violations is empty."""

    passed: bool
    violations: tuple[Violation, ...]
    truncated: bool = False

    def __post_init__(self):
        if self.passed != (len(self.violations) == 0):
            raise ValueError("passed must mirror emptiness of violations")

    def failed_laws(self) -> tuple[Law, ...]:
        seen: list[Law] = []
        for v in self.violations:
            if v.law not in seen:
                seen.append(v.law)
        return tuple(seen)


class PartialTable:
    """Square composition table; cell value -1 marks an undefined product."""

    __slots__ = ("_cells",)

    def __init__(self, cells):
        if isinstance(cells, PartialTable):
            self._cells = cells._cells
            return
        if isinstance(cells, np.ndarray):
            arr = cells
        else:
            rows = [[-1 if v is None else v for v in row] for row in cells]
            arr = np.array(rows) if rows else np.zeros((0, 0), np.int32)
        # checked on the input's own dtype: a cast to int32 first would wrap
        # 2**32 to 0 and truncate 0.7 to 0
        if arr.dtype.kind not in "iu":
            raise ValueError(f"table entries must be integers, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"table must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if arr.size and (arr.min() < -1 or arr.max() >= n):
            raise ValueError("table entries must be -1 (undefined) or valid indices")
        arr = arr.astype(np.int32)
        arr.setflags(write=False)
        self._cells = arr

    @property
    def size(self) -> int:
        return self._cells.shape[0]

    @property
    def cells(self) -> np.ndarray:
        """Read-only n-by-n int array; -1 marks undefined."""
        return self._cells

    def get(self, x: int, y: int) -> Optional[int]:
        n = self.size
        if not (0 <= x < n and 0 <= y < n):
            raise IndexError(f"element index out of range: ({x}, {y})")
        v = int(self._cells[x, y])
        return None if v < 0 else v

    def is_defined(self, x: int, y: int) -> bool:
        return self.get(x, y) is not None

    def defined_count(self) -> int:
        return int((self._cells >= 0).sum())

    def rows(self) -> Iterator[tuple[Optional[int], ...]]:
        for row in self._cells:
            yield tuple(None if v < 0 else int(v) for v in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialTable) and np.array_equal(self._cells, other._cells)

    def __hash__(self):
        return hash((self.size, self._cells.tobytes()))

    def __repr__(self) -> str:
        return f"PartialTable(size={self.size}, defined={self.defined_count()})"


def _norm_names(names) -> tuple[str, ...]:
    out = tuple(str(s) for s in names)
    if not out:
        raise ValueError("carrier must be non-empty")
    if len(out) > MAX_CARRIER:
        raise ValueError(f"carrier size {len(out)} exceeds bound {MAX_CARRIER}")
    seen = set()
    for s in out:
        if not s:
            raise ValueError("element names must be non-empty")
        if s.split() != [s]:  # str.split cuts at exactly the str.isspace characters
            raise ValueError(f"element name {s!r} contains whitespace")
        if "#" in s or "." in s or "=" in s:
            raise ValueError(f"element name {s!r} contains a reserved character")
        if s in seen:
            raise ValueError(f"duplicate element name {s!r}")
        seen.add(s)
    return out


def _norm_units(units, n: int) -> tuple[int, ...]:
    out = sorted({int(u) for u in units})
    for u in out:
        if not 0 <= u < n:
            raise ValueError(f"unit index {u} out of range")
    return tuple(out)


def _norm_map(m, n: int, label: str) -> tuple[int, ...]:
    out = tuple(int(v) for v in m)
    if len(out) != n:
        raise ValueError(f"{label} must have {n} entries, got {len(out)}")
    for v in out:
        if not 0 <= v < n:
            raise ValueError(f"{label} entry {v} out of range")
    return out


def _norm_table(table, n: int) -> PartialTable:
    pt = table if isinstance(table, PartialTable) else PartialTable(table)
    if pt.size != n:
        raise ValueError(f"table size {pt.size} does not match carrier size {n}")
    return pt


class _Collector:
    """Accumulates violations with a per-law cap so reports stay bounded."""

    __slots__ = ("cap", "items", "counts", "truncated")

    def __init__(self, cap: Optional[int]):
        self.cap = cap
        self.items: list[Violation] = []
        self.counts: dict[Law, int] = {}
        self.truncated = False

    def add(self, law: Law, witness: tuple[int, ...], message: str) -> bool:
        c = self.counts.get(law, 0)
        self.counts[law] = c + 1
        if self.cap is not None and c >= self.cap:
            self.truncated = True
            return False
        self.items.append(Violation(law, witness, message))
        return True

    def report(self) -> VerificationReport:
        order = {law: i for i, law in enumerate(Law)}
        items = sorted(self.items, key=lambda v: (order[v.law], v.witness))
        return VerificationReport(
            passed=not items, violations=tuple(items), truncated=self.truncated
        )


def _check_domain(T, compat, names, col: _Collector) -> None:
    bad = (T >= 0) != compat
    if not bad.any():
        return
    for x, y in np.argwhere(bad):
        x, y = int(x), int(y)
        if T[x, y] >= 0:
            msg = f"cell ({names[x]}, {names[y]}) is defined but the pair is not composable"
        else:
            msg = f"pair ({names[x]}, {names[y]}) is composable but the cell is undefined"
        if not col.add(Law.TABLE_DOMAIN, (x, y), msg):
            return


def _check_assoc(T, names, col: _Collector, law: Law) -> None:
    # Biconditional over all n^3 triples: (x*y)*z defined <=> x*(y*z)
    # defined, and equal when defined. Chunked by x to keep memory flat.
    n = T.shape[0]
    d_yz = T >= 0
    safe_yz = np.where(d_yz, T, 0)
    for x in range(n):
        row_x = T[x]
        d_xy = row_x >= 0
        left = T[np.where(d_xy, row_x, 0), :]
        lv = np.where(d_xy[:, None] & (left >= 0), left, -1)
        right = row_x[safe_yz]
        rv = np.where(d_yz & (right >= 0), right, -1)
        bad = lv != rv
        if not bad.any():
            continue
        for y, z in np.argwhere(bad):
            y, z = int(y), int(z)
            a, b, c = names[x], names[y], names[z]
            l, r = int(lv[y, z]), int(rv[y, z])
            if l >= 0 and r >= 0:
                msg = f"({a}*{b})*{c} = {names[l]} but {a}*({b}*{c}) = {names[r]}"
            elif l >= 0:
                msg = f"({a}*{b})*{c} is defined but {a}*({b}*{c}) is not"
            else:
                msg = f"{a}*({b}*{c}) is defined but ({a}*{b})*{c} is not"
            if not col.add(law, (x, y, z), msg):
                return


# Below this order the exhaustive check, n vectorised row passes, costs less
# than the dozen numpy calls Light's test makes per generator. Measured on a
# 2-core machine: z6_example (order 18) 0.56 ms exhaustive, 0.64 ms by
# Light's test; z_bundle(4, 8) (order 32) 0.76 ms and 0.34 ms.
_LIGHT_MIN_ORDER = 32


def _runs(m: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Elements sorted by their value v under m, and the offsets at which
    each value's run starts: run v is order[at[v]:at[v + 1]]."""
    order = np.argsort(m, kind="stable")
    at = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(m, minlength=n), out=at[1:])
    return order, at


_SLICE = 1 << 16  # pairs per slice of a walk: bounds the temporaries of one step


def _fiber_rows(G: "_StructureBase") -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (x, y) of each isotropy group, fibers by unit, then x, then y,
    as slices (xs, ys) of at most _SLICE pairs (or one row) that broadcast
    to the shape (fibers, rows, fiber size): T[xs, ys] is the block of
    products x*y and T[ys, xs] that of y*x. Adjacent fibers of one size
    share a slice; a fiber larger than a slice is cut into rows."""
    for k, run in groupby(G.fibers.values(), key=len):
        fibs = np.array(list(run), dtype=np.intp)
        per = max(1, _SLICE // max(k * k, 1))  # fibers per slice
        rows = max(1, _SLICE // max(k, 1))  # rows per slice
        for lo in range(0, len(fibs), per):
            block = fibs[lo : lo + per]
            for r in range(0, k, rows):
                yield block[:, r : r + rows, None], block[:, None, :]


def _assoc_accepts(T: np.ndarray, al: np.ndarray, be: np.ndarray) -> bool:
    """True only when the table is associative; False means "not shown".

    Requires the table-domain law: T[x, y] is defined exactly when
    be[x] = al[y]. The routine first checks anchor closure, al(x*y) = al(x)
    and be(x*y) = be(y) on every defined cell. Given both, (x*y)*z and
    x*(y*z) are defined together, and the elements a with (x*a)*z =
    x*(a*z) for all composable x, z are closed under defined products:
    x(ab) = (xa)b and ((xa)b)z = (xa)(bz) = x(a(bz)) = x((ab)z). So it is
    enough to check that law for every a in a set S that generates the
    carrier (Light's associativity test). S is picked greedily, idempotents
    last; inside a group each pick at least doubles the subgroup generated,
    so the test costs about fiber^2 * log(fiber) per fiber. It declines when
    closure fails, some a fails, or the test would cost more than the n^3
    exhaustive check.
    """
    n = T.shape[0]
    anchor = al * n + be  # the pair (al, be) of each element as one number
    block = max(1, (1 << 20) // n)  # rows per slice: keeps memory flat
    for lo in range(0, n, block):
        rows = T[lo : lo + block]
        want = al[lo : lo + block, None] * n + be  # the anchors of each product
        if ((anchor[rows] != want) & (rows >= 0)).any():
            return False

    by_beta, beta_at = _runs(be, n)
    by_alpha, alpha_at = _runs(al, n)
    budget = n ** 3
    closed = np.zeros(n, dtype=bool)
    for a in np.argsort(T.diagonal() == np.arange(n), kind="stable").tolist():
        if closed[a]:
            continue
        xs = by_beta[beta_at[al[a]] : beta_at[al[a] + 1]]  # x with x*a defined
        zs = by_alpha[alpha_at[be[a]] : alpha_at[be[a] + 1]]  # z with a*z defined
        budget -= len(xs) * len(zs)
        if budget < 0:
            return False
        xa, az = T[xs, a], T[a, zs]
        step = max(1, (1 << 20) // max(len(zs), 1))
        for lo in range(0, len(xs), step):
            hi = lo + step
            if (T[xa[lo:hi, None], zs] != T[xs[lo:hi, None], az]).any():
                return False
        # Grow the closure by a: first c*a for every c already generated,
        # then right products of each new element with everything generated.
        # Every defined word in the picks is reached when the table is
        # associative; were one missed, it would only become a pick itself.
        col = T[:, a]
        fresh = np.zeros(n, dtype=bool)
        fresh[a] = True
        fresh[col[closed & (col >= 0)]] = True
        fresh &= ~closed
        while fresh.any():
            closed |= fresh
            new = np.flatnonzero(fresh)
            heads = np.zeros(n, dtype=bool)  # the sources a right factor may have
            heads[be[new]] = True
            prods = T[new[:, None], np.flatnonzero(closed & heads[al])]
            fresh = np.zeros(n, dtype=bool)
            fresh[prods[prods >= 0]] = True
            fresh &= ~closed
    return True


def _check_axioms(names, units, anchors, iota, table, laws, cap: Optional[int]) -> VerificationReport:
    """The axiom check over source alpha and target beta.

    Associativity is accepted by Light's test (_assoc_accepts) when the
    table-domain law holds, n >= _LIGHT_MIN_ORDER and the test succeeds; in
    every other case the exhaustive check runs and reports the violations.

    anchors holds one (label, map) pair when alpha = beta = theta, else the
    pairs for alpha and beta; labels name the maps in messages. laws is
    ALMOST_LAWS or BRANDT_LAWS, whose entries 1-4 name the reported laws;
    iota injectivity is checked only when laws lists IOTA_INJECTIVE.
    """
    names = _norm_names(names)
    n = len(names)
    units = _norm_units(units, n)
    anchors = [(label, _norm_map(m, n, label)) for label, m in anchors]
    iota = _norm_map(iota, n, "iota")
    T = _norm_table(table, n).cells
    (a, alpha), (b, beta) = anchors[0], anchors[-1]

    al = np.asarray(alpha, dtype=np.int32)
    be = np.asarray(beta, dtype=np.int32)
    io_ = np.asarray(iota, dtype=np.int32)
    idx = np.arange(n, dtype=np.int32)
    col = _Collector(cap)
    _, assoc, identity, inverse, onto = laws[:5]

    def cells(law: Law, got: np.ndarray, want: np.ndarray, message) -> None:
        for x in np.nonzero(got != want)[0]:
            x, g = int(x), int(got[x])
            if not col.add(law, (x,), message(x, "undefined" if g < 0 else names[g])):
                break

    _check_domain(T, be[:, None] == al[None, :], names, col)
    if col.counts or n < _LIGHT_MIN_ORDER or not _assoc_accepts(T, al, be):
        _check_assoc(T, names, col, assoc)
    cells(identity, T[al, idx], idx, lambda x, d: f"{a}({names[x]})*{names[x]} = {d}, expected {names[x]}")
    cells(identity, T[idx, be], idx, lambda x, d: f"{names[x]}*{b}({names[x]}) = {d}, expected {names[x]}")
    cells(inverse, T[idx, io_], al,
          lambda x, d: f"{names[x]}*inv({names[x]}) = {d}, expected {a} = {names[alpha[x]]}")
    cells(inverse, T[io_, idx], be,
          lambda x, d: f"inv({names[x]})*{names[x]} = {d}, expected {b} = {names[beta[x]]}")

    unit_set = set(units)
    if not unit_set:
        col.add(onto, (), "unit set is empty")
    for label, m in anchors:
        for x in range(n):
            if m[x] not in unit_set:
                if not col.add(onto, (x,), f"{label}({names[x]}) = {names[m[x]]} is not a unit"):
                    break
        for u in sorted(unit_set - set(m)):
            if not col.add(onto, (u,), f"unit {names[u]} is not in the image of {label}"):
                break

    if Law.IOTA_INJECTIVE in laws:
        targets: dict[int, int] = {}
        for x in range(n):
            t = iota[x]
            if t in targets:
                if not col.add(
                    Law.IOTA_INJECTIVE,
                    (targets[t], x),
                    f"inv({names[targets[t]]}) = inv({names[x]}) = {names[t]}; iota is not injective",
                ):
                    break
            else:
                targets[t] = x

    return col.report()


def verify_almost(
    names, units, theta, iota, table, *, max_violations_per_law: Optional[int] = 100
) -> VerificationReport:
    """Exhaustively check the almost-groupoid axioms on raw structure fields.

    Checks, in order: the table-domain law (a cell is defined exactly when
    theta agrees), associativity as a definedness biconditional over every
    triple, the unit law theta(x)*x = x*theta(x) = x, the inverse law
    x*inv(x) = inv(x)*x = theta(x), and surjectivity of theta onto the unit
    set. Associativity is decided exactly by Light's test when it can
    accept, and by the exhaustive check otherwise. Returns a report listing
    violations with witnesses; raises ValueError only for dimensionally
    inconsistent input.
    """
    return _check_axioms(
        names, units, (("theta", theta),), iota, table, ALMOST_LAWS, max_violations_per_law
    )


def verify_brandt(
    names, units, alpha, beta, iota, table, *, max_violations_per_law: Optional[int] = 100
) -> VerificationReport:
    """Exhaustively check the Brandt groupoid axioms on raw structure fields.

    Same shape as verify_almost, with the table-domain law beta(x) =
    alpha(y), the identity law alpha(x)*x = x = x*beta(x), the inverse law
    x*inv(x) = alpha(x) and inv(x)*x = beta(x), surjectivity of alpha and
    beta onto the unit set, and injectivity of the inversion map.
    """
    return _check_axioms(
        names, units, (("alpha", alpha), ("beta", beta)), iota, table, BRANDT_LAWS,
        max_violations_per_law,
    )


@dataclass(frozen=True, eq=False)
class ElementSubset:
    """An ordered subset of a structure's carrier, sorted by index."""

    owner: "Structure"
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(int(m) for m in self.members))
        n = self.owner.order
        prev = -1
        for m in self.members:
            if not 0 <= m < n:
                raise ValueError(f"subset member {m} out of range")
            if m <= prev:
                raise ValueError("subset members must be strictly increasing")
            prev = m

    @classmethod
    def from_ids(cls, owner: "Structure", ids: Iterable[int]) -> "ElementSubset":
        return cls(owner, tuple(sorted({int(i) for i in ids})))

    @classmethod
    def from_names(cls, owner: "Structure", names: Iterable[str]) -> "ElementSubset":
        return cls.from_ids(owner, (owner.index_of(s) for s in names))

    def names(self) -> tuple[str, ...]:
        return tuple(self.owner.names[m] for m in self.members)

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSubset)
            and self.owner is other.owner
            and self.members == other.members
        )

    def __repr__(self) -> str:
        return f"ElementSubset({' '.join(self.names())})"


class _StructureBase:
    """The model shared by both kinds: source map alpha, target map beta,
    inversion iota, and a partial table in which the product of x and y is
    defined exactly when beta(x) = alpha(y). An almost groupoid is the case
    alpha = beta = theta.

    Subclasses are frozen dataclasses with the fields names, units, the
    element maps listed in _maps, and table. Construction normalises the
    fields and, unless check=False, runs the subclass's _verify, the
    exhaustive axiom check of its kind.
    """

    names: tuple[str, ...]
    units: tuple[int, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    iota: tuple[int, ...]
    table: PartialTable
    _maps: tuple[str, ...]

    def __post_init__(self, check: bool):
        object.__setattr__(self, "names", _norm_names(self.names))
        n = len(self.names)
        object.__setattr__(self, "units", _norm_units(self.units, n))
        for label in self._maps:
            object.__setattr__(self, label, _norm_map(getattr(self, label), n, label))
        object.__setattr__(self, "table", _norm_table(self.table, n))
        if check:
            report = self._verify()
            if not report.passed:
                raise VerificationError(report)

    @property
    def order(self) -> int:
        return len(self.names)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.names)}

    @cached_property
    def _unit_set(self) -> frozenset[int]:
        return frozenset(self.units)

    @cached_property
    def fibers(self) -> dict[int, tuple[int, ...]]:
        """Unit u -> sorted tuple of the elements x with alpha(x) = beta(x) = u.

        These are the isotropy groups; for an almost groupoid, the theta fibers.
        """
        alpha, beta = self.alpha, self.beta
        out: dict[int, list[int]] = {u: [] for u in self.units}
        for x in range(self.order):
            if alpha[x] == beta[x]:
                out[alpha[x]].append(x)
        return {u: tuple(v) for u, v in out.items()}

    @cached_property
    def _by_target(self) -> dict[int, tuple[int, ...]]:
        """Unit u -> sorted tuple of the elements x with beta(x) = u."""
        out: dict[int, list[int]] = {u: [] for u in self.units}
        for x, u in enumerate(self.beta):
            out[u].append(x)
        return {u: tuple(v) for u, v in out.items()}

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown element name {name!r}") from None

    def is_unit(self, x: int) -> bool:
        return x in self._unit_set

    def composable(self, x: int, y: int) -> bool:
        n = self.order
        if not (0 <= x < n and 0 <= y < n):
            raise IndexError(f"element index out of range: ({x}, {y})")
        return self.beta[x] == self.alpha[y]

    def mul(self, x: int, y: int) -> int:
        v = self.table.get(x, y)
        if v is None:
            raise UndefinedProductError(x, y, self.names[x], self.names[y])
        return v

    def inv(self, x: int) -> int:
        return self.iota[x]

    def isotropy_group(self, u: int) -> ElementSubset:
        """Elements x with alpha(x) = beta(x) = u; a group under the table."""
        if u not in self._unit_set:
            raise ValueError(f"{self.names[u] if 0 <= u < self.order else u} is not a unit")
        return ElementSubset(self, self.fibers[u])

    def element_order(self, x: int) -> int:
        """Order of x inside its isotropy group; x must have alpha(x) = beta(x)."""
        e = self.alpha[x]
        k, cur = 1, x
        while cur != e:
            cur = self.mul(cur, x)
            k += 1
        return k

    def subset(self, ids: Iterable[int]) -> ElementSubset:
        return ElementSubset.from_ids(self, ids)

    def carrier(self) -> ElementSubset:
        return ElementSubset(self, tuple(range(self.order)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.names == other.names
            and self.units == other.units
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.iota == other.iota
            and self.table == other.table
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} order={self.order} units={len(self.units)}>"


@dataclass(frozen=True, eq=False, repr=False)
class AlmostGroupoid(_StructureBase):
    """Finite almost groupoid: units map theta, inversion iota, partial table.

    The case alpha = beta = theta of the shared model: the product of x and
    y is defined exactly when theta(x) = theta(y). Construction runs the
    exhaustive axiom check and raises VerificationError on failure; pass
    check=False only in test oracles.
    """

    names: tuple[str, ...]
    units: tuple[int, ...]
    theta: tuple[int, ...]
    iota: tuple[int, ...]
    table: PartialTable
    check: InitVar[bool] = True

    kind = "almost"
    _maps = ("theta", "iota")

    @property
    def alpha(self) -> tuple[int, ...]:
        """Source and target map alike: theta."""
        return self.theta

    beta = alpha

    def _verify(self) -> VerificationReport:
        return verify_almost(self.names, self.units, self.theta, self.iota, self.table)

    def power(self, a: int, n: int) -> int:
        """n-th power of a with a^0 = theta(a) and a^-n = (inv a)^n."""
        if not 0 <= a < self.order:
            raise IndexError(f"element index out of range: {a}")
        if n == 0:
            return self.theta[a]
        base = a if n > 0 else self.iota[a]
        out = base
        for _ in range(abs(n) - 1):
            out = self.mul(out, base)
        return out

    def is_abelian(self) -> bool:
        T = self.table.cells
        return all((T[xs, ys] == T[ys, xs]).all() for xs, ys in _fiber_rows(self))


@dataclass(frozen=True, eq=False, repr=False)
class BrandtGroupoid(_StructureBase):
    """Finite Brandt groupoid: source alpha, target beta, inversion, table.

    The product of x and y is defined exactly when beta(x) = alpha(y).
    Construction verifies the axioms; pass check=False only in test oracles.
    """

    names: tuple[str, ...]
    units: tuple[int, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    iota: tuple[int, ...]
    table: PartialTable
    check: InitVar[bool] = True

    kind = "brandt"
    _maps = ("alpha", "beta", "iota")

    def _verify(self) -> VerificationReport:
        return verify_brandt(self.names, self.units, self.alpha, self.beta, self.iota, self.table)

    def is_transitive(self) -> bool:
        """True iff the anchor map x -> (alpha(x), beta(x)) is onto units x units."""
        anchor = {(self.alpha[x], self.beta[x]) for x in range(self.order)}
        return len(anchor) == len(self.units) ** 2


Structure = Union[AlmostGroupoid, BrandtGroupoid]


def almost_to_brandt(G: AlmostGroupoid) -> BrandtGroupoid:
    """Present an almost groupoid as the Brandt groupoid with alpha = beta = theta."""
    return BrandtGroupoid(G.names, G.units, G.theta, G.theta, G.iota, G.table)


def brandt_to_almost(B: BrandtGroupoid) -> AlmostGroupoid:
    """Recover the almost groupoid underlying B when alpha = beta everywhere.

    Raises NotAlmostError carrying the first element whose source and
    target differ.
    """
    for x in range(B.order):
        if B.alpha[x] != B.beta[x]:
            raise NotAlmostError(x, B.names[x])
    return AlmostGroupoid(B.names, B.units, B.alpha, B.iota, B.table)


# The derived identities, each with its phase, name and message template, in
# the order the checks are made: each phase runs over its positions (units,
# elements, rows or pairs of the fiber walk) and makes its checks at each
# position in turn. A shared cap keeps the first failures in this order.
_IDENTITY_CHECKS = (
    (0, "theta-fixes-units", "theta({x}) = {t}"),
    (0, "unit-self-product", "{x}*{x} != {x}"),
    (0, "iota-fixes-units", "inv({x}) = {i}"),
    (1, "theta-of-product", "theta({x}*{y}) != theta({x})"),
    (2, "theta-of-inverse", "theta(inv({x})) != theta({x})"),
    (2, "theta-idempotent", "theta(theta({x})) != theta({x})"),
    (3, "cancellation", "left multiplication by {x} is not injective"),
    (3, "cancellation", "right multiplication by {x} is not injective"),
    (4, "inverse-of-product", "inv({x}*{y}) != inv({y})*inv({x})"),
    (5, "double-inverse", "inv(inv({x})) != {x}"),
    (6, "solve-in-fiber", "inv({x})*({x}*{y}) != {y}"),
    (6, "solve-in-fiber", "({x}*{y})*inv({y}) != {x}"),
    (7, "theta-after-iota", "(theta o iota)({x}) != theta({x})"),
    (7, "iota-involution", "(iota o iota)({x}) != {x}"),
    (8, "unit-uniqueness", "{x}*{y} = {y} but {x} != theta({y})"),
    (8, "unit-uniqueness", "{x}*{y} = {x} but {y} != theta({x})"),
    (9, "small-powers-defined", "{x}^2 or {x}^3 is undefined"),
)
DERIVED_IDENTITY_NAMES = tuple(dict.fromkeys(name for _, name, _ in _IDENTITY_CHECKS))


def derived_identities(G: AlmostGroupoid, *, max_violations_per_law: Optional[int] = 100) -> VerificationReport:
    """Exhaustively assert the theorem-level identities of a verified structure.

    Every check is a consequence of the axioms, so a verified structure
    passes them all; reported violations indicate a verifier defect. Each
    violation message starts with the identity name from
    DERIVED_IDENTITY_NAMES. Closure of composability under products is
    implied by theta-of-product together with the table-domain law, and
    injectivity of iota by iota-involution; neither gets a separate check.
    The checks on pairs run as block masks over one walk of the in-fiber
    pairs (_fiber_rows); products exist only inside a theta fiber.
    """
    cap = max_violations_per_law
    names, T = G.names, G.table.cells
    theta, iota = np.array(G.theta, dtype=np.int32), np.array(G.iota, dtype=np.int32)
    units, every = np.array(G.units, dtype=np.intp), np.arange(G.order)
    found = []  # (phase, position, check, witness) of the failures kept
    seen = [0] * len(_IDENTITY_CHECKS)  # failures of each check

    def keep(check: int, bad: np.ndarray, start: int, *ids: np.ndarray) -> None:
        # bad marks the failures of one check at consecutive positions from
        # start, ids (broadcast to its shape) their witnesses; only the first
        # cap failures of a check can enter the report
        at = np.flatnonzero(bad)
        room = len(at) if cap is None else max(cap - seen[check], 0)
        seen[check] += len(at)
        for i in at[:room].tolist():
            w = tuple(int(np.broadcast_to(v, bad.shape).flat[i]) for v in ids)
            found.append((_IDENTITY_CHECKS[check][0], start + i, check, w))

    # theta-of-inverse and theta-after-iota state one predicate, as do
    # double-inverse and iota-involution; each is computed once.
    inverse_moves_theta = theta[iota] != theta
    not_involution = iota[iota] != every
    square = T.diagonal()  # -1 indexes the last row, so its use is masked
    for check, bad, ids in (
        (0, theta[units] != units, units), (1, T[units, units] != units, units),
        (2, iota[units] != units, units), (4, inverse_moves_theta, every),
        (5, theta[theta] != theta, every), (9, not_involution, every),
        (12, inverse_moves_theta, every), (13, not_involution, every),
        (16, (square < 0) | (T[square, every] < 0), every),
    ):
        keep(check, bad, 0, ids)

    row = pair = 0  # walk positions of the next row and the next pair
    for xs, ys in _fiber_rows(G):
        P = T[xs, ys]  # -1 indexes the last element below, so each use is masked
        defined = P >= 0
        ix, iy = iota[xs], iota[ys]
        keep(3, ~defined | (theta[P] != theta[xs]), pair, xs, ys)
        for check, block in ((6, P), (7, T[ys, xs])):
            ordered = np.sort(block, axis=-1)
            keep(check, (ordered[..., 1:] == ordered[..., :-1]).any(axis=-1), row, xs[..., 0])
        keep(8, defined & (iota[P] != T[iy, ix]), pair, xs, ys)
        keep(10, defined & (T[ix, P] != ys), pair, xs, ys)
        keep(11, defined & (T[P, iy] != xs), pair, xs, ys)
        keep(14, (P == ys) & (xs != theta[ys]), pair, xs, ys)
        keep(15, (P == xs) & (ys != theta[xs]), pair, xs, ys)
        row += xs.size
        pair += P.size

    col = _Collector(cap)
    for _, _, check, w in sorted(found)[:cap]:
        _, name, template = _IDENTITY_CHECKS[check]
        x, y = w[0], w[-1]
        detail = template.format(x=names[x], y=names[y], t=names[G.theta[x]], i=names[G.iota[x]])
        col.add(Law.DERIVED_IDENTITY, w, f"{name}: {detail}")
    col.truncated = cap is not None and sum(seen) > cap
    return col.report()
