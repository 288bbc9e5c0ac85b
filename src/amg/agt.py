"""The AGT text format: parse, serialize, and render finite structures.

Grammar (line oriented; '#' starts a comment; blank lines are ignored)::

    agt 1
    kind: almost            # or: brandt
    elements: u1 u2 p1 p2   # whitespace-separated unique names
    units: u1 u2
    theta: u1 u1 u1 u2      # kind almost: one unit name per element
    # alpha: ... and beta: ... replace theta for kind brandt
    iota: u1 u2 p1 p2       # one name per element, in element order
    table:
    u1 . p1 .               # row i: n entries, '.' marks undefined
    . u2 . p2
    p1 . u1 .
    . p2 . u2

Sections before "table:" may appear in any order, each at most once;
"elements:" must precede "table:". Parsing a document and building the
structure are distinct failure modes: a well-formed file can still
describe a non-groupoid, which raises VerificationError rather than
AgtParseError.

Morphism files reuse the same line syntax with kind "morphism", a "map:"
section of source=target pairs covering the source carrier, and a
"unitmap:" section covering the source units.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .core import MAX_CARRIER, AlmostGroupoid, BrandtGroupoid, Structure
from .morphisms import MorphismPair

AGT_VERSION = 1

_TOKEN = re.compile(r"\S+")


class AgtParseError(Exception):
    """Parse failure with 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


@dataclass(frozen=True)
class AgtDocument:
    """A parsed structure file with all names resolved to indices."""

    kind: str
    names: tuple[str, ...]
    units: tuple[int, ...]
    theta: Optional[tuple[int, ...]]
    alpha: Optional[tuple[int, ...]]
    beta: Optional[tuple[int, ...]]
    iota: tuple[int, ...]
    table: tuple[tuple[Optional[int], ...], ...]


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _token_lines(text: str) -> list[list[_Tok]]:
    out = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        hash_pos = raw.find("#")
        if hash_pos >= 0:
            raw = raw[:hash_pos]
        toks = [_Tok(m.group(), ln, m.start() + 1) for m in _TOKEN.finditer(raw)]
        if toks:
            out.append(toks)
    return out


_SECTIONS = ("kind:", "elements:", "units:", "theta:", "alpha:", "beta:", "iota:")


def _body_lines(text: str) -> list[list[_Tok]]:
    """Token lines after the 'agt 1' header, which is checked; shared by
    structure and morphism files."""
    lines = _token_lines(text)
    if not lines:
        raise AgtParseError(1, 1, "empty document; expected header 'agt 1'")
    head = lines[0]
    if head[0].text != "agt":
        raise AgtParseError(head[0].line, head[0].col, "expected header 'agt 1'")
    if len(head) != 2 or not head[1].text.isdigit():
        raise AgtParseError(head[0].line, head[0].col, "malformed header; expected 'agt 1'")
    if int(head[1].text) != AGT_VERSION:
        raise AgtParseError(head[1].line, head[1].col, f"unsupported format version {head[1].text}")
    return lines[1:]


def parse_document(text: str) -> AgtDocument:
    """Parse AGT text into a document without verifying the axioms."""
    lines = _body_lines(text)
    sections: dict[str, list[_Tok]] = {}
    table_rows: list[list[_Tok]] = []
    for i, line in enumerate(lines):
        key = line[0]
        if key.text == "table:":
            if len(line) > 1:
                raise AgtParseError(line[1].line, line[1].col, "unexpected token after 'table:'")
            if "elements:" not in sections:
                raise AgtParseError(key.line, key.col, "'elements:' must precede 'table:'")
            sections["table"] = []
            n = len(sections["elements:"])
            remaining = lines[i + 1 :]
            if len(remaining) < n:
                raise AgtParseError(
                    key.line, key.col, f"expected {n} table rows, found {len(remaining)}"
                )
            table_rows = remaining[:n]
            extra = remaining[n:]
            if extra:
                t = extra[0][0]
                raise AgtParseError(t.line, t.col, "unexpected content after the table")
            break
        if key.text not in _SECTIONS:
            raise AgtParseError(key.line, key.col, f"unknown section {key.text!r}")
        if key.text in sections:
            raise AgtParseError(key.line, key.col, f"duplicate section {key.text!r}")
        sections[key.text] = line[1:]

    for required in ("kind:", "elements:"):
        if required not in sections:
            raise AgtParseError(1, 1, f"missing section {required!r}")
    kind_toks = sections["kind:"]
    if len(kind_toks) != 1:
        raise AgtParseError(1, 1, "section 'kind:' takes exactly one value")
    kind = kind_toks[0].text
    if kind not in ("almost", "brandt"):
        raise AgtParseError(kind_toks[0].line, kind_toks[0].col, f"unknown kind {kind!r}")

    elem_toks = sections["elements:"]
    if not elem_toks:
        raise AgtParseError(1, 1, "section 'elements:' requires at least one name")
    names: list[str] = []
    index: dict[str, int] = {}
    for t in elem_toks:
        if "." in t.text:
            raise AgtParseError(t.line, t.col, "'.' is reserved for undefined cells and cannot appear in names")
        if t.text in index:
            raise AgtParseError(t.line, t.col, f"duplicate element name {t.text!r}")
        index[t.text] = len(names)
        names.append(t.text)
    n = len(names)
    if n > MAX_CARRIER:
        raise AgtParseError(
            elem_toks[0].line, elem_toks[0].col, f"carrier size {n} exceeds bound {MAX_CARRIER}"
        )

    def resolve(t: _Tok) -> int:
        if t.text not in index:
            raise AgtParseError(t.line, t.col, f"unknown name {t.text!r}")
        return index[t.text]

    def section_map(label: str) -> tuple[int, ...]:
        toks = sections.get(label)
        if toks is None:
            raise AgtParseError(1, 1, f"missing section {label!r}")
        if len(toks) != n:
            where = toks[0] if toks else kind_toks[0]
            raise AgtParseError(
                where.line, where.col, f"section {label!r} needs {n} entries, found {len(toks)}"
            )
        return tuple(resolve(t) for t in toks)

    if "units:" not in sections:
        raise AgtParseError(1, 1, "missing section 'units:'")
    units = []
    seen_units = set()
    for t in sections["units:"]:
        u = resolve(t)
        if u in seen_units:
            raise AgtParseError(t.line, t.col, f"duplicate unit {t.text!r}")
        seen_units.add(u)
        units.append(u)

    anchors = ("theta",) if kind == "almost" else ("alpha", "beta")
    for bad in ("alpha:", "beta:", "theta:"):
        if bad in sections and bad[:-1] not in anchors:
            t = sections[bad][0] if sections[bad] else kind_toks[0]
            raise AgtParseError(t.line, t.col, f"section {bad!r} is not allowed for kind {kind}")
    maps = {label: section_map(label + ":") for label in anchors}
    iota = section_map("iota:")

    if "table" not in sections:
        raise AgtParseError(1, 1, "missing section 'table:'")
    rows: list[tuple[Optional[int], ...]] = []
    for r, row_toks in enumerate(table_rows):
        if len(row_toks) != n:
            t = row_toks[0]
            raise AgtParseError(
                t.line, t.col, f"table row {r + 1} has {len(row_toks)} entries, expected {n}"
            )
        rows.append(tuple(None if t.text == "." else resolve(t) for t in row_toks))

    return AgtDocument(
        kind, tuple(names), tuple(units), maps.get("theta"), maps.get("alpha"), maps.get("beta"),
        iota, tuple(rows),
    )


def build_structure(doc: AgtDocument, check: bool = True) -> Structure:
    """Run the constructor for a parsed document; it verifies the structure
    unless check is False, as the constructors' own check does."""
    cls = AlmostGroupoid if doc.kind == "almost" else BrandtGroupoid
    return cls(doc.names, doc.units, *(getattr(doc, label) for label in cls._maps), doc.table, check)


def parse(text: str) -> Structure:
    """Parse and verify; raises AgtParseError or VerificationError."""
    return build_structure(parse_document(text))


def serialize(G: Structure) -> str:
    """Canonical AGT text: fixed section order, single spaces, index order.

    parse(serialize(G)) reproduces G exactly, and serializing again is
    byte-identical.
    """
    names = G.names
    lines = [
        f"agt {AGT_VERSION}",
        f"kind: {G.kind}",
        "elements: " + " ".join(names),
        "units: " + " ".join(names[u] for u in G.units),
    ]
    for label in G._maps:
        lines.append(f"{label}: " + " ".join(names[v] for v in getattr(G, label)))
    lines.append("table:")
    cell_names = list(names) + ["."]  # an undefined cell, -1, reads "."
    for row in G.table.cells.tolist():
        lines.append(" ".join([cell_names[v] for v in row]))
    return "\n".join(lines) + "\n"


RENDER_BOUND = 64


def render_tables(G: AlmostGroupoid) -> str:
    """Two aligned ASCII tables: g/theta(g)/iota(g) rows, then the product grid.

    Grid cells hold element names; undefined products are blank. Columns
    are space-padded and trailing spaces are trimmed, so output is stable.
    """
    if not isinstance(G, AlmostGroupoid):
        raise TypeError("table rendering is defined for almost groupoids")
    n = G.order
    if n > RENDER_BOUND:
        raise ValueError(f"rendering is bounded at order {RENDER_BOUND}")
    names = G.names
    th = [names[G.theta[i]] for i in range(n)]
    io_ = [names[G.iota[i]] for i in range(n)]
    widths = [max(len(names[i]), len(th[i]), len(io_[i])) for i in range(n)]
    label_w = len("theta(g)")

    def fn_row(label: str, row: list[str]) -> str:
        body = " ".join(v.ljust(w) for v, w in zip(row, widths))
        return (label.ljust(label_w) + " | " + body).rstrip()

    lines = [fn_row("g", list(names)), fn_row("theta(g)", th), fn_row("iota(g)", io_), ""]

    cells = [["" if v is None else names[v] for v in row] for row in G.table.rows()]
    col_w = [max(len(names[j]), max(len(cells[i][j]) for i in range(n))) for j in range(n)]
    row_w = max(1, max(len(s) for s in names))
    header = "*".ljust(row_w) + " | " + " ".join(names[j].ljust(col_w[j]) for j in range(n))
    lines.append(header.rstrip())
    lines.append("-" * row_w + "-+-" + "-" * (sum(col_w) + n - 1))
    for i in range(n):
        body = " ".join(cells[i][j].ljust(col_w[j]) for j in range(n))
        lines.append((names[i].ljust(row_w) + " | " + body).rstrip())
    return "\n".join(lines) + "\n"


def parse_morphism(text: str, Gs: Structure, Gt: Structure) -> MorphismPair:
    """Parse a morphism file against known source and target structures.

    The "map:" entries must cover every source element exactly once and the
    "unitmap:" entries every source unit; left names resolve in the source,
    right names in the target.
    """
    kind_seen = False
    entries: dict[str, list[_Tok]] = {"map:": [], "unitmap:": []}
    section = None
    for line in _body_lines(text):
        key = line[0]
        if key.text == "kind:":
            if kind_seen:
                raise AgtParseError(key.line, key.col, "duplicate section 'kind:'")
            kind_seen = True
            if len(line) != 2 or line[1].text != "morphism":
                raise AgtParseError(key.line, key.col, "expected 'kind: morphism'")
            section = None
            continue
        if key.text in entries:
            section = key.text
            entries[section].extend(line[1:])
            continue
        if section is None:
            raise AgtParseError(key.line, key.col, f"unknown section {key.text!r}")
        entries[section].extend(line)
    if not kind_seen:
        raise AgtParseError(1, 1, "missing section 'kind:'")

    def split_pair(t: _Tok) -> tuple[int, int]:
        parts = t.text.split("=")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise AgtParseError(t.line, t.col, f"expected source=target, got {t.text!r}")
        src, dst = parts
        try:
            s = Gs.index_of(src)
        except KeyError:
            raise AgtParseError(t.line, t.col, f"unknown source name {src!r}") from None
        try:
            d = Gt.index_of(dst)
        except KeyError:
            raise AgtParseError(t.line, t.col, f"unknown target name {dst!r}") from None
        return s, d

    f = [-1] * Gs.order
    for t in entries["map:"]:
        s, d = split_pair(t)
        if f[s] != -1:
            raise AgtParseError(t.line, t.col, f"duplicate map entry for {Gs.names[s]!r}")
        f[s] = d
    missing = [Gs.names[i] for i, v in enumerate(f) if v == -1]
    if missing:
        raise AgtParseError(1, 1, f"map does not cover source element {missing[0]!r}")

    f0: dict[int, int] = {}
    for t in entries["unitmap:"]:
        s, d = split_pair(t)
        if not Gs.is_unit(s):
            raise AgtParseError(t.line, t.col, f"{Gs.names[s]!r} is not a source unit")
        if s in f0:
            raise AgtParseError(t.line, t.col, f"duplicate unitmap entry for {Gs.names[s]!r}")
        f0[s] = d
    missing_u = [Gs.names[u] for u in Gs.units if u not in f0]
    if missing_u:
        raise AgtParseError(1, 1, f"unitmap does not cover source unit {missing_u[0]!r}")

    return MorphismPair(tuple(f), f0)


def serialize_morphism(Gs: Structure, Gt: Structure, m: MorphismPair) -> str:
    """Canonical morphism file for m between Gs and Gt."""
    lines = [
        f"agt {AGT_VERSION}",
        "kind: morphism",
        "map: " + " ".join(f"{Gs.names[x]}={Gt.names[m.f[x]]}" for x in range(Gs.order)),
        "unitmap: " + " ".join(f"{Gs.names[u]}={Gt.names[m.f0[u]]}" for u in Gs.units),
    ]
    return "\n".join(lines) + "\n"
