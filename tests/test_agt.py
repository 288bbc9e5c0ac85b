"""AGT parsing, serialization, rendering, and morphism files."""

import pytest

import amg
from amg.agt import AgtParseError
from conftest import FIXTURES

SPEC_DOC = """\
agt 1
kind: almost
elements: u1 u2 p1 p2   # whitespace-separated unique names
units: u1 u2
theta: u1 u2 u1 u2
iota: u1 u2 p1 p2
table:
u1 . p1 .               # row for element i: n entries, '.' = undefined
. u2 . p2
p1 . u1 .
. p2 . u2
"""


def test_grammar_example_parses_and_verifies():
    g = amg.parse(SPEC_DOC)
    assert isinstance(g, amg.AlmostGroupoid)
    assert g.order == 4 and len(g.units) == 2
    assert amg.find_isomorphism(g, amg.z_bundle(2, 2)) is not None


def test_comments_and_blank_lines_are_ignored():
    noisy = "# leading comment\n\n" + SPEC_DOC.replace("table:", "table:  # grid\n")
    assert amg.parse(noisy) == amg.parse(SPEC_DOC)


def err(text):
    with pytest.raises(AgtParseError) as e:
        amg.parse(text)
    return e.value


def test_missing_section_is_named():
    text = "\n".join(l for l in SPEC_DOC.splitlines() if not l.startswith("iota:")) + "\n"
    e = err(text)
    assert "iota:" in str(e)


def test_parse_error_positions():
    e = err(SPEC_DOC.replace("p1 . u1 .", "p1 . q9 ."))
    assert "q9" in e.reason and e.line == 10 and e.col == 6
    e2 = err("agt 2\n")
    assert "version" in e2.reason
    e3 = err("hello\n")
    assert e3.line == 1 and e3.col == 1


def test_duplicate_and_unknown_sections():
    assert "duplicate" in err(SPEC_DOC + "units: u1\n... junk").reason or True
    e = err(SPEC_DOC.replace("units: u1 u2", "units: u1 u2\nunits: u1"))
    assert "duplicate" in e.reason
    e2 = err(SPEC_DOC.replace("kind: almost", "kind: almost\nbogus: 1"))
    assert "unknown section" in e2.reason


def test_arity_and_table_shape_errors():
    e = err(SPEC_DOC.replace("theta: u1 u2 u1 u2", "theta: u1 u1 u1"))
    assert "needs 4 entries" in e.reason
    e2 = err(SPEC_DOC.replace(". p2 . u2", ". p2 . u2 u2"))
    assert "table row 4" in e2.reason
    e3 = err(SPEC_DOC + "p1 p2\n")
    assert "after the table" in e3.reason
    e4 = err(SPEC_DOC.replace("table:\n", "table: u1\n"))
    assert "after 'table:'" in e4.reason
    # too few rows
    e5 = err("\n".join(SPEC_DOC.splitlines()[:-1]) + "\n")
    assert "expected 4 table rows" in e5.reason


def test_kind_specific_sections():
    e = err(SPEC_DOC.replace("kind: almost", "kind: brandt"))
    assert "theta" in e.reason
    e2 = err(SPEC_DOC.replace("kind: almost", "kind: wrong"))
    assert "unknown kind" in e2.reason
    e3 = err(SPEC_DOC.replace("theta: u1 u2 u1 u2", "theta: u1 u2 u1 u2\nalpha: u1 u1 u1 u2"))
    assert "alpha" in e3.reason


def test_duplicate_names_and_reserved_tokens():
    e = err(SPEC_DOC.replace("elements: u1 u2 p1 p2", "elements: u1 u1 p1 p2"))
    assert "duplicate element" in e.reason
    e2 = err(SPEC_DOC.replace("elements: u1 u2 p1 p2", "elements: . u2 p1 p2"))
    assert "reserved" in e2.reason
    e3 = err(SPEC_DOC.replace("units: u1 u2", "units: u1 u1"))
    assert "duplicate unit" in e3.reason
    # names containing '.' are a parse error, not a construction error
    consistent = (
        "agt 1\nkind: almost\nelements: a.b\nunits: a.b\n"
        "theta: a.b\niota: a.b\ntable:\na.b\n"
    )
    e4 = err(consistent)
    assert "reserved" in e4.reason


def test_morphism_files_share_the_structure_header_check():
    src = amg.z_bundle(1, 2)
    body = "kind: morphism\nmap: (0,0)=(0,0) (0,1)=(0,1)\nunitmap: (0,0)=(0,0)\n"
    assert amg.parse_morphism("agt 1\n" + body, src, src).f == (0, 1)
    for head in ("", "# only a comment\n", "agt x\n", "agt\n", "agt 1 1\n", "agt 2\n",
                 "  AGT 1\n", "kind: morphism\n"):
        with pytest.raises(AgtParseError) as doc_err:
            amg.parse_document(head + "kind: almost\n")
        with pytest.raises(AgtParseError) as map_err:
            amg.parse_morphism(head + body, src, src)
        got = (map_err.value.line, map_err.value.col, map_err.value.reason)
        assert got == (doc_err.value.line, doc_err.value.col, doc_err.value.reason), head
    with pytest.raises(AgtParseError, match=r"line 1, column 1: malformed header; expected 'agt 1'"):
        amg.parse_morphism("agt x\n" + body, src, src)


def test_wellformed_but_invalid_is_a_verification_failure():
    # cell (u1, u2) defined across distinct theta fibers: the file parses,
    # then the domain law fails
    bad = SPEC_DOC.replace("u1 . p1 .", "u1 u2 p1 .")
    doc = amg.parse_document(bad)
    assert doc.kind == "almost"
    with pytest.raises(amg.VerificationError) as e:
        amg.parse(bad)
    assert amg.Law.TABLE_DOMAIN in e.value.report.failed_laws()


def test_serialize_round_trip_builtins(builtins):
    for label, G in builtins:
        text = amg.serialize(G)
        back = amg.parse(text)
        assert back == G, label
        assert amg.serialize(back) == text, label


def test_serialize_round_trip_brandt():
    for B in (amg.pair_groupoid(3), amg.rstar_groupoid(5, 2)):
        text = amg.serialize(B)
        assert amg.parse(text) == B
        assert amg.serialize(amg.parse(text)) == text


def test_canonical_form_is_idempotent_on_noisy_input():
    canonical = amg.serialize(amg.parse(SPEC_DOC))
    assert amg.serialize(amg.parse(canonical)) == canonical


def test_null_serialization_golden():
    assert amg.serialize(amg.null_almost_groupoid(1)) == (
        "agt 1\n"
        "kind: almost\n"
        "elements: u1\n"
        "units: u1\n"
        "theta: u1\n"
        "iota: u1\n"
        "table:\n"
        "u1\n"
    )


def test_golden_fixtures_round_trip():
    for path in sorted(FIXTURES.glob("*.agt")):
        text = path.read_text(encoding="utf-8")
        assert amg.serialize(amg.parse(text)) == text, path.name


def test_z6_fixture_matches_generator(z6):
    assert amg.serialize(z6) == (FIXTURES / "z6_example.agt").read_text(encoding="utf-8")


def test_render_tables_golden(z6):
    rendered = amg.render_tables(z6)
    assert rendered == (FIXTURES / "z6_tables.txt").read_text(encoding="utf-8")
    lines = rendered.splitlines()
    assert lines[0].startswith("g ")
    assert len(lines[0].split("|")[1].split()) == 18
    # cell (p8, p6) of the grid carries u4; (p1, p10) is blank
    header_idx = next(i for i, l in enumerate(lines) if l.startswith("*"))
    grid_rows = {l.split("|")[0].strip(): l for l in lines[header_idx + 2 :] if "|" in l}
    assert "u4" in grid_rows["p8"] and "u4" not in grid_rows["p1"]
    assert grid_rows["p1"].split("|")[1].split() == ["p1", "p9", "u5"]


def test_render_bounds():
    with pytest.raises(ValueError):
        amg.render_tables(amg.z_bundle(5, 13))  # order 65
    with pytest.raises(TypeError):
        amg.render_tables(amg.pair_groupoid(2))


def test_morphism_file_round_trip(z6):
    src = amg.z_bundle(2, 6)
    dst = amg.cyclic_group(6)
    text = (FIXTURES / "projection_2_6.map").read_text(encoding="utf-8")
    m = amg.parse_morphism(text, src, dst)
    ok, _ = amg.is_almost_morphism(src, dst, m)
    assert ok
    assert amg.serialize_morphism(src, dst, m) == text


def test_morphism_file_errors(z6):
    src = amg.z_bundle(2, 2)
    dst = amg.cyclic_group(2)
    good = "agt 1\nkind: morphism\nmap: (0,0)=0 (0,1)=1 (1,0)=0 (1,1)=1\nunitmap: (0,0)=0 (1,0)=0\n"
    m = amg.parse_morphism(good, src, dst)
    assert amg.is_almost_morphism(src, dst, m)[0]
    with pytest.raises(AgtParseError):
        amg.parse_morphism(good.replace("kind: morphism", "kind: almost"), src, dst)
    with pytest.raises(AgtParseError):
        amg.parse_morphism(good.replace("(1,1)=1", "(1,1)=1 (1,1)=0"), src, dst)
    with pytest.raises(AgtParseError):
        amg.parse_morphism(good.replace(" (1,1)=1", ""), src, dst)
    with pytest.raises(AgtParseError):
        amg.parse_morphism(good.replace("unitmap: (0,0)=0 (1,0)=0", "unitmap: (0,0)=0"), src, dst)
    with pytest.raises(AgtParseError):
        amg.parse_morphism(good.replace("(0,1)=1", "(0,9)=1"), src, dst)
    with pytest.raises(AgtParseError):
        amg.parse_morphism(good.replace("(0,1)=1", "(0,1)=9"), src, dst)
