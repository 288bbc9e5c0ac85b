"""CLI subcommands: outputs, exit codes, and determinism."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amg
from amg.cli import run
from conftest import FIXTURES

SRC = str(Path(amg.__file__).resolve().parents[1])

Z6 = str(FIXTURES / "z6_example.agt")
PAIR3 = str(FIXTURES / "pair3.agt")
ZB26 = str(FIXTURES / "zbundle_2_6.agt")
Z6GROUP = str(FIXTURES / "z6_group.agt")
PROJ = str(FIXTURES / "projection_2_6.map")


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, err = invoke(capsys, "verify", Z6)
    assert code == 0
    for line in ("AG1 OK", "AG2 OK", "AG3 OK", "TableDomain OK", "ThetaSurjective OK"):
        assert line in out
    assert "result: PASS" in out


def test_verify_laws(capsys):
    code, out, _ = invoke(capsys, "verify", Z6, "--laws")
    assert code == 0
    for name in amg.DERIVED_IDENTITY_NAMES:
        assert f"{name} OK" in out


def test_verify_failure_reports_and_exit_1(tmp_path, capsys):
    z6 = amg.z6_example()
    rows = [list(r) for r in z6.table.rows()]
    rows[9][9] = 0  # p4*p4 := u1
    text = amg.serialize(amg.AlmostGroupoid(z6.names, z6.units, z6.theta, z6.iota, rows, check=False))
    bad = tmp_path / "bad.agt"
    bad.write_text(text)
    code, out, _ = invoke(capsys, "verify", str(bad))
    assert code == 1
    assert "AG1 FAIL" in out
    assert "result: FAIL" in out


def test_verify_stdin(capsys, monkeypatch):
    text = open(Z6, encoding="utf-8").read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = invoke(capsys, "verify", "-")
    assert code == 0 and "result: PASS" in out


def test_verify_brandt_laws(capsys):
    code, out, _ = invoke(capsys, "verify", PAIR3)
    assert code == 0
    for line in ("B1_Assoc OK", "B2_Identities OK", "B3_Inverses OK", "AlphaBetaSurjective OK", "IotaInjective OK"):
        assert line in out


def test_info(capsys):
    code, out, _ = invoke(capsys, "info", Z6)
    assert code == 0
    assert "kind: almost" in out and "order: 18" in out and "units: 6" in out
    assert "abelian: yes" in out
    code, out, _ = invoke(capsys, "info", PAIR3)
    assert "transitive: yes" in out


def test_gen_families_deterministic(capsys, tmp_path):
    code, out1, _ = invoke(capsys, "gen", "z6")
    code2, out2, _ = invoke(capsys, "gen", "z6")
    assert code == code2 == 0 and out1 == out2
    assert out1 == open(Z6, encoding="utf-8").read()
    dest = tmp_path / "g.agt"
    code, out, _ = invoke(capsys, "gen", "zbundle", "2", "6", "-o", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text() == open(ZB26, encoding="utf-8").read()


def test_gen_every_family(capsys):
    for argv in (
        ["gen", "group-zn", "4"],
        ["gen", "group-s3"],
        ["gen", "null", "3"],
        ["gen", "zbundle", "2", "3"],
        ["gen", "matrix", "3"],
        ["gen", "z6"],
        ["gen", "pair", "2"],
        ["gen", "rstar", "5", "2"],
        ["gen", "product", "zbundle:1:2", "null:2"],
        ["gen", "union", "zbundle:1:2", "zbundle:1:3"],
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 0, (argv, err)
        assert out.startswith("agt 1\n")


def test_gen_usage_errors(capsys):
    code, _, err = invoke(capsys, "gen", "matrix", "4")
    assert code == 2 and "not prime" in err
    code, _, err = invoke(capsys, "gen", "nosuch")
    assert code == 2
    code, out, _ = invoke(capsys, "gen", "union", "pair:2", "null:1")
    assert code == 0 and "kind: brandt" in out


def test_isotropy_and_centralizer(capsys):
    code, out, _ = invoke(capsys, "isotropy", Z6, "u3")
    assert code == 0 and out.strip() == "u3 p5 p7"
    code, out, _ = invoke(capsys, "centralizer", Z6, "p1")
    assert code == 0 and out.strip() == "u5 p1 p9"
    code, _, err = invoke(capsys, "isotropy", Z6, "p1")
    assert code == 2 and "not a unit" in err
    code, _, err = invoke(capsys, "centralizer", Z6, "zz")
    assert code == 2 and "zz" in err


def test_center_and_closure(capsys):
    code, out, _ = invoke(capsys, "center", Z6)
    assert code == 0 and len(out.split()) == 18
    code, out, _ = invoke(capsys, "closure", Z6, "p3")
    assert code == 0 and out.split() == ["u1", "p3", "p11"]
    code, out, _ = invoke(capsys, "closure", Z6, "p3", "p5")
    assert out.split() == ["u1", "u3", "p3", "p5", "p7", "p11"]


def test_subcheck(capsys):
    code, out, _ = invoke(capsys, "subcheck", Z6, "u1", "u2", "u3", "u4", "u5", "u6")
    assert code == 0
    assert "subgroupoid: yes" in out and "wide: yes" in out and "normal: yes" in out
    code, out, _ = invoke(capsys, "subcheck", Z6, "u1", "p3")
    assert code == 1
    assert "subgroupoid: no" in out and "witness: p3 p3" in out
    code, out, _ = invoke(capsys, "subcheck", PAIR3, "(1,1)", "(1,2)", "(2,1)", "(2,2)")
    assert code == 0 and "wide: no" in out


def test_product_and_intersect(capsys):
    code, out, _ = invoke(
        capsys, "product", Z6, "--h", "u1", "p3", "p11", "--k", "u1", "p3", "p11"
    )
    assert code == 0 and out.split() == ["u1", "p3", "p11"]
    code, out, _ = invoke(capsys, "intersect", Z6, "--sets", "u1 p3 p11;u1 u3 p3 p5 p7 p11")
    assert code == 0 and out.split() == ["u1", "p3", "p11"]
    code, _, err = invoke(capsys, "intersect", Z6, "--sets", "u1 p3 p11;u3 p5 p7")
    assert code == 2 and "empty" in err.lower()


def test_intersect_names_containing_commas(capsys, tmp_path):
    path = tmp_path / "zb.agt"
    assert invoke(capsys, "gen", "zbundle", "2", "3", "-o", str(path))[0] == 0
    code, out, err = invoke(capsys, "intersect", str(path), "--sets",
                            "(0,0) (0,1) (0,2) (1,0);(0,0) (0,1) (0,2)")
    assert (code, out, err) == (0, "(0,0) (0,1) (0,2)\n", "")


def test_morphcheck(capsys, tmp_path):
    code, out, _ = invoke(capsys, "morphcheck", ZB26, Z6GROUP, PROJ)
    assert code == 0
    assert "morphism: yes" in out and "isomorphism: no" in out
    broken = tmp_path / "broken.map"
    text = open(PROJ, encoding="utf-8").read().replace("(0,1)=1", "(0,1)=2")
    broken.write_text(text)
    code, out, _ = invoke(capsys, "morphcheck", ZB26, Z6GROUP, str(broken))
    assert code == 1
    assert "morphism: no" in out and "witness:" in out


def test_morphcheck_brandt(capsys, tmp_path):
    b2, b3 = amg.pair_groupoid(2), amg.pair_groupoid(3)
    f = tuple(b3.index_of(b2.names[x]) for x in range(b2.order))
    m = amg.MorphismPair(f, {u: b3.index_of(b2.names[u]) for u in b2.units})
    src = tmp_path / "pair2.agt"
    src.write_text(amg.serialize(b2))
    mapfile = tmp_path / "inj.map"
    mapfile.write_text(amg.serialize_morphism(b2, b3, m))
    code, out, _ = invoke(capsys, "morphcheck", str(src), PAIR3, str(mapfile))
    assert code == 0 and "morphism: yes" in out and "isomorphism: no" in out


def test_iso(capsys, tmp_path):
    zb = tmp_path / "zb16.agt"
    zb.write_text(amg.serialize(amg.z_bundle(1, 6)))
    code, out, _ = invoke(capsys, "iso", str(zb), Z6GROUP)
    assert code == 0
    assert "isomorphic: yes" in out and "map:" in out
    klein = tmp_path / "klein.agt"
    klein.write_text(amg.serialize(amg.klein_four_group()))
    zb4 = tmp_path / "zb14.agt"
    zb4.write_text(amg.serialize(amg.z_bundle(1, 4)))
    code, out, _ = invoke(capsys, "iso", str(zb4), str(klein))
    assert code == 1 and "isomorphic: no" in out


def test_export_tables(capsys):
    code, out, _ = invoke(capsys, "export", Z6, "--tables")
    assert code == 0
    assert out == open(FIXTURES / "z6_tables.txt", encoding="utf-8").read()
    code, _, err = invoke(capsys, "export", Z6)
    assert code == 2 and "--tables" in err


def test_error_paths_are_one_line_exit_2(capsys, tmp_path):
    code, _, err = invoke(capsys, "verify", str(tmp_path / "missing.agt"))
    assert code == 2 and err.count("\n") == 1 and "missing.agt" in err
    garbled = tmp_path / "garbled.agt"
    garbled.write_text("not agt\n")
    code, _, err = invoke(capsys, "verify", str(garbled))
    assert code == 2 and "line 1" in err
    code, _, err = invoke(capsys, "info", str(garbled))
    assert code == 2 and err.count("\n") == 1


def test_gen_output_into_missing_directory(capsys, tmp_path):
    dest = tmp_path / "missing" / "x.agt"
    code, out, err = invoke(capsys, "gen", "z6", "-o", str(dest))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {dest}: ") and err.count("\n") == 1
    assert not dest.parent.exists()


def test_invalid_structure_exits_1_for_analysis(capsys, tmp_path):
    z6 = amg.z6_example()
    rows = [list(r) for r in z6.table.rows()]
    rows[9][9] = 0
    text = amg.serialize(amg.AlmostGroupoid(z6.names, z6.units, z6.theta, z6.iota, rows, check=False))
    bad = tmp_path / "bad.agt"
    bad.write_text(text)
    code, _, err = invoke(capsys, "center", str(bad))
    assert code == 1 and "verification failed" in err


def test_usage_error_exit_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    assert run(["verify"]) == 2


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "amg", "gen", "null", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("agt 1\n")
    proc2 = subprocess.run(
        [sys.executable, "-m", "amg", "verify", "-"],
        input=proc.stdout,
        capture_output=True,
        text=True,
    )
    assert proc2.returncode == 0
    assert "result: PASS" in proc2.stdout


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["info", Z6], ["center", Z6], ["gen", "zbundle", "8", "64"]],
                         ids=["info", "center", "gen"])
def test_closed_stdout_exits_1_quietly(argv, unbuffered):
    """stdout is a pipe whose read end is closed before the child starts,
    so its first write, or the final flush of buffered output, fails."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "amg", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("argv", [["info", Z6], ["gen", "null", "2"]], ids=["info", "gen"])
def test_stdout_closed_at_start_is_discarded(argv):
    """With fd 1 closed before start, Python sets sys.stdout to None; the
    output is discarded, as print() alone would discard it."""
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "amg", *argv],
                          stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_color_toggle(capsys, monkeypatch):
    monkeypatch.setenv("AMG_COLOR", "1")
    code, out, _ = invoke(capsys, "verify", Z6)
    assert "\x1b[32m" in out
    monkeypatch.setenv("AMG_COLOR", "0")
    code, out, _ = invoke(capsys, "verify", Z6)
    assert "\x1b[" not in out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["gen", "z6"], ["info", Z6]], ids=["gen", "info"])
def test_failed_stdout_write_is_a_one_line_error(argv, unbuffered):
    """A write to stdout that fails (here: no space left on the device)
    ends in one diagnostic line and exit 2, as a failed `gen -o` does."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "amg", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("payload,code,message", [
    (b"agt 1\n\xff\n", 2, "error: cannot read {}: not valid UTF-8\n"),
    (open(Z6, "rb").read().replace(b"\n", b"\r"), 0, ""),
], ids=["invalid-utf8", "cr-newlines"])
def test_stdin_is_decoded_as_a_file_is(tmp_path, payload, code, message):
    """Strict UTF-8 and universal newlines for `-` as for a path, also under
    the POSIX locale, where Python reads stdin with surrogate escapes."""
    path = tmp_path / "input.agt"
    path.write_bytes(payload)
    env = {**os.environ, "PYTHONPATH": SRC, "LC_ALL": "C"}
    for arg, stdin in ((str(path), None), ("-", payload)):
        proc = subprocess.run([sys.executable, "-m", "amg", "verify", arg], input=stdin,
                              capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr.decode()) == (code, message.format(arg)), arg


def test_substructure_commands_take_brandt_files(capsys, tmp_path):
    code, out, _ = invoke(capsys, "centralizer", PAIR3, "(1,2)")
    assert (code, out) == (0, "\n")  # a non-loop arrow commutes with nothing
    code, out, _ = invoke(capsys, "product", PAIR3, "--h", "(1,2)", "--k", "(2,3)", "(2,1)", "(3,1)")
    assert (code, out) == (0, "(1,1) (1,3)\n")
    code, out, _ = invoke(capsys, "intersect", PAIR3, "--sets", "(1,1) (2,2) (3,3) (1,2) (2,1);(1,1) (2,2) (3,3)")
    assert (code, out) == (0, "(1,1) (2,2) (3,3)\n")
    path = tmp_path / "pair3_s3.agt"
    assert invoke(capsys, "gen", "product", "pair:3", "group-s3", "-o", str(path))[0] == 0
    code, out, _ = invoke(capsys, "centralizer", str(path), "((2,2),(123))")
    assert (code, out) == (0, "((2,2),e) ((2,2),(123)) ((2,2),(132))\n")
    code, out, _ = invoke(capsys, "center", str(path))
    assert (code, out) == (0, "((1,1),e) ((2,2),e) ((3,3),e)\n")
    code, out, _ = invoke(capsys, "closure", str(path), "((1,2),(12))")
    assert (code, out) == (0, "((1,1),e) ((1,2),(12)) ((2,1),(12)) ((2,2),e)\n")
    code, _, err = invoke(capsys, "export", str(path), "--tables")
    assert (code, err) == (2, "error: export --tables requires an almost groupoid file\n")
