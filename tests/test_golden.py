"""Golden snapshot: CLI bytes, verification reports and isomorphism maps.

golden/snapshot.json holds, for the files in fixtures/, seeded single-cell
mutants of three of them, relabelled copies and morphism files:
- stdout, stderr and exit code of the analysis commands;
- verify_almost / verify_brandt reports of the mutants as
  (law, witness, message) lists plus the truncation flag, at the default cap
  and at a cap of one violation per law;
- the map find_isomorphism returns for pairs of built-in structures.

The tests replay every case and require equality. Rewrite the snapshot
(python tests/test_golden.py) only when a change of output is intended; the
rewrite first lists, on stderr, the argv of every CLI case whose record
changed and the numbers of changed reports and isomorphism maps.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import amg
from amg.cli import run
from conftest import FIXTURES, builtin_catalog

SNAPSHOT = Path(__file__).resolve().parent / "golden" / "snapshot.json"
MUTATED = ("z6_example.agt", "pair3.agt", "rstar_5_2.agt")
CAPS = (100, 1)


# ------------------------------------------------------------------ helpers

def structure(kind, names, units, src, dst, iota, table):
    """An unverified structure from raw fields; src = dst = theta when almost."""
    if kind == "almost":
        return amg.AlmostGroupoid(names, units, src, iota, table, check=False)
    return amg.BrandtGroupoid(names, units, src, dst, iota, table, check=False)


def fields(G):
    src, dst = (G.theta, G.theta) if G.kind == "almost" else (G.alpha, G.beta)
    return [G.kind, list(G.names), list(G.units), list(src), list(dst), list(G.iota),
            G.table.cells.tolist()]


def relabelled(G, perm):
    """G with element i renamed to position perm[i]; names travel with elements."""
    kind, names, units, src, dst, iota, T = fields(G)
    n = len(names)
    back = [0] * n
    for i, p in enumerate(perm):
        back[p] = i
    pull = lambda m: [perm[m[back[i]]] for i in range(n)]
    rows = [[-1 if T[back[i]][back[j]] < 0 else perm[T[back[i]][back[j]]] for j in range(n)]
            for i in range(n)]
    return structure(kind, [names[back[i]] for i in range(n)], [perm[u] for u in units],
                     pull(src), pull(dst), pull(iota), np.array(rows))


def with_cell(G, x, y, value):
    kind, names, units, src, dst, iota, T = fields(G)
    T[x][y] = value
    return structure(kind, names, units, src, dst, iota, np.array(T))


def with_map_entry(G, which, x, value):
    kind, names, units, src, dst, iota, T = fields(G)
    maps = {"src": src, "dst": dst, "iota": iota}
    maps[which][x] = value
    if kind == "almost" and which in ("src", "dst"):
        maps["src"] = maps["dst"] = maps[which]
    return structure(kind, names, units, maps["src"], maps["dst"], maps["iota"], np.array(T))


def report_of(G, cap):
    if G.kind == "almost":
        rep = amg.verify_almost(G.names, G.units, G.theta, G.iota, G.table, max_violations_per_law=cap)
    else:
        rep = amg.verify_brandt(G.names, G.units, G.alpha, G.beta, G.iota, G.table,
                                max_violations_per_law=cap)
    return {"violations": [[v.law.value, list(v.witness), v.message] for v in rep.violations],
            "truncated": rep.truncated}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def named_structures() -> dict:
    out = dict(builtin_catalog())
    for k in (2, 3, 4):
        out[f"pair{k}"] = amg.pair_groupoid(k)
    out["rstar5_2"] = amg.rstar_groupoid(5, 2)
    out["rstar7_3"] = amg.rstar_groupoid(7, 3)
    # Z4 x Z4 and Z4 x| Z4: equal element-order statistics, not isomorphic
    for r in (1, 3):
        out[f"z4_{r}_z4"] = amg.from_group(
            [[(i1 + r ** j1 * i2) % 4 * 4 + (j1 + j2) % 4 for i2 in range(4) for j2 in range(4)]
             for i1 in range(4) for j1 in range(4)])
    return out


# ------------------------------------------------------------------ recording

def mutants(G, rng: random.Random) -> list:
    """Three table mutants of each kind (change, undefine, define a cell) and
    one of each map (source, target, inversion)."""
    T = G.table.cells
    n = G.order
    out = []
    defined, undefined = np.argwhere(T >= 0), np.argwhere(T < 0)
    for _ in range(3):
        x, y = (int(v) for v in defined[rng.randrange(len(defined))])
        out.append(with_cell(G, x, y, rng.choice([v for v in range(n) if v != T[x, y]])))
        x, y = (int(v) for v in defined[rng.randrange(len(defined))])
        out.append(with_cell(G, x, y, -1))
        x, y = (int(v) for v in undefined[rng.randrange(len(undefined))])
        out.append(with_cell(G, x, y, rng.randrange(n)))
    for which in ("src", "dst", "iota"):
        x = rng.randrange(n)
        out.append(with_map_entry(G, which, x, rng.randrange(n)))
    return out


def subsets(G, rng: random.Random) -> list:
    n = G.order
    out = [list(G.units), list(range(n))]
    out += [list(G.isotropy_group(u).members) for u in G.units]
    first = list(G.isotropy_group(G.units[0]).members)
    out.append(sorted(set(first) | {n - 1}))
    out.append(sorted(set(list(G.units)) | {rng.randrange(n)}))
    out += [sorted(rng.sample(range(n), k)) for k in (1, 2, max(2, n // 3), max(2, n // 2))]
    return [[G.names[x] for x in S] for S in out]


def record() -> dict:
    rng = random.Random(20261018)
    texts = {}
    base = {}
    for path in sorted(FIXTURES.glob("*.agt")):
        base[path.name] = amg.parse(path.read_text(encoding="utf-8"))
    for name, G in list(base.items()):
        perm = list(range(G.order))
        rng.shuffle(perm)
        texts[f"relabel_{name}"] = amg.serialize(relabelled(G, perm))
        texts[f"{name}.id.map"] = amg.serialize_morphism(G, G, amg.MorphismPair.identity(G))
        f = list(range(G.order))
        x = rng.randrange(G.order)
        f[x] = (f[x] + 1) % G.order
        texts[f"{name}.bad.map"] = amg.serialize_morphism(
            G, G, amg.MorphismPair(tuple(f), {u: u for u in G.units}))
    reports = []
    for name in MUTATED:
        for i, M in enumerate(mutants(base[name], rng)):
            key = f"mut{i}_{name}"
            texts[key] = amg.serialize(M)
            for cap in CAPS:
                reports.append(dict(file=key, cap=cap, **report_of(M, cap)))

    cases = []
    files = list(base) + [k for k in texts if k.endswith(".agt")]
    for name in files:
        cases += [["verify", name], ["verify", name, "--laws"], ["info", name],
                  ["center", name], ["export", name, "--tables"]]
    for name, G in base.items():
        cases += [["isotropy", name, G.names[u]] for u in G.units]
        cases.append(["isotropy", name, G.names[-1]])
        cases += [["subcheck", name, *S] for S in subsets(G, rng)]
        cases += [["centralizer", name, s] for s in G.names[:: max(1, G.order // 6)]]
        cases.append(["closure", name, *rng.sample(G.names, 2)])
        cases += [["iso", name, other] for other in base]
        cases += [["iso", name, f"relabel_{name}"], ["iso", f"relabel_{name}", name]]
        for other in base:
            cases += [["morphcheck", name, other, f"{name}.id.map"],
                      ["morphcheck", name, other, f"{name}.bad.map"]]
    cases.append(["morphcheck", "zbundle_2_6.agt", "z6_group.agt", "projection_2_6.map"])
    with tempfile.TemporaryDirectory() as work:
        cli = [dict(argv=argv, **run_cli(materialize(argv, texts, Path(work)))) for argv in cases]

    structures = named_structures()
    isos = []
    for name, G in structures.items():
        if G.order > amg.ISO_SEARCH_BOUND:
            continue
        perm = list(range(G.order))
        rng.shuffle(perm)
        isos.append({"source": name, "target": name, "perm": perm})
        isos.append({"source": name, "target": name, "perm": None})
        for other, H in structures.items():
            if (other != name and H.kind == G.kind and H.order == G.order
                    and len(H.units) == len(G.units)):
                isos.append({"source": name, "target": other, "perm": None})
    for case in isos:
        case["found"] = iso_case(structures, case)
    return {"texts": texts, "cli": cli, "reports": reports, "isomorphisms": isos}


def iso_case(structures: dict, case: dict):
    A = structures[case["source"]]
    B = structures[case["target"]]
    if case["perm"] is not None:
        B = relabelled(B, case["perm"])
    m = amg.find_isomorphism(A, B)
    return None if m is None else {"map": list(m.f), "unitmap": sorted(m.f0.items())}


def materialize(argv, texts: dict, workdir: Path) -> list:
    """argv with every snapshot text name replaced by a file holding it, and
    every fixture name by its path."""
    out = []
    for a in argv:
        if a in texts:
            (workdir / a).write_text(texts[a], encoding="utf-8")
            out.append(str(workdir / a))
        elif (FIXTURES / a).exists():
            out.append(str(FIXTURES / a))
        else:
            out.append(a)
    return out


# ------------------------------------------------------------------ tests

@pytest.fixture(scope="module")
def snapshot():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_output_matches_snapshot(snapshot, tmp_path, monkeypatch):
    monkeypatch.setenv("AMG_COLOR", "0")
    for case in snapshot["cli"]:
        got = run_cli(materialize(case["argv"], snapshot["texts"], tmp_path))
        assert got == {k: case[k] for k in ("code", "out", "err")}, case["argv"]


def test_mutant_reports_match_snapshot(snapshot):
    for case in snapshot["reports"]:
        doc = amg.parse_document(snapshot["texts"][case["file"]])
        M = structure(doc.kind, doc.names, doc.units, doc.theta or doc.alpha,
                      doc.theta or doc.beta, doc.iota, doc.table)
        got = report_of(M, case["cap"])
        want = {"violations": case["violations"], "truncated": case["truncated"]}
        assert json.loads(json.dumps(got)) == want, (case["file"], case["cap"])


def test_isomorphism_maps_match_snapshot(snapshot):
    structures = named_structures()
    for case in snapshot["isomorphisms"]:
        got = iso_case(structures, case)
        assert json.loads(json.dumps(got)) == case["found"], (case["source"], case["target"])


# ------------------------------------------------------------------ re-recording

KEYS = {
    "cli": lambda r: json.dumps(r["argv"]),
    "reports": lambda r: json.dumps([r["file"], r["cap"]]),
    "isomorphisms": lambda r: json.dumps([r["source"], r["target"], r["perm"]]),
}


def changed(old: dict, new: dict, part: str) -> tuple[list, int]:
    """The records of new[part] that are absent from old or differ from the
    old record with the same key, and the number of old records that new
    no longer has."""
    key = KEYS[part]
    before = {key(r): r for r in old.get(part, [])}
    after = {key(r) for r in new[part]}
    return [r for r in new[part] if before.get(key(r)) != r], len(before.keys() - after)


if __name__ == "__main__":
    os.environ["AMG_COLOR"] = "0"
    data = json.loads(json.dumps(record()))  # tuples become lists, as in the file
    old = json.loads(SNAPSHOT.read_text(encoding="utf-8")) if SNAPSHOT.exists() else {}
    for part in KEYS:
        diff, dropped = changed(old, data, part)
        if part == "cli":
            for r in diff:
                print("changed: " + " ".join(r["argv"]), file=sys.stderr)
        print(f"{part}: {len(diff)} changed or new, {dropped} dropped", file=sys.stderr)
    SNAPSHOT.parent.mkdir(exist_ok=True)
    with open(SNAPSHOT, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(data['cli'])} CLI cases, {len(data['reports'])} reports, "
          f"{len(data['isomorphisms'])} isomorphism searches", file=sys.stderr)
