"""Command-line front end: verification, analysis, generation, and export.

Exit codes: 0 for success or a true predicate, 1 for verification or
predicate failure, 2 for parse and usage errors. Output is deterministic
for fixed inputs. ANSI color is controlled by AMG_COLOR=0|1 and defaults
to off when stdout is not a terminal.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from typing import Optional

from . import agt
from .core import (
    ALMOST_LAWS,
    BRANDT_LAWS,
    DERIVED_IDENTITY_NAMES,
    AlmostGroupoid,
    Structure,
    VerificationError,
    VerificationReport,
    derived_identities,
)
from .families import FamilySpec, build_family, parse_family_token
from .morphisms import find_isomorphism, is_isomorphism, is_morphism
from .substructures import (
    EmptyIntersectionError,
    center,
    centralizer,
    generated_subgroupoid,
    intersect_subgroupoids,
    is_subgroupoid,
    set_product,
)


class CliError(Exception):
    """One-line diagnostic; maps to exit code 2."""


def _use_color() -> bool:
    env = os.environ.get("AMG_COLOR")
    if env == "1":
        return True
    if env == "0":
        return False
    return sys.stdout.isatty()


def _mark(ok: bool, yes: str = "OK", no: str = "FAIL") -> str:
    word = yes if ok else no
    if _use_color():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _read_text(path: str) -> str:
    try:
        if path == "-":
            if isinstance(sys.stdin, io.TextIOWrapper):  # decode as open() below does
                sys.stdin.reconfigure(encoding="utf-8", errors="strict", newline=None)
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise CliError(f"cannot read {path}: not valid UTF-8") from None


def _load(path: str) -> Structure:
    return agt.parse(_read_text(path))


def _resolve(G: Structure, name: str) -> int:
    try:
        return G.index_of(name)
    except KeyError:
        raise CliError(f"unknown element name {name!r}") from None


def _print_names(subset) -> None:
    print(" ".join(subset.names()))


def _report_lines(report: VerificationReport, laws) -> list[str]:
    failed = set(report.failed_laws())
    lines = []
    for law in laws:
        lines.append(f"{law.value} {_mark(law not in failed)}")
    shown = 0
    for v in report.violations:
        if shown >= 10:
            lines.append(f"... {len(report.violations) - shown} more violations")
            break
        lines.append(f"  {v.law.value}: {v.message}")
        shown += 1
    if report.truncated:
        lines.append("  (violation list truncated)")
    return lines


def cmd_verify(args) -> int:
    G = agt.build_structure(agt.parse_document(_read_text(args.file)), check=False)
    report = G._verify()
    print(f"kind: {G.kind}")
    print(f"order: {G.order}")
    print(f"units: {len(G.units)}")
    for line in _report_lines(report, ALMOST_LAWS if G.kind == "almost" else BRANDT_LAWS):
        print(line)
    ok = report.passed
    if ok and args.laws and G.kind == "almost":
        dreport = derived_identities(G)
        failed = {v.message.split(":", 1)[0] for v in dreport.violations}
        print("derived identities:")
        for name in DERIVED_IDENTITY_NAMES:
            print(f"{name} {_mark(name not in failed)}")
        ok = ok and dreport.passed
    print(f"result: {_mark(ok, 'PASS', 'FAIL')}")
    return 0 if ok else 1


def cmd_info(args) -> int:
    G = _load(args.file)
    print(f"kind: {G.kind}")
    print(f"order: {G.order}")
    print(f"units: {len(G.units)}")
    print("fibers: " + " ".join(f"{G.names[u]}={len(G.fibers[u])}" for u in G.units))
    if isinstance(G, AlmostGroupoid):
        print(f"abelian: {'yes' if G.is_abelian() else 'no'}")
    else:
        print(f"transitive: {'yes' if G.is_transitive() else 'no'}")
    return 0


def cmd_gen(args) -> int:
    name = args.family
    if name in ("product", "union"):
        if len(args.params) != 2:
            raise CliError(f"{name} takes two family specs, e.g. zbundle:2:2 null:3")
        subs = tuple(parse_family_token(t) for t in args.params)
        G = build_family(FamilySpec(name, (), subs))
    else:
        G = build_family(parse_family_token(":".join([name] + list(args.params))))
    text = agt.serialize(G)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
    return 0


def cmd_isotropy(args) -> int:
    G = _load(args.file)
    u = _resolve(G, args.unit)
    if not G.is_unit(u):
        raise CliError(f"{args.unit!r} is not a unit")
    _print_names(G.isotropy_group(u))
    return 0


def cmd_center(args) -> int:
    G = _load(args.file)
    _print_names(center(G))
    return 0


def cmd_centralizer(args) -> int:
    G = _load(args.file)
    _print_names(centralizer(G, _resolve(G, args.element)))
    return 0


def cmd_closure(args) -> int:
    G = _load(args.file)
    ids = [_resolve(G, s) for s in args.elements]
    _print_names(generated_subgroupoid(G, G.subset(ids)))
    return 0


def cmd_subcheck(args) -> int:
    G = _load(args.file)
    rep = is_subgroupoid(G, G.subset(_resolve(G, s) for s in args.elements))
    print(f"subgroupoid: {'yes' if rep.is_subgroupoid else 'no'}")
    print(f"wide: {'yes' if rep.is_wide else 'no'}")
    print(f"normal: {'yes' if rep.is_normal else 'no'}")
    print("units: " + " ".join(rep.units.names()))
    if rep.witness is not None:
        print("witness: " + " ".join(G.names[w] for w in rep.witness))
    return 0 if rep.is_subgroupoid else 1


def cmd_product(args) -> int:
    G = _load(args.file)
    H = G.subset(_resolve(G, s) for s in args.h)
    K = G.subset(_resolve(G, s) for s in args.k)
    _print_names(set_product(G, H, K))
    return 0


def cmd_intersect(args) -> int:
    G = _load(args.file)
    groups = [part.strip() for part in args.sets.split(";") if part.strip()]
    if not groups:
        raise CliError("--sets needs at least one group of element names")
    family = []
    for part in groups:
        family.append(G.subset(_resolve(G, s) for s in part.split()))
    try:
        result = intersect_subgroupoids(G, family)
    except (EmptyIntersectionError, ValueError) as exc:
        raise CliError(str(exc)) from None
    _print_names(result)
    return 0


def _load_pair(args) -> tuple[Structure, Structure]:
    Gs, Gt = _load(args.source), _load(args.target)
    if Gs.kind != Gt.kind:
        raise CliError("source and target files have different kinds")
    return Gs, Gt


def cmd_morphcheck(args) -> int:
    Gs, Gt = _load_pair(args)
    m = agt.parse_morphism(_read_text(args.mapfile), Gs, Gt)
    ok, witness = is_morphism(Gs, Gt, m)
    print(f"morphism: {'yes' if ok else 'no'}")
    if ok:
        print(f"isomorphism: {'yes' if is_isomorphism(Gs, Gt, m) else 'no'}")
    elif witness is not None:
        print("witness: " + " ".join(Gs.names[w] for w in witness))
    return 0 if ok else 1


def cmd_iso(args) -> int:
    Gs, Gt = _load_pair(args)
    m = find_isomorphism(Gs, Gt)
    if m is None:
        print("isomorphic: no")
        return 1
    print("isomorphic: yes")
    print("map: " + " ".join(f"{Gs.names[x]}={Gt.names[m.f[x]]}" for x in range(Gs.order)))
    print("unitmap: " + " ".join(f"{Gs.names[u]}={Gt.names[m.f0[u]]}" for u in Gs.units))
    return 0


def cmd_export(args) -> int:
    if not args.tables:
        raise CliError("export requires --tables")
    G = _load(args.file)
    if G.kind != "almost":  # the tables render theta
        raise CliError("export --tables requires an almost groupoid file")
    sys.stdout.write(agt.render_tables(G))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="amg",
        description="Finite Brandt groupoids and almost groupoids: verify, analyze, generate.",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="check the axioms of a structure file")
    sp.add_argument("file", help="AGT file, or - for stdin")
    sp.add_argument("--laws", action="store_true", help="also check the derived identities")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("info", help="kind, order, units, fibers, flags")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("gen", help="write a built-in family as canonical AGT")
    sp.add_argument("family", help="group-zn | group-s3 | null | zbundle | matrix | z6 | pair | rstar | product | union")
    sp.add_argument("params", nargs="*", help="family parameters; compact specs for product/union")
    sp.add_argument("-o", "--output", help="write to a file instead of stdout")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("isotropy", help="isotropy group at a unit")
    sp.add_argument("file")
    sp.add_argument("unit")
    sp.set_defaults(fn=cmd_isotropy)

    sp = sub.add_parser("center", help="center of an almost groupoid")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_center)

    sp = sub.add_parser("centralizer", help="centralizer of an element")
    sp.add_argument("file")
    sp.add_argument("element")
    sp.set_defaults(fn=cmd_centralizer)

    sp = sub.add_parser("closure", help="generated subgroupoid of the given elements")
    sp.add_argument("file")
    sp.add_argument("elements", nargs="+")
    sp.set_defaults(fn=cmd_closure)

    sp = sub.add_parser("subcheck", help="subgroupoid / wide / normal report for a subset")
    sp.add_argument("file")
    sp.add_argument("elements", nargs="+")
    sp.set_defaults(fn=cmd_subcheck)

    sp = sub.add_parser("product", help="set product HK of two subsets")
    sp.add_argument("file")
    sp.add_argument("--h", nargs="+", required=True, metavar="ELEM")
    sp.add_argument("--k", nargs="+", required=True, metavar="ELEM")
    sp.set_defaults(fn=cmd_product)

    sp = sub.add_parser("intersect", help="intersection of subgroupoids")
    sp.add_argument("file")
    sp.add_argument("--sets", required=True, help='semicolon-separated groups, e.g. "u1 p3;u1 u3"')
    sp.set_defaults(fn=cmd_intersect)

    sp = sub.add_parser("morphcheck", help="check a morphism file between two structures")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.add_argument("mapfile")
    sp.set_defaults(fn=cmd_morphcheck)

    sp = sub.add_parser("iso", help="search for an isomorphism between two structures")
    sp.add_argument("source")
    sp.add_argument("target")
    sp.set_defaults(fn=cmd_iso)

    sp = sub.add_parser("export", help="render the structure-function and product tables")
    sp.add_argument("file")
    sp.add_argument("--tables", action="store_true")
    sp.set_defaults(fn=cmd_export)

    return p


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except agt.AgtParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    if sys.stdout is None:  # fd 1 closed at start: print() discards, write() fails
        sys.stdout = open(os.devnull, "w")
    try:
        code = run()
        sys.stdout.flush()  # a failed write surfaces here, not at interpreter exit
    except OSError as exc:
        # the recipe of Python's signal docs: later flushes go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader has exited: stop quietly
            code = 1
        else:
            print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
            code = 2
    sys.exit(code)
