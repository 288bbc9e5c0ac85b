"""Per-layer spans recorded from outside the program.

install() replaces each traced amg function at every place a caller looks
it up (the package namespace, the defining module, and modules that
imported it by name) with a wrapper that opens a span. Spans stay in
memory; a span's self time is its duration minus the time its child spans
cover. The program's source is not touched.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("amg", "amg.core", "amg.agt", "amg.cli", "amg.families",
           "amg.substructures", "amg.morphisms")

SUBSTRUCTURE_FNS = ("generated_subgroupoid", "cyclic_subgroupoid", "centralizer", "center",
                    "set_product", "is_almost_subgroupoid", "is_brandt_subgroupoid",
                    "intersect_subgroupoids")
FAMILY_FNS = ("build_family", "from_group", "cyclic_group", "symmetric_group_3",
              "klein_four_group", "null_almost_groupoid", "z_bundle", "matrix_bundle",
              "z6_example", "pair_groupoid", "rstar_groupoid", "direct_product",
              "disjoint_union")


def _verify_counts(args, result):
    n = len(args[0])
    return {"cells": n * n, "triples": n ** 3, "violations": len(result.violations)}


# (defining module, function, span name, counter hook on (args, result))
TRACED = (
    [("amg.agt", "parse_document", "agt.parse_document", lambda a, r: {"bytes": len(a[0])}),
     ("amg.agt", "build_structure", "agt.build_structure", None),
     ("amg.agt", "serialize", "agt.serialize", lambda a, r: {"bytes": len(r)}),
     ("amg.core", "verify_almost", "core.verify_almost", _verify_counts),
     ("amg.core", "verify_brandt", "core.verify_brandt", _verify_counts),
     ("amg.core", "derived_identities", "core.derived_identities", None),
     ("amg.morphisms", "is_morphism", "morphisms.is_morphism", None),
     ("amg.morphisms", "find_isomorphism", "morphisms.find_isomorphism", None)]
    + [("amg.substructures", fn, f"substructures.{fn}", None) for fn in SUBSTRUCTURE_FNS]
    + [("amg.families", fn, "families.build", None) for fn in FAMILY_FNS]
)


class Tracer:
    """Span stack plus per-name totals: calls, total, self, errors, counters."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stats = {}
        self._stack = []  # [span index, start, child time]
        self._patched = []

    def span(self, name, fn, args, kwargs, hook=None):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, time.perf_counter(), 0.0]
        self._stack.append(frame)
        error = True
        try:
            result = fn(*args, **kwargs)
            error = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            if self._stack:
                self._stack[-1][2] += dur
            self.spans[idx] = (name, frame[1], end, parent)
            st = self.stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                              "errors": 0, "error_s": 0.0})
            st["calls"] += 1
            st["total"] += dur
            st["self"] += dur - frame[2]
            if error:
                st["errors"] += 1
                st["error_s"] += dur
            elif hook is not None:
                for key, val in hook(args, result).items():
                    st[key] = st.get(key, 0) + val

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, hook)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever the program binds it."""
        mods = [importlib.import_module(m) for m in MODULES]
        targets = [(getattr(importlib.import_module(home), fn), name, hook)
                   for home, fn, name, hook in TRACED]
        core = importlib.import_module("amg.core")
        for original, name, hook in targets:
            wrapper = self.wrap(name, original, hook)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, attr, val))
                        setattr(mod, attr, wrapper)
        original = core.AlmostGroupoid.is_abelian
        self._patched.append((core.AlmostGroupoid, "is_abelian", original))
        core.AlmostGroupoid.is_abelian = self.wrap("core.is_abelian", original)

    def uninstall(self):
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()

    def merge(self, stats):
        """Add another tracer's totals (for example a traced child process)."""
        for name, st in stats.items():
            mine = self.stats.setdefault(name, {})
            for key, val in st.items():
                mine[key] = mine.get(key, 0) + val

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "spans": self.spans}, fh)


def span_cost(calls: int = 5000, batches: int = 7) -> float:
    """CPU seconds one span adds to a call: a wrapped no-op against the bare
    one, each the fastest of several batches."""
    tracer = Tracer()
    noop = lambda: None
    wrapped = tracer.wrap("noop", noop)

    def fastest(fn) -> float:
        best = float("inf")
        for _ in range(batches):
            t = time.process_time()
            for _ in range(calls):
                fn()
            best = min(best, time.process_time() - t)
        return best

    return max(0.0, fastest(wrapped) - fastest(noop)) / calls


def layer_metrics(stats: dict, rounds: int, cli: dict, span_s: float) -> dict:
    """Per-layer metrics per traced round from merged span totals.

    cli holds the CLI-side figures the parent measured: import_s, startup_s,
    and run_<command>_s sums of the child cli.run spans. span_s is the cost
    of one span; the tracing overhead is that times the spans of a round.
    """
    g = lambda name, key="self": stats.get(name, {}).get(key, 0) / rounds
    out = {
        "cli.import_s": (cli["import_s"], "s"),
        "cli.startup_s": (cli["startup_s"] / rounds, "s"),
        "cli.run.verify_s": (cli["run_verify_s"] / rounds, "s"),
        "cli.run.info_s": (cli["run_info_s"] / rounds, "s"),
        "cli.run.gen_s": (cli["run_gen_s"] / rounds, "s"),
    }
    parse_total = g("agt.parse_document", "total")
    ser_total = g("agt.serialize", "total")
    ver_total = g("core.verify_almost", "total") + g("core.verify_brandt", "total")
    triples = g("core.verify_almost", "triples") + g("core.verify_brandt", "triples")
    out.update({
        "agt.parse_document.self_s": (g("agt.parse_document"), "s"),
        "agt.parse_document.calls": (g("agt.parse_document", "calls"), "count"),
        "agt.parse_document.mb_per_s": (g("agt.parse_document", "bytes") / 1e6 / parse_total
                                        if parse_total else 0.0, "MB/s"),
        "agt.parse_document.errors": (g("agt.parse_document", "errors"), "count"),
        "agt.parse_document.error_s": (g("agt.parse_document", "error_s"), "s"),
        "agt.build_structure.self_s": (g("agt.build_structure"), "s"),
        "agt.serialize.self_s": (g("agt.serialize"), "s"),
        "agt.serialize.mb_per_s": (g("agt.serialize", "bytes") / 1e6 / ser_total
                                   if ser_total else 0.0, "MB/s"),
        "families.build.self_s": (g("families.build"), "s"),
        "families.build.calls": (g("families.build", "calls"), "count"),
        "core.verify_almost.self_s": (g("core.verify_almost"), "s"),
        "core.verify_brandt.self_s": (g("core.verify_brandt"), "s"),
        "core.verify.calls": (g("core.verify_almost", "calls") + g("core.verify_brandt", "calls"), "count"),
        "core.verify.cells": (g("core.verify_almost", "cells") + g("core.verify_brandt", "cells"), "count"),
        "core.verify.exhaustive_triples": (triples, "count"),
        "core.verify.triples_per_s": (triples / ver_total if ver_total else 0.0, "1/s"),
        "core.verify.violations_reported": (g("core.verify_almost", "violations")
                                            + g("core.verify_brandt", "violations"), "count"),
        "core.derived_identities.self_s": (g("core.derived_identities"), "s"),
        "core.is_abelian.self_s": (g("core.is_abelian"), "s"),
    })
    for fn in SUBSTRUCTURE_FNS:
        out[f"substructures.{fn}.self_s"] = (g(f"substructures.{fn}"), "s")
        out[f"substructures.{fn}.calls"] = (g(f"substructures.{fn}", "calls"), "count")
    for fn in ("is_morphism", "find_isomorphism"):
        out[f"morphisms.{fn}.self_s"] = (g(f"morphisms.{fn}"), "s")
        out[f"morphisms.{fn}.calls"] = (g(f"morphisms.{fn}", "calls"), "count")
    spans = sum(st["calls"] for st in stats.values()) / rounds
    out["trace.overhead_s"] = (spans * span_s, "s")
    return out
