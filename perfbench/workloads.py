"""The benchmark's three operation kinds and the workloads that mix them.

Every workload runs all three kinds in each round, so every run reports
every end-to-end metric; the workload decides which kind gets the large
inputs. Inputs come only from the seed. Every output of the program is
checked against oracles.py, outside the timed calls.
"""

from __future__ import annotations

import copy
import functools
import gc
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles

import amg

# ------------------------------------------------------------------ configs
# A spec is the argument list of `amg gen`.

CLI_LARGE = {
    "ladder": [("fibered", ["zbundle", "8", "64"]), ("fibered", ["matrix", "23"]),
               ("dense", ["product", "group-s3", "group-zn:85"]),
               ("brandt", ["pair", "24"]), ("brandt", ["rstar", "23", "5"])],
}
CLI_SMALL = {
    "ladder": [("fibered", ["zbundle", "4", "8"]), ("dense", ["product", "group-s3", "group-zn:5"]),
               ("brandt", ["pair", "6"])],
}

REJECT_LARGE = {
    # (base, mutants per kind); kinds: change, undefine and define a cell.
    "table": [(["z6"], 4), (["product", "group-s3", "group-zn:7"], 4),
              (["zbundle", "4", "16"], 4), (["pair", "8"], 4), (["rstar", "11", "3"], 4),
              (["matrix", "11"], 4), (["pair", "14"], 2), (["zbundle", "4", "64"], 2)],
    # (base, mutants); one byte replaced in each of `mutants` equal slices of the text.
    "text": [(["z6"], 40), (["zbundle", "4", "8"], 40), (["product", "group-s3", "group-zn:5"], 40),
             (["matrix", "7"], 40), (["pair", "6"], 40), (["rstar", "7", "3"], 40)],
}
REJECT_SMALL = {
    "table": [(["z6"], 3), (["pair", "4"], 3), (["zbundle", "2", "8"], 3)],
    "text": [(["z6"], 20), (["pair", "4"], 20)],
}

QUERY_LARGE = {
    "almost": [["z6"], ["product", "group-s3", "group-zn:8"], ["zbundle", "4", "16"],
               ["matrix", "13"], ["zbundle", "8", "32"]],
    "brandt": [["pair", "5"], ["rstar", "7", "3"], ["pair", "8"]],
    "subsets": 6,  # seeded subsets of a quarter of the carrier, per structure
    "seedsets": 6,  # seeded two-element generator sets, per structure
    "projections": [(2, 6), (4, 16), (8, 32)],  # zbundle(m, n) -> Z_n
    "corrupt": 3,  # corrupted copies of each morphism map
    "relabel": [["z6"], ["zbundle", "2", "8"], ["product", "group-s3", "group-zn:4"],
                ["matrix", "7"], ["zbundle", "4", "16"], ["pair", "4"], ["rstar", "7", "3"],
                ["pair", "8"]],
    # Z_m x|_r Z_k pairs with equal element-order statistics.
    "negatives": [((4, 1, 4), (4, 3, 4)), ((8, 1, 8), (8, 5, 8)), ((16, 9, 4), (16, 5, 4))],
}
QUERY_SMALL = {
    "almost": [["z6"]],
    "brandt": [["pair", "3"]],
    "subsets": 2,
    "seedsets": 2,
    "projections": [(2, 3)],
    "corrupt": 1,
    "relabel": [["z6"], ["pair", "3"]],
    "negatives": [((4, 1, 4), (4, 3, 4))],
}

# Per workload: the configs of the CLI, reject and query parts, and how many
# passes per round each in-process task and the set-up make. A round runs
# the CLI ladder once; a metric is the mean of its samples over the run, so
# each task, and the CLI ladder, needs samples spread over the whole run.
# The reject and query rounds take about 6-8 s on seed code, so a 30 s run
# holds three to five of them. cli-large runs one long round; each of its
# in-process tasks makes three passes after each of its 15 commands.
WORKLOADS = {
    "cli-large": {"cli": CLI_LARGE, "reject": REJECT_SMALL, "query": QUERY_SMALL,
                  "passes": {"table": 45, "text": 45, "queries": 45, "iso": 45, "setup": 15}},
    "reject": {"cli": CLI_SMALL, "reject": REJECT_LARGE, "query": QUERY_SMALL,
               "passes": {"table": 1, "text": 2, "queries": 4, "iso": 4, "setup": 1}},
    "query": {"cli": CLI_SMALL, "reject": REJECT_SMALL, "query": QUERY_LARGE,
              "passes": {"table": 4, "text": 4, "queries": 4, "iso": 1, "setup": 1}},
}

CAP = 100  # default max_violations_per_law of the verifiers
TEXT_ALPHABET = "0123456789aeu()A,=.:#- \t\n"


# ------------------------------------------------------------------ helpers

class Context:
    """Run-wide state: counters, problems found, and where the CLI runs."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), AMG_COLOR="0")
        self.attempted = 0
        self.failed = 0
        self.problems = []  # wrong outputs
        self.failures = []  # operations that raised or exited non-zero
        self.tracer = None
        self.cli = {"startup_s": 0.0, "run_verify_s": 0.0, "run_info_s": 0.0, "run_gen_s": 0.0}

    def problem(self, what: str, details):
        if details:
            self.problems.append(f"{what}: {details if isinstance(details, str) else details[:3]}")

    def fail(self, what: str, detail: str):
        self.failed += 1
        self.failures.append(f"{what}: {detail}")

    def amg(self, argv: list) -> tuple:
        """Run one amg command; returns (wall seconds, exit code, stdout, peak RSS in KB)."""
        out_path = self.workdir / "stdout.txt"
        spans_path = self.workdir / "spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "amg", *argv]
        else:
            child = Path(__file__).resolve().parent / "amg_child.py"
            cmd = [sys.executable, str(child), str(spans_path), *argv]
        with open(out_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            peak_kb = wait_exit(proc.pid)
            wall = time.perf_counter() - t0
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if self.tracer is not None and spans_path.exists():
            with open(spans_path, encoding="utf-8") as fh:
                stats = json.load(fh)["stats"]
            spans_path.unlink()
            run_s = stats.pop("cli.run")["total"]
            self.tracer.merge(stats)
            self.cli["startup_s"] += wall - run_s
            self.cli[f"run_{argv[0]}_s"] += run_s
        return wall, proc.returncode, out_path.read_text(encoding="utf-8"), peak_kb

    def import_wall(self) -> float:
        """Wall time of `python3 -c "import amg"`."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import amg"], env=self.env, cwd=self.workdir, check=True)
        return time.perf_counter() - t0


def wait_exit(pid: int) -> int:
    """Wait until process pid exits, without reaping it; return its peak RSS in KB.

    The peak is the child's VmHWM, read every 10 ms while it runs; it only
    grows, so the last reading misses at most the final 10 ms. The child's
    ru_maxrss cannot be used: Linux charges it with the parent's high-water
    mark when the child is forked, which would report the benchmark's own
    memory.
    """
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        peak = 0
        while not poller.poll(10):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:  # exited between the poll and the read
                pass
        return peak
    finally:
        os.close(fd)


def build(spec: list):
    """A structure from `amg gen` arguments, built in-process."""
    if spec[0] == "product":
        subs = tuple(amg.parse_family_token(t) for t in spec[1:])
        return amg.build_family(amg.FamilySpec("product", (), subs))
    return amg.build_family(amg.parse_family_token(":".join(spec)))


def model_of(G) -> oracles.Model:
    """Plain-list copy of a structure's fields for the oracles."""
    src, dst = (G.theta, G.theta) if G.kind == "almost" else (G.alpha, G.beta)
    return oracles.Model(G.kind, list(G.names), list(G.units), list(src), list(dst),
                         list(G.iota), G.table.cells.tolist())


def semidirect_table(m: int, r: int, k: int) -> list:
    """Z_m x|_r Z_k: (i,j)(i',j') = (i + r^j i' mod m, j + j' mod k)."""
    idx = lambda i, j: i * k + j
    return [[idx((i1 + pow(r, j1, m) * i2) % m, (j1 + j2) % k)
             for i2 in range(m) for j2 in range(k)]
            for i1 in range(m) for j1 in range(k)]


def relabelled(G, rng: random.Random):
    """A copy of G with its elements in a seeded random order, and the map G -> copy."""
    n = G.order
    perm = list(range(n))
    rng.shuffle(perm)
    back = [0] * n
    for i, p in enumerate(perm):
        back[p] = i
    T = G.table.cells
    rows = [[-1 if T[back[i], back[j]] < 0 else perm[T[back[i], back[j]]] for j in range(n)]
            for i in range(n)]
    names = [G.names[back[i]] for i in range(n)]
    units = [perm[u] for u in G.units]
    pull = lambda m: [perm[m[back[i]]] for i in range(n)]
    if G.kind == "almost":
        copy = amg.AlmostGroupoid(names, units, pull(G.theta), pull(G.iota), np.array(rows))
    else:
        copy = amg.BrandtGroupoid(names, units, pull(G.alpha), pull(G.beta), pull(G.iota), np.array(rows))
    return copy, perm


def stratified(rng: random.Random, size: int, i: int, count: int) -> int:
    """A seeded index in the i-th of count equal slices of range(size).

    Drawing one item per slice keeps the mix of early and late positions,
    and so the work, nearly the same from seed to seed.
    """
    return (size * i + rng.randrange(size)) // count


@functools.cache
def cached_attrs(cls: type) -> tuple:
    """Names of the functools.cached_property attributes of cls."""
    return tuple(name for klass in cls.__mro__ for name, attr in vars(klass).items()
                 if isinstance(attr, functools.cached_property))


def fresh_copy(value):
    """A deep copy of value with every cached_property value dropped, so that
    a call on it pays for any per-object cache it fills, as a first call does."""
    memo = {}
    out = copy.deepcopy(value, memo)
    for obj in memo.values():
        for name in cached_attrs(type(obj)):
            getattr(obj, "__dict__", {}).pop(name, None)
    return out


class PassTimes:
    """CPU time of whole passes over a fixed call list, over a run.

    On a shared host the same work runs at one of two speeds, nearly two
    times apart, in phases of seconds, as other tenants come and go. The
    mean of whole passes spread over the run, each the same calls on fresh
    copies of the arguments, is the run's CPU time per pass; it moves with
    the share of the run spent in slow phases, where a median or a lowest
    time jumps between the two speeds.
    """

    def __init__(self, calls: list):
        self.calls = calls  # (amg function name, args); passes call fresh copies
        self.samples = []  # CPU seconds of each pass

    def run(self) -> list:
        """One pass; returns each call's result, or the exception it raised.

        Calls are single-threaded and do no I/O, so the process CPU clock
        gives their run time without the time the host hands to other
        tenants. As in timeit, the cyclic garbage collector is off while
        they run: its passes would walk the benchmark's own inputs and
        oracle tables. Names are looked up at call time so that traced
        rounds reach the wrappers.
        """
        calls = fresh_copy(self.calls)
        out = []
        gc.collect()
        gc.disable()
        try:
            t = time.process_time()
            for name, args in calls:
                try:
                    out.append(getattr(amg, name)(*args))
                except Exception as exc:  # judged by the caller's check
                    out.append(exc)
            self.samples.append(time.process_time() - t)
        finally:
            gc.enable()
        return out

    def mean(self) -> float:
        return statistics.mean(self.samples)


class Memo(dict):
    """Oracle answers computed at first use, outside the timed calls."""

    def get_or(self, key, compute):
        if key not in self:
            self[key] = compute()
        return self[key]


# ------------------------------------------------------------------ CLI

class CliPart:
    """Each structure of a ladder: `amg gen -o`, `amg verify --laws`, `amg info`,
    each a subprocess timed by wall clock from start to exit."""

    def __init__(self, cfg: dict):
        self.ladder = cfg["ladder"]
        self.models = Memo()
        self.walls = {}  # (structure, metric) -> wall of each run of the command
        self.peak_kb = 0

    def check(self, ctx: Context, cmd: list, spec: list, path: Path, out: str):
        want = self.models.get_or(tuple(spec), lambda: oracles.family_model(spec))
        what = " ".join(cmd)
        if cmd[0] == "gen":
            got = oracles.read_agt(path.read_text(encoding="utf-8"))
            ctx.problem(what, oracles.check_same_structure(got, want))
        elif cmd[0] == "verify":
            ctx.problem(what, oracles.check_verify_output(out, want.kind, laws=True))
        else:
            facts = oracles.info_facts(want)
            if oracles.parse_info(out) != facts:
                ctx.problem(what, f"info differs from {facts}")

    def commands(self) -> list:
        """(structure, command, metric): gen, verify and info of each structure."""
        out = []
        for i, (shape, spec) in enumerate(self.ladder):
            out += [(i, ["gen", *spec, "-o", f"ladder{i}.agt"], "gen_s"),
                    (i, ["verify", f"ladder{i}.agt", "--laws"], f"verify_{shape}_s"),
                    (i, ["info", f"ladder{i}.agt"], "info_s")]
        return out

    def run_command(self, ctx: Context, i: int, cmd: list, key: str):
        ctx.attempted += 1
        wall, code, out, peak_kb = ctx.amg(cmd)
        self.walls.setdefault((i, key), []).append(wall)
        self.peak_kb = max(self.peak_kb, peak_kb)
        if code != 0:
            ctx.fail(" ".join(cmd), f"exit {code}")
        else:
            self.check(ctx, cmd, self.ladder[i][1], ctx.workdir / f"ladder{i}.agt", out)

    def metrics(self) -> dict:
        """Per metric, the sum over the ladder of each command's mean wall."""
        sums = dict.fromkeys(("gen_s", "info_s", "verify_fibered_s", "verify_dense_s",
                              "verify_brandt_s"), 0.0)
        for (_, key), walls in self.walls.items():
            sums[key] += statistics.mean(walls)
        sums["cli_peak_rss_mb"] = self.peak_kb / 1024
        return sums


# ------------------------------------------------------------------ reject

MUTATION_KINDS = ("change", "undefine", "define")


class RejectPart:
    """Single-cell table mutants judged by the verifiers, and single-byte
    text mutants judged by amg.parse."""

    def __init__(self, cfg: dict, rng: random.Random):
        self.bases = {}
        self.table_mutants = []  # (base spec, cell, value)
        table_calls = []
        for spec, per_kind in cfg["table"]:
            G = self.bases[tuple(spec)] = build(spec)
            T = G.table.cells
            pools = {"define": np.argwhere(T < 0)}
            pools["change"] = pools["undefine"] = np.argwhere(T >= 0)
            for kind in MUTATION_KINDS:
                pool = pools[kind]  # row-major, so slices are bands of rows
                for i in range(per_kind if len(pool) else 0):
                    x, y = (int(v) for v in pool[stratified(rng, len(pool), i, per_kind)])
                    if kind == "change":
                        value = rng.randrange(G.order - 1)
                        value += int(value >= T[x, y])
                    else:
                        value = -1 if kind == "undefine" else rng.randrange(G.order)
                    M = T.copy()
                    M[x, y] = value
                    self.table_mutants.append((tuple(spec), (x, y), value))
                    if G.kind == "almost":
                        table_calls.append(("verify_almost", (G.names, G.units, G.theta, G.iota, M)))
                    else:
                        table_calls.append(("verify_brandt", (G.names, G.units, G.alpha, G.beta, G.iota, M)))
        self.text_mutants = []  # (base spec, mutated text)
        for spec, count in cfg["text"]:
            if tuple(spec) not in self.bases:
                self.bases[tuple(spec)] = build(spec)
            text = amg.serialize(self.bases[tuple(spec)])
            shift = rng.randrange(len(TEXT_ALPHABET))
            for i in range(count):
                pos = stratified(rng, len(text), i, count)
                ch = TEXT_ALPHABET[(shift + i) % len(TEXT_ALPHABET)]
                if ch == text[pos]:
                    ch = TEXT_ALPHABET[(shift + i + 1) % len(TEXT_ALPHABET)]
                self.text_mutants.append((tuple(spec), text[:pos] + ch + text[pos + 1:]))
        self.table_times = PassTimes(table_calls)
        self.text_times = PassTimes([("parse", (text,)) for _, text in self.text_mutants])
        self.oracle = Memo()

    def base_model(self, spec: tuple) -> tuple:
        def compute():
            m = model_of(self.bases[spec])
            return m, oracles.preimages(m.table)
        return self.oracle.get_or(spec, compute)

    def check_table(self, ctx: Context, mutant: tuple, rep):
        spec, cell, value = mutant
        what = f"verify {' '.join(spec)} {cell}={value}"
        if isinstance(rep, Exception):
            ctx.fail(what, repr(rep))
            return
        base, pre = self.base_model(spec)
        m = base.with_cell(*cell, value)
        items = [(v.law.value, v.witness) for v in rep.violations]
        ctx.problem(what, oracles.check_rejection(m, items, rep.passed,
                                                  oracles.true_counts(m, cell, pre), CAP))

    def check_text(self, ctx: Context, mutant: tuple, got):
        spec, text = mutant
        if isinstance(got, amg.AgtParseError):
            if not oracles.position_inside(text, got.line, got.col):
                ctx.problem("parse", f"position {got.line}:{got.col} outside the document")
        elif isinstance(got, amg.VerificationError):
            if got.report.passed:
                ctx.problem("parse", "VerificationError with a passing report")
        elif isinstance(got, Exception):
            ctx.fail("parse", repr(got))
        elif model_of(got) != self.base_model(spec)[0]:
            ctx.problem("parse", "accepted a mutant that differs from its base")

    def table_pass(self, ctx: Context):
        reports = self.table_times.run()
        ctx.attempted += len(reports)
        for mutant, rep in zip(self.table_mutants, reports):
            self.check_table(ctx, mutant, rep)

    def text_pass(self, ctx: Context):
        outcomes = self.text_times.run()
        ctx.attempted += len(outcomes)
        for mutant, got in zip(self.text_mutants, outcomes):
            self.check_text(ctx, mutant, got)

    def metrics(self) -> dict:
        return {"table_mutants_per_s": len(self.table_mutants) / self.table_times.mean(),
                "text_mutants_per_s": len(self.text_mutants) / self.text_times.mean()}


# ------------------------------------------------------------------ query

def same_members(expected):
    """Check that a subset result has exactly the expected members."""
    def check(m, got):
        want = expected()
        if isinstance(got, amg.EmptyIntersectionError) and not want:
            return []
        if isinstance(got, Exception) or set(got.members) != want:
            return ["result differs from recomputation"]
        return []
    return check


class QueryPart:
    """Substructure and morphism-check calls on verified structures, and
    isomorphism searches on relabelled copies and hard negatives."""

    def __init__(self, cfg: dict, rng: random.Random):
        self.memo = Memo()
        self.calls = []  # (amg function name, args)
        self.checks = []  # (structure for the oracle, check(model, result) -> problems)
        for spec in cfg["almost"]:
            self.almost_queries(build(spec), cfg, rng)
        for spec in cfg["brandt"]:
            B = build(spec)
            n = B.order
            plain = model_of(B)
            closures = [self.generators(plain, rng)[1] for _ in range(cfg["seedsets"])]
            subsets = [rng.sample(range(n), max(1, n // 4)) for _ in range(cfg["subsets"])]
            for H in subsets + closures + [list(B.units), list(range(n))]:
                self.add(B, "is_brandt_subgroupoid", (B, B.subset(H)), self.subgroupoid_check(H))
        maps = []
        for k, n in cfg["projections"]:
            src, dst = amg.z_bundle(k, n), amg.cyclic_group(n)
            maps.append((src, dst, [x % n for x in range(k * n)], {u: 0 for u in src.units}))
        self.isos = []  # (source, target, expect an isomorphism)
        for spec in cfg["relabel"]:
            G = build(spec)
            copy, perm = relabelled(G, rng)
            self.isos.append((G, copy, True))
            maps.append((G, copy, perm, {u: perm[u] for u in G.units}))
        for (m1, r1, k1), (m2, r2, k2) in cfg["negatives"]:
            self.isos.append((amg.from_group(semidirect_table(m1, r1, k1)),
                              amg.from_group(semidirect_table(m2, r2, k2)), False))
        for src, dst, f, f0 in maps:
            for g in [f] + [self.corrupted(f, dst.order, rng, i, cfg["corrupt"])
                            for i in range(cfg["corrupt"])]:
                self.add(src, "is_morphism", (src, dst, amg.MorphismPair(tuple(g), dict(f0))),
                         self.morphism_check(dst, g, f0))
        self.query_times = PassTimes(self.calls)
        self.iso_times = PassTimes([("find_isomorphism", (A, B)) for A, B, _ in self.isos])

    @staticmethod
    def corrupted(f: list, order: int, rng: random.Random, i: int, count: int) -> list:
        """f with the image of one element, from the i-th of count slices, changed."""
        g = list(f)
        x = stratified(rng, len(g), i, count)
        g[x] = rng.choice([t for t in range(order) if t != f[x]])
        return g

    @staticmethod
    def generators(m: oracles.Model, rng: random.Random) -> tuple:
        """Two seeded elements and their closure, drawn again until the closure
        has a fixed shape, so that queries on it cost the same for every seed:
        a whole fiber of an almost groupoid, or the full subgroupoid on three
        units of a Brandt groupoid (two arrows x->y, y->z)."""
        n = m.order
        while True:
            if m.kind == "almost":
                u = rng.choice(m.units)
                fiber = [x for x in range(n) if m.src[x] == u]
                seeds = [rng.choice(fiber), rng.choice(fiber)]
                size = len(fiber)
            else:
                seeds = [rng.randrange(n), rng.randrange(n)]
                g, h = seeds
                if m.dst[g] != m.src[h] or len({m.src[g], m.dst[g], m.dst[h]}) != 3:
                    continue
                size = 9 * sum(1 for x in range(n) if m.src[x] == m.dst[x] == m.src[g])
            closure = oracles.word_closure(m, seeds)
            if len(closure) == size:
                return seeds, sorted(closure)

    def model(self, G) -> oracles.Model:
        return self.memo.get_or(id(G), lambda: model_of(G))

    def add(self, G, name: str, args: tuple, check):
        self.calls.append((name, args))
        self.checks.append((G, check))

    def almost_queries(self, G, cfg: dict, rng: random.Random):
        n = G.order
        ask = lambda key, compute: lambda: self.memo.get_or((id(G),) + key, compute)
        m = lambda: self.model(G)
        plain = model_of(G)
        for a in range(n):
            self.add(G, "centralizer", (G, a), same_members(ask(("cz", a), lambda a=a: oracles.centralizer(m(), a))))
            self.add(G, "cyclic_subgroupoid", (G, a), same_members(ask(("cy", a), lambda a=a: oracles.powers(m(), a))))
        self.add(G, "center", (G,), same_members(ask(("ce",), lambda: oracles.center(m()))))
        closures = []
        for _ in range(cfg["seedsets"]):
            seeds, closure = self.generators(plain, rng)
            closures.append(closure)
            self.add(G, "generated_subgroupoid", (G, G.subset(seeds)), same_members(lambda c=closure: set(c)))
        subsets = [rng.sample(range(n), max(1, n // 4)) for _ in range(cfg["subsets"])]
        for H in subsets + closures + [list(G.units), list(range(n))]:
            self.add(G, "is_almost_subgroupoid", (G, G.subset(H)), self.subgroupoid_check(H))
        for H, K in zip(closures, closures[1:]):
            h, k = G.subset(H), G.subset(K)
            self.add(G, "set_product", (G, h, k),
                     same_members(lambda H=H, K=K: oracles.set_product(m(), H, K)))
            self.add(G, "hk_commutes", (G, h, k), lambda mm, got, H=H, K=K: [] if got == (
                oracles.set_product(mm, H, K) == oracles.set_product(mm, K, H)) else ["verdict differs"])
            self.add(G, "intersect_subgroupoids", (G, [h, k]), same_members(lambda H=H, K=K: set(H) & set(K)))

    @staticmethod
    def subgroupoid_check(H: list):
        def check(m, rep):
            answer = (rep.is_subgroupoid, rep.is_wide, rep.is_normal, rep.units.members, rep.witness)
            return oracles.check_subgroupoid_report(m, H, answer)
        return check

    def morphism_check(self, dst, f: list, f0: dict):
        def check(m, got):
            return oracles.check_morphism_answer(m, self.model(dst), f, f0, got[0], got[1])
        return check

    def check_iso(self, ctx: Context, A, B, positive: bool, got):
        if isinstance(got, Exception):
            ctx.fail("find_isomorphism", repr(got))
        elif positive and got is None:
            ctx.problem("find_isomorphism", f"no isomorphism found for {A}")
        elif positive:
            ctx.problem("find_isomorphism", oracles.check_isomorphism(
                self.model(A), self.model(B), list(got.f), got.f0))
        elif got is not None:
            ctx.problem("find_isomorphism", "isomorphism claimed for a hard negative")
        else:
            ctx.problem("find_isomorphism", self.memo.get_or(
                ("neg", id(A)), lambda: oracles.check_non_isomorphic(self.model(A), self.model(B))))

    def query_pass(self, ctx: Context):
        results = self.query_times.run()
        ctx.attempted += len(results)
        for (name, _), (G, check), got in zip(self.calls, self.checks, results):
            if isinstance(got, Exception) and not isinstance(got, amg.EmptyIntersectionError):
                ctx.fail(name, repr(got))
            else:
                ctx.problem(name, check(self.model(G), got))

    def iso_pass(self, ctx: Context):
        found = self.iso_times.run()
        ctx.attempted += len(found)
        for (A, B, positive), got in zip(self.isos, found):
            self.check_iso(ctx, A, B, positive, got)

    def metrics(self) -> dict:
        return {"queries_per_s": len(self.calls) / self.query_times.mean(),
                "iso_search_s": self.iso_times.mean()}


class Workload:
    """All three parts, set up from one seed.

    A round runs the CLI ladder command by command and spreads the passes
    of each in-process task, and of the set-up, evenly between the commands.
    """

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.passes = WORKLOADS[name]["passes"]
        self.setups = []  # CPU seconds of each set-up
        self.cli, self.reject, self.query = self.set_up()

    def set_up(self) -> tuple:
        """Build every input from the seed, timed like the in-process calls."""
        cfg = WORKLOADS[self.name]
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            parts = (CliPart(cfg["cli"]),
                     RejectPart(cfg["reject"], random.Random(f"{self.name}/reject/{self.seed}")),
                     QueryPart(cfg["query"], random.Random(f"{self.name}/query/{self.seed}")))
            self.setups.append(time.process_time() - t0)
        finally:
            gc.enable()
        return parts

    def run_round(self, ctx: Context):
        steps = self.cli.commands()
        tasks = [(lambda: self.reject.table_pass(ctx), self.passes["table"]),
                 (lambda: self.reject.text_pass(ctx), self.passes["text"]),
                 (lambda: self.query.query_pass(ctx), self.passes["queries"]),
                 (lambda: self.query.iso_pass(ctx), self.passes["iso"]),
                 (self.set_up, self.passes["setup"])]
        done = [0] * len(tasks)
        for s, step in enumerate(steps, 1):
            self.cli.run_command(ctx, *step)
            for k, (task, passes) in enumerate(tasks):
                while done[k] < s * passes // len(steps):
                    task()
                    done[k] += 1

    def metrics(self) -> dict:
        return dict(self.cli.metrics(), **self.reject.metrics(), **self.query.metrics(),
                    setup_s=statistics.median(self.setups))

    def samples(self) -> dict:
        """Every sample the metrics are taken from, for the results file."""
        times = {"table": self.reject.table_times, "text": self.reject.text_times,
                 "queries": self.query.query_times, "iso": self.query.iso_times}
        return dict({k: t.samples for k, t in times.items()}, setup=self.setups,
                    cli={f"{i}:{key}": walls for (i, key), walls in self.cli.walls.items()})
