"""Benchmark for amg: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload cli-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --repeat 10 --seconds 30        # spread of every metric

Runs from the root of a source checkout: the program is src/amg, run as
`python3 -m amg` with PYTHONPATH=src, one subprocess at a time, in a closed
loop. The last line of stdout is one JSON object with correct, attempted,
failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Set-ups before the first round: at least SETUPS and at least SETUP_SECONDS
# in all. Rounds add more; setup_s is the median of the run's set-ups.
SETUPS = 5
SETUP_SECONDS = 1.0
END_TO_END = {  # name -> unit
    "setup_s": "s", "verify_fibered_s": "s", "verify_dense_s": "s", "verify_brandt_s": "s",
    "info_s": "s", "gen_s": "s", "cli_peak_rss_mb": "MB", "table_mutants_per_s": "1/s",
    "text_mutants_per_s": "1/s", "queries_per_s": "1/s", "iso_search_s": "s",
}


def timed_rounds(workload, ctx, seconds: float) -> list:
    """Whole rounds until the next one would overrun the budget; at least one."""
    rounds, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.run_round(ctx)
        wall = time.perf_counter() - t0
        rounds.append(wall)
        if time.perf_counter() - start + wall > seconds:
            return rounds


def run_once(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        ctx = workloads.Context(ROOT, workdir)
        workload = workloads.Workload(args.workload, args.seed)
        while len(workload.setups) < SETUPS or sum(workload.setups) < SETUP_SECONDS:
            workload.set_up()
        if not args.trace:
            rounds = timed_rounds(workload, ctx, args.seconds)
            metrics = workload.metrics()
            out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
        else:
            imports = [ctx.import_wall() for _ in range(3)]
            ctx.tracer = tracing.Tracer()
            ctx.tracer.install()
            rounds = timed_rounds(workload, ctx, args.seconds)
            ctx.tracer.uninstall()
            cli = dict(ctx.cli, import_s=statistics.median(imports))
            layers = tracing.layer_metrics(ctx.tracer.stats, len(rounds), cli,
                                           tracing.span_cost())
            out = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            ctx.tracer.dump(RESULTS / f"{args.workload}-seed{args.seed}.spans.json")
        result = {"correct": not ctx.problems, "attempted": ctx.attempted,
                  "failed": ctx.failed, "metrics": out}
        with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(dict(result, rounds=len(rounds), samples=workload.samples(),
                           failures=ctx.failures[:50], problems=ctx.problems[:50]),
                      fh, indent=1)
        for line in ctx.failures[:20] + ctx.problems[:20]:
            print(line, file=sys.stderr)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def repeat(args) -> None:
    """Run each workload args.repeat times with seeds seed, seed+1, ...; print
    each metric's median, quartiles and spread (IQR / median)."""
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    summary = {}
    for name in names:
        runs = []
        for i in range(args.repeat):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed + i), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {args.seed + i} exited {proc.returncode}:\n{proc.stderr}")
            runs.append(dict(json.loads(proc.stdout.strip().splitlines()[-1]),
                             wall=time.perf_counter() - t0))
        stats = {"correct": all(r["correct"] for r in runs),
                 "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
                 "run_wall_s": max(r["wall"] for r in runs), "metrics": {}}
        print(f"{name}: {len(runs)} runs, correct={stats['correct']}, failed share "
              f"{stats['failed_share']}, longest run {stats['run_wall_s']:.1f} s")
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            stats["metrics"][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {metric:40s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.2%}")
        summary[name] = stats
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"repeat-trace{args.trace}.json", "w") as fh:
        json.dump(summary, fh, indent=1)


WORKLOAD_NAMES = ("cli-large", "reject", "query")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="runs per workload, reported as quartiles")
    args = p.parse_args()
    if not (ROOT / "src" / "amg" / "__init__.py").is_file():
        sys.exit(f"error: no amg sources under {ROOT / 'src'}; run from a checkout of the repository")
    if args.repeat:
        repeat(args)
        return
    if not args.workload:
        p.error("--workload is required unless --repeat is given")
    print(json.dumps(run_once(args)))


if __name__ == "__main__":
    main()
