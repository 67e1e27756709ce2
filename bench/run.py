"""sigspace benchmark: closed-loop workloads through the real `sigspace` CLI path.

    python3 bench/run.py --workload mc --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the repository root.  Each op calls `sigspace.cli.main(argv)`
in-process, one op after another; reports go to files under
bench/_work/<workload>/.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.  The
exit code is nonzero when any output check fails.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PERCENTILES = (99.9, 99.0, 90.0)


@dataclass
class Record:
    op: object
    seconds: float
    failures: list


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["mc", "suite", "fields", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_op(cli, op) -> tuple[int, float, str]:
    """Run one op in-process; returns (exit code, seconds, captured stdout)."""
    saved = os.environ.get("SIGSPACE_THREADS")
    if op.threads is not None:
        os.environ["SIGSPACE_THREADS"] = op.threads
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.main(list(op.argv))
            seconds = time.perf_counter() - start
    finally:
        if saved is None:
            os.environ.pop("SIGSPACE_THREADS", None)
        else:
            os.environ["SIGSPACE_THREADS"] = saved
    return rc, seconds, out.getvalue()


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unavailable (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, "r", encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, "r", encoding="utf-8") as handle:
                    commit = handle.read().strip()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SIGSPACE_THREADS")},
        "git_commit": commit,
        "workload_seed": seed,
        "peak_rss_source": "resource.getrusage(RUSAGE_SELF).ru_maxrss of this workload's own process",
    }


def percentile_line(name: str, values: list, unit: str):
    """The highest of PERCENTILES with at least ten values beyond it, if any."""
    ordered = sorted(values)
    for p in PERCENTILES:
        if len(ordered) * (1 - p / 100) >= 10:
            index = min(len(ordered) - 1, int(len(ordered) * p / 100))
            return f"{name}.p{p:g} {ordered[index]:.6g} {unit} (n={len(ordered)})"
    return None


def run_workload(args) -> int:
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import sigspace.cli as cli
    import_s = time.perf_counter() - start

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(BENCH_DIR, "_work", args.workload)
    setups = []
    for _ in range(workload.setup_repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t0 = time.perf_counter()
        workload.setup(args.seed, workdir)
        warmup = workload.warmup()
        rc, _, stdout = run_op(cli, warmup)
        setups.append(time.perf_counter() - t0)
        failures = workload.check(warmup, rc, workloads.load_report(warmup, stdout))
        if failures:
            print(f"warm-up op failed: {failures}", file=sys.stderr)
            return 1
    setup_s = import_s + statistics.median(setups)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    records, traced_seconds, mismatches = [], [], 0
    cycles = 0
    deadline = time.perf_counter() + args.seconds
    while cycles == 0 or time.perf_counter() < deadline:
        for op in workload.cycle(cycles):
            rc, seconds, stdout = run_op(cli, op)
            report = workloads.load_report(op, stdout)
            failures = workload.check(op, rc, report)
            if tracer is not None:
                untraced = workloads.comparable(op, stdout)
                tracer.op_id = len(records)
                tracer.install()
                try:
                    _, traced, stdout = run_op(cli, op)
                finally:
                    tracer.uninstall()
                traced_seconds.append(traced)
                if workloads.comparable(op, stdout) != untraced:
                    mismatches += 1
                    failures.append("traced report differs from the untraced one")
            records.append(Record(op, seconds, failures))
        cycles += 1

    failed = [r for r in records if r.failures]
    for r in failed[:20]:
        print(f"FAILED {r.op.kind} {' '.join(r.op.argv)}: {'; '.join(r.failures)}")
    # Each op of the cycle at its median over the run's cycles: a slow op
    # in one cycle then does not move the figure, as it would in a
    # median over whole-cycle sums with a few cycles per run.
    ops_per_cycle = len(records) // cycles
    cycle_s = sum(statistics.median(r.seconds for r in records[k::ops_per_cycle])
                  for k in range(ops_per_cycle))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    lines = [
        ("setup_s", setup_s, "s", workload.setup_repeats),
        ("cycle_s", cycle_s, "s", cycles),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
        ("error_rate", len(failed) / len(records), "failed/attempted", len(records)),
    ] + workload.summary(records)
    for name, value, unit, count in lines:
        print(f"{name} {value:.6g} {unit} (n={count})")
    for kind in sorted({r.op.kind for r in records}):
        line = percentile_line(f"{kind}.op_s", [r.seconds for r in records if r.op.kind == kind], "s")
        if line:
            print(line)

    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"), "cycle_s": (cycle_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = tracer.per_layer(cycles)
        metrics["trace_overhead_ratio"] = (sum(traced_seconds) / sum(r.seconds for r in records), "ratio")
        tracer.dump(os.path.join(workdir, "spans.jsonl"))
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print(f"trace self-check: {len(records) - mismatches}/{len(records)} reports identical")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    status = 0
    for name in ("mc", "suite", "fields"):
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sigspace", "cli.py")):
        print(f"no sigspace sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
