#!/usr/bin/env python3
"""spreadhedge benchmark: seeded workloads, end-to-end and per-layer metrics.

One workload, as BENCHMARK.json runs it:

    python3 perfbench/run.py --workload zero_gap_suite --seed 1 --seconds 15 --trace 0

Every workload, untraced and traced, as a readable report:

    python3 perfbench/run.py --all --seed 1 --seconds 15

Load is a closed loop with one caller in this process.  A run sets up the
workload five times (the median is ``setup_s``), smoke-tests the golden
binomial, then runs whole passes over the seeded instances until at least
``--seconds`` have passed.  With ``--trace 1`` the same number of passes runs
again under the tracer, and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of standard output is the result JSON; a
fuller record, with the environment block, goes to ``perfbench/_work``.
Exit code 2 means the run could not be made (no sources, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import bootstrap

bootstrap.pin_blas_env()
bootstrap.add_src()

import workloads as wl  # noqa: E402  (after the BLAS pin and the import path)
from spans import Tracer  # noqa: E402

WORKLOAD_NAMES = ("zero_gap_suite", "deep_ladder", "capped_cli_curve", "certify_toolkit")
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, spreadhedge, spreadhedge.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median wall time of importing numpy and spreadhedge in a fresh
    interpreter, with the same BLAS pinning and import path."""
    env = dict(os.environ, PYTHONPATH=str(bootstrap.SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def cpu_seconds() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def tail(latencies: list[float], passes: int) -> tuple[float, str]:
    """Latency at the highest ladder percentile with at least ten samples
    beyond it.  With too few samples for any, the median over passes of each
    pass's maximum, which does not grow with the number of passes."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            k = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            return ordered[k], f"p{pct:g}"
    per_pass = n // passes
    return statistics.median(max(latencies[i : i + per_pass]) for i in range(0, n, per_pass)), "max"


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.pool = wl.load_pool()
        self.workdir = bootstrap.WORK / f"{workload}-seed{seed}"
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.notes: list[str] = []

    def make(self):
        return wl.WORKLOADS[self.name](self.pool, self.seed, self.workdir)

    def setup(self) -> tuple[object, list[float]]:
        walls = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            work = self.make()
            work.setup()
            walls.append(time.perf_counter() - start)
        return work, walls

    def record(self, latency: float, outcome) -> None:
        self.latencies.append(latency)
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.notes += outcome.notes
        self.wrong = self.wrong or outcome.wrong

    def passes(self, work, count: int | None = None, tracer=None) -> tuple[list, list]:
        """Whole passes over ``work.ops``: ``count`` of them, or else as many
        as it takes to reach ``seconds``.  Returns each pass's wall and CPU
        seconds."""
        walls, cpus = [], []
        while True:
            start, cpu = time.perf_counter(), cpu_seconds()
            for i, op in enumerate(work.ops):
                if tracer is None:
                    self.record(*wl.run_op(op))
                    continue
                with tracer.operation(len(walls) * len(work.ops) + i):
                    latency, outcome = wl.run_op(op)
                    if op.output is not None and op.output.exists():
                        tracer.count("cli.output_bytes", op.output.stat().st_size)
                self.record(latency, outcome)
            walls.append(time.perf_counter() - start)
            cpus.append(cpu_seconds() - cpu)
            if (len(walls) >= count) if count is not None else (sum(walls) >= self.seconds):
                return walls, cpus


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import_s = import_seconds()
    env = bootstrap.environment()
    run = Run(workload, seed, seconds)

    smoke = wl.golden_smoke()
    if smoke is not None:
        run.wrong = True
        run.notes.append(smoke)

    work, setup_walls = run.setup()
    setup_gen = statistics.median(setup_walls)
    walls, cpus = run.passes(work)
    passes, wall = len(walls), sum(walls)
    lat_ms = [1e3 * v for v in run.latencies]
    tail_ms, tail_pct = tail(lat_ms, passes)
    details = {
        "passes": passes,
        "ops_per_pass": len(work.ops),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "import_s": import_s,
        "setup_generate_s": setup_walls,
        "latency_tail": {"percentile": tail_pct, "samples": len(lat_ms)},
        "latencies_ms": lat_ms,
        "failed_share": run.failed / run.attempted,
    }
    metrics = {
        "setup_s": import_s + setup_gen,
        "ops_per_s": statistics.median(len(work.ops) / w for w in walls),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - run.failed / run.attempted,
    }
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            with tracer.operation(-1, "setup"):
                traced_work = run.make()
                traced_work.setup()
            traced_setup = time.perf_counter() - start
            traced_wall = sum(run.passes(traced_work, passes, tracer)[0])
        finally:
            tracer.uninstall()
        span_path = bootstrap.WORK / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(span_path)
        metrics = tracer.metrics(
            passes, traced_setup + traced_wall / passes, setup_gen + wall / passes
        )
        details["span_file"] = str(span_path.relative_to(bootstrap.ROOT))

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "details": details,
        "notes": run.notes,
        "result": {
            "correct": not run.wrong,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        },
    }


def print_record(rec: dict) -> None:
    out = sys.stdout
    d = rec["details"]
    res = rec["result"]
    out.write(
        f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
        f"passes {d['passes']} x {d['ops_per_pass']} ops\n"
    )
    out.write("environment " + json.dumps(rec["environment"], sort_keys=True) + "\n")
    for name, m in res["metrics"].items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  ({d['latency_tail']['percentile']} of {d['latency_tail']['samples']} samples)"
        elif name == "ok_share":
            extra = f"  (failed_share {res['failed']}/{res['attempted']})"
        out.write(f"  {name:44s} {m['value']:>14.6g} {m['unit']}{extra}\n")
    if "span_file" in d:
        m = res["metrics"]
        layers = sum(v["value"] for k, v in m.items()
                     if v["unit"] == "s" and k.split(".")[0] not in ("bench", "trace"))
        out.write(
            f"  layer self times {layers:.4f} s + glue {m['bench.glue_s']['value']:.4f} s = "
            f"traced wall {m['trace.wall_s']['value']:.4f} s; tracing overhead "
            f"{m['trace.overhead_s']['value']:.4f} s on {m['trace.untraced_wall_s']['value']:.4f} s "
            f"untraced (one set-up plus one pass)\n"
        )
        out.write(f"  span file {d['span_file']}\n")
    out.write(f"  correct {str(res['correct']).lower()}  failed {res['failed']} of {res['attempted']}\n")
    for note in rec["notes"][:10]:
        out.write(f"  failure: {note}\n")


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in its own process."""
    code = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout + proc.stderr)
                code = proc.returncode
                continue
            path = bootstrap.WORK / f"result-{workload}-seed{seed}-trace{trace}.json"
            print_record(json.loads(path.read_text(encoding="utf-8")))
            sys.stdout.write("\n")
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or (args.workload is None) == (not args.all):
        ap.error("need exactly one of --workload/--all, a seed >= 0 and seconds >= 1")
    if args.all:
        return run_all(args.seed, args.seconds)

    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    bootstrap.WORK.mkdir(parents=True, exist_ok=True)
    path = bootstrap.WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_record(rec)
    sys.stdout.write(f"  result file {path.relative_to(bootstrap.ROOT)}\n")
    sys.stdout.write(json.dumps(rec["result"]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
