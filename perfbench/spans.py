"""Spans around the calls into each spreadhedge layer, recorded from outside.

``Tracer.install`` replaces the public functions under the names the pipeline
resolves them by: the attributes of ``spreadhedge.superhedge`` and
``spreadhedge.cli`` (which ``superhedge_price`` and ``cli.main`` look up at
call time) and the package attributes the benchmark itself calls.  Each call
becomes a span (name, start, end, parent span, operation id) kept in memory;
``write`` stores them as JSON lines at the end of the run.  ``solve`` spans
are split into dual, primal and aux by the LP they receive.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import spreadhedge
import spreadhedge.cli
import spreadhedge.strategy
import spreadhedge.superhedge
from spreadhedge.errors import NumericalBreakdown

# wrapped function name -> metric that receives its self time
SELF_METRIC = {
    "verify_certificate": "lp.verify_certificate_s",
    "superhedge_price": "superhedge.price_self_s",
    "build_dual": "superhedge.build_dual_s",
    "build_primal": "superhedge.build_primal_s",
    "extract_strategy": "superhedge.extract_s",
    "extract_cps": "superhedge.extract_s",
    "strict_feasible_cps": "superhedge.strict_feasible_s",
    "has_cps": "superhedge.strict_feasible_s",
    "variation_bound_check": "superhedge.variation_bound_s",
    "verify_cps": "cps.verify_s",
    "random_cps": "cps.random_s",
    "supermartingale_check": "cps.supermartingale_s",
    "mix_cps": "cps.mix_s",
    "concatenate_cps": "cps.concatenate_s",
    "polar_pairing": "cps.polar_pairing_s",
    "portfolio_path": "strategy.portfolio_path_s",
    "is_self_financing": "strategy.self_financing_s",
    "check_admissibility": "strategy.admissibility_s",
    "minimal_admissibility_bound": "strategy.admissibility_s",
    "random_strategy": "strategy.random_s",
    "lower_friction_transform": "strategy.lower_friction_s",
    "generate_random_tree": "scenario_tree.generate_s",
    "load_tree": "scenario_tree.load_s",
    "dumps_tree": "scenario_tree.dump_s",
    "main": "cli.self_s",
    "emit_report": "cli.emit_report_s",
}
LP_KINDS = ("dual", "primal", "aux")
for _kind in LP_KINDS:
    SELF_METRIC[f"solve.{_kind}"] = f"lp.solve_{_kind}_s"

# modules whose attributes are replaced: the pipeline's own lookups, plus the
# package and strategy-module names the benchmark calls directly
_TARGET_MODULES = (spreadhedge.superhedge, spreadhedge.cli, spreadhedge)
_EXTRA_TARGETS = ((spreadhedge.strategy, "minimal_admissibility_bound"),)

GLUE = "bench"  # spans the benchmark opens around set-up and each operation

COUNTERS = (
    ("lp.solves", "count", "lower"),
    ("lp.infeasible", "count", "lower"),
    ("lp.breakdowns", "count", "lower"),
    *((f"lp.iterations_{k}", "count", "lower") for k in LP_KINDS),
    *((f"lp.rows_{k}", "count", "lower") for k in LP_KINDS),
    *((f"lp.cols_{k}", "count", "lower") for k in LP_KINDS),
    ("lp.dense_mb", "MB-computed", "lower"),
    ("superhedge.strict_witness_attempts", "count", "lower"),
    ("superhedge.strict_witness_fallbacks", "count", "lower"),
    ("superhedge.strict_witness_verified_share", "ratio", "higher"),
    ("cli.output_bytes", "bytes", "lower"),
)
TRACE_METRICS = (
    ("bench.glue_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)
# per-pass maxima rather than sums
_MAXIMA = {f"lp.{a}_{k}" for a in ("rows", "cols") for k in LP_KINDS} | {"lp.dense_mb"}


def per_layer_definitions() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    times = sorted(set(SELF_METRIC.values()), key=lambda m: (m.split(".")[0], m))
    return [(m, "s", "lower") for m in times] + list(COUNTERS) + list(TRACE_METRICS)


def lp_kind(lp) -> str:
    """dual / primal / aux from the LP's variable names (see build_dual,
    build_primal; the strict-witness and feasibility LPs carry none)."""
    names = lp.names
    if names and names[0] == "x0":
        return "primal"
    if names and names[0].startswith("z0["):
        return "dual"
    return "aux"


def dense_mb(lp) -> float:
    """Computed size of the simplex's dense arrays for this LP: the
    standard-form matrix with one artificial column per row, and three
    m-by-m arrays (basis inverse, its working copy, the update buffer)."""
    free = int((~np.isfinite(lp.lower) & ~np.isfinite(lp.upper)).sum())
    boxed = int((np.isfinite(lp.lower) & np.isfinite(lp.upper) & (lp.upper > lp.lower)).sum())
    n_ub = lp.A_ub.shape[0]
    m = lp.A_eq.shape[0] + n_ub + boxed
    cols = lp.n_vars + free + n_ub + boxed
    return 8.0 * (m * (cols + m) + 3 * m * m) / 2**20


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = None
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def operation(self, op_id, name: str = "op"):
        """Root span for one benchmark operation (or set-up, op id -1)."""
        self.op = op_id
        idx = self._open(f"{GLUE}.{name}")
        try:
            yield
        finally:
            self._close(idx)
            self.op = None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.op == -1, key)] += value

    def _maximum(self, key: str, value: float) -> None:
        slot = (self.op == -1, key)
        self.counts[slot] = max(self.counts.get(slot, 0.0), value)

    def _parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "solve":
            def solve(lp, *args, **kwargs):
                kind = lp_kind(lp)
                idx = tracer._open(f"lp.solve.{kind}")
                try:
                    sol = fn(lp, *args, **kwargs)
                except NumericalBreakdown:
                    tracer.count("lp.breakdowns")
                    raise
                finally:
                    tracer._close(idx)
                tracer.count("lp.solves")
                tracer.count(f"lp.iterations_{kind}", sol.iterations)
                tracer.count("lp.infeasible", sol.status == "infeasible")
                tracer._maximum(f"lp.rows_{kind}", lp.A_eq.shape[0] + lp.A_ub.shape[0])
                tracer._maximum(f"lp.cols_{kind}", lp.n_vars)
                tracer._maximum("lp.dense_mb", dense_mb(lp))
                return sol

            return solve

        layer = fn.__module__.rsplit(".", 1)[-1]
        span_name = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            if name == "strict_feasible_cps" and tracer._parent_name() == "superhedge.superhedge_price":
                tracer.count("superhedge.strict_witness_fallbacks")
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "superhedge_price" and result.cps is not None and not result.cps.strict:
                tracer.count("superhedge.strict_witness_attempts")
                tracer.count("superhedge.strict_witness_verified", result.cps_strict is not None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        targets = [(m, name) for m in _TARGET_MODULES for name in (*SELF_METRIC, "solve")]
        targets += list(_EXTRA_TARGETS)
        wrappers = {}
        for module, name in targets:
            fn = getattr(module, name, None)
            if fn is None or not callable(fn) or name.startswith("solve."):
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            self._saved.append((module, name, fn))
            setattr(module, name, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [s[2] - s[1] for s in self.spans]
        own = list(dur)
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                own[s[3]] -= d
        return own

    def metrics(self, passes: int, wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics for one set-up plus one pass: set-up spans count
        once, operation spans are divided by the number of traced passes."""
        own = self.self_times()
        values: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, own):
            share = t if span[4] == -1 else t / passes
            base = span[0].split(".", 1)[1]
            key = "bench.glue_s" if span[0].startswith(GLUE + ".") else SELF_METRIC[base]
            values[key] += share
        for (in_setup, key), v in self.counts.items():
            if key in _MAXIMA:
                values[key] = max(values[key], v)
            else:
                values[key] += v if in_setup else v / passes
        values["bench.glue_s"] += wall_s - sum(
            (s[2] - s[1]) * (1.0 if s[4] == -1 else 1.0 / passes)
            for s in self.spans
            if s[3] == -1
        )
        attempts = values.get("superhedge.strict_witness_attempts", 0.0)
        verified = values.pop("superhedge.strict_witness_verified", 0.0)
        values["superhedge.strict_witness_verified_share"] = verified / attempts if attempts else 0.0
        values["trace.wall_s"] = wall_s
        values["trace.untraced_wall_s"] = untraced_wall_s
        values["trace.overhead_s"] = wall_s - untraced_wall_s
        values["trace.spans"] = len(self.spans)
        return {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in per_layer_definitions()
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, t) in enumerate(zip(self.spans, own)):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                         "op": s[4], "self": t}
                    )
                    + "\n"
                )
