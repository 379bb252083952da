#!/usr/bin/env python3
"""Regenerate ``references.json``: the instance pool and its reference prices.

    python3 perfbench/make_references.py

Every priced instance is solved with ``superhedge_price`` and cross-checked
against an independently built hedging LP solved by HiGHS
(``scipy.optimize.linprog``).  The script exits 1 if the two disagree by
more than 1e-6 relative.

Pool layout: per workload a list of records; ``variant`` 0 is the canonical
instance (the acceptance-suite instance for ``zero_gap_suite``), variants
1.. redraw the tree with the same depth, branching and node count and redraw
the remaining parameters.  A redrawn candidate joins the pool only if, on
each of its timed operations, the engine takes the same path as on variant
0 and spends about as many simplex iterations (within 5% for the suite, 10%
for the larger trees; see ``cost_matched``), so a pass costs about the same
whatever the seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import bootstrap

bootstrap.pin_blas_env()
bootstrap.add_src()

import numpy as np  # noqa: E402
from scipy import sparse  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

import spreadhedge as sh  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

SUITE_VARIANTS, SUITE_CANDIDATES, SUITE_RTOL = 8, 40, 0.05
DEEP_VARIANTS, DEEP_CANDIDATES, DEEP_RTOL = 4, 24, 0.1
CLI_VARIANTS, CLI_CANDIDATES, CLI_RTOL = 4, 24, 0.1
PATH_COUNTERS = (
    "lp.solves", "superhedge.strict_witness_attempts", "superhedge.strict_witness_fallbacks",
)
DEEP_BASE_SEED = 7
CLI_BASE_SEED = 7
CROSS_RTOL = 1e-6


def highs_price(tree, lam: float, payoffs: np.ndarray, cap=None) -> float:
    """Super-replication price from a holdings formulation solved by HiGHS.

    Per node: post-trade bonds and shares (free), buys and sells (>= 0); the
    root starts from (x0, 0).  Bonds may be burned (the budget rows are
    inequalities), leaves end flat in shares with bonds >= payoff.  A cap adds
    a long/short split and the liquidation floor at every node.
    """
    n = tree.node_count
    S = tree.price
    parent = tree.parent
    capped = cap is not None and cap.is_bounded
    X0, PHI0, PHI1, BUY, SELL = 0, 1, 1 + n, 1 + 2 * n, 1 + 3 * n
    LONG, SHORT = 1 + 4 * n, 1 + 5 * n
    n_vars = 1 + (6 if capped else 4) * n
    eq_r, eq_c, eq_v, ub_r, ub_c, ub_v = [], [], [], [], [], []
    b_ub = []

    def add(rows, cols, vals, r, entries):
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)

    n_eq = 0
    for i in range(n):
        p = parent[i]
        entries = [(PHI1 + i, 1.0), (BUY + i, -1.0), (SELL + i, 1.0)]
        if p >= 0:
            entries.append((PHI1 + p, -1.0))
        add(eq_r, eq_c, eq_v, n_eq, entries)
        n_eq += 1
        entries = [(PHI0 + i, 1.0), (BUY + i, S[i]), (SELL + i, -(1.0 - lam) * S[i])]
        entries.append((X0, -1.0) if p < 0 else (PHI0 + p, -1.0))
        add(ub_r, ub_c, ub_v, len(b_ub), entries)
        b_ub.append(0.0)
        if capped:
            add(eq_r, eq_c, eq_v, n_eq, [(PHI1 + i, 1.0), (LONG + i, -1.0), (SHORT + i, 1.0)])
            n_eq += 1
            add(
                ub_r, ub_c, ub_v, len(b_ub),
                [(PHI0 + i, -1.0), (LONG + i, -(1.0 - lam) * S[i]), (SHORT + i, S[i])],
            )
            b_ub.append(float(-cap.floor(np.array([S[i]]))[0]))
    bounds = [(None, None)] * (1 + 2 * n) + [(0.0, None)] * (n_vars - 1 - 2 * n)
    for k, leaf in enumerate(tree.leaves):
        bounds[PHI0 + leaf] = (float(payoffs[k]), None)
        bounds[PHI1 + leaf] = (0.0, 0.0)
    c = np.zeros(n_vars)
    c[X0] = 1.0
    res = linprog(
        c,
        A_ub=sparse.csr_array((ub_v, (ub_r, ub_c)), shape=(len(b_ub), n_vars)),
        b_ub=np.array(b_ub),
        A_eq=sparse.csr_array((eq_v, (eq_r, eq_c)), shape=(n_eq, n_vars)),
        b_eq=np.zeros(n_eq),
        bounds=bounds,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun)


class Checker:
    def __init__(self):
        self.worst = 0.0
        self.count = 0

    def traced(self, fn):
        """Run fn under the tracer; returns its result, the simplex
        iterations and the path counters."""
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.operation(0):
                result = fn()
        finally:
            tracer.uninstall()
        counts = {k: int(v) for (_, k), v in tracer.counts.items()}
        iterations = sum(v for k, v in counts.items() if k.startswith("lp.iterations_"))
        return result, iterations, [counts.get(k, 0) for k in PATH_COUNTERS]

    def price(self, key: dict, tree, lam, claim, cap=None) -> dict:
        """Engine price (primal and dual) checked against HiGHS."""
        rep, iterations, path = self.traced(lambda: sh.superhedge_price(tree, lam, claim, cap))
        x = claim.payoff_vector(tree)
        primal = highs_price(tree, lam, x, cap)
        dual = highs_price(tree, lam, x) if cap is not None else primal
        for mine, theirs in ((rep.primal_value, primal), (rep.dual_value, dual)):
            rel = abs(mine - theirs) / max(1.0, abs(theirs))
            if rel > CROSS_RTOL:
                raise SystemExit(f"{key}: engine {mine!r} vs HiGHS {theirs!r}")
            self.worst = max(self.worst, rel)
        self.count += 1
        return {"primal": rep.primal_value, "dual": rep.dual_value,
                "certified": rep.all_certified(), "iterations": iterations, "path": path}


def size_matched_seed(depth: int, branching: int, nodes: int, first: int, step: int) -> int:
    """First tree seed first, first + step, ... whose tree has ``nodes`` nodes."""
    seed = first
    while sh.generate_random_tree(seed, depth, branching).node_count != nodes:
        seed += step
    return seed


def cost_matched(ops: list[list[dict]], base: list[list[dict]], rtol: float) -> bool:
    """A candidate joins a pool when each of its timed operations (a list of
    records whose costs add up) takes the same path as the same operation of
    variant 0 (LP solves, strict-witness attempts and fallbacks) and spends
    within ``rtol`` of its simplex iterations, so that every seed's pass costs
    about the same.  A candidate with a false certificate always joins:
    leaving it out would hide a defect."""
    if not all(r["certified"] for op in ops for r in op):
        return True

    def cost(op):
        path = [sum(r["path"][k] for r in op) for k in range(len(PATH_COUNTERS))]
        return path, sum(r["iterations"] for r in op)

    for mine, ref in zip(map(cost, ops), map(cost, base)):
        if mine[0] != ref[0] or abs(mine[1] - ref[1]) > max(rtol * ref[1], 2):
            return False
    return True


def suite_pool(chk: Checker) -> list[dict]:
    out = []
    for slot in range(1, wl.SUITE_SLOTS + 1):
        depth, branching = wl.suite_shape(slot)
        nodes = sh.generate_random_tree(slot, depth, branching).node_count
        kept: list[dict] = []
        for cand in range(SUITE_CANDIDATES):
            if cand == 0:
                tree_seed = param_seed = slot
            else:
                param_seed = 1_000_000 * cand + slot
                tree_seed = size_matched_seed(depth, branching, nodes, param_seed, 1000)
            tree, claim, lam = wl.suite_instance(slot, tree_seed, param_seed)
            key = {"slot": slot, "variant": len(kept)}
            res = chk.price(key, tree, lam, claim)
            rec = dict(key, tree_seed=tree_seed, param_seed=param_seed, nodes=nodes, lam=lam,
                       price=res["primal"], certified=res["certified"], iterations=res["iterations"],
                       path=res["path"])
            if not kept or cost_matched([[rec]], [kept[:1]], SUITE_RTOL):
                kept.append(rec)
            if len(kept) == SUITE_VARIANTS:
                break
        out += kept
        print(f"zero_gap_suite slot {slot}: {nodes} nodes, {len(kept)} of {cand + 1} candidates",
              file=sys.stderr, flush=True)
    return out


def deep_pool(chk: Checker) -> list[dict]:
    out = []
    for rung, depth, branching in wl.DEEP_RUNGS:
        base = wl.DEEP_TERNARY_SEED if branching == 3 else DEEP_BASE_SEED
        nodes = sh.generate_random_tree(base, depth, branching).node_count
        kept: list[list[dict]] = []
        for cand in range(DEEP_CANDIDATES):
            tree_seed = base if cand == 0 else size_matched_seed(depth, branching, nodes, 1000 * cand + base, 1)
            tree = sh.generate_random_tree(tree_seed, depth, branching)
            claim = wl.atm_call(tree)
            recs = []
            for lam in wl.DEEP_LAMBDAS:
                key = {"rung": rung, "variant": len(kept), "lam": lam}
                res = chk.price(key, tree, lam, claim)
                recs.append(dict(key, tree_seed=tree_seed, nodes=nodes, price=res["primal"],
                                 certified=res["certified"], iterations=res["iterations"],
                                 path=res["path"]))
            if not kept or cost_matched([[r] for r in recs], [[r] for r in kept[0]], DEEP_RTOL):
                kept.append(recs)
            if len(kept) == DEEP_VARIANTS:
                break
        out += [r for recs in kept for r in recs]
        print(f"deep_ladder {rung}: {nodes} nodes, {len(kept)} of {cand + 1} candidates",
              file=sys.stderr, flush=True)
    return out


def cli_claim(tree):
    fn = sh.cli.parse_payoff_expr(wl.CLI_CLAIM)
    return sh.ClaimSpec({int(l): float(fn(float(tree.price[l]))) for l in tree.leaves})


def cli_pool(chk: Checker) -> list[dict]:
    """Capped curves.  A candidate tree joins the pool only if the floor
    binds (primal > dual) at some lambda in both modes, which is what this
    workload exists to exercise, and if its cost matches variant 0."""
    out = []
    for size, depth, branching in wl.CLI_TREES:
        kept: list[list[dict]] = []
        for tree_seed in range(CLI_BASE_SEED, CLI_BASE_SEED + CLI_CANDIDATES):
            tree = sh.generate_random_tree(tree_seed, depth, branching)
            claim = cli_claim(tree)
            recs = []
            for mode, cap_value in wl.CLI_MODES:
                kind = "numeraire_based" if mode == "nb" else "numeraire_free"
                cap = sh.AdmissibilityCap(kind, cap_value)
                for lam in wl.CLI_LAMBDAS:
                    key = {"tree": size, "variant": len(kept), "mode": mode, "lam": lam}
                    res = chk.price(key, tree, lam, claim, cap)
                    recs.append(dict(key, tree_seed=tree_seed, nodes=tree.node_count,
                                     primal=res["primal"], dual=res["dual"],
                                     certified=res["certified"], iterations=res["iterations"],
                                     path=res["path"]))
            grid = []  # every invocation also runs the --check-lambdas probes
            for lam in wl.CLI_CHECK_LAMBDAS:
                feasible, iterations, path = chk.traced(lambda: sh.superhedge.has_cps(tree, lam))
                grid.append({"certified": feasible, "iterations": iterations, "path": path})
            ops = [[r for r in recs if r["mode"] == mode] + grid for mode, _ in wl.CLI_MODES]
            binds = all(
                any(r["primal"] > r["dual"] + 1e-7 * max(1.0, abs(r["dual"]))
                    for r in recs if r["mode"] == mode)
                for mode, _ in wl.CLI_MODES
            )
            if binds and (not kept or cost_matched(ops, kept[0][1], CLI_RTOL)):
                kept.append((recs, ops))
            if len(kept) == CLI_VARIANTS:
                break
        out += [r for recs, _ in kept for r in recs]
        print(f"capped_cli_curve {size}: {len(kept)} of {tree_seed - CLI_BASE_SEED + 1} candidates",
              file=sys.stderr, flush=True)
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    chk = Checker()
    pool = {
        "zero_gap_suite": suite_pool(chk),
        "deep_ladder": deep_pool(chk),
        "capped_cli_curve": cli_pool(chk),
    }
    pool["meta"] = {
        "generated_by": "perfbench/make_references.py",
        "environment": bootstrap.environment(),
        "cross_check": f"HiGHS via scipy {__import__('scipy').__version__}",
        "prices_cross_checked": chk.count,
        "max_relative_difference": chk.worst,
    }
    with open(wl.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{chk.count} instances, max relative difference to HiGHS {chk.worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
