"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  The random suites are fully deterministic: instances are
keyed by explicit seeds.
"""

import json
import time

import numpy as np
import pytest

from spreadhedge import (
    AdmissibilityCap,
    ClaimSpec,
    DualInfeasible,
    concatenate_cps,
    generate_random_tree,
    load_tree,
    polar_pairing,
    random_cps,
    random_strategy,
    solve,
    superhedge_price,
    variation_bound_check,
    verify_certificate,
    verify_cps,
)
from spreadhedge.cli import main
from spreadhedge.strategy import minimal_admissibility_bound, portfolio_path
from tests.oracles import brute_force_vertices
from tests.test_lp import random_box_lp

GOLDEN = 140.0 / 9.0


def suite_instance(seed: int):
    """Instance family for the zero-gap suite: depth <= 5, branching <= 3."""
    tree = generate_random_tree(seed, depth=1 + (seed - 1) % 5, max_branching=2 + seed % 2)
    rng = np.random.default_rng(seed)
    strike = tree.price[0] * rng.uniform(0.7, 1.3)
    shift = float(rng.uniform(-20.0, 20.0)) if seed % 3 == 0 else 0.0
    payoffs = {
        int(l): max(float(tree.price[l] - strike), 0.0) + shift for l in tree.leaves
    }
    lam = float(rng.uniform(0.01, 0.45))
    return tree, ClaimSpec(payoffs, "constant" if seed % 2 else "stock_bond"), lam


def test_criterion_1_golden_binomial(b1, c1):
    start = time.perf_counter()
    rep = superhedge_price(b1, 0.1, c1)
    elapsed = time.perf_counter() - start
    assert abs(rep.primal_value - GOLDEN) <= 1e-9
    assert abs(rep.dual_value - GOLDEN) <= 1e-9
    assert abs(rep.strategy.buy[0] - 5.0 / 9.0) <= 1e-9
    post_trade_bond = portfolio_path(b1, 0.1, rep.strategy).phi0[0]
    assert abs(post_trade_bond - (-40.0)) <= 1e-9
    q_up = 0.5 * rep.cps.z0[1]
    assert abs(q_up - 7.0 / 9.0) <= 1e-9
    assert elapsed < 0.1
    print(
        f"\n[acceptance] criterion 1: PASS - primal=dual=140/9, buy 5/9, "
        f"bond -40, Q(up)=7/9, runtime {elapsed * 1e3:.1f} ms"
    )


def test_criterion_2_frictionless_endpoint(b1, c1):
    rep = superhedge_price(b1, 0.0, c1)
    assert abs(rep.primal_value - 10.0) <= 1e-9
    assert abs(rep.dual_value - 10.0) <= 1e-9
    print("\n[acceptance] criterion 2: PASS - frictionless binomial prices to 10")


def test_criterion_3_zero_gap_suite():
    start = time.perf_counter()
    worst_gap = 0.0
    for seed in range(1, 201):
        tree, claim, lam = suite_instance(seed)
        rep = superhedge_price(tree, lam, claim)
        assert rep.gap <= 1e-7, f"seed {seed}: gap {rep.gap}"
        for key in ("self_financing", "cps", "supermartingale", "complementary_slackness"):
            assert rep.certificates[key] is True, f"seed {seed}: {key} failed"
        worst_gap = max(worst_gap, rep.gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\n[acceptance] criterion 3: PASS - 200 instances, worst gap "
        f"{worst_gap:.2e}, all certificates true, {elapsed:.1f} s"
    )


def test_criterion_4_polar_inequality_suite():
    worst = -np.inf
    count = 0
    for tree_seed in range(1, 51):
        tree = generate_random_tree(
            tree_seed, depth=1 + tree_seed % 4, max_branching=2 + tree_seed % 2
        )
        lam = 0.02 + (tree_seed % 8) * 0.05
        for k in range(20):
            seed = 1000 * tree_seed + k
            cps = random_cps(tree, lam, seed)
            assert verify_cps(tree, lam, cps)
            assert cps.strict
            strat = random_strategy(tree, seed + 7, liquidate_at_leaves=bool(k % 2))
            pairing = polar_pairing(tree, lam, cps, strat)
            assert pairing <= 1e-9, f"pair ({tree_seed},{k}): pairing {pairing}"
            worst = max(worst, pairing)
            count += 1
    assert count == 1000
    print(
        f"\n[acceptance] criterion 4: PASS - 1000 pairs, max pairing {worst:.2e} <= 1e-9"
    )


def test_criterion_5_variation_bound_suite():
    checked = 0
    min_margin = np.inf
    for seed in range(1, 201):
        tree = generate_random_tree(seed, depth=1 + seed % 4, max_branching=2 + seed % 2)
        rng = np.random.default_rng(10_000 + seed)
        lam = float(rng.uniform(0.05, 0.5))
        lam_p = float(lam * rng.uniform(0.15, 0.85))
        strat = random_strategy(tree, seed + 3, liquidate_at_leaves=True)
        bound = minimal_admissibility_bound(tree, lam, strat, "numeraire_free")
        cps_p = random_cps(tree, lam_p, seed + 11)
        check = variation_bound_check(tree, lam, lam_p, strat, cps_p, bound)
        assert check.ok, f"seed {seed}: lhs {check.lhs} > rhs {check.rhs}"
        min_margin = min(min_margin, check.rhs - check.lhs)
        checked += 1
    assert checked == 200
    print(
        f"\n[acceptance] criterion 5: PASS - 200 triples, bound holds, "
        f"smallest margin {min_margin:.3g}"
    )


def test_criterion_6_concatenation_suite():
    count = 0
    for seed in range(1, 101):
        tree = generate_random_tree(seed, depth=1 + seed % 4, max_branching=2 + seed % 2)
        rng = np.random.default_rng(20_000 + seed)
        lam = float(rng.uniform(0.1, 0.5))
        lam_n = float(lam * rng.uniform(0.2, 0.7))
        lam_p = float((lam - lam_n) / 2.0 * rng.uniform(0.1, 0.8))
        stop = set()
        for i in range(tree.node_count):
            if not any(a in stop for a in tree.ancestors(i)) and rng.random() < 0.35:
                stop.add(i)
        local = random_cps(tree, lam_n, seed + 1, stop=stop)
        glob = random_cps(tree, lam_p, seed + 2)
        out = concatenate_cps(tree, lam, lam_n, lam_p, stop, local, glob)
        assert verify_cps(tree, lam, out), f"seed {seed}: splice fails at lam"
        count += 1
    assert count == 100
    print("\n[acceptance] criterion 6: PASS - 100 splices verified at the target rate")


def test_criterion_7_structural_properties():
    grid = [0.0, 0.05, 0.1, 0.2, 0.35]
    shift_c, scale_k = 37.5, 3.7
    seeds = list(range(8, 161, 8))  # drawn from the zero-gap suite family
    for seed in seeds:
        tree, claim, _ = suite_instance(seed)
        prices = [superhedge_price(tree, lam, claim).primal_value for lam in grid]
        for (la, pa), (lb, pb) in zip(zip(grid, prices), zip(grid[1:], prices[1:])):
            assert pb >= pa - 1e-9 * max(1.0, abs(pa)), (
                f"seed {seed}: price fell from {pa} at {la} to {pb} at {lb}"
            )
        base = prices[2]
        shifted = ClaimSpec({k: v + shift_c for k, v in claim.payoffs.items()}, claim.bound_kind)
        scaled = ClaimSpec({k: scale_k * v for k, v in claim.payoffs.items()}, claim.bound_kind)
        p_shift = superhedge_price(tree, 0.1, shifted).primal_value
        p_scale = superhedge_price(tree, 0.1, scaled).primal_value
        assert abs(p_shift - (base + shift_c)) <= 1e-9 * max(1.0, abs(base + shift_c))
        assert abs(p_scale - scale_k * base) <= 1e-9 * max(1.0, abs(scale_k * base))
        m = 2.0 * claim.lower_bound(tree)
        rep_nb = superhedge_price(tree, 0.1, claim, AdmissibilityCap.numeraire_based(m))
        rep_nf = superhedge_price(tree, 0.1, claim, AdmissibilityCap.numeraire_free(m))
        p_free = base
        assert rep_nb.primal_value >= rep_nf.primal_value - 1e-9 * max(1.0, abs(rep_nf.primal_value))
        assert rep_nf.primal_value >= p_free - 1e-9 * max(1.0, abs(p_free))
    print(
        f"\n[acceptance] criterion 7: PASS - {len(seeds)} suite instances: "
        f"monotone in lambda, cash-invariant, positively homogeneous, nb >= nf >= unbounded"
    )


def test_criterion_8_lp_oracle():
    for seed in range(1, 51):
        lp = random_box_lp(seed)
        sol = solve(lp)
        assert sol.status == "optimal"
        vertices = brute_force_vertices(lp)
        assert vertices, f"seed {seed}: no vertex found"
        assert abs(sol.objective - vertices[0][1]) <= 1e-9 * (1.0 + abs(sol.objective)), (
            f"seed {seed}: solver {sol.objective} vs oracle {vertices[0][1]}"
        )
        assert verify_certificate(lp, sol).ok, f"seed {seed}: certificate failed"
    print("\n[acceptance] criterion 8: PASS - 50 LPs match vertex enumeration, certified")


def test_criterion_9_arbitrage_detection(tmp_path, capsys):
    # rising path 100 -> 120: bid-ask bands [90, 100] and [108, 120] cannot
    # intersect, so no flat shadow price exists at a 10% spread
    doc = {
        "depth": 1,
        "nodes": [
            {"id": 0, "parent": None, "time": 0, "prob": 1.0, "price": 100.0},
            {"id": 1, "parent": 0, "time": 1, "prob": 1.0, "price": 120.0},
        ],
    }
    tree = load_tree(json.dumps(doc))
    with pytest.raises(DualInfeasible):
        superhedge_price(tree, 0.1, ClaimSpec({1: 0.0}))
    tree_path = tmp_path / "rising.json"
    tree_path.write_text(json.dumps(doc))
    code = main(
        [
            "price",
            "--tree", str(tree_path),
            "--claim-expr", "0",
            "--lambda", "0.1",
            "--format", "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["reason"] == "dual_infeasible"
    print("\n[acceptance] criterion 9: PASS - arbitrage reported, exit code 2")
