import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadhedge import (
    AdmissibilityCap,
    ClaimSpec,
    DualInfeasible,
    PreconditionViolated,
    brute_force_vertices,
    build_dual,
    build_primal,
    check_admissibility,
    dual_cps_from_primal,
    expected_claim,
    generate_random_tree,
    is_self_financing,
    load_tree,
    make_ask_strategy,
    price_curve,
    random_cps,
    solve,
    superhedge_price,
    variation_bound_check,
    verify_cps,
)
from spreadhedge.strategy import Strategy, minimal_admissibility_bound, portfolio_path
from spreadhedge.superhedge import has_cps
from tests.test_acceptance import suite_instance

UNBOUNDED = AdmissibilityCap.unbounded()


def random_claim(tree, seed, *, allow_negative=True):
    rng = np.random.default_rng(seed)
    strike = tree.price[0] * rng.uniform(0.7, 1.3)
    shift = float(rng.uniform(-20.0, 20.0)) if allow_negative and seed % 3 == 0 else 0.0
    payoffs = {
        int(l): max(float(tree.price[l] - strike), 0.0) + shift for l in tree.leaves
    }
    return ClaimSpec(payoffs, "constant" if seed % 2 else "stock_bond")


class TestBuildPrimal:
    def test_binomial_reduces_to_two_var_lp(self, b1, c1):
        lp, vmap = build_primal(b1, 0.1, c1, UNBOUNDED)
        sol = solve(lp)
        assert abs(sol.objective - 140.0 / 9.0) < 1e-9
        # the reduced two-variable program has the same value at its vertex
        from tests.test_lp import two_var_hedge_lp

        reduced = brute_force_vertices(two_var_hedge_lp())
        assert abs(sol.objective - reduced[0][1]) < 1e-9

    def test_zero_claim_prices_to_zero(self, b1):
        lp, _ = build_primal(b1, 0.1, ClaimSpec({1: 0.0, 2: 0.0}), UNBOUNDED)
        sol = solve(lp)
        assert abs(sol.objective) < 1e-9

    def test_constant_claim_needs_no_trading(self, b1):
        rep = superhedge_price(b1, 0.1, ClaimSpec({1: 7.0, 2: 7.0}))
        assert abs(rep.primal_value - 7.0) < 1e-9
        assert np.abs(rep.strategy.buy).max() < 1e-9
        assert np.abs(rep.strategy.sell).max() < 1e-9


    def test_matches_leaf_ancestry_assembly_byte_for_byte(self):
        caps = [
            UNBOUNDED,
            AdmissibilityCap.numeraire_based(100.0),
            AdmissibilityCap.numeraire_free(1.0),
            AdmissibilityCap.numeraire_based(0.0),
        ]
        for seed in range(1, 41):
            tree, claim, lam = suite_instance(seed)
            for cap in caps:
                lp, _ = build_primal(tree, lam, claim, cap)
                ref = _ancestry_primal_arrays(tree, lam, claim, cap)
                got = (lp.A_eq, lp.b_eq, lp.A_ub, lp.b_ub)
                for name, a, b in zip(("A_eq", "b_eq", "A_ub", "b_ub"), got, ref):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (seed, cap, name)


def _ancestry_primal_arrays(tree, lam, claim, cap):
    """The hedging LP's constraint arrays assembled node by node from each
    row's root path, as build_primal did before the tree walked its paths."""
    x = claim.payoff_vector(tree)
    n = tree.node_count
    n_leaves = tree.leaves.size
    buy, sell, consume = 1 + np.arange(n), 1 + n + np.arange(n), 1 + 2 * n + np.arange(n)
    n_vars = 1 + 3 * n + (2 * n if cap.is_bounded else 0)
    long_part, short_part = 1 + 3 * n + np.arange(n), 1 + 4 * n + np.arange(n)
    paths = []
    for leaf in tree.leaves:
        path = [int(leaf)] + tree.ancestors(int(leaf))
        path.reverse()
        paths.append(path)
    m = n_leaves + (n if cap.is_bounded else 0)
    A_eq, b_eq = np.zeros((m, n_vars)), np.zeros(m)
    A_ub, b_ub = np.zeros((m, n_vars)), np.zeros(m)
    S = tree.price
    for r, path in enumerate(paths):
        for a in path:
            A_eq[r, buy[a]] = 1.0
            A_eq[r, sell[a]] = -1.0
        A_ub[r, 0] = -1.0
        for a in path:
            A_ub[r, buy[a]] = S[a]
            A_ub[r, sell[a]] = -(1.0 - lam) * S[a]
            A_ub[r, consume[a]] = 1.0
        b_ub[r] = -x[r]
    if cap.is_bounded:
        ancestry = [[] for _ in range(n)]
        for i in tree.order:
            p = tree.parent[i]
            ancestry[i] = ([] if p < 0 else ancestry[p]) + [int(i)]
        for i in range(n):
            r = n_leaves + i
            A_eq[r, long_part[i]] = 1.0
            A_eq[r, short_part[i]] = -1.0
            for a in ancestry[i]:
                A_eq[r, buy[a]] = -1.0
                A_eq[r, sell[a]] = 1.0
            A_ub[r, 0] = -1.0
            for a in ancestry[i]:
                A_ub[r, buy[a]] = S[a]
                A_ub[r, sell[a]] = -(1.0 - lam) * S[a]
                A_ub[r, consume[a]] = 1.0
            A_ub[r, long_part[i]] = -(1.0 - lam) * S[i]
            A_ub[r, short_part[i]] = S[i]
            if cap.kind == "numeraire_based":
                b_ub[r] = cap.bound
            else:
                b_ub[r] = cap.bound * (1.0 + S[i])
    return A_eq, b_eq, A_ub, b_ub


class TestBuildDual:
    def test_binomial_optimum(self, b1, c1):
        lp, dmap = build_dual(b1, 0.1, c1)
        sol = solve(lp)
        assert abs(sol.objective - 140.0 / 9.0) < 1e-9
        z0 = sol.x[dmap.z0]
        assert abs(0.5 * z0[1] - 7.0 / 9.0) < 1e-9  # pricing weight of the up leaf

    def test_frictionless_binomial(self, b1, c1):
        lp, _ = build_dual(b1, 0.0, c1)
        sol = solve(lp)
        assert abs(sol.objective - 10.0) < 1e-9

    def test_zero_claim(self, b1):
        lp, _ = build_dual(b1, 0.1, ClaimSpec({1: 0.0, 2: 0.0}))
        assert abs(solve(lp).objective) < 1e-9


class TestSuperhedgePrice:
    def test_golden_binomial(self, b1, c1):
        rep = superhedge_price(b1, 0.1, c1)
        assert abs(rep.primal_value - 140.0 / 9.0) < 1e-9
        assert abs(rep.dual_value - 140.0 / 9.0) < 1e-9
        assert rep.gap <= 1e-7
        assert abs(rep.strategy.buy[0] - 5.0 / 9.0) < 1e-9
        path = portfolio_path(b1, 0.1, rep.strategy)
        assert abs(path.phi0[0] - (-40.0)) < 1e-9
        assert abs(0.5 * rep.cps.z0[1] - 7.0 / 9.0) < 1e-9
        assert rep.all_certified()

    def test_frictionless_endpoint(self, b1, c1):
        rep = superhedge_price(b1, 0.0, c1)
        assert abs(rep.primal_value - 10.0) < 1e-9

    def test_rising_path_is_arbitrage(self):
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
        assert not has_cps(tree, 0.1)
        # a wide enough spread supports the flat shadow price again
        assert has_cps(tree, 0.2)

    def test_extracted_objects_satisfy_their_contracts(self, b1, c1):
        rep = superhedge_price(b1, 0.1, c1)
        assert is_self_financing(b1, 0.1, rep.strategy)
        assert verify_cps(b1, 0.1, rep.cps)
        assert check_admissibility(
            b1, 0.1, rep.strategy, AdmissibilityCap("numeraire_based", rep.computed_cap_bound)
        )

    def test_tiny_friction_fully_certified(self):
        # near-frictionless optimum: the strict representative's density
        # nearly vanishes at some nodes, which must not fail a certificate
        tree = generate_random_tree(27, 4, 3)
        claim = ClaimSpec(
            {int(l): max(float(tree.price[l]) - 100.0, 0.0) for l in tree.leaves}
        )
        rep = superhedge_price(tree, 1e-6, claim)
        assert rep.certificates
        for key, ok in rep.certificates.items():
            assert ok is True, f"{key} failed"

    def test_bounded_cap_tightens_the_price(self, b1):
        # collecting the negative claim requires terminal bonds of -50 down;
        # a liquidation floor caps how deep the hedge may run
        claim = ClaimSpec({1: 0.0, 2: -50.0})
        free = superhedge_price(b1, 0.1, claim)
        assert abs(free.primal_value - (-100.0 / 9.0)) < 1e-9
        at_zero = superhedge_price(b1, 0.1, claim, AdmissibilityCap.numeraire_based(0.0))
        assert abs(at_zero.primal_value - 0.0) < 1e-9  # do nothing, dominate for free
        # with floor -100/9 the binding vertex solves X0+8D=0, X0-28D=-100/9
        mid = superhedge_price(
            b1, 0.1, claim, AdmissibilityCap.numeraire_based(100.0 / 9.0)
        )
        assert abs(mid.primal_value - (-200.0 / 81.0)) < 1e-9
        # a huge floor reproduces the unconstrained price
        huge = superhedge_price(b1, 0.1, claim, AdmissibilityCap.numeraire_based(1e6))
        assert abs(huge.primal_value - free.primal_value) < 1e-9
        # the reported dual value is the cap-free price
        assert abs(mid.dual_value - free.primal_value) < 1e-9
        assert is_self_financing(b1, 0.1, mid.strategy)
        assert check_admissibility(
            b1, 0.1, mid.strategy, AdmissibilityCap.numeraire_based(100.0 / 9.0)
        )

    def test_report_json_shape(self, b1, c1):
        doc = superhedge_price(b1, 0.1, c1).to_json()
        assert doc["primal"] == doc["dual"] or abs(doc["primal"] - doc["dual"]) < 1e-7
        assert set(doc["certificates"]) >= {
            "self_financing",
            "admissibility",
            "cps",
            "supermartingale",
            "complementary_slackness",
        }


class TestDualOfPrimal:
    def test_price_matches_dual_lp_oracle(self):
        caps = [
            UNBOUNDED,
            AdmissibilityCap.numeraire_based(100.0),
            AdmissibilityCap.numeraire_free(1.0),
        ]
        for seed in range(1, 41):
            tree, claim, lam = suite_instance(seed)
            ref = solve(build_dual(tree, lam, claim)[0]).objective
            for cap in caps:
                rep = superhedge_price(tree, lam, claim, cap)
                assert abs(rep.dual_value - ref) <= 1e-9 * max(1.0, abs(ref)), (seed, cap)
                assert verify_cps(tree, lam, rep.cps), (seed, cap)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 10_000))
    def test_multipliers_form_feasible_price_system(self, seed):
        tree = generate_random_tree(seed % 60 + 1, depth=1 + seed % 4, max_branching=2 + seed % 2)
        claim = random_claim(tree, seed)
        lam = 0.05 + (seed % 6) * 0.06
        lp, vmap = build_primal(tree, lam, claim, UNBOUNDED)
        sol = solve(lp)
        cps = dual_cps_from_primal(tree, lam, sol, vmap)
        assert verify_cps(tree, lam, cps)
        assert abs(expected_claim(tree, cps, claim) - sol.objective) < 1e-7 * (
            1 + abs(sol.objective)
        )


class TestVariationBound:
    def test_do_nothing(self, b1):
        cps = random_cps(b1, 0.05, 3)
        check = variation_bound_check(b1, 0.1, 0.05, Strategy.zero(b1), cps, 0.0)
        assert check
        assert check.lhs == 0.0

    def test_round_trip_hand_numbers(self, b1):
        from spreadhedge import ConsistentPriceSystem

        # buy one share at the root, liquidate at each leaf
        strat = Strategy.from_trades(
            b1, {0: {"buy": 1.0}, 1: {"sell": 1.0}, 2: {"sell": 1.0}}
        )
        cps = ConsistentPriceSystem(np.ones(3), b1.price.copy())  # Q = P, shadow = S
        m = minimal_admissibility_bound(b1, 0.1, strat, "numeraire_free")
        assert abs(m - 28.0 / 81.0) < 1e-12
        check = variation_bound_check(b1, 0.1, 0.05, strat, cps, m)
        assert check
        assert abs(check.lhs - 190.0) < 1e-12  # 100 out, then E[0.9 S_T] back in
        assert abs(check.rhs - (28.0 / 81.0) * 41.0 * 101.0) < 1e-9

    def test_precondition_failures_are_named(self, b1):
        cps = random_cps(b1, 0.05, 3)
        with pytest.raises(PreconditionViolated):
            variation_bound_check(b1, 0.05, 0.1, Strategy.zero(b1), cps, 0.0)
        unliquidated = make_ask_strategy(b1, {0}, {0: 1.0})
        with pytest.raises(PreconditionViolated):
            variation_bound_check(b1, 0.1, 0.05, unliquidated, cps, 100.0)
        shifted = Strategy.zero(b1, initial=(1.0, 0.0))
        with pytest.raises(PreconditionViolated):
            variation_bound_check(b1, 0.1, 0.05, shifted, cps, 100.0)


class TestStructuralProperties:
    def test_price_curve_monotone(self, b1, c1):
        out = price_curve(b1, c1, [0.0, 0.05, 0.1, 0.2])
        prices = [p for _, p in out]
        assert prices == sorted(prices)
        assert abs(prices[0] - 10.0) < 1e-9
        assert abs(prices[2] - 140.0 / 9.0) < 1e-9

    def test_price_curve_constant_claim_flat(self, b1):
        out = price_curve(b1, ClaimSpec({1: 5.0, 2: 5.0}), [0.0, 0.1, 0.3])
        assert all(abs(p - 5.0) < 1e-9 for _, p in out)

    def test_cash_invariance_and_homogeneity(self, b1, c1):
        base = superhedge_price(b1, 0.1, c1).primal_value
        shifted = ClaimSpec({k: v + 37.5 for k, v in c1.payoffs.items()})
        scaled = ClaimSpec({k: 3.7 * v for k, v in c1.payoffs.items()})
        p_shift = superhedge_price(b1, 0.1, shifted).primal_value
        p_scaled = superhedge_price(b1, 0.1, scaled).primal_value
        assert abs(p_shift - (base + 37.5)) < 1e-9 * (1 + abs(base))
        assert abs(p_scaled - 3.7 * base) < 1e-9 * (1 + abs(base))

    def test_cap_ordering(self, b1):
        claim = ClaimSpec({1: 20.0, 2: -10.0})
        m = 2.0 * claim.lower_bound(b1)
        p_nb = superhedge_price(b1, 0.1, claim, AdmissibilityCap.numeraire_based(m)).primal_value
        p_nf = superhedge_price(b1, 0.1, claim, AdmissibilityCap.numeraire_free(m)).primal_value
        p_free = superhedge_price(b1, 0.1, claim).primal_value
        assert p_nb >= p_nf - 1e-9
        assert p_nf >= p_free - 1e-9

    def test_weak_duality_standalone(self, b1, c1):
        # any verified system prices below any feasible super-hedge
        rep = superhedge_price(b1, 0.1, c1)
        for seed in range(5):
            cps = random_cps(b1, 0.1, seed)
            assert expected_claim(b1, cps, c1) <= rep.primal_value + 1e-9

    def test_zero_claim_flat_curve(self, b1):
        zero = ClaimSpec({1: 0.0, 2: 0.0})
        out = price_curve(b1, zero, [0.0, 0.1, 0.3, 0.5])
        assert all(abs(p) < 1e-9 for _, p in out)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 10_000))
    def test_supermartingale_implies_polar_bound(self, seed):
        from spreadhedge import polar_pairing, random_strategy, supermartingale_check

        tree = generate_random_tree(seed % 40 + 1, depth=1 + seed % 3, max_branching=2)
        lam = 0.1 + (seed % 4) * 0.1
        cps = random_cps(tree, lam, seed)
        strat = random_strategy(tree, seed + 5)
        assert supermartingale_check(tree, lam, cps, strat)
        assert polar_pairing(tree, lam, cps, strat) <= 1e-9
