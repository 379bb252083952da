import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadhedge import (
    AdmissibilityCap,
    BadFriction,
    NotAnAntichain,
    ParseError,
    ShapeMismatch,
    Strategy,
    ValidationError,
    check_admissibility,
    generate_random_tree,
    is_self_financing,
    lower_friction_transform,
    make_ask_strategy,
    make_bid_strategy,
    portfolio_path,
    random_strategy,
    total_variation,
)
from spreadhedge.strategy import liquidate, liquidation_values, minimal_admissibility_bound


class TestSelfFinancing:
    def test_do_nothing_is_self_financing(self, b1):
        assert is_self_financing(b1, 0.1, Strategy.zero(b1))

    def test_underfunded_purchase_reports_residual(self, b1):
        # buying 1 share at price 100 while debiting only 99 means a -1 consumption
        s = Strategy.from_trades(b1, {0: {"buy": 1.0, "consume": -1.0}})
        check = is_self_financing(b1, 0.1, s)
        assert not check
        assert check.violations == ((0, "consume", -1.0),)

    def test_optimal_hedge_is_self_financing(self, b1, c1_hedge):
        assert is_self_financing(b1, 0.1, c1_hedge)

    def test_shape_mismatch(self, b1):
        deeper = generate_random_tree(1, depth=2, max_branching=2)
        with pytest.raises(ShapeMismatch):
            is_self_financing(b1, 0.1, Strategy.zero(deeper))

    def test_bad_rate_rejected(self, b1):
        with pytest.raises(BadFriction):
            is_self_financing(b1, 1.0, Strategy.zero(b1))
        with pytest.raises(BadFriction):
            is_self_financing(b1, -0.1, Strategy.zero(b1))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 10_000))
    def test_random_strategies_self_financing(self, seed):
        tree = generate_random_tree(seed, depth=1 + seed % 4, max_branching=2 + seed % 2)
        strat = random_strategy(tree, seed, liquidate_at_leaves=bool(seed % 2))
        assert is_self_financing(tree, 0.2, strat)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 10_000))
    def test_monotone_friction(self, seed):
        # the financing identity at a larger rate stays valid at any smaller rate
        tree = generate_random_tree(seed, depth=2, max_branching=3)
        strat = random_strategy(tree, seed)
        lam = 0.3
        assert is_self_financing(tree, lam, strat)
        for lam_smaller in (0.2, 0.1, 0.0):
            assert is_self_financing(tree, lam_smaller, strat)


class TestHoldings:
    def test_hedge_path(self, b1, c1_hedge):
        path = portfolio_path(b1, 0.1, c1_hedge)
        assert abs(path.phi0[0] - (-40.0)) < 1e-12
        assert abs(path.phi1[0] - 5.0 / 9.0) < 1e-12
        assert abs(path.phi0[1] - 20.0) < 1e-12
        assert abs(path.phi0[2] - 0.0) < 1e-12
        assert np.allclose(path.phi1[[1, 2]], 0.0)

    def test_jordan_consistency_exact(self, b1):
        strat = random_strategy(b1, 3)
        path = portfolio_path(b1, 0.1, strat)
        y0 = strat.initial[1]
        for n in range(b1.node_count):
            assert path.phi1[n] - y0 == path.up1[n] - path.down1[n]

    def test_matches_node_loop(self):
        # the per-node recursion that path_sum replaced; phi1 alone is summed
        # in another order, bounded by one rounding per trade on the path
        eps = np.finfo(float).eps
        for seed in range(1, 31):
            tree = generate_random_tree(seed, depth=1 + seed % 5, max_branching=2 + seed % 2)
            base = random_strategy(tree, seed, liquidate_at_leaves=bool(seed % 2))
            rng = np.random.default_rng(seed)
            initial = (0.0, 0.0) if seed % 3 == 0 else tuple(rng.uniform(-50.0, 50.0, 2))
            strat = Strategy(initial, base.buy, base.sell, base.consume)
            lam = 0.1 * (seed % 4)
            path = portfolio_path(tree, lam, strat)

            n = tree.node_count
            ref = {k: np.empty(n) for k in ("phi0", "phi1", "up0", "down0", "up1", "down1")}
            x0, y0 = strat.initial
            for i in tree.order:
                p = tree.parent[i]
                root = p < 0
                d = path.delta0[i]
                ref["phi1"][i] = (y0 if root else ref["phi1"][p]) + strat.buy[i] - strat.sell[i]
                ref["phi0"][i] = (x0 if root else ref["phi0"][p]) + d
                ref["up0"][i] = (0.0 if root else ref["up0"][p]) + max(d, 0.0)
                ref["down0"][i] = (0.0 if root else ref["down0"][p]) + max(-d, 0.0)
                ref["up1"][i] = (0.0 if root else ref["up1"][p]) + strat.buy[i]
                ref["down1"][i] = (0.0 if root else ref["down1"][p]) + strat.sell[i]
            for key in ("phi0", "up0", "down0", "up1", "down1"):
                assert np.array_equal(getattr(path, key), ref[key]), (seed, key)
            tol = (2 * tree.depth + 4) * eps * (abs(y0) + path.up1 + path.down1)
            assert (np.abs(path.phi1 - ref["phi1"]) <= tol).all(), seed

    def test_json_round_trip(self, b1, c1_hedge):
        doc = c1_hedge.to_json()
        back = Strategy.from_json(b1, doc)
        assert np.allclose(back.buy, c1_hedge.buy)
        assert np.allclose(back.sell, c1_hedge.sell)
        assert back.initial == c1_hedge.initial

    @pytest.mark.parametrize("name", ["initial", "buy", "sell", "consume"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, name, bad):
        # NaN passes every comparison the self-financing and admissibility checks make
        parts = {"initial": [0.0, 0.0], "buy": np.zeros(3), "sell": np.zeros(3), "consume": np.zeros(3)}
        parts[name][1] = bad
        with pytest.raises(ValidationError, match=rf"^strategy {name}\[1\] is"):
            Strategy(**parts)

    @pytest.mark.parametrize(
        "doc",
        [{"initial": ["1", 0], "trades": {}}, {"initial": [0, 0], "trades": {"1": {"sell": True}}}],
    )
    def test_non_number_entry_is_parse_error(self, b1, doc):
        with pytest.raises(ParseError, match="must be a JSON number"):
            Strategy.from_json(b1, doc)

    def test_unknown_trade_key_is_parse_error(self, b1):
        # a misspelt key used to read as no trade, certified self-financing
        with pytest.raises(ParseError, match="^unknown trade key 'by' at node 0$"):
            Strategy.from_json(b1, {"initial": [0, 0], "trades": {"0": {"by": 1.0}}})
        with pytest.raises(ParseError, match="^unknown trade key 'cosume' at node 2$"):
            Strategy.from_trades(b1, {1: {"buy": 1.0}, 2: {"sell": 1.0, "cosume": 0.5}})

    def test_node_key_written_otherwise_is_parse_error(self, b1):
        # "01" used to be merged with "1" and, coming later, drop its purchase
        doc = {"initial": [0, 0], "trades": {"1": {"buy": 1}, "01": {"consume": 0}}}
        with pytest.raises(ParseError, match="^bad strategy document: trades key '01' must be written '1'$"):
            Strategy.from_json(b1, doc)

    def test_caller_arrays_stay_writeable(self):
        a = np.zeros(3)
        strat = Strategy((0, 0), a, a, a)
        a[0] = 1.0  # raised "assignment destination is read-only" when the arrays were shared
        assert strat.buy.tolist() == [0.0, 0.0, 0.0]
        assert not strat.buy.flags.writeable

    @pytest.mark.parametrize(
        "trades, field",
        [({"0": [1]}, "trade at node 0"), ([{"buy": 1}], "trades")],
    )
    def test_list_for_an_object_is_parse_error(self, b1, trades, field):
        # a trade given as a list used to escape as an AttributeError
        with pytest.raises(ParseError, match=f"^bad strategy document: {field} must be a JSON object, got "):
            Strategy.from_json(b1, {"initial": [0, 0], "trades": trades})


class TestLiquidation:
    def test_long_position_sells_at_bid(self):
        assert liquidate(10.0, 2.0, 100.0, 0.1) == 190.0

    def test_short_position_covers_at_ask(self):
        assert liquidate(10.0, -1.0, 100.0, 0.25) == -90.0

    def test_empty_portfolio(self, b1):
        for n in range(3):
            assert liquidation_values(b1, 0.1, Strategy.zero(b1))[n] == 0.0

    def test_strategy_route_matches_direct_formula(self, b1):
        strat = Strategy.zero(b1, initial=(10.0, 2.0))
        assert liquidation_values(b1, 0.1, strat)[0] == liquidate(10.0, 2.0, 100.0, 0.1)

    def test_is_the_smaller_of_bid_and_ask_marks(self):
        # the hedging LP states the liquidation floor as one row per mark
        rng = np.random.default_rng(7)
        eps = np.finfo(float).eps
        for lam in (0.0, 0.1, 0.6):
            for _ in range(200):
                phi0 = float(rng.uniform(-1e3, 1e3))
                price = float(rng.uniform(0.5, 500.0))
                size = float(rng.uniform(0.0, 20.0))
                for phi1 in (-size, 0.0, size):
                    marks = min(phi0 + (1.0 - lam) * price * phi1, phi0 + price * phi1)
                    tol = 4 * eps * (abs(phi0) + price * abs(phi1))
                    assert abs(liquidate(phi0, phi1, price, lam) - marks) <= tol

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        phi0=st.floats(-50, 50), phi1=st.floats(-5, 5), k=st.floats(0.1, 10),
    )
    def test_positively_homogeneous(self, phi0, phi1, k):
        a = liquidate(k * phi0, k * phi1, 100.0, 0.1)
        b = k * liquidate(phi0, phi1, 100.0, 0.1)
        assert abs(a - b) < 1e-9 * (1 + abs(b))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(phi0=st.floats(-50, 50), phi1=st.floats(0.01, 5))
    def test_nonincreasing_in_rate_when_long(self, phi0, phi1):
        vals = [liquidate(phi0, phi1, 100.0, lam) for lam in (0.0, 0.1, 0.3, 0.6)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestAdmissibility:
    def test_do_nothing_passes_any_cap(self, b1):
        s = Strategy.zero(b1)
        assert check_admissibility(b1, 0.1, s, AdmissibilityCap.numeraire_based(0.0))
        assert check_admissibility(b1, 0.1, s, AdmissibilityCap.unbounded())

    def test_unbounded_cap_still_checks_its_inputs(self):
        # an unbounded cap used to return ok=True before looking at lam or the strategy
        tree = generate_random_tree(1, depth=2, max_branching=2)
        assert tree.node_count == 7
        cap = AdmissibilityCap.unbounded()
        short = Strategy((0, 0), np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(BadFriction):
            check_admissibility(tree, 5.0, short, cap)
        with pytest.raises(ShapeMismatch):
            check_admissibility(tree, 0.1, short, cap)
        assert check_admissibility(tree, 0.1, random_strategy(tree, 3, scale=1e6), cap)

    def test_hedge_floor_is_zero(self, b1, c1_hedge):
        # liquidation values are (10, 20, 0): admissible at every bond floor
        vals = liquidation_values(b1, 0.1, c1_hedge)
        assert np.allclose(vals, [10.0, 20.0, 0.0])
        assert minimal_admissibility_bound(b1, 0.1, c1_hedge, "numeraire_based") == 0.0
        assert check_admissibility(b1, 0.1, c1_hedge, AdmissibilityCap.numeraire_based(0.0))

    def test_buy_and_hold_witness(self, b1):
        s = make_ask_strategy(b1, {0}, {0: 1.0})
        # liquidation values: -10 at the root, 8 up, -28 down
        check = check_admissibility(b1, 0.1, s, AdmissibilityCap.numeraire_based(10.0))
        assert not check
        assert check.witness[0] == 2
        assert check_admissibility(b1, 0.1, s, AdmissibilityCap.numeraire_based(28.0))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 10_000), m=st.floats(0, 50))
    def test_bond_cap_implies_symmetric_cap(self, seed, m):
        tree = generate_random_tree(seed, depth=2, max_branching=2)
        strat = random_strategy(tree, seed)
        nb = check_admissibility(tree, 0.1, strat, AdmissibilityCap.numeraire_based(m))
        nf = check_admissibility(tree, 0.1, strat, AdmissibilityCap.numeraire_free(m))
        if nb.ok:
            assert nf.ok


class TestSimpleStrategies:
    def test_ask_at_root(self, b1):
        s = make_ask_strategy(b1, {0}, {0: 1.0})
        path = portfolio_path(b1, 0.1, s)
        assert np.allclose(path.phi0[[1, 2]], -100.0)
        assert np.allclose(path.phi1[[1, 2]], 1.0)

    def test_empty_stop_is_do_nothing(self, b1):
        s = make_ask_strategy(b1, set(), {})
        assert not s.buy.any() and not s.sell.any()
        s = make_bid_strategy(b1, 0.1, set(), {})
        assert not s.sell.any()

    def test_ask_at_leaf(self, b1):
        s = make_ask_strategy(b1, {1}, {1: 2.0})
        path = portfolio_path(b1, 0.1, s)
        assert path.phi0[1] == -240.0 and path.phi1[1] == 2.0
        assert path.phi0[2] == 0.0 and path.phi1[2] == 0.0

    def test_bid_at_root(self, b1):
        s = make_bid_strategy(b1, 0.1, {0}, {0: 1.0})
        path = portfolio_path(b1, 0.1, s)
        assert np.allclose(path.phi0[[1, 2]], 90.0)
        assert np.allclose(path.phi1[[1, 2]], -1.0)

    def test_frictionless_bid_equals_ask_price(self, b1):
        s = make_bid_strategy(b1, 0.0, {0}, {0: 1.0})
        path = portfolio_path(b1, 0.0, s)
        assert np.allclose(path.phi0[[1, 2]], 100.0)

    def test_not_an_antichain(self, b1):
        with pytest.raises(NotAnAntichain):
            make_ask_strategy(b1, {0, 1}, {0: 1.0, 1: 1.0})

    def test_missing_share_count(self, b1):
        with pytest.raises(ShapeMismatch):
            make_ask_strategy(b1, {0}, {})


class TestLowerFrictionTransform:
    def test_identity_at_equal_rates(self, b1, c1_hedge):
        out = lower_friction_transform(b1, c1_hedge, 0.1, 0.1)
        assert np.allclose(out.consume, c1_hedge.consume)
        assert np.allclose(out.buy, c1_hedge.buy)

    def test_no_inflows_means_no_change(self, b1):
        s = make_ask_strategy(b1, {0}, {0: 1.0})  # only outflows
        out = lower_friction_transform(b1, s, 0.1, 0.05)
        assert np.allclose(portfolio_path(b1, 0.05, out).phi0, portfolio_path(b1, 0.1, s).phi0)

    def test_bid_improvement_matches_target_rate(self, b1):
        s = make_bid_strategy(b1, 0.1, {0}, {0: 1.0})
        out = lower_friction_transform(b1, s, 0.1, 0.05)
        path = portfolio_path(b1, 0.05, out)
        assert np.allclose(path.phi0[[1, 2]], 95.0)  # the 5% bid of 100
        assert is_self_financing(b1, 0.05, out)

    def test_rejects_larger_target_rate(self, b1, c1_hedge):
        with pytest.raises(BadFriction):
            lower_friction_transform(b1, c1_hedge, 0.1, 0.2)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 10_000))
    def test_bond_leg_dominates_and_matches_formula(self, seed):
        tree = generate_random_tree(seed, depth=3, max_branching=2)
        strat = random_strategy(tree, seed)
        lam, lam_p = 0.3, 0.1
        out = lower_friction_transform(tree, strat, lam, lam_p)
        src = portfolio_path(tree, lam, strat)
        dst = portfolio_path(tree, lam_p, out)
        coeff = (lam - lam_p) / (1.0 - lam)
        assert np.all(dst.phi0 >= src.phi0 - 1e-9)
        assert np.allclose(dst.phi0, src.phi0 + coeff * src.up0, atol=1e-9)
        assert np.allclose(dst.phi1, src.phi1)
        assert is_self_financing(tree, lam_p, out)


class TestRandomStrategy:
    def test_liquidates_every_leaf_of_a_deep_tree(self):
        tree = generate_random_tree(5, depth=13, max_branching=2)
        assert tree.node_count == 16383
        strat = random_strategy(tree, 5, liquidate_at_leaves=True)
        assert is_self_financing(tree, 0.1, strat)
        path = portfolio_path(tree, 0.1, strat)
        assert np.abs(path.phi1[tree.leaves]).max() <= 1e-9


class TestTotalVariation:
    def test_do_nothing(self, b1):
        assert total_variation(b1, 0.1, Strategy.zero(b1), 2) == (0.0, 0.0)

    def test_single_purchase(self, b1):
        s = make_ask_strategy(b1, {0}, {0: 1.0})
        assert total_variation(b1, 0.1, s, 1) == (100.0, 1.0)

    def test_hedge_round_trip_at_up_leaf(self, b1, c1_hedge):
        var0, var1 = total_variation(b1, 0.1, c1_hedge, 1)
        assert abs(var0 - (500.0 / 9.0 + 60.0)) < 1e-12
        assert abs(var1 - 10.0 / 9.0) < 1e-12
