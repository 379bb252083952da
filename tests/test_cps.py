import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadhedge import (
    AdmissibilityCap,
    BadFrictionGap,
    ClaimSpec,
    ConsistentPriceSystem,
    MismatchedTrees,
    ParseError,
    PreconditionViolated,
    ShapeMismatch,
    Strategy,
    UnverifiedInput,
    ValidationError,
    concatenate_cps,
    expected_claim,
    generate_random_tree,
    load_tree,
    make_ask_strategy,
    make_bid_strategy,
    mix_cps,
    polar_pairing,
    random_cps,
    random_strategy,
    shadow_price,
    stopped_martingale_check,
    superhedge_price,
    supermartingale_check,
    verify_cps,
)
from tests.conftest import children
from tests.test_acceptance import suite_instance


def p_martingale_cps(tree):
    """The physical measure itself prices the tree when prices are a martingale."""
    return ConsistentPriceSystem(np.ones(tree.node_count), tree.price.copy())


class TestVerify:
    def test_hand_example_passes(self, b1, cps_b1):
        check = verify_cps(b1, 0.1, cps_b1)
        assert check
        assert max(check.worst.values()) < 1e-12

    def test_spread_violation_detected(self, b1):
        bad = ConsistentPriceSystem.from_maps(
            b1, {0: 1.0, 1: 1.0, 2: 1.0}, {0: 94.0, 1: 121.0, 2: 78.0}
        )
        check = verify_cps(b1, 0.1, bad)
        assert not check
        assert check.worst["spread"] > 0
        assert check.witness["spread"] == 1

    def test_frictionless_martingale(self, b1):
        cps = p_martingale_cps(b1)
        assert verify_cps(b1, 0.0, cps)
        for n in range(3):
            assert shadow_price(b1, cps, n) == b1.price[n]

    def test_martingale_residual_detected(self, b1, cps_b1):
        bad = ConsistentPriceSystem.from_maps(
            b1, {0: 1.0, 1: 1.0, 2: 1.0}, {0: 95.0, 1: 110.0, 2: 78.0}
        )
        check = verify_cps(b1, 0.1, bad)
        assert not check
        assert check.witness["martingale"] == 0

    def test_density_telescopes_to_one(self):
        tree = generate_random_tree(11, depth=4, max_branching=3)
        cps = random_cps(tree, 0.2, 5)
        total = float(np.sum(tree.path_prob[tree.leaves] * cps.z0[tree.leaves]))
        assert abs(total - 1.0) < 1e-10

    def test_shape_mismatch(self, b1, cps_b1):
        other = generate_random_tree(1, depth=2, max_branching=2)
        with pytest.raises(ShapeMismatch):
            verify_cps(other, 0.1, cps_b1)

    def test_every_check_states_a_mismatch_one_way(self, b1, cps_b1):
        other = generate_random_tree(1, depth=2, max_branching=2)
        calls = (
            lambda: verify_cps(other, 0.1, cps_b1),
            lambda: shadow_price(other, cps_b1, 0),
            lambda: supermartingale_check(other, 0.1, cps_b1, Strategy.zero(other)),
        )
        for call in calls:
            with pytest.raises(ShapeMismatch, match="^price system indexes 3 nodes, tree has 7$"):
                call()

    def test_json_round_trip(self, b1, cps_b1):
        back = ConsistentPriceSystem.from_json(b1, cps_b1.to_json())
        assert np.allclose(back.z0, cps_b1.z0)
        assert np.allclose(back.z1, cps_b1.z1)

    def test_non_number_entry_is_parse_error(self, b1, cps_b1):
        doc = cps_b1.to_json()
        doc["z1"]["2"] = str(doc["z1"]["2"])
        with pytest.raises(ParseError, match=r"^bad price-system document: z1 at node 2 must be a JSON number"):
            ConsistentPriceSystem.from_json(b1, doc)

    @pytest.mark.parametrize("key", ["01", "1_0", " 1", "+1"])
    def test_node_key_written_otherwise_is_parse_error(self, b1, cps_b1, key):
        # "01" used to be merged with "1", the later key winning
        doc = cps_b1.to_json()
        doc["z0"][key] = doc["z1"][key] = 2.0
        with pytest.raises(ParseError, match=f"^bad price-system document: z0 key '{re.escape(key)}' must be written '"):
            ConsistentPriceSystem.from_json(b1, doc)

    @pytest.mark.parametrize("field", ["z0", "z1"])
    def test_list_for_an_object_is_parse_error(self, b1, cps_b1, field):
        # a list used to escape as an AttributeError
        doc = {**cps_b1.to_json(), field: [1, 1, 1]}
        with pytest.raises(ParseError, match=f"^bad price-system document: {field} must be a JSON object, got"):
            ConsistentPriceSystem.from_json(b1, doc)

    def test_support_is_always_a_read_only_copy(self, b1):
        z = np.ones(3)
        whole = ConsistentPriceSystem(z, z)
        assert whole.support.dtype == bool and whole.support.tolist() == [True, True, True]
        mask = np.array([1, 1, 0])
        part = ConsistentPriceSystem(z, z, mask)
        z[0], mask[0] = 2.0, 0  # the caller's arrays stay writeable and unshared
        assert part.support.tolist() == [True, True, False] and part.z0[0] == 1.0
        for arr in (part.z0, part.z1, part.support):
            assert not arr.flags.writeable
        assert ConsistentPriceSystem.from_maps(b1, {0: 1.0}, {0: 94.0}).support.tolist() == [True, False, False]
        with pytest.raises(ShapeMismatch):
            ConsistentPriceSystem(z, z, [True, False])

    @pytest.mark.parametrize("field", ["z0", "z1"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, b1, field, value):
        # z0 = [1, nan, 1] used to pass supermartingale_check
        arrays = {"z0": np.ones(3), "z1": b1.price.copy()}
        arrays[field][1] = value
        with pytest.raises(ValidationError, match=rf"^price system {field}\[1\] is {value}, not finite$"):
            ConsistentPriceSystem(**arrays)


class TestShadowPrice:
    def test_hand_example(self, b1, cps_b1):
        assert shadow_price(b1, cps_b1, 0) == 94.0

    def test_vanishing_density_uses_market_price(self, b1):
        cps = ConsistentPriceSystem.from_maps(
            b1, {0: 1.0, 1: 2.0, 2: 0.0}, {0: 94.0, 1: 220.0, 2: 0.0}
        )
        assert shadow_price(b1, cps, 2) == 80.0

    def test_inside_spread_for_verified_systems(self):
        tree = generate_random_tree(23, depth=3, max_branching=3)
        lam = 0.15
        cps = random_cps(tree, lam, 9)
        for n in range(tree.node_count):
            s = shadow_price(tree, cps, n)
            assert (1 - lam) * tree.price[n] - 1e-9 <= s <= tree.price[n] + 1e-9


class TestExpectedClaim:
    def test_constant_claim(self, b1, cps_b1):
        claim = ClaimSpec({1: 7.0, 2: 7.0})
        assert abs(expected_claim(b1, cps_b1, claim) - 7.0) < 1e-12

    def test_call_claim(self, b1, cps_b1, c1):
        assert abs(expected_claim(b1, cps_b1, c1) - 10.0) < 1e-12

    def test_zero_claim(self, b1, cps_b1):
        assert expected_claim(b1, cps_b1, ClaimSpec({1: 0.0, 2: 0.0})) == 0.0

    def test_price_system_of_another_tree_rejected(self, b1, c1):
        # read through the leaf ids, this 15-node system used to price the call at 15.44
        other = generate_random_tree(1, depth=3, max_branching=2)
        with pytest.raises(ShapeMismatch, match="^price system indexes 15 nodes, tree has 3$"):
            expected_claim(b1, random_cps(other, 0.1, 1), c1)


class TestPolarPairing:
    def test_do_nothing(self, b1, cps_b1):
        assert polar_pairing(b1, 0.1, cps_b1, Strategy.zero(b1)) == 0.0

    def test_ask_strategy(self, b1, cps_b1):
        s = make_ask_strategy(b1, {0}, {0: 1.0})
        assert abs(polar_pairing(b1, 0.1, cps_b1, s) - (-6.0)) < 1e-12

    def test_bid_strategy(self, b1, cps_b1):
        s = make_bid_strategy(b1, 0.1, {0}, {0: 1.0})
        assert abs(polar_pairing(b1, 0.1, cps_b1, s) - (-4.0)) < 1e-12

    def test_price_system_of_another_tree_rejected(self, b1):
        # read through the leaf ids, this 15-node system used to pair to 0.0
        other = generate_random_tree(1, depth=3, max_branching=2)
        with pytest.raises(ShapeMismatch, match="^price system indexes 15 nodes, tree has 3$"):
            polar_pairing(b1, 0.1, random_cps(other, 0.1, 1), Strategy.zero(b1))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 100_000))
    def test_nonpositive_for_self_financing_strategies(self, seed):
        tree = generate_random_tree(seed % 50 + 1, depth=1 + seed % 4, max_branching=2 + seed % 2)
        lam = 0.05 + (seed % 7) * 0.05
        cps = random_cps(tree, lam, seed)
        strat = random_strategy(tree, seed + 1)
        assert polar_pairing(tree, lam, cps, strat) <= 1e-9


class TestSupermartingale:
    def test_do_nothing(self, b1, cps_b1):
        assert supermartingale_check(b1, 0.1, cps_b1, Strategy.zero(b1))

    def test_buy_and_hold(self, b1, cps_b1):
        s = make_ask_strategy(b1, {0}, {0: 1.0})
        assert supermartingale_check(b1, 0.1, cps_b1, s)

    def test_bond_injection_detected(self, b1, cps_b1):
        s = Strategy.from_trades(b1, {1: {"consume": -1.0}})
        check = supermartingale_check(b1, 0.1, cps_b1, s)
        assert not check
        assert check.witness[0] == 0

    def test_non_strict_system(self):
        # the optimal system of a suite instance has zero density at some
        # nodes; the division-free check works with it directly
        tree, claim, lam = suite_instance(55)
        rep = superhedge_price(tree, lam, claim)
        cps = rep.cps
        assert not cps.strict
        assert supermartingale_check(tree, lam, cps, rep.strategy)

        kids_of = children(tree)
        node = next(i for i in tree.internal if min(cps.z0[k] for k in kids_of[i]) == 0.0)
        kid = max(kids_of[node], key=lambda k: tree.cond_prob[k] * cps.z0[k])
        injected = Strategy.from_trades(tree, {kid: {"consume": -1.0}})
        check = supermartingale_check(tree, lam, cps, injected)
        assert not check
        assert check.witness[0] == node
        expected = tree.cond_prob[kid] * cps.z0[kid]
        assert abs(check.witness[1] - expected) <= 1e-12 * expected

    def test_tiny_density_node(self):
        # the optimal system of a suite instance touches the boundary; a 1e-6
        # share of a random strict one leaves densities far below 1e-6
        tree, claim, lam = suite_instance(55)
        rep = superhedge_price(tree, lam, claim)
        assert not rep.cps.strict
        cps = mix_cps(random_cps(tree, lam, 20_250_101), rep.cps, 1e-6)
        assert cps.strict
        assert verify_cps(tree, lam, cps)
        node = min(tree.internal, key=lambda i: cps.z0[i])
        assert cps.z0[node] < 1e-6
        assert supermartingale_check(tree, lam, cps, rep.strategy)

        kid = max(children(tree)[node], key=lambda k: tree.cond_prob[k] * cps.z0[k])
        injected = Strategy.from_trades(tree, {kid: {"consume": -1.0}})
        check = supermartingale_check(tree, lam, cps, injected)
        assert not check
        assert check.witness[0] == node
        expected = tree.cond_prob[kid] * cps.z0[kid]
        assert abs(check.witness[1] - expected) <= 1e-12 * expected

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 100_000))
    def test_holds_for_all_self_financing_strategies(self, seed):
        tree = generate_random_tree(seed % 40 + 1, depth=1 + seed % 3, max_branching=2)
        lam = 0.1
        cps = random_cps(tree, lam, seed)
        strat = random_strategy(tree, seed + 2)
        assert supermartingale_check(tree, lam, cps, strat)


class TestConcatenate:
    def test_stop_at_all_leaves_keeps_first_branch(self, b1, cps_b1):
        lam, lam_n, lam_p = 0.2, 0.05, 0.05
        local = random_cps(b1, lam_n, 1)
        glob = random_cps(b1, lam_p, 2)
        out = concatenate_cps(b1, lam, lam_n, lam_p, set(b1.leaves.tolist()), local, glob)
        assert np.allclose(out.z0, local.z0)
        assert np.allclose(out.z1, (1 - lam_p) * local.z1)

    def test_zero_bridge_rate_rejected(self, b1, cps_b1):
        with pytest.raises(BadFrictionGap):
            concatenate_cps(b1, 0.1, 0.1, 0.0, {0}, cps_b1, cps_b1)

    def test_rate_gap_enforced(self, b1, cps_b1):
        with pytest.raises(BadFrictionGap):
            concatenate_cps(b1, 0.2, 0.1, 0.05, {0}, cps_b1, cps_b1)  # needs < 0.05

    def test_unverified_local_rejected(self, b1):
        lam, lam_n, lam_p = 0.2, 0.05, 0.05
        bad_local = ConsistentPriceSystem.from_maps(b1, {0: 1.0}, {0: 200.0})
        glob = random_cps(b1, lam_p, 2)
        with pytest.raises(UnverifiedInput):
            concatenate_cps(b1, lam, lam_n, lam_p, {0}, bad_local, glob)

    def test_splice_at_root_hand_numbers(self, b1):
        lam, lam_n, lam_p = 0.2, 0.05, 0.05
        local = ConsistentPriceSystem.from_maps(b1, {0: 1.0}, {0: 95.0})
        glob = p_martingale_cps(b1)  # strict, valid at any rate
        out = concatenate_cps(b1, lam, lam_n, lam_p, {0}, local, glob)
        assert abs(out.z0[0] - 1.0) < 1e-12
        assert abs(out.z1[0] - 0.95 * 95.0) < 1e-12
        assert np.allclose(out.z0[[1, 2]], 1.0)
        assert abs(out.z1[1] - 0.95 * 120.0 * 95.0 / 100.0) < 1e-12
        assert abs(out.z1[2] - 0.95 * 80.0 * 95.0 / 100.0) < 1e-12
        assert verify_cps(b1, lam, out)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 100_000))
    def test_splice_verifies_at_target_rate(self, seed):
        rng = np.random.default_rng(seed)
        tree = generate_random_tree(seed % 60 + 1, depth=1 + seed % 4, max_branching=2 + seed % 2)
        lam = float(rng.uniform(0.1, 0.5))
        lam_n = float(lam * rng.uniform(0.2, 0.7))
        lam_p = float((lam - lam_n) / 2.0 * rng.uniform(0.1, 0.8))
        stop = set()
        for i in range(tree.node_count):
            anc = tree.ancestors(i)
            if not any(a in stop for a in anc) and rng.random() < 0.35:
                stop.add(i)
        local = random_cps(tree, lam_n, seed + 1, stop=stop)
        glob = random_cps(tree, lam_p, seed + 2)
        out = concatenate_cps(tree, lam, lam_n, lam_p, stop, local, glob)
        assert verify_cps(tree, lam, out)


class TestStoppedMartingale:
    def test_stock_account_of_hand_example(self, b1, cps_b1):
        assert stopped_martingale_check(b1, cps_b1.z1, set(b1.leaves.tolist()), 100.0)

    def test_constant_process(self, b1):
        x = np.full(3, 5.0)
        assert stopped_martingale_check(b1, x, {1, 2}, 5.0)
        assert stopped_martingale_check(b1, x, {0}, 5.0)

    def test_process_is_an_array(self, b1):
        assert stopped_martingale_check(b1, [5.0, 5.0, 5.0], None, 5.0)
        with pytest.raises(TypeError):
            stopped_martingale_check(b1, {0: 5.0, 1: 5.0, 2: 5.0}, {1, 2}, 5.0)

    def test_process_size_checked_by_the_tree(self, b1):
        # the count used to be checked here, with a message of its own
        with pytest.raises(ShapeMismatch, match="^process indexes 7 nodes, tree has 3$"):
            stopped_martingale_check(b1, np.ones(7), {1, 2}, 5.0)
        with pytest.raises(ShapeMismatch, match=r"^process must be a node-indexed vector, got shape \(3, 1\)$"):
            stopped_martingale_check(b1, np.ones((3, 1)), {1, 2}, 5.0)

    def test_non_finite_input_rejected(self, b1, cps_b1):
        # NaN passes every comparison: both calls used to return True
        with pytest.raises(ValidationError, match=r"^process x\[0\] is nan, not finite$"):
            stopped_martingale_check(b1, [np.nan, 1.0, 2.0], {1}, 5.0)
        for bound in (np.nan, np.inf):
            with pytest.raises(ValidationError, match=f"^bound must be finite, got {bound}$"):
                stopped_martingale_check(b1, cps_b1.z1, {1, 2}, bound)

    def test_drifted_prices_fail(self):
        doc = {
            "depth": 1,
            "nodes": [
                {"id": 0, "parent": None, "time": 0, "prob": 1.0, "price": 100.0},
                {"id": 1, "parent": 0, "time": 1, "prob": 0.5, "price": 130.0},
                {"id": 2, "parent": 0, "time": 1, "prob": 0.5, "price": 110.0},
            ],
        }
        tree = load_tree(json.dumps(doc))
        assert not stopped_martingale_check(tree, tree.price, {1, 2}, 200.0)

    def test_bound_precondition(self, b1, cps_b1):
        with pytest.raises(PreconditionViolated):
            stopped_martingale_check(b1, cps_b1.z1, {1, 2}, 50.0)  # 94 > 50 at the root

    def test_freezing_after_stop(self, b1, cps_b1):
        # stop at the root: values after it are frozen, identity holds trivially
        assert stopped_martingale_check(b1, cps_b1.z1, {0}, 100.0)
        # a drifting process passes once frozen at the root, on every level below
        assert not stopped_martingale_check(b1, np.array([5.0, 10.0, 2.0]), {1, 2}, 5.0)
        assert stopped_martingale_check(b1, np.array([5.0, 10.0, 2.0]), {0}, 5.0)
        tree = generate_random_tree(3, depth=3, max_branching=3)
        assert stopped_martingale_check(tree, tree.price, {0}, 0.0)


class TestMix:
    def test_mix_with_itself(self, b1, cps_b1):
        out = mix_cps(cps_b1, cps_b1, 0.3)
        assert np.allclose(out.z0, cps_b1.z0)
        assert np.allclose(out.z1, cps_b1.z1)

    def test_strictness_restored(self, b1, cps_b1):
        boundary = ConsistentPriceSystem.from_maps(
            b1, {0: 1.0, 1: 2.0, 2: 0.0}, {0: 220.0 / 2, 1: 220.0, 2: 0.0}
        )
        # not a valid spread system, only used for the mixing algebra
        out = mix_cps(cps_b1, boundary, 0.5)
        assert out.strict

    def test_hand_average(self, b1, cps_b1):
        other = ConsistentPriceSystem.from_maps(
            b1, {0: 1.0, 1: 1.0, 2: 1.0}, {0: 96.0, 1: 112.0, 2: 80.0}
        )
        assert verify_cps(b1, 0.1, other)
        out = mix_cps(cps_b1, other, 0.5)
        assert np.allclose(out.z1, [95.0, 111.0, 79.0])
        assert verify_cps(b1, 0.1, out)

    def test_mismatched_trees(self, b1, cps_b1):
        other = generate_random_tree(1, depth=2, max_branching=2)
        with pytest.raises(MismatchedTrees):
            mix_cps(cps_b1, random_cps(other, 0.1, 1), 0.5)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 100_000), mu=st.floats(0.05, 0.95))
    def test_mix_preserves_verification(self, seed, mu):
        tree = generate_random_tree(seed % 30 + 1, depth=2, max_branching=3)
        lam = 0.2
        a = random_cps(tree, lam, seed)
        b = random_cps(tree, lam, seed + 1)
        assert verify_cps(tree, lam, mix_cps(a, b, mu))


def _boundary_b1(b1):
    """A price system on ``b1`` whose support leaves out node 2."""
    return ConsistentPriceSystem.from_maps(b1, {0: 1.0, 1: 1.0}, {0: 94.0, 1: 110.0})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda b1, cps: AdmissibilityCap("numeraire", 1.0),
            ValidationError,
            "unknown admissibility kind 'numeraire'",
        ),
        (
            lambda b1, cps: AdmissibilityCap("numeraire_based", -1.0),
            ValidationError,
            "admissibility bound must be >= 0, got -1.0",
        ),
        (lambda b1, cps: ClaimSpec({1: 0.0, 2: 0.0}, "floor"), ValidationError, "unknown bound kind 'floor'"),
        (
            lambda b1, cps: Strategy((0.0, 0.0), [0.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0]),
            ShapeMismatch,
            "buy/sell/consume must be equal-length vectors",
        ),
        (
            lambda b1, cps: make_ask_strategy(b1, [1, 2], {1: 1.0, 2: -0.5}),
            ValidationError,
            "ask strategy needs nonnegative share counts, got -0.5 at node 2",
        ),
        (lambda b1, cps: mix_cps(cps, cps, 1.5), ValidationError, "mixing weight must be in [0, 1], got 1.5"),
        (
            lambda b1, cps: mix_cps(cps, cps, -0.25),
            ValidationError,
            "mixing weight must be in [0, 1], got -0.25",
        ),
        (
            lambda b1, cps: mix_cps(cps, _boundary_b1(b1), 0.5),
            MismatchedTrees,
            "price systems live on different supports",
        ),
        (
            lambda b1, cps: ConsistentPriceSystem.from_maps(b1, {0: 1.0, 1: 1.0}, {0: 94.0}),
            ShapeMismatch,
            "node 1 present in only one of z0/z1",
        ),
    ],
    ids=[
        "cap-kind", "cap-negative", "claim-bound-kind", "strategy-lengths", "ask-negative",
        "mix-weight-above", "mix-weight-below", "mix-supports", "from-maps-one-map",
    ],
)
def test_outside_input_is_rejected_with_its_message(b1, cps_b1, build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build(b1, cps_b1)
    assert info.type is error


class TestRandomCps:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 100_000))
    def test_always_strict_and_verified(self, seed):
        tree = generate_random_tree(seed % 80 + 1, depth=1 + seed % 5, max_branching=2 + seed % 2)
        lam = (seed % 9) * 0.05  # includes the frictionless case
        cps = random_cps(tree, lam, seed)
        assert cps.strict
        assert verify_cps(tree, lam, cps)

    def test_deterministic(self, b1):
        a = random_cps(b1, 0.1, 42)
        b = random_cps(b1, 0.1, 42)
        assert a.z0.tobytes() == b.z0.tobytes()
        assert a.z1.tobytes() == b.z1.tobytes()
