import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadhedge import (
    Antichain,
    ClaimSpec,
    NotAnAntichain,
    ParseError,
    PriceModel,
    UnknownNode,
    ValidationError,
    dumps_tree,
    generate_random_tree,
    is_antichain,
    load_tree,
    path_probability,
)
from tests.conftest import B1_JSON


class TestLoadTree:
    def test_binomial_loads(self, b1):
        assert b1.node_count == 3
        assert b1.depth == 1
        assert b1.children[0] == (1, 2)
        assert list(b1.leaves) == [1, 2]

    def test_bad_probability_sum_names_node(self):
        doc = json.loads(B1_JSON)
        doc["nodes"][2]["prob"] = 0.6
        with pytest.raises(ValidationError, match="node 0"):
            load_tree(json.dumps(doc))

    def test_nonpositive_price_names_node(self):
        doc = json.loads(B1_JSON)
        doc["nodes"][1]["price"] = -3.0
        with pytest.raises(ValidationError, match="node 1"):
            load_tree(json.dumps(doc))

    def test_nonuniform_depth_rejected(self):
        doc = {
            "depth": 2,
            "nodes": [
                {"id": 0, "parent": None, "time": 0, "prob": 1.0, "price": 100.0},
                {"id": 1, "parent": 0, "time": 1, "prob": 1.0, "price": 110.0},
            ],
        }
        with pytest.raises(ValidationError, match="leaf node 1"):
            load_tree(json.dumps(doc))

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError):
            load_tree("{not json")
        with pytest.raises(ParseError):
            load_tree(json.dumps({"depth": 1}))

    def test_bytes_and_file_sources(self, tmp_path):
        t = load_tree(B1_JSON.encode())
        assert t.node_count == 3
        p = tmp_path / "b1.json"
        p.write_text(B1_JSON)
        with open(p, "rb") as fh:
            assert load_tree(fh).node_count == 3

    def test_three_period_binary_tree_has_15_nodes(self):
        # recombining-style prices (u*d = 1) on a non-recombining node set
        nodes = [{"id": 0, "parent": None, "time": 0, "prob": 1.0, "price": 100.0}]
        frontier = [(0, 100.0)]
        nid = 1
        for t in range(1, 4):
            nxt = []
            for parent, price in frontier:
                for f in (1.1, 1 / 1.1):
                    nodes.append(
                        {"id": nid, "parent": parent, "time": t, "prob": 0.5, "price": price * f}
                    )
                    nxt.append((nid, price * f))
                    nid += 1
            frontier = nxt
        tree = load_tree(json.dumps({"depth": 3, "nodes": nodes}))
        assert tree.node_count == 15
        assert tree.depth == 3

    def test_reserialize_is_idempotent(self, b1):
        once = dumps_tree(load_tree(B1_JSON))
        twice = dumps_tree(load_tree(once))
        assert once == twice


class TestPathProbability:
    def test_root_is_one(self, b1):
        assert path_probability(b1, 0) == 1.0

    def test_leaf(self, b1):
        assert path_probability(b1, 1) == 0.5

    def test_uniform_ternary_leaf(self):
        nodes = [{"id": 0, "parent": None, "time": 0, "prob": 1.0, "price": 100.0}]
        frontier = [0]
        nid = 1
        for t in range(1, 4):
            nxt = []
            for parent in frontier:
                for _ in range(3):
                    nodes.append(
                        {"id": nid, "parent": parent, "time": t, "prob": 1 / 3, "price": 100.0}
                    )
                    nxt.append(nid)
                    nid += 1
            frontier = nxt
        tree = load_tree(json.dumps({"depth": 3, "nodes": nodes}))
        leaf = int(tree.leaves[0])
        assert abs(path_probability(tree, leaf) - (1 / 3) ** 3) < 1e-15

    def test_unknown_node(self, b1):
        with pytest.raises(UnknownNode):
            path_probability(b1, 7)


def _traversal_cases():
    """Seeded binary and ternary trees of depth 1-6, with 1-D and 2-D values
    spread over six decades so that summation order shows in the last bits."""
    for seed in range(50):
        tree = generate_random_tree(seed, depth=1 + seed % 6, max_branching=2 + seed % 2)
        rng = np.random.default_rng(seed)
        for shape in ((tree.node_count,), (tree.node_count, 3)):
            yield tree, rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


class TestTraversals:
    """The level-at-a-time walks against the node loops they replace."""

    def test_levels_split_order_by_time(self):
        for tree, _ in _traversal_cases():
            assert len(tree.levels) == tree.depth + 1
            assert np.array_equal(np.concatenate(tree.levels), tree.order)
            for t, lvl in enumerate(tree.levels):
                assert (tree.time[lvl] == t).all()

    def test_path_sum_matches_root_down_loop(self):
        for tree, v in _traversal_cases():
            ref = v.copy()
            for i in tree.order:
                p = tree.parent[i]
                if p >= 0:
                    ref[i] = ref[p] + ref[i]
            assert np.array_equal(tree.path_sum(v), ref)

    def test_subtree_sum_matches_reversed_order_loop(self):
        for tree, v in _traversal_cases():
            ref = v.copy()
            for i in reversed(tree.order):
                p = tree.parent[i]
                if p >= 0:
                    ref[p] += ref[i]
            assert np.array_equal(tree.subtree_sum(v), ref)

    def test_children_mean_matches_dot_product(self):
        eps = np.finfo(float).eps
        for tree, v in _traversal_cases():
            got = tree.children_mean(v)
            assert got.shape == v.shape
            assert (got[tree.leaves] == 0.0).all()
            for i in tree.internal:
                kids = list(tree.children[i])
                p = tree.cond_prob[kids]
                ref = p @ v[kids]
                bound = 4 * eps * (p @ np.abs(v[kids]))
                assert (np.abs(got[i] - ref) <= bound).all()

    def test_path_prob_matches_root_down_loop(self):
        for tree, _ in _traversal_cases():
            ref = np.empty(tree.node_count)
            for i in tree.order:
                p = tree.parent[i]
                ref[i] = 1.0 if p < 0 else ref[p] * tree.cond_prob[i]
            assert np.array_equal(tree.path_prob, ref)


class TestAntichain:
    def test_siblings(self, b1):
        assert is_antichain(b1, {1, 2})

    def test_ancestor_pair(self, b1):
        assert not is_antichain(b1, {0, 1})

    def test_all_leaves_of_deeper_tree(self):
        tree = generate_random_tree(3, depth=2, max_branching=2)
        assert is_antichain(tree, set(tree.leaves.tolist()))

    def test_factory_rejects_chain(self, b1):
        with pytest.raises(NotAnAntichain):
            Antichain.of(b1, {0, 2})

    def test_unknown_node(self, b1):
        with pytest.raises(UnknownNode):
            is_antichain(b1, {0, 99})


class TestGenerateRandomTree:
    def test_minimal_tree_is_valid(self):
        tree = generate_random_tree(1, depth=1, max_branching=2)
        assert tree.node_count == 3
        assert tree.depth == 1

    def test_deterministic_in_seed(self):
        a = generate_random_tree(17, depth=3, max_branching=3)
        b = generate_random_tree(17, depth=3, max_branching=3)
        assert dumps_tree(a) == dumps_tree(b)

    def test_node_count_bound(self):
        tree = generate_random_tree(2, depth=5, max_branching=3)
        assert tree.depth == 5
        assert tree.node_count <= (3 ** 6 - 1) // 2

    def test_parameters_clamped(self):
        tree = generate_random_tree(5, depth=0, max_branching=1)
        assert tree.depth == 1
        assert tree.node_count >= 3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 10_000))
    def test_leaf_probabilities_sum_to_one(self, seed):
        tree = generate_random_tree(seed, depth=1 + seed % 4, max_branching=2 + seed % 2)
        total = tree.path_prob[tree.leaves].sum()
        assert abs(total - 1.0) < 1e-10

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 10_000))
    def test_recursion_identity_exact(self, seed):
        tree = generate_random_tree(seed, depth=3, max_branching=3)
        for n in range(1, tree.node_count):
            p = tree.parent[n]
            assert tree.path_prob[n] == tree.path_prob[p] * tree.cond_prob[n]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 10_000))
    def test_price_steps_bounded(self, seed):
        tree = generate_random_tree(seed, depth=4, max_branching=3)
        for n in range(1, tree.node_count):
            step = tree.price[n] / tree.price[tree.parent[n]]
            assert 0.5 - 1e-12 <= step <= 2.0 + 1e-12

    def test_straddle_brackets_parent_price(self):
        tree = generate_random_tree(42, depth=4, max_branching=3)
        for n in tree.internal:
            kid_prices = tree.price[list(tree.children[n])]
            assert kid_prices.min() < tree.price[n] < kid_prices.max()

    def test_drift_model_allows_one_sided_moves(self):
        pm = PriceModel(min_step=1.1, max_step=1.6, straddle=False)
        tree = generate_random_tree(9, depth=2, max_branching=2, price_model=pm)
        for n in range(1, tree.node_count):
            assert tree.price[n] > tree.price[tree.parent[n]]


class TestClaimSpec:
    def test_payoff_vector_and_bounds(self, b1, c1):
        assert list(c1.payoff_vector(b1)) == [20.0, 0.0]
        assert c1.lower_bound(b1) == 0.0

    def test_constant_bound_of_negative_claim(self, b1):
        claim = ClaimSpec({1: -30.0, 2: 5.0})
        assert claim.lower_bound(b1) == 30.0

    def test_stock_bond_bound(self, b1):
        claim = ClaimSpec({1: -121.0, 2: 0.0}, "stock_bond")
        assert abs(claim.lower_bound(b1) - 1.0) < 1e-15

    def test_missing_leaf_rejected(self, b1):
        with pytest.raises(ValidationError):
            ClaimSpec({1: 20.0}).validate(b1)

    def test_round_trip(self, c1):
        assert ClaimSpec.from_json(c1.to_json()) == c1
