import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadhedge import (
    ClaimSpec,
    NotAnAntichain,
    ParseError,
    PriceModel,
    ScenarioTree,
    UnknownNode,
    ValidationError,
    dumps_tree,
    generate_random_tree,
    is_antichain,
    load_tree,
    random_cps,
)
from spreadhedge.scenario_tree import _stop_above
from tests.conftest import B1_JSON, children


class TestLoadTree:
    def test_binomial_loads(self, b1):
        assert b1.node_count == 3
        assert b1.depth == 1
        assert children(b1)[0] == (1, 2)
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


def _edited_b1(edit):
    doc = json.loads(B1_JSON)
    edit(doc, doc["nodes"])
    return json.dumps(doc)


def _set(node, **fields):
    return lambda doc, nodes: nodes[node].update(fields)


def _two_level_doc():
    """Root, two children, and two grandchildren under each child."""
    nodes = [{"id": 0, "parent": None, "time": 0, "prob": 1.0, "price": 100.0}]
    for i, parent in enumerate((0, 0, 1, 1, 2, 2)):
        nodes.append({"id": i + 1, "parent": parent, "time": 1 + (i > 1), "prob": 0.5, "price": 90.0 + i})
    return {"depth": 2, "nodes": nodes}


class TestValidationRules:
    """Each structural rule, with the message it reports."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc, nodes: nodes.clear(), "tree has no nodes"),
            (lambda doc, nodes: doc.update(depth=0), "depth must be >= 1, got 0"),
            (_set(2, id=3), r"node ids are not dense 0\.\.node_count-1"),
            (_set(2, parent=None), r"expected exactly one root, found nodes \[0, 2\]"),
            (
                lambda doc, nodes: (nodes[0].update(parent=1), nodes[1].update(parent=None)),
                "root must have id 0, found id 1",
            ),
            (_set(0, time=1), "root node 0 must sit at time 0"),
            (_set(0, prob=0.5), "root node 0 must have conditional probability 1"),
            (_set(2, parent=7), "node 2 has unknown parent 7"),
            (_set(2, time=2), "node 2 at time 2 has parent 0 at time 0"),
            (_set(1, prob=0.0), "node 1 has conditional probability 0.0"),
            (_set(2, prob=1.5), "node 2 has conditional probability 1.5"),
            (_set(1, price=-3.0), "node 1 has nonpositive price -3.0"),
            (_set(2, prob=0.6), r"children of node 0 have probabilities summing to np.float64\(1.1\)"),
            (lambda doc, nodes: doc.update(depth=2), "leaf node 1 sits at time 1, expected depth 2"),
        ],
    )
    def test_rule_and_message(self, edit, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            load_tree(_edited_b1(edit))

    def test_parent_rules_report_lowest_failing_node_first_rule(self):
        doc = _two_level_doc()
        doc["nodes"][5]["parent"] = 9  # unknown parent
        doc["nodes"][4]["time"] = 1  # wrong time step, and a bad probability
        doc["nodes"][4]["prob"] = 2.0
        with pytest.raises(ValidationError, match="^node 4 at time 1 has parent 1 at time 1$"):
            load_tree(json.dumps(doc))

    def test_node_rules_report_lowest_failing_node_first_rule(self):
        doc = _two_level_doc()
        doc["nodes"][6]["price"] = 0.0
        doc["nodes"][2]["price"] = float("inf")  # bad price, and its children sum to 1.5
        doc["nodes"][5]["prob"] = 1.0
        with pytest.raises(ValidationError, match="^node 2 has nonpositive price inf$"):
            load_tree(json.dumps(doc))

    @pytest.mark.parametrize("field", ["parent", "time"])
    def test_oversize_integer_is_parse_error(self, field):
        text = _edited_b1(_set(2, **{field: 10**23}))
        with pytest.raises(ParseError, match=r"^nodes\[2\] is malformed"):
            load_tree(text)

    @pytest.mark.parametrize(
        "edit, where",
        [
            (_set(1, id=1.9), r"nodes\[1\] is malformed"),
            (_set(1, time=1.7), r"nodes\[1\] is malformed"),
            (_set(1, time="1"), r"nodes\[1\] is malformed"),
            (_set(1, time=1.0), r"nodes\[1\] is malformed"),
            (_set(2, parent=False), r"nodes\[2\] is malformed"),
            (_set(2, parent=0.0), r"nodes\[2\] is malformed"),
            (lambda doc, nodes: doc.update(depth=1.5), 'bad "depth"'),
            (lambda doc, nodes: doc.update(depth=True), 'bad "depth"'),
        ],
        ids=["id-1.9", "time-1.7", "time-str", "time-1.0", "parent-false", "parent-0.0",
             "depth-1.5", "depth-true"],
    )
    def test_non_integer_field_is_parse_error(self, edit, where):
        # each of these used to load, silently truncated or converted
        with pytest.raises(ParseError, match=f"^{where}: expected an integer"):
            load_tree(_edited_b1(edit))

    def test_infinite_integer_field_is_parse_error(self):
        with pytest.raises(ParseError, match=r"^nodes\[1\] is malformed"):
            load_tree(_edited_b1(_set(1, id=float("inf"))))
        with pytest.raises(ParseError, match="^bad \"depth\""):
            load_tree(_edited_b1(lambda doc, nodes: doc.update(depth=float("inf"))))

    def test_first_malformed_node_is_named(self):
        # a bad price at node 1 and a bad id at node 2: node 1 comes first
        # in list order, whichever field is at fault
        text = _edited_b1(lambda doc, nodes: (nodes[1].update(price="120"), nodes[2].update(id=2.5)))
        with pytest.raises(ParseError, match=r"^nodes\[1\] is malformed: price must be a JSON number"):
            load_tree(text)

    def test_bad_depth_is_named_before_a_bad_node(self):
        text = _edited_b1(lambda doc, nodes: (doc.update(depth="1"), nodes[0].update(id=None)))
        with pytest.raises(ParseError, match='^bad "depth": expected an integer'):
            load_tree(text)

    @pytest.mark.parametrize(
        "field, value", [("price", "100"), ("prob", True), ("price", 10**400)]
    )
    def test_non_number_field_is_parse_error(self, field, value):
        # a string or boolean used to load as its float() value; an int beyond
        # the float range never loaded, and must not escape the bulk conversion
        with pytest.raises(ParseError, match=r"^nodes\[2\] is malformed"):
            load_tree(_edited_b1(_set(2, **{field: value})))


class TestArrays:
    def test_constructor_copies_and_freezes_its_arrays(self):
        parent, time = [-1, 0, 0], [0, 1, 1]
        cond_prob, price = np.array([1.0, 0.5, 0.5]), np.array([100.0, 120.0, 80.0])
        tree = ScenarioTree(parent, time, cond_prob, price, 1)
        price[1] = -1.0
        assert tree.price.tolist() == [100.0, 120.0, 80.0]
        assert children(tree) == ((1, 2), (), ())
        assert all(type(k) is int for k in children(tree)[0])
        for arr in (tree.parent, tree.time, tree.cond_prob, tree.price, tree.leaves):
            assert not arr.flags.writeable
        assert dumps_tree(tree) == dumps_tree(load_tree(B1_JSON))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError, match="one length"):
            ScenarioTree([-1, 0], [0, 1, 1], [1.0, 0.5, 0.5], [100.0, 1.0, 1.0], 1)

    def test_node_order_in_the_document_is_free(self):
        tree = generate_random_tree(4, depth=3, max_branching=3)
        doc = json.loads(dumps_tree(tree))
        doc["nodes"].reverse()
        assert dumps_tree(load_tree(json.dumps(doc))) == dumps_tree(tree)

    def test_root_parent_written_as_null(self):
        text = _edited_b1(_set(0, parent=-1))
        assert json.loads(dumps_tree(load_tree(text)))["nodes"][0]["parent"] is None

    @pytest.mark.parametrize(
        "args, digest",
        [
            # generated documents feed the benchmark's reference prices: their bytes are pinned
            ((0, 3, 2, None), "12ead49e27e41779375181ab9ce8c56ade834a6382773458c534401a78b8cf39"),
            ((7, 5, 3, None), "88318381b10c33e029b5a848397c7ccabebf196e3ee08a1ccc294e8ca65fa986"),
            (
                (42, 4, 4, PriceModel(straddle=False, min_step=0.8, max_step=1.3)),
                "f2af0ed565f807173f82595d22f3c482c8db8aa23a9f8edfb415a8e33727848b",
            ),
        ],
    )
    def test_generated_tree_bytes_pinned(self, args, digest):
        text = dumps_tree(generate_random_tree(*args))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert dumps_tree(load_tree(text)) == text


class TestPathProbability:
    def test_root_is_one(self, b1):
        assert b1.path_prob[0] == 1.0

    def test_leaf(self, b1):
        assert b1.path_prob[1] == 0.5

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
        assert abs(tree.path_prob[leaf] - (1 / 3) ** 3) < 1e-15

    def test_unknown_node(self, b1):
        with pytest.raises(UnknownNode):
            b1.path_prob[b1.check_node(7)]

    def test_node_id_must_be_an_integer(self, b1):
        # 1.7 used to be truncated to node 1
        with pytest.raises(UnknownNode, match="^node 1.7 is not an integer id$"):
            b1.check_node(1.7)
        assert b1.check_node(np.int64(2)) == 2 and type(b1.check_node(np.int32(1))) is int


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
            kids_of = children(tree)
            for i in tree.internal:
                kids = list(kids_of[i])
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
        with pytest.raises(NotAnAntichain, match=r"^set \[0, 2\] contains an ancestor pair$"):
            random_cps(b1, 0.1, 0, stop={0, 2})

    def test_unknown_node(self, b1):
        with pytest.raises(UnknownNode):
            is_antichain(b1, {0, 99})


def reference_is_antichain(tree, nodes):
    """``is_antichain`` as it was written before stop sets were resolved by
    one path sum: a walk over every stop node's ancestors."""
    ids = {tree.check_node(i) for i in nodes}
    for i in ids:
        for a in tree.ancestors(i):
            if a in ids:
                return False
    return True


def reference_stop_above(tree, stop):
    """``_stop_above`` as it was written before, over the validated set that
    the ``Antichain`` type held."""
    mark = np.zeros(tree.node_count)
    if stop is not None:
        ids = frozenset(int(i) for i in stop)
        if not reference_is_antichain(tree, ids):
            raise NotAnAntichain(f"set {sorted(ids)} contains an ancestor pair")
        ids = np.fromiter(ids, dtype=np.int64)
        mark[ids] = ids + 1.0
    return tree.path_sum(mark).astype(np.int64) - 1


def _resolved(fn, tree, stop):
    """What ``fn`` returns, or the type and text of what it raised."""
    try:
        return fn(tree, stop)
    except (NotAnAntichain, UnknownNode) as exc:
        return type(exc), str(exc)


def _stop_sets(tree, rng):
    """Stop sets of every kind the resolver meets, as lists (so duplicates
    survive) and in one case as an array."""
    n = tree.node_count
    anti = []
    for i in rng.permutation(n).tolist():
        related = any(a in anti for a in tree.ancestors(i)) or any(i in tree.ancestors(j) for j in anti)
        if not related and rng.random() < 0.4:
            anti.append(i)
    leaves = tree.leaves.tolist()
    deep = int(rng.choice(leaves))
    yield "antichain", anti
    yield "array", np.array(anti, dtype=np.int64)
    yield "ancestor pair", anti + [tree.ancestors(deep)[0], deep]
    yield "chain", [deep] + tree.ancestors(deep)
    yield "random subset", rng.choice(n, size=min(n, 5), replace=False).tolist()
    yield "duplicates", anti + anti[:2]
    yield "duplicate pair", [deep, deep, tree.parent[deep], tree.parent[deep]]
    yield "root", [0]
    yield "root twice", [0, 0]
    yield "empty", []
    yield "all leaves", leaves
    yield "unknown", anti + [n]
    yield "negative", [-1]
    yield "unknown and pair", [0, deep, n + 3]


@pytest.mark.parametrize("seed", range(12))
def test_stop_resolution_matches_ancestor_walk(seed):
    rng = np.random.default_rng(seed)
    tree = generate_random_tree(seed, depth=1 + seed % 5, max_branching=2 + seed % 3)
    kinds = set()
    for kind, stop in _stop_sets(tree, rng):
        got = _resolved(_stop_above, tree, stop)
        want = _resolved(reference_stop_above, tree, stop)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), kind
            kinds.add(np.ndarray)
        else:
            assert got == want, kind
            kinds.add(want[0])
        got = _resolved(is_antichain, tree, stop)
        want = _resolved(reference_is_antichain, tree, stop)
        assert got == want, kind
    assert kinds == {np.ndarray, NotAnAntichain, UnknownNode}
    assert np.array_equal(_stop_above(tree, None), np.full(tree.node_count, -1))
    assert np.array_equal(_stop_above(tree, None), reference_stop_above(tree, None))


def test_stop_resolution_messages(b1):
    with pytest.raises(NotAnAntichain) as exc:
        _stop_above(b1, [2, 0, 2])
    assert str(exc.value) == "set [0, 2] contains an ancestor pair"
    with pytest.raises(UnknownNode) as exc:
        _stop_above(b1, [1, 99])
    assert str(exc.value) == "node 99 not in tree with 3 nodes"
    assert _stop_above(b1, [0]).tolist() == [0, 0, 0]
    assert _stop_above(b1, [2, 1, 1]).tolist() == [-1, 1, 2]


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
        kids_of = children(tree)
        for n in tree.internal:
            kid_prices = tree.price[list(kids_of[n])]
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
        with pytest.raises(ValidationError, match=r"^claim must cover exactly the leaves; missing \[2\], extra \[\]$"):
            ClaimSpec({1: 20.0}).payoff_vector(b1)

    def test_id_beyond_int64_is_an_extra_leaf(self, b1):
        claim = ClaimSpec({1: 20.0, 2: 0.0, 10**20: 1.0})
        with pytest.raises(ValidationError, match=r"missing \[\], extra \[100000000000000000000\]$"):
            claim.payoff_vector(b1)

    @pytest.mark.parametrize("key", [1.7, 1.0, "1"])
    def test_leaf_id_must_be_an_integer(self, key):
        # 1.7 used to be truncated to leaf 1
        with pytest.raises(ValidationError, match=f"^claim leaf id {key!r} is not an integer$"):
            ClaimSpec({key: 20.0, 2: 0.0})

    def test_numpy_integer_leaf_ids_are_ints(self, b1):
        claim = ClaimSpec({np.int64(1): 20.0, np.int32(2): 0.0})
        assert all(type(k) is int for k in claim.payoffs)
        assert claim.payoff_vector(b1).tolist() == [20.0, 0.0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payoff_rejected_when_built(self, value):
        # used to pass until the claim met a tree
        with pytest.raises(ValidationError, match="^claim payoff at leaf 2 is not finite$"):
            ClaimSpec({1: 20.0, 2: value})
        with pytest.raises(ValidationError, match="^claim payoff at leaf 2 is not finite$"):
            ClaimSpec.from_json({"payoffs": {"2": value, "1": 20.0}})

    def test_payoffs_are_a_read_only_vector_in_leaf_order(self, b1):
        x = ClaimSpec({2: 0.0, 1: 20.0}).payoff_vector(b1)
        assert x.tolist() == [20.0, 0.0] and not x.flags.writeable

    def test_round_trip(self, c1):
        assert ClaimSpec.from_json(c1.to_json()) == c1

    @pytest.mark.parametrize("payoffs", [{"1": "20", "2": 0}, {"1": 20, "2": False}])
    def test_non_number_payoff_is_parse_error(self, payoffs):
        with pytest.raises(ParseError, match="must be a JSON number"):
            ClaimSpec.from_json({"payoffs": payoffs})

    @pytest.mark.parametrize(
        "payoffs, key, written",
        [
            ({"1": 20, "2": 0, "02": 50}, "02", "2"),  # used to price as if leaf 2 paid 50
            ({"1_0": 20}, "1_0", "10"),  # used to read as leaf 10
            ({"-0": 1}, "-0", "0"),
        ],
    )
    def test_node_key_written_otherwise_is_parse_error(self, payoffs, key, written):
        with pytest.raises(ParseError, match=f"^bad claim document: payoffs key '{key}' must be written '{written}'$"):
            ClaimSpec.from_json({"payoffs": payoffs})

    def test_list_for_an_object_is_parse_error(self):
        # a list used to escape as an AttributeError
        with pytest.raises(ParseError, match=r"^bad claim document: payoffs must be a JSON object, got \[1, 2\]$"):
            ClaimSpec.from_json({"payoffs": [1, 2]})
