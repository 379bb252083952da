import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadhedge import (
    AdmissibilityCap,
    CertificateFailure,
    ClaimSpec,
    ConsistentPriceSystem,
    DualInfeasible,
    LinearProgram,
    LpSolution,
    PreconditionViolated,
    PriceModel,
    ShapeMismatch,
    ValidationError,
    build_dual,
    build_primal,
    check_admissibility,
    dual_cps_from_primal,
    expected_claim,
    extract_strategy,
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
from spreadhedge.cps import supermartingale_check
from spreadhedge.strategy import Strategy, minimal_admissibility_bound, portfolio_path
from spreadhedge.superhedge import DUST, _certify, has_cps
from tests.conftest import B1_JSON
from tests.oracles import brute_force_vertices
from tests.test_acceptance import suite_instance

UNBOUNDED = AdmissibilityCap.unbounded()
FIVE_CAPS = [
    UNBOUNDED,
    AdmissibilityCap.numeraire_based(0.0),
    AdmissibilityCap.numeraire_based(10.0),
    AdmissibilityCap.numeraire_free(0.1),
    AdmissibilityCap.numeraire_free(1.0),
]


def assert_pass_agrees(tree, lam, strategy, cps, cap, certificates, bound):
    """Each verdict of the single certification pass is the verdict of the
    public check, which derives the hedge's holdings on its own."""
    where = (tree, lam, cap)
    assert certificates["cps"] == bool(verify_cps(tree, lam, cps)), where
    assert certificates["self_financing"] == bool(is_self_financing(tree, lam, strategy)), where
    assert certificates["admissibility"] == bool(check_admissibility(tree, lam, strategy, cap)), where
    assert certificates["supermartingale"] == bool(
        supermartingale_check(tree, lam, cps, strategy)
    ), where
    assert bound == minimal_admissibility_bound(tree, lam, strategy, cap.kind), where
    # the hedge is admissible at its own minimal bound, so pricing does not re-check it
    assert check_admissibility(tree, lam, strategy, AdmissibilityCap(cap.kind, bound)), where


def assert_normal_form(tree, strategy, where):
    """No written trade both buys and sells, and none is smaller than
    ``DUST`` of the hedge's largest net trade (scale floored at 1; at a
    leaf, smaller than 1e-9 too): the LP's roundoff and round trips are
    gone."""
    net = (strategy.buy - strategy.sell)[tree.internal]
    dust = DUST * max(1.0, np.abs(net).max(initial=0.0))
    floor = np.full(tree.node_count, dust)
    floor[tree.leaves] = min(dust, 1e-9)
    for node, t in strategy.to_json()["trades"].items():
        assert t["buy"] == 0.0 or t["sell"] == 0.0, (where, node)
        assert max(t["buy"], t["sell"]) >= floor[int(node)], (where, node)


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
        lp = build_primal(b1, 0.1, c1, UNBOUNDED)
        sol = solve(lp)
        assert abs(sol.objective - 140.0 / 9.0) < 1e-9
        # the reduced two-variable program has the same value at its vertex
        from tests.test_lp import two_var_hedge_lp

        reduced = brute_force_vertices(two_var_hedge_lp())
        assert abs(sol.objective - reduced[0][1]) < 1e-9

    def test_zero_claim_prices_to_zero(self, b1):
        lp = build_primal(b1, 0.1, ClaimSpec({1: 0.0, 2: 0.0}), UNBOUNDED)
        sol = solve(lp)
        assert abs(sol.objective) < 1e-9

    def test_constant_claim_needs_no_trading(self, b1):
        rep = superhedge_price(b1, 0.1, ClaimSpec({1: 7.0, 2: 7.0}))
        assert abs(rep.primal_value - 7.0) < 1e-9
        assert np.abs(rep.strategy.buy).max() < 1e-9
        assert np.abs(rep.strategy.sell).max() < 1e-9


    def test_matches_leaf_ancestry_assembly_byte_for_byte(self):
        caps = [UNBOUNDED, AdmissibilityCap.numeraire_based(100.0), AdmissibilityCap.numeraire_free(1.0)]
        for seed in range(1, 41):
            tree, claim, lam = suite_instance(seed)
            for cap in caps:
                lp = build_primal(tree, lam, claim, cap)
                ref = _marked_primal_arrays(tree, lam, claim, cap)
                assert lp.A_eq.shape == (0, 2 * tree.internal.size + 1), (seed, cap)
                for name, a, b in zip(("A_ub", "b_ub"), (lp.A_ub, lp.b_ub), ref):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (seed, cap, name)

    def test_marked_floor_rows_match_long_short_split(self):
        # the marked terminal and floor rows price like the flat-stock
        # equalities and the long/short split of the stock position they replace
        caps = [
            UNBOUNDED,
            AdmissibilityCap.numeraire_based(100.0),
            AdmissibilityCap.numeraire_free(1.0),
            AdmissibilityCap.numeraire_based(0.0),
        ]
        for seed in range(1, 41):
            tree, claim, lam = suite_instance(seed)
            n_internal, n_leaves = tree.internal.size, tree.leaves.size
            for cap in caps:
                lp = build_primal(tree, lam, claim, cap)
                n_floor = 2 * n_internal if cap.is_bounded else 0
                assert lp.c.size == 2 * n_internal + 1, (seed, cap)
                assert lp.A_eq.shape == (0, 2 * n_internal + 1), (seed, cap)
                assert lp.A_ub.shape == (2 * n_leaves + n_floor, 2 * n_internal + 1), (seed, cap)
                got = solve(lp)
                ref = solve(_split_primal_lp(tree, lam, claim, cap))
                assert got.status == ref.status == "optimal", (seed, cap)
                tol = 1e-9 * max(1.0, abs(ref.objective))
                assert abs(got.objective - ref.objective) <= tol, (seed, cap)


    def test_dropped_columns_and_rows_change_nothing(self):
        # leaf trades and consumption enter no optimum, and a leaf's floor
        # rows repeat its terminal rows: without them the cap-free solve is
        # the same bit for bit, and the capped one needs no more pivots
        caps = [
            AdmissibilityCap.numeraire_based(0.0),
            AdmissibilityCap.numeraire_based(100.0),
            AdmissibilityCap.numeraire_free(1.0),
        ]
        for seed in range(1, 41):
            tree, claim, lam = suite_instance(seed)
            got = solve(build_primal(tree, lam, claim, UNBOUNDED))
            ref = solve(_full_primal_lp(tree, lam, claim, UNBOUNDED))
            assert got.objective.hex() == ref.objective.hex(), seed
            assert got.y_ub.tobytes() == ref.y_ub.tobytes(), seed
            assert got.iterations == ref.iterations, seed
            kept = _full_kept_columns(ref, tree)
            assert got.x[0] == kept[0], seed
            assert np.maximum(got.x[1:], 0.0).tobytes() == np.maximum(kept[1:], 0.0).tobytes(), seed
            for cap in caps:
                got = solve(build_primal(tree, lam, claim, cap))
                ref = solve(_full_primal_lp(tree, lam, claim, cap))
                assert got.status == ref.status == "optimal", (seed, cap)
                assert got.iterations <= ref.iterations, (seed, cap)
                tol = 1e-12 * max(1.0, abs(ref.objective))
                assert abs(got.objective - ref.objective) <= tol, (seed, cap)
                assert_normal_form(tree, extract_strategy(got, tree), (seed, cap))


def _marked_primal_arrays(tree, lam, claim, cap):
    """``build_primal``'s ``A_ub`` and ``b_ub`` assembled row by row: each
    leaf's bid-marked and then ask-marked row over the internal trades on
    its root path (its parent's), with rhs ``max(X, floor)`` under a bounded
    cap, then the cap's bid-marked and ask-marked floor rows over each
    internal node's root path."""
    x = claim.payoff_vector(tree)
    S = tree.price
    bid = (1.0 - lam) * S
    internal, leaves = tree.internal.tolist(), tree.leaves.tolist()
    col = {a: k for k, a in enumerate(internal)}
    nodes = leaves + leaves
    marks = [bid[l] for l in leaves] + [S[l] for l in leaves]
    rhs = list(x) + list(x)
    if cap.is_bounded:
        floor = cap.floor(S)
        rhs = [np.maximum(v, floor[l]) for v, l in zip(rhs, nodes)]
        nodes += internal + internal
        marks += [bid[i] for i in internal] + [S[i] for i in internal]
        rhs += [floor[i] for i in internal] * 2
    k = len(internal)
    A_ub, b_ub = np.zeros((len(nodes), 1 + 2 * k)), np.zeros(len(nodes))
    for r, (node, mark) in enumerate(zip(nodes, marks)):
        A_ub[r, 0] = -1.0
        for a in [node] + tree.ancestors(node):
            if a in col:
                A_ub[r, 1 + col[a]] = S[a] - mark
                A_ub[r, 1 + k + col[a]] = mark - bid[a]
        b_ub[r] = -rhs[r]
    return A_ub, b_ub


def _full_primal_lp(tree, lam, claim, cap):
    """The hedging LP with a column per node in every block, ``[x0 | buy |
    sell | consume]`` (``3n + 1`` columns), and a bounded cap's floor rows
    at every node: the form before leaf columns, consumption and leaf floor
    rows were dropped.  No leaf column enters any row."""
    x = claim.payoff_vector(tree)
    n = tree.node_count
    leaves = tree.leaves
    n_vars = 1 + 3 * n
    S = tree.price
    bid = (1.0 - lam) * S
    on_path = tree.path_sum(np.eye(n)) > 0
    held = np.arange(n)
    held[leaves] = tree.parent[leaves]
    nodes, mark, rhs = np.tile(leaves, 2), np.concatenate([bid[leaves], S[leaves]]), np.tile(x, 2)
    if cap.is_bounded:
        floor = cap.floor(S)
        every = np.arange(n)
        nodes = np.concatenate([nodes, every, every])
        mark = np.concatenate([mark, bid, S])
        rhs = np.concatenate([rhs, floor, floor])
    rows = on_path[held[nodes]]
    mark = mark[:, None]
    A_ub = np.zeros((nodes.size, n_vars))
    A_ub[:, 0] = -1.0
    A_ub[:, 1 : 1 + n] = np.where(rows, S - mark, 0.0)
    A_ub[:, 1 + n : 1 + 2 * n] = np.where(rows, mark - bid, 0.0)
    A_ub[:, 1 + 2 * n :] = np.where(rows, 1.0, 0.0)
    c = np.zeros(n_vars)
    c[0] = 1.0
    lower = np.zeros(n_vars)
    lower[0] = -np.inf
    return LinearProgram(c=c, A_ub=A_ub, b_ub=-rhs, lower=lower)


def _full_kept_columns(solution, tree):
    """A ``_full_primal_lp`` solution's values on ``build_primal``'s columns,
    ``[x0 | buy | sell]`` over the internal nodes; the leaf trades and the
    consumption dropped from them must vanish once clamped at zero."""
    internal, leaves = tree.internal, tree.leaves
    buy, sell, consume = solution.x[1:].reshape(3, tree.node_count)
    dropped = np.concatenate([buy[leaves], sell[leaves], consume])
    assert (np.maximum(dropped, 0.0) == 0.0).all()
    return np.concatenate([solution.x[:1], buy[internal], sell[internal]])


def _split_primal_lp(tree, lam, claim, cap):
    """The capped hedging LP with the stock position split into long and
    short parts, one equality row per node tying them to the position."""
    A_eq, b_eq, A_ub, b_ub = _ancestry_primal_arrays(tree, lam, claim, cap)
    n_vars = A_eq.shape[1]
    c = np.zeros(n_vars)
    c[0] = 1.0
    lower = np.zeros(n_vars)
    lower[0] = -np.inf
    return LinearProgram(
        c=c,
        objective_sense="minimize",
        A_eq=A_eq,
        b_eq=b_eq,
        A_ub=A_ub,
        b_ub=b_ub,
        lower=lower,
        upper=np.full(n_vars, np.inf),
    )


def _ancestry_primal_arrays(tree, lam, claim, cap):
    """The hedging LP's constraint arrays in their earlier form, assembled
    node by node from each row's root path: a flat-stock equality and a bond
    budget per leaf, over the leaf's own trades too; a bounded cap splits
    the stock position into long and short parts."""
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


class TestExtractStrategy:
    def test_another_trees_solution_is_a_shape_mismatch(self, b1):
        # used to return a 7-node strategy for the 3-node tree
        tree = generate_random_tree(1, depth=2, max_branching=2)
        zero = ClaimSpec({int(l): 0.0 for l in tree.leaves})
        sol = solve(build_primal(tree, 0.1, zero, UNBOUNDED))
        message = "^hedging-LP solution has {} entries, the tree's program has {}$"
        with pytest.raises(ShapeMismatch, match=message.format(7, 3)):
            extract_strategy(sol, b1)
        sol = dataclasses.replace(sol, x=sol.x[:-1])
        with pytest.raises(ShapeMismatch, match=message.format(6, 7)):
            extract_strategy(sol, tree)

    def test_round_trip_nets_and_dust_vanishes(self, b1):
        # a node that buys and sells keeps only the difference, which only
        # adds bonds; trades below DUST of the largest trade, and leaf
        # holdings below that and below 1e-9, are roundoff and become zero
        sol = LpSolution("optimal", x=np.array([-40.0, 0.75, 0.25]))
        hedge = extract_strategy(sol, b1)
        assert hedge.initial == (-40.0, 0.0)
        assert (hedge.buy[0], hedge.sell[0]) == (0.5, 0.0)
        assert (hedge.sell[1:] == 0.5).all() and (hedge.buy[1:] == 0.0).all()
        for x in ([3.0, 4e-13, 0.0], [3.0, 0.25, 0.25 + 1e-13], [3.0, -1e-10, 0.0]):
            hedge = extract_strategy(LpSolution("optimal", x=np.array(x)), b1)
            assert hedge.initial == (3.0, 0.0)
            assert not (hedge.buy.any() or hedge.sell.any() or hedge.consume.any()), x
        # the threshold scales with the largest trade, floored at 1
        tree = generate_random_tree(1, depth=2, max_branching=2)
        x = np.zeros(1 + 2 * tree.internal.size)
        x[1:3] = 1e3, 5e-10
        hedge = extract_strategy(LpSolution("optimal", x=x), tree)
        assert hedge.buy[tree.internal].tolist() == [1e3, 0.0, 0.0]

    def test_large_claims_end_within_tolerance_of_flat(self):
        # payoffs of about 1e6 make the largest net trade 7.7e5 shares, so
        # DUST of it (7.7e-7) exceeds the terminal certificate's 1e-9 on a
        # final holding: a leaf still liquidates a carried-in holding of
        # 1.3e-9.  Many suite instances break down at this scale (the
        # solver's absolute tolerances); this one solves at any thread count
        tree, claim, lam = suite_instance(144)
        big = ClaimSpec({leaf: 1e6 * x for leaf, x in claim.payoffs.items()}, claim.bound_kind)
        rep = superhedge_price(tree, lam, big)
        assert rep.all_certified(), rep.certificates
        assert_normal_form(tree, rep.strategy, 144)


class TestBuildDual:
    def test_binomial_optimum(self, b1, c1):
        lp = build_dual(b1, 0.1, c1)
        sol = solve(lp)
        assert abs(sol.objective - 140.0 / 9.0) < 1e-9
        z0 = sol.x[: b1.node_count]
        assert abs(0.5 * z0[1] - 7.0 / 9.0) < 1e-9  # pricing weight of the up leaf

    def test_frictionless_binomial(self, b1, c1):
        lp = build_dual(b1, 0.0, c1)
        sol = solve(lp)
        assert abs(sol.objective - 10.0) < 1e-9

    def test_zero_claim(self, b1):
        lp = build_dual(b1, 0.1, ClaimSpec({1: 0.0, 2: 0.0}))
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
        keys = ["self_financing", "terminal_dominates", "admissibility", "cps", "supermartingale"]
        assert list(rep.certificates) == keys + ["complementary_slackness"]
        # the pass judges any hedge against any cap: the cap-free hedge of
        # every suite instance, under five caps, passes some floors and fails others
        admissible = set()
        for seed in range(1, 201):
            tree, claim, lam = suite_instance(seed)
            rep = superhedge_price(tree, lam, claim)
            assert_normal_form(tree, rep.strategy, seed)
            certificates, bound = _certify(tree, lam, claim, rep.strategy, rep.cps, UNBOUNDED)
            assert {**certificates, "complementary_slackness": True} == rep.certificates, seed
            assert bound == rep.computed_cap_bound, seed
            for cap in FIVE_CAPS:
                certificates, bound = _certify(tree, lam, claim, rep.strategy, rep.cps, cap)
                assert_pass_agrees(tree, lam, rep.strategy, rep.cps, cap, certificates, bound)
                admissible.add(certificates["admissibility"])
        assert admissible == {True, False}

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

    def test_cap_that_does_not_bind_costs_no_capped_solve(self, b1, c1, monkeypatch):
        import spreadhedge.superhedge as superhedge

        solves = []
        monkeypatch.setattr(superhedge, "solve", lambda lp: solves.append(lp) or solve(lp))
        # the call's cap-free hedge never liquidates below 0
        free = superhedge_price(b1, 0.1, c1)
        capped = superhedge_price(b1, 0.1, c1, AdmissibilityCap.numeraire_based(0.0))
        assert len(solves) == 2
        assert capped.strategy.to_json() == free.strategy.to_json()
        assert capped.primal_value == free.primal_value
        assert capped.computed_cap_bound == free.computed_cap_bound == 0.0
        # collecting -50 down needs a floor of -100/9, so a cap of 0 binds
        superhedge_price(b1, 0.1, ClaimSpec({1: 0.0, 2: -50.0}), AdmissibilityCap.numeraire_based(0.0))
        assert len(solves) == 4

    def test_capped_solve_without_optimum_is_a_certificate_failure(self, b1, tmp_path, monkeypatch, capsys):
        # such a solve used to give a report without a hedge, primal inf and
        # null hedge certificates
        import spreadhedge.superhedge as superhedge
        from spreadhedge.cli import main

        def capped_fails(lp):
            # the capped program is the only one with floor rows past the leaf rows
            return LpSolution("infeasible") if lp.A_ub.shape[0] > 2 * b1.leaves.size else solve(lp)

        monkeypatch.setattr(superhedge, "solve", capped_fails)
        # collecting -50 down needs a floor of -100/9, so a cap of 0 binds
        claim = ClaimSpec({1: 0.0, 2: -50.0})
        with pytest.raises(CertificateFailure, match="^capped hedging program ended with status infeasible$"):
            superhedge_price(b1, 0.1, claim, AdmissibilityCap.numeraire_based(0.0))
        (tmp_path / "b1.json").write_text(B1_JSON)
        (tmp_path / "claim.json").write_text(json.dumps({"payoffs": {"1": 0.0, "2": -50.0}}))
        code = main(
            [
                "price",
                "--tree", str(tmp_path / "b1.json"),
                "--claim", str(tmp_path / "claim.json"),
                "--lambda", "0.1",
                "--mode", "nb",
                "--cap", "0",
            ]
        )
        assert code == 2
        assert capsys.readouterr().out.startswith("reason: certificate_failure\n")

    def test_caps_that_do_not_bind_are_certified(self):
        # the capped solves of these caps used to break down or certify a
        # hedge that fails to dominate (floors near -1e8, or a cap of 7.3e-9);
        # most do not bind, and a cap never lowers the price
        caps = [
            AdmissibilityCap.numeraire_free(1e5),
            AdmissibilityCap.numeraire_free(1e6),
            AdmissibilityCap.numeraire_based(7.3e-9),
        ]
        for seed in range(1, 41):
            tree, claim, lam = suite_instance(seed)
            free = superhedge_price(tree, lam, claim)
            for cap in caps:
                rep = superhedge_price(tree, lam, claim, cap)
                assert rep.all_certified(), (seed, cap, rep.certificates)
                tol = 1e-9 * max(1.0, abs(free.primal_value))
                assert rep.primal_value >= free.primal_value - tol, (seed, cap)

    def test_cap_free_holdings_derived_once(self, monkeypatch):
        # the cap-free hedge's holdings decide whether a cap binds and are
        # then certified; only a binding cap's hedge needs its own
        import spreadhedge.superhedge as sh

        calls = []
        monkeypatch.setattr(sh, "portfolio_path", lambda *a: calls.append(a) or portfolio_path(*a))
        tree, claim, lam = suite_instance(5)
        bound = superhedge_price(tree, lam, claim).computed_cap_bound
        for cap, count in (
            (UNBOUNDED, 1),
            (AdmissibilityCap.numeraire_based(bound + 1.0), 1),
            (AdmissibilityCap.numeraire_based(bound / 2), 2),
        ):
            calls.clear()
            rep = superhedge_price(tree, lam, claim, cap)
            assert rep.all_certified() and len(calls) == count, cap

    def test_non_straddle_verdicts(self):
        # markets that may admit arbitrage: a tree is priced exactly when a
        # price system exists, on 261 of the 400 (tree, rate) pairs
        model = PriceModel(0.8, 1.3, straddle=False)
        priced = 0
        for seed in range(80):
            tree = generate_random_tree(seed, 1 + seed % 4, 2 + seed % 2, model)
            claim = ClaimSpec({int(l): max(float(tree.price[l]) - 100.0, 0.0) for l in tree.leaves})
            for lam in (0.0, 0.01, 0.1, 0.3, 0.6):
                exists = has_cps(tree, lam)
                try:
                    superhedge_price(tree, lam, claim)
                except DualInfeasible:
                    assert not exists, (seed, lam)
                else:
                    assert exists, (seed, lam)
                    priced += 1
        assert priced == 261

    def test_report_is_a_frozen_record(self, b1, c1):
        rep = superhedge_price(b1, 0.1, c1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.primal_value = 0.0
        assert rep.dual_status == "optimal"
        assert rep.cps.strict and rep.cps_strict is rep.cps
        # a price system whose density vanishes at the up leaf is not strict
        lax = dataclasses.replace(rep, cps=ConsistentPriceSystem([1.0, 0.0, 2.0], [94.0, 0.0, 160.0]))
        assert lax.cps_strict is None and lax.to_json()["cps_strict"] is None

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
            ref = solve(build_dual(tree, lam, claim)).objective
            for cap in caps:
                rep = superhedge_price(tree, lam, claim, cap)
                assert abs(rep.dual_value - ref) <= 1e-9 * max(1.0, abs(ref)), (seed, cap)
                assert verify_cps(tree, lam, rep.cps), (seed, cap)
                assert_normal_form(tree, rep.strategy, (seed, cap))
                assert_pass_agrees(
                    tree, lam, rep.strategy, rep.cps, cap, rep.certificates, rep.computed_cap_bound
                )

    def test_multiplier_mapping_rejects_capped_solve(self, b1, c1):
        lp = build_primal(b1, 0.1, c1, AdmissibilityCap.numeraire_based(100.0))
        sol = solve(lp)
        assert sol.status == "optimal" and sol.y_ub.size == 2 * 2 + 2 * 1
        with pytest.raises(ValidationError, match="unbounded-cap program"):
            dual_cps_from_primal(b1, 0.1, sol)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 10_000))
    def test_multipliers_form_feasible_price_system(self, seed):
        tree = generate_random_tree(seed % 60 + 1, depth=1 + seed % 4, max_branching=2 + seed % 2)
        claim = random_claim(tree, seed)
        lam = 0.05 + (seed % 6) * 0.06
        lp = build_primal(tree, lam, claim, UNBOUNDED)
        sol = solve(lp)
        cps = dual_cps_from_primal(tree, lam, sol)
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
