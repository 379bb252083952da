"""The level-at-a-time builders against the per-node loops they replaced.

``random_cps`` extends every branch point of a time step at once,
``dumps_tree`` formats nodes from one template and ``build_dual`` writes its
rows from the ``parent`` column.  Each must reproduce the per-node original
bit for bit: ``random_cps`` output seeds property suites and the benchmark,
tree documents are compared byte for byte, and the dual LP is the oracle the
hedging LP is checked against.  The originals are kept here as oracles.
"""

import json

import numpy as np
import pytest

from spreadhedge import (
    ConsistentPriceSystem,
    LinearProgram,
    PriceModel,
    ScenarioTree,
    ValidationError,
    build_dual,
    dumps_tree,
    generate_random_tree,
    load_tree,
    random_cps,
)
from spreadhedge.cps import verify_cps
from spreadhedge.errors import CertificateFailure
from spreadhedge.scenario_tree import _stop_above
from spreadhedge.strategy import _rate
from tests.conftest import children
from tests.test_acceptance import suite_instance


def reference_random_cps(tree, lam, seed, *, stop=None):
    """``random_cps`` as it was written before it went level by level: one
    branch point at a time, in ``tree.order``."""
    lam = _rate(lam)
    rng = np.random.default_rng(int(seed))
    n = tree.node_count
    above = _stop_above(tree, stop)
    required = (above < 0) | (above == np.arange(n))

    S = tree.price
    shadow = np.full(n, np.nan)
    z0 = np.zeros(n)

    def interior(lo: float, hi: float) -> float:
        if hi <= lo:
            return lo
        u = rng.uniform(0.15, 0.85)
        return lo + u * (hi - lo)

    shadow[0] = interior((1.0 - lam) * S[0], S[0])
    z0[0] = 1.0
    kids_of = children(tree)
    for i in tree.order:
        if above[i] >= 0 or not kids_of[i]:
            continue
        kids = np.array(kids_of[i], dtype=np.int64)
        lo = (1.0 - lam) * S[kids]
        hi = S[kids]
        target = shadow[i]
        k = kids.size
        c_min = int(np.argmin(lo))
        c_max = int(np.argmax(hi))
        if not (lo[c_min] <= target <= hi[c_max]):
            raise ValidationError(
                f"cannot extend shadow price {target} through node {i}: "
                f"children reach only [{lo[c_min]}, {hi[c_max]}]"
            )
        rest = rng.uniform(0.2, 1.0, size=k)
        rest /= rest.sum()
        q = None
        if lam == 0.0:
            s_lo, s_hi = S[kids[c_min]], S[kids[c_max]]
            rest_mean = float(rest @ S[kids])
            if abs(s_hi - s_lo) <= 1e-14 * max(1.0, s_hi):
                if abs(rest_mean - target) <= 1e-12 * max(1.0, abs(target)):
                    q = rest
            else:
                eps = 0.25
                for _ in range(80):
                    t_anchor = (target - eps * rest_mean) / (1.0 - eps)
                    mu = (t_anchor - s_hi) / (s_lo - s_hi)
                    if 0.0 < mu < 1.0:
                        anchor = np.zeros(k)
                        anchor[c_min] += mu
                        anchor[c_max] += 1.0 - mu
                        q = (1.0 - eps) * anchor + eps * rest
                        break
                    eps *= 0.5
        else:
            lo_at_cmax, hi_at_cmin = lo[c_max], hi[c_min]
            mu2 = 1.0 if hi_at_cmin >= target else (
                (hi[c_max] - target) / (hi[c_max] - hi_at_cmin)
            )
            mu1 = 0.0 if lo_at_cmax <= target else (
                (lo_at_cmax - target) / (lo_at_cmax - lo[c_min])
            )
            mu = 0.5 * (mu1 + mu2)
            anchor = np.zeros(k)
            anchor[c_min] += mu
            anchor[c_max] += 1.0 - mu
            eps = 0.25
            for _ in range(80):
                cand = (1.0 - eps) * anchor + eps * rest
                if float(cand @ lo) <= target <= float(cand @ hi):
                    q = cand
                    break
                eps *= 0.5
        if q is None:
            raise ValidationError(f"shadow-price extension failed at node {i}")
        span = float(q @ (hi - lo))
        if span <= 1e-14 * max(1.0, abs(target)):
            child_shadow = S[kids].astype(float)
        else:
            theta = min(1.0, max(0.0, (target - float(q @ lo)) / span))
            child_shadow = lo + theta * (hi - lo)
        q = q / q.sum()
        shadow[kids] = child_shadow
        z0[kids] = z0[i] * q / tree.cond_prob[kids]

    mask = required
    shadow = np.where(np.isnan(shadow), S, shadow)
    z1 = z0 * shadow
    out = ConsistentPriceSystem(z0, z1, None if mask.all() else mask)
    check = verify_cps(tree, lam, out, stop=stop)
    if not check:
        raise CertificateFailure(f"random system failed verification: {check.worst}")
    return out


def reference_dumps_tree(tree):
    """``dumps_tree`` as it was written before the template: ``json.dumps``."""
    doc = {
        "depth": tree.depth,
        "nodes": [
            {"id": i, "parent": None if p < 0 else p, "time": t, "prob": q, "price": s}
            for i, (p, t, q, s) in enumerate(
                zip(tree.parent.tolist(), tree.time.tolist(), tree.cond_prob.tolist(), tree.price.tolist())
            )
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_build_dual(tree, lam, claim):
    """``build_dual`` as it was written before it read ``parent``: one
    martingale row pair per internal node, one spread row pair per node."""
    lam = _rate(lam)
    x = claim.payoff_vector(tree)
    n = tree.node_count
    z0 = np.arange(0, n)
    z1 = np.arange(n, 2 * n)
    n_vars = 2 * n
    names = [f"z0[{i}]" for i in range(n)] + [f"z1[{i}]" for i in range(n)]

    n_eq = 1 + 2 * tree.internal.size
    A_eq = np.zeros((n_eq, n_vars))
    b_eq = np.zeros(n_eq)
    A_eq[0, z0[0]] = 1.0
    b_eq[0] = 1.0
    r = 1
    kids_of = children(tree)
    for i in tree.internal:
        kids = list(kids_of[i])
        p = tree.cond_prob[kids]
        A_eq[r, z0[i]] = 1.0
        A_eq[r, z0[kids]] = -p
        A_eq[r + 1, z1[i]] = 1.0
        A_eq[r + 1, z1[kids]] = -p
        r += 2

    A_ub = np.zeros((2 * n, n_vars))
    b_ub = np.zeros(2 * n)
    S = tree.price
    for i in range(n):
        A_ub[2 * i, z0[i]] = (1.0 - lam) * S[i]
        A_ub[2 * i, z1[i]] = -1.0
        A_ub[2 * i + 1, z0[i]] = -S[i]
        A_ub[2 * i + 1, z1[i]] = 1.0

    c = np.zeros(n_vars)
    leaves = tree.leaves
    c[z0[leaves]] = tree.path_prob[leaves] * x
    return LinearProgram(
        c=c,
        objective_sense="maximize",
        A_eq=A_eq,
        b_eq=b_eq,
        A_ub=A_ub,
        b_ub=b_ub,
        lower=np.zeros(n_vars),
        upper=np.full(n_vars, np.inf),
        names=tuple(names),
    )


def _outcome(build, tree, lam, seed, stop):
    """The arrays a build returns, or the type and text of what it raised."""
    try:
        cps = build(tree, lam, seed, stop=stop)
    except (ValidationError, CertificateFailure) as exc:
        return type(exc), str(exc)
    return cps.z0, cps.z1, cps.support


def _assert_same(tree, lam, seed, stop=None):
    got = _outcome(random_cps, tree, lam, seed, stop)
    want = _outcome(reference_random_cps, tree, lam, seed, stop)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b
    return got


def _wide_tree():
    """Depth 2: a root with nine children (row sums of nine terms), each with
    two to four children of its own."""
    rng = np.random.default_rng(9)
    parent, time, prob, price = [-1], [0], [1.0], [100.0]

    def branch(p, k):
        w = rng.uniform(0.2, 1.0, size=k)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        steps = np.linspace(0.6, 1.5, k)
        for j in range(k):
            parent.append(p)
            time.append(time[p] + 1)
            prob.append(float(w[j]))
            price.append(price[p] * float(steps[j]))

    branch(0, 9)
    for p in range(1, 10):
        branch(p, 2 + p % 3)
    return ScenarioTree(parent, time, prob, price, 2)


def _interleaved_tree():
    """A loaded tree whose children do not have consecutive ids: node 1 has
    children 3 and 5, node 2 has children 4, 6 and 7."""
    nodes = [
        (0, None, 0, 1.0, 100.0),
        (1, 0, 1, 0.5, 120.0),
        (2, 0, 1, 0.5, 85.0),
        (3, 1, 2, 0.4, 140.0),
        (4, 2, 2, 0.3, 70.0),
        (5, 1, 2, 0.6, 105.0),
        (6, 2, 2, 0.3, 95.0),
        (7, 2, 2, 0.4, 88.0),
    ]
    doc = {"depth": 2, "nodes": [dict(zip(("id", "parent", "time", "prob", "price"), n)) for n in nodes]}
    doc["nodes"].reverse()
    return load_tree(json.dumps(doc))


_TREES = [
    generate_random_tree(seed, depth, branching)
    for seed in range(4)
    for branching, depth in ((2, 5), (3, 3), (4, 3), (5, 2))
] + [_wide_tree(), _interleaved_tree()]
_LAMBDAS = (0.0, 0.01, 0.2, 0.45)


class TestRandomCpsOracle:
    @pytest.mark.parametrize("lam", _LAMBDAS)
    def test_matches_per_node_loop(self, lam):
        built = 0
        for t, tree in enumerate(_TREES):
            for seed in (t, 1000 + t):
                built += len(_assert_same(tree, lam, seed)) == 3
        assert built >= len(_TREES)

    @pytest.mark.parametrize("lam", _LAMBDAS)
    def test_matches_per_node_loop_with_a_stop(self, lam):
        for t, tree in enumerate(_TREES):
            stop_time = max(1, tree.depth // 2)
            level = np.flatnonzero(tree.time == stop_time)
            keep = np.random.default_rng(t).random(level.size) < 0.6
            for stop in ({0}, {int(i) for i in level[keep]}, set(tree.leaves.tolist())):
                _assert_same(tree, lam, 7 + t, stop)

    @pytest.mark.parametrize("lam", _LAMBDAS)
    def test_wide_branch_point(self, lam):
        # numpy sums nine terms pairwise, not left to right: one seed may
        # round alike either way, twenty do not
        tree = _wide_tree()
        assert len(children(tree)[0]) == 9
        for seed in range(20):
            assert len(_assert_same(tree, lam, seed)) == 3

    def test_impossible_extension_raises_the_same_message(self):
        # every step is up, so no child reaches below the root's shadow price
        tree = generate_random_tree(5, 3, 3, PriceModel(straddle=False, min_step=1.1, max_step=1.5))
        for lam in (0.0, 0.01):
            kind, text = _assert_same(tree, lam, 2)
            assert kind is ValidationError
            assert text.startswith("cannot extend shadow price")

    def test_first_failing_node_of_a_level_is_reported(self):
        # node 1 (three children) and node 2 (two children) both fail; the
        # two-child block is extended first, and node 1 must still be named
        nodes = [
            (0, None, 0, 1.0, 100.0),
            (1, 0, 1, 0.5, 110.0),
            (2, 0, 1, 0.5, 90.0),
            (3, 1, 2, 0.2, 130.0),
            (4, 1, 2, 0.3, 125.0),
            (5, 1, 2, 0.5, 120.0),
            (6, 2, 2, 0.5, 95.0),
            (7, 2, 2, 0.5, 99.0),
        ]
        doc = {"depth": 2, "nodes": [dict(zip(("id", "parent", "time", "prob", "price"), n)) for n in nodes]}
        kind, text = _assert_same(load_tree(json.dumps(doc)), 0.01, 4)
        assert kind is ValidationError
        assert "through node 1:" in text


class TestDumpsTreeOracle:
    def test_matches_json_dumps(self):
        for tree in _TREES:
            text = dumps_tree(tree)
            assert text == reference_dumps_tree(tree)
            assert dumps_tree(load_tree(text)) == text

    def test_extreme_floats_match_json_dumps(self):
        tree = ScenarioTree(
            [-1, 0, 0, 1, 1, 2, 2],
            [0, 1, 1, 2, 2, 2, 2],
            [1.0, 0.1 + 0.2, 1.0 - (0.1 + 0.2), 1e-17, 1.0 - 1e-17, 0.5, 0.5],
            [1e22, 1e-17, 123456789.123456789, 5e-324, 1.7976931348623157e308, 1e16, 0.1],
            2,
        )
        text = dumps_tree(tree)
        assert text == reference_dumps_tree(tree)
        assert dumps_tree(load_tree(text)) == text


class TestBuildDualOracle:
    @pytest.mark.parametrize("lam", (0.0, 0.1, 0.45))
    def test_matches_per_node_loop(self, lam):
        fields = ("c", "A_eq", "b_eq", "A_ub", "b_ub", "lower", "upper")
        for seed in range(1, 201):
            tree, claim, _ = suite_instance(seed)
            got, want = build_dual(tree, lam, claim), reference_build_dual(tree, lam, claim)
            assert got.objective_sense == want.objective_sense
            assert got.names == want.names
            for name in fields:
                a, b = getattr(got, name), getattr(want, name)
                # tobytes tells -0.0 from 0.0, which array_equal does not
                assert a.dtype == b.dtype and a.shape == b.shape, (seed, name)
                assert a.tobytes() == b.tobytes(), (seed, name)
