"""Shared fixtures: the one-period binomial market and its golden objects,
and ``children``, a tree's child lists for per-node reference loops."""

import json

import pytest

from spreadhedge import ClaimSpec, ConsistentPriceSystem, Strategy, load_tree

B1_JSON = json.dumps(
    {
        "depth": 1,
        "nodes": [
            {"id": 0, "parent": None, "time": 0, "prob": 1.0, "price": 100.0},
            {"id": 1, "parent": 0, "time": 1, "prob": 0.5, "price": 120.0},
            {"id": 2, "parent": 0, "time": 1, "prob": 0.5, "price": 80.0},
        ],
    }
)


def children(tree):
    """Per node, the tuple of its children in ascending id order: the nodes
    whose ``parent`` is that node, as Python ints."""
    kids = [[] for _ in range(tree.node_count)]
    for k, p in enumerate(tree.parent.tolist()[1:], start=1):
        kids[p].append(k)
    return tuple(map(tuple, kids))


@pytest.fixture
def b1():
    """One-period binomial: S0=100, up 120 / down 80 with probability 1/2 each."""
    return load_tree(B1_JSON)


@pytest.fixture
def c1():
    """Call payoff (S_T - 100)^+ on the binomial tree: 20 up, 0 down."""
    return ClaimSpec({1: 20.0, 2: 0.0}, "constant")


@pytest.fixture
def c1_hedge(b1):
    """Optimal hedge of the call at 10% friction: buy 5/9 at the root,
    liquidate at each leaf, started from (140/9, 0)."""
    d = 5.0 / 9.0
    return Strategy.from_trades(
        b1,
        {0: {"buy": d}, 1: {"sell": d}, 2: {"sell": d}},
        initial=(140.0 / 9.0, 0.0),
    )


@pytest.fixture
def cps_b1(b1):
    """Hand-verified price system on the binomial tree at 10% friction."""
    return ConsistentPriceSystem.from_maps(
        b1, {0: 1.0, 1: 1.0, 2: 1.0}, {0: 94.0, 1: 110.0, 2: 78.0}
    )
