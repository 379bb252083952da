"""Finite scenario trees: the discrete market model.

A tree holds one riskless asset (constant price 1) and one risky asset with a
strictly positive price at every node.  Conditional branch probabilities carry
the physical measure; the tree structure itself is the filtration.  All leaves
sit at a common horizon ``depth``.  The usual continuous-time technicalities
(right-continuity of the filtration, terminal left limits) are vacuous in
discrete time and are not modeled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import NotAnAntichain, ParseError, UnknownNode, ValidationError

__all__ = [
    "Node",
    "ScenarioTree",
    "Antichain",
    "ClaimSpec",
    "PriceModel",
    "load_tree",
    "dumps_tree",
    "path_probability",
    "is_antichain",
    "generate_random_tree",
]

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Node:
    """One event in the tree.

    ``cond_prob`` is the probability of reaching this node from its parent;
    the root carries 1.  ``price`` is the risky-asset price in bond units.
    """

    id: int
    parent: int | None
    time: int
    cond_prob: float
    price: float


class ScenarioTree:
    """Uniform-depth event tree with strictly positive prices.

    Immutable after construction; every derived array is precomputed.  The
    constructor enforces all structural invariants:

    * exactly one root, at time 0, with conditional probability 1,
    * each non-root node has one parent one time step earlier,
    * all childless nodes sit at time ``depth`` (``depth >= 1``),
    * children probabilities are positive and sum to 1 within ``1e-12``,
    * prices are strictly positive,
    * ids are dense ``0..node_count-1``; children are kept in ascending id
      order so every iteration (and LP column order) is deterministic.

    Strategies, price systems and the hedging LP walk the tree in three
    ways, each done here one time step at a time:

    * ``path_sum`` sums along the root path (holdings from trades),
    * ``subtree_sum`` sums over the descendants (densities from leaf
      weights),
    * ``children_mean`` takes the one-step conditional expectation
      (martingale and supermartingale identities).
    """

    __slots__ = (
        "nodes",
        "depth",
        "node_count",
        "parent",
        "time",
        "cond_prob",
        "price",
        "children",
        "leaves",
        "internal",
        "order",
        "levels",
        "path_prob",
    )

    def __init__(self, nodes: Iterable[Node], depth: int):
        nodes = tuple(sorted(nodes, key=lambda n: n.id))
        n = len(nodes)
        if n == 0:
            raise ValidationError("tree has no nodes")
        if int(depth) < 1:
            raise ValidationError(f"depth must be >= 1, got {depth}")
        if [nd.id for nd in nodes] != list(range(n)):
            raise ValidationError("node ids are not dense 0..node_count-1")

        parent = np.full(n, -1, dtype=np.int64)
        time = np.empty(n, dtype=np.int64)
        cond_prob = np.empty(n)
        price = np.empty(n)
        for nd in nodes:
            parent[nd.id] = -1 if nd.parent is None else int(nd.parent)
            time[nd.id] = int(nd.time)
            cond_prob[nd.id] = float(nd.cond_prob)
            price[nd.id] = float(nd.price)

        roots = np.flatnonzero(parent < 0)
        if len(roots) != 1:
            raise ValidationError(f"expected exactly one root, found nodes {roots.tolist()}")
        root = int(roots[0])
        if root != 0:
            raise ValidationError(f"root must have id 0, found id {root}")
        if time[root] != 0:
            raise ValidationError(f"root node {root} must sit at time 0")
        if abs(cond_prob[root] - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"root node {root} must have conditional probability 1")

        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            if i == root:
                continue
            p = parent[i]
            if p < 0 or p >= n:
                raise ValidationError(f"node {i} has unknown parent {p}")
            if time[i] != time[p] + 1:
                raise ValidationError(
                    f"node {i} at time {time[i]} has parent {p} at time {time[p]}"
                )
            if not (0.0 < cond_prob[i] <= 1.0):
                raise ValidationError(f"node {i} has conditional probability {cond_prob[i]}")
            children[p].append(i)

        for i in range(n):
            if not (price[i] > 0.0) or not np.isfinite(price[i]):
                raise ValidationError(f"node {i} has nonpositive price {price[i]}")
            if children[i]:
                s = cond_prob[children[i]].sum()
                if abs(s - 1.0) > PROB_SUM_TOL:
                    raise ValidationError(
                        f"children of node {i} have probabilities summing to {s!r}"
                    )
            else:
                if time[i] != depth:
                    raise ValidationError(
                        f"leaf node {i} sits at time {time[i]}, expected depth {depth}"
                    )
        if time.max() > depth:
            raise ValidationError("a node sits beyond the declared depth")

        order = np.argsort(time, kind="stable")
        levels = tuple(np.split(order, np.cumsum(np.bincount(time))[:-1]))
        path_prob = np.empty(n)
        path_prob[root] = 1.0
        for lvl in levels[1:]:
            path_prob[lvl] = path_prob[parent[lvl]] * cond_prob[lvl]

        self.nodes = nodes
        self.depth = int(depth)
        self.node_count = n
        self.parent = parent
        self.time = time
        self.cond_prob = cond_prob
        self.price = price
        self.children = tuple(tuple(c) for c in children)
        self.leaves = np.array([i for i in range(n) if not children[i]], dtype=np.int64)
        self.internal = np.array([i for i in range(n) if children[i]], dtype=np.int64)
        self.order = order
        self.levels = levels
        self.path_prob = path_prob
        frozen = (parent, time, cond_prob, price, self.leaves, self.internal, order, path_prob)
        for arr in (*frozen, *levels):
            arr.setflags(write=False)

    def check_node(self, node: int) -> int:
        node = int(node)
        if not (0 <= node < self.node_count):
            raise UnknownNode(f"node {node} not in tree with {self.node_count} nodes")
        return node

    def path_sum(self, values) -> np.ndarray:
        """Sum of ``values`` over the root-to-node path, the node included.

        ``values`` is ``(node_count,)`` or ``(node_count, k)``; each node adds
        its own value to its parent's finished sum.
        """
        out = np.array(values, dtype=float)
        for lvl in self.levels[1:]:
            out[lvl] += out[self.parent[lvl]]
        return out

    def subtree_sum(self, values) -> np.ndarray:
        """Sum of ``values`` over each node and all its descendants.

        Deepest level first; a parent adds its children's finished sums in
        descending id order.  Shapes as in ``path_sum``.
        """
        out = np.array(values, dtype=float)
        for lvl in reversed(self.levels[1:]):
            kids = lvl[::-1]
            np.add.at(out, self.parent[kids], out[kids])
        return out

    def children_mean(self, values) -> np.ndarray:
        """``sum_k cond_prob(k) * values(k)`` over each node's children.

        The physical one-step conditional expectation; 0 at the leaves.
        Shapes as in ``path_sum``.
        """
        v = np.asarray(values, dtype=float)
        weighted = self.cond_prob[1:, None] * v.reshape(self.node_count, -1)[1:]
        cols = [np.bincount(self.parent[1:], w, self.node_count) for w in weighted.T]
        return np.stack(cols, axis=1).reshape(v.shape)

    def ancestors(self, node: int) -> list[int]:
        """Strict ancestors of ``node``, nearest first."""
        node = self.check_node(node)
        out = []
        p = self.parent[node]
        while p >= 0:
            out.append(int(p))
            p = self.parent[p]
        return out

    def __repr__(self) -> str:
        return f"ScenarioTree(depth={self.depth}, node_count={self.node_count})"


def path_probability(tree: ScenarioTree, node: int) -> float:
    """Physical probability of the path from the root to ``node`` (root -> 1)."""
    return float(tree.path_prob[tree.check_node(node)])


def is_antichain(tree: ScenarioTree, nodes: Iterable[int]) -> bool:
    """True iff no element of ``nodes`` is a strict ancestor of another.

    Such a set is the hitting set of a stopping time; paths that miss it
    correspond to the stopping time never firing.
    """
    ids = {tree.check_node(i) for i in nodes}
    for i in ids:
        for a in tree.ancestors(i):
            if a in ids:
                return False
    return True


@dataclass(frozen=True)
class Antichain:
    """Validated hitting set of a stopping time."""

    node_ids: frozenset[int]

    @classmethod
    def of(cls, tree: ScenarioTree, nodes: Iterable[int]) -> "Antichain":
        ids = frozenset(int(i) for i in nodes)
        if not is_antichain(tree, ids):
            raise NotAnAntichain(f"set {sorted(ids)} contains an ancestor pair")
        return cls(ids)


def _stop_ids(tree: ScenarioTree, stop) -> frozenset[int]:
    """Normalize an antichain argument, validating it against the tree."""
    return Antichain.of(tree, stop.node_ids if isinstance(stop, Antichain) else stop).node_ids


_BOUND_KINDS = ("constant", "stock_bond")


@dataclass(frozen=True)
class ClaimSpec:
    """Contingent claim paying ``payoffs[leaf]`` bonds at the horizon.

    ``bound_kind`` records which lower-bound hypothesis the claim is declared
    under: ``"constant"`` (uniform bond floor) or ``"stock_bond"`` (floor of
    the form -M(1+S)).  On a finite tree either bound always exists; the kind
    is metadata surfaced in pricing reports.
    """

    payoffs: Mapping[int, float]
    bound_kind: str = "constant"

    def __post_init__(self):
        if self.bound_kind not in _BOUND_KINDS:
            raise ValidationError(f"unknown bound kind {self.bound_kind!r}")
        object.__setattr__(
            self, "payoffs", {int(k): float(v) for k, v in self.payoffs.items()}
        )

    def validate(self, tree: ScenarioTree) -> None:
        leaves = set(tree.leaves.tolist())
        given = set(self.payoffs)
        if given != leaves:
            missing = sorted(leaves - given)
            extra = sorted(given - leaves)
            raise ValidationError(
                f"claim must cover exactly the leaves; missing {missing}, extra {extra}"
            )
        for k, v in self.payoffs.items():
            if not np.isfinite(v):
                raise ValidationError(f"claim payoff at leaf {k} is not finite")

    def payoff_vector(self, tree: ScenarioTree) -> np.ndarray:
        """Payoffs in the order of ``tree.leaves``."""
        self.validate(tree)
        return np.array([self.payoffs[int(l)] for l in tree.leaves])

    def lower_bound(self, tree: ScenarioTree) -> float:
        """Smallest M >= 0 such that the declared floor holds at every leaf."""
        x = self.payoff_vector(tree)
        if self.bound_kind == "constant":
            return float(max(0.0, -x.min()))
        s = tree.price[tree.leaves]
        return float(max(0.0, (-x / (1.0 + s)).max()))

    def to_json(self) -> dict:
        return {
            "payoffs": {str(k): self.payoffs[k] for k in sorted(self.payoffs)},
            "bound": self.bound_kind,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ClaimSpec":
        try:
            payoffs = {int(k): float(v) for k, v in obj["payoffs"].items()}
            kind = obj.get("bound", "constant")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad claim document: {exc}") from exc
        return cls(payoffs, kind)


# ---------------------------------------------------------------------------
# JSON ingestion / canonical serialization


def _read_source(source) -> str:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        try:
            return bytes(source).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"tree document is not UTF-8: {exc}") from exc
    if isinstance(source, str):
        return source
    raise ParseError(f"unsupported source type {type(source).__name__}")


def load_tree(source) -> ScenarioTree:
    """Parse and validate a tree from its JSON form.

    ``source`` may be a JSON string, UTF-8 bytes, or a file-like object.  The
    expected document is ``{"depth": int, "nodes": [{"id", "parent", "time",
    "prob", "price"}, ...]}``.

    Raises
    ------
    ParseError
        Malformed JSON or missing fields.
    ValidationError
        Structurally invalid tree; the message names the offending node.
    """
    text = _read_source(source)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "depth" not in obj or "nodes" not in obj:
        raise ParseError('tree document must be an object with "depth" and "nodes"')
    raw_nodes = obj["nodes"]
    if not isinstance(raw_nodes, list):
        raise ParseError('"nodes" must be a list')
    nodes = []
    for k, item in enumerate(raw_nodes):
        if not isinstance(item, dict):
            raise ParseError(f"nodes[{k}] is not an object")
        try:
            nodes.append(
                Node(
                    id=int(item["id"]),
                    parent=None if item["parent"] is None else int(item["parent"]),
                    time=int(item["time"]),
                    cond_prob=float(item["prob"]),
                    price=float(item["price"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"nodes[{k}] is malformed: {exc}") from exc
    try:
        depth = int(obj["depth"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f'bad "depth": {exc}') from exc
    return ScenarioTree(nodes, depth)


def dumps_tree(tree: ScenarioTree) -> str:
    """Canonical JSON form: fixed key order, nodes by ascending id, 2-space indent.

    ``dumps_tree(load_tree(x))`` is idempotent byte-for-byte.
    """
    doc = {
        "depth": tree.depth,
        "nodes": [
            {
                "id": nd.id,
                "parent": nd.parent,
                "time": nd.time,
                "prob": nd.cond_prob,
                "price": nd.price,
            }
            for nd in tree.nodes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Random instance source


@dataclass(frozen=True)
class PriceModel:
    """Multiplicative step model for generated trees.

    Steps are clamped into [0.5, 2.0].  With ``straddle`` (default) every
    branch point gets one factor strictly below 1 and one strictly above, so
    the parent price lies strictly inside the convex hull of its children and
    the generated market is arbitrage-free at every friction level.
    """

    min_step: float = 0.5
    max_step: float = 2.0
    straddle: bool = True
    root_price: float = 100.0

    def clamped(self) -> tuple[float, float]:
        lo = min(max(self.min_step, 0.5), 2.0)
        hi = max(min(self.max_step, 2.0), lo)
        return lo, hi


def generate_random_tree(
    seed: int,
    depth: int,
    max_branching: int,
    price_model: PriceModel | None = None,
) -> ScenarioTree:
    """Deterministic random tree for property suites.

    Parameters are clamped (``depth >= 1``, ``max_branching >= 2``) rather
    than rejected.  Per-node branching is uniform on ``{2..max_branching}``;
    conditional probabilities are bounded away from zero and sum to one
    exactly in floating point.
    """
    pm = price_model or PriceModel()
    depth = max(1, int(depth))
    max_branching = max(2, int(max_branching))
    lo, hi = pm.clamped()
    if pm.straddle:
        # straddle needs room on both sides of 1
        lo = min(lo, 0.98)
        hi = max(hi, 1.02)
    rng = np.random.default_rng(int(seed))

    nodes = [Node(0, None, 0, 1.0, float(pm.root_price))]
    frontier = [0]
    next_id = 1
    for t in range(1, depth + 1):
        new_frontier = []
        for p in frontier:
            k = int(rng.integers(2, max_branching + 1))
            factors = rng.uniform(lo, hi, size=k)
            if pm.straddle:
                factors[0] = rng.uniform(lo, min(0.98, hi))
                factors[1] = rng.uniform(max(1.02, lo), hi)
            w = rng.uniform(0.2, 1.0, size=k)
            probs = w / w.sum()
            probs[-1] = 1.0 - probs[:-1].sum()
            for j in range(k):
                nodes.append(
                    Node(
                        id=next_id,
                        parent=p,
                        time=t,
                        cond_prob=float(probs[j]),
                        price=float(nodes[p].price * factors[j]),
                    )
                )
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return ScenarioTree(nodes, depth)
