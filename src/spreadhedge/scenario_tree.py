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
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import NotAnAntichain, ParseError, ShapeMismatch, UnknownNode, ValidationError

__all__ = [
    "ScenarioTree",
    "ClaimSpec",
    "PriceModel",
    "load_tree",
    "dumps_tree",
    "is_antichain",
    "generate_random_tree",
]

PROB_SUM_TOL = 1e-12


class ScenarioTree:
    """Uniform-depth event tree with strictly positive prices.

    A tree is four arrays indexed by node id ``0..node_count-1``: ``parent``
    (-1 at the root), ``time``, ``cond_prob`` (the probability of reaching
    the node from its parent; 1 at the root) and ``price`` (the risky-asset
    price in bond units).  The constructor copies them, precomputes every
    derived array and freezes them all.  It enforces, naming the offending
    node:

    * at least one node and ``depth >= 1``,
    * exactly one root, with id 0, at time 0, with conditional probability 1,
    * then, at the lowest-id node breaking one: its parent is a node id, one
      time step earlier, and its conditional probability lies in ``(0, 1]``,
    * then, at the lowest-id node breaking one: its price is positive and
      finite, its children's probabilities (summed in id order) sum to 1
      within ``1e-12``, and a childless node sits at time ``depth``.

    The children of node ``i`` are the nodes whose ``parent`` is ``i``.
    Every walk takes them in ascending id order, so every iteration (and LP
    row order) is deterministic.

    Strategies, price systems and the hedging LP walk the tree in three
    ways, each done here one time step at a time:

    * ``path_sum`` sums along the root path (holdings from trades),
    * ``subtree_sum`` sums over the descendants (densities from leaf
      weights),
    * ``children_mean`` takes the one-step conditional expectation
      (martingale and supermartingale identities).
    """

    __slots__ = (
        "depth",
        "node_count",
        "parent",
        "time",
        "cond_prob",
        "price",
        "leaves",
        "internal",
        "order",
        "levels",
        "path_prob",
    )

    def __init__(self, parent, time, cond_prob, price, depth: int):
        parent = np.array(parent, dtype=np.int64)
        time = np.array(time, dtype=np.int64)
        cond_prob = np.array(cond_prob, dtype=float)
        price = np.array(price, dtype=float)
        if not (parent.ndim == 1 and parent.shape == time.shape == cond_prob.shape == price.shape):
            raise ValidationError("parent, time, cond_prob and price must be 1-D arrays of one length")
        n = len(parent)
        if n == 0:
            raise ValidationError("tree has no nodes")
        depth = int(depth)
        if depth < 1:
            raise ValidationError(f"depth must be >= 1, got {depth}")

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

        # every node after the root: a known parent one step earlier, probability in (0, 1]
        up = parent[1:]
        unknown = up >= n
        known_up = np.where(unknown, 0, up)
        bad_step = time[1:] != time[known_up] + 1
        bad_prob = ~((0.0 < cond_prob[1:]) & (cond_prob[1:] <= 1.0))
        failing = np.flatnonzero(unknown | bad_step | bad_prob)
        if failing.size:
            i = int(failing[0]) + 1
            p = parent[i]
            if unknown[i - 1]:
                raise ValidationError(f"node {i} has unknown parent {p}")
            if bad_step[i - 1]:
                raise ValidationError(f"node {i} at time {time[i]} has parent {p} at time {time[p]}")
            raise ValidationError(f"node {i} has conditional probability {cond_prob[i]}")

        # every node: positive price, children summing to 1, leaves at the horizon
        n_kids = np.bincount(up, minlength=n)
        kid_sum = np.bincount(up, cond_prob[1:], minlength=n)
        bad_price = ~(price > 0.0) | ~np.isfinite(price)
        bad_sum = (n_kids > 0) & (np.abs(kid_sum - 1.0) > PROB_SUM_TOL)
        bad_leaf = (n_kids == 0) & (time != depth)
        failing = np.flatnonzero(bad_price | bad_sum | bad_leaf)
        if failing.size:
            i = int(failing[0])
            if bad_price[i]:
                raise ValidationError(f"node {i} has nonpositive price {price[i]}")
            if bad_sum[i]:
                raise ValidationError(
                    f"children of node {i} have probabilities summing to {kid_sum[i]!r}"
                )
            raise ValidationError(f"leaf node {i} sits at time {time[i]}, expected depth {depth}")

        order = np.argsort(time, kind="stable")
        levels = tuple(np.split(order, np.cumsum(np.bincount(time))[:-1]))
        path_prob = np.empty(n)
        path_prob[root] = 1.0
        for lvl in levels[1:]:
            path_prob[lvl] = path_prob[parent[lvl]] * cond_prob[lvl]

        self.depth = depth
        self.node_count = n
        self.parent = parent
        self.time = time
        self.cond_prob = cond_prob
        self.price = price
        self.leaves = np.flatnonzero(n_kids == 0)
        self.internal = np.flatnonzero(n_kids > 0)
        self.order = order
        self.levels = levels
        self.path_prob = path_prob
        frozen = (parent, time, cond_prob, price, self.leaves, self.internal, order, path_prob)
        for arr in (*frozen, *levels):
            arr.setflags(write=False)

    def check_node(self, node: int) -> int:
        """``node`` as an ``int``: a Python or numpy integer naming a node."""
        try:
            node = operator.index(node)
        except TypeError:
            raise UnknownNode(f"node {node!r} is not an integer id") from None
        if not (0 <= node < self.node_count):
            raise UnknownNode(f"node {node} not in tree with {self.node_count} nodes")
        return node

    def check_size(self, what: str, count: int) -> None:
        """Raise ``ShapeMismatch`` unless ``what``, indexing ``count`` nodes, fits this tree."""
        if count != self.node_count:
            raise ShapeMismatch(f"{what} indexes {count} nodes, tree has {self.node_count}")

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


def _stop_above(tree: ScenarioTree, stop) -> np.ndarray:
    """Per node, the stop node at or above it, or -1 while the stop has not
    fired (everywhere for ``stop=None``).

    ``stop`` holds the node ids of a stopping time's hitting set.  The path
    sum of ``id + 1`` over them names the one stop node on each root path; a
    stop node whose parent already has one above it makes an ancestor pair.
    The truncated market is the mask ``(above < 0) | (above == node)``.
    """
    ids = np.array([tree.check_node(i) for i in (() if stop is None else stop)], dtype=np.int64)
    mark = np.zeros(tree.node_count)
    mark[ids] = ids + 1.0
    above = tree.path_sum(mark).astype(np.int64) - 1
    up = tree.parent[ids]
    if ((up >= 0) & (above[up] >= 0)).any():
        raise NotAnAntichain(f"set {sorted(set(ids.tolist()))} contains an ancestor pair")
    return above


def is_antichain(tree: ScenarioTree, nodes: Iterable[int]) -> bool:
    """True iff no element of ``nodes`` is a strict ancestor of another: then
    it is the hitting set of a stopping time that never fires on paths missing it."""
    try:
        _stop_above(tree, nodes)
    except NotAnAntichain:
        return False
    return True


_BOUND_KINDS = ("constant", "stock_bond")


def _leaf_id(key) -> int:
    """A claim key as an ``int``, by the rule of ``ScenarioTree.check_node``."""
    try:
        return operator.index(key)
    except TypeError:
        raise ValidationError(f"claim leaf id {key!r} is not an integer") from None


@dataclass(frozen=True)
class ClaimSpec:
    """Contingent claim paying ``payoffs[leaf]`` bonds at the horizon.  Every
    payoff must be finite; leaf ids and payoffs are kept as read-only arrays
    in id order, so resolving the claim on a tree is one comparison.

    ``bound_kind`` records which lower-bound hypothesis the claim is declared
    under: ``"constant"`` (uniform bond floor) or ``"stock_bond"`` (floor of
    the form -M(1+S)).  On a finite tree either bound always exists; the kind
    is metadata surfaced in pricing reports.
    """

    payoffs: Mapping[int, float]
    bound_kind: str = "constant"
    _leaves: np.ndarray = field(init=False, repr=False, compare=False)
    _x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bound_kind not in _BOUND_KINDS:
            raise ValidationError(f"unknown bound kind {self.bound_kind!r}")
        payoffs = {_leaf_id(k): float(v) for k, v in self.payoffs.items()}
        # an id beyond int64 makes an object array, which matches no tree's leaves
        leaves, x = np.array(list(payoffs)), np.fromiter(payoffs.values(), float)
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ValidationError(f"claim payoff at leaf {leaves[bad[0]]} is not finite")
        object.__setattr__(self, "payoffs", payoffs)
        by_id = np.argsort(leaves)
        for name, arr in (("_leaves", leaves[by_id]), ("_x", x[by_id])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def payoff_vector(self, tree: ScenarioTree) -> np.ndarray:
        """Payoffs in the order of ``tree.leaves``, read-only.  A claim that
        does not cover exactly the leaves is a ``ValidationError``."""
        if not np.array_equal(self._leaves, tree.leaves):
            leaves, given = set(tree.leaves.tolist()), set(self.payoffs)
            raise ValidationError(
                f"claim must cover exactly the leaves; missing {sorted(leaves - given)}, "
                f"extra {sorted(given - leaves)}"
            )
        return self._x

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
            payoffs = _node_map(
                obj["payoffs"], "payoffs", lambda k, v: _number(v, f"payoff of leaf {k}")
            )
            kind = obj.get("bound", "constant")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


def _int64(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if not -(2**63) <= value < 2**63:
        raise ValueError("integer does not fit in 64 bits")
    return value


def _number(value, field: str) -> float:
    """A JSON number (``int`` or ``float``, not ``bool`` or ``str``) as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{field} must be a JSON number, got {value!r}")
    return float(value)


def _finite(arr: np.ndarray, field: str) -> None:
    """Reject the first non-finite entry: NaN passes every comparison a check
    makes, so it would be certified."""
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValidationError(f"{field}[{bad[0]}] is {arr[bad[0]]}, not finite")


def _object(value, field: str) -> dict:
    """A JSON object, whose items a document reader walks."""
    if not isinstance(value, dict):
        raise TypeError(f"{field} must be a JSON object, got {value!r}")
    return value


def _node_map(value, field: str, read) -> dict:
    """The JSON object ``value`` keyed by node ids, as ``{id: read(key, item)}``.

    A key must read back as itself, ``str(int(key)) == key``: ``"01"`` or
    ``"1_0"`` would name the node that ``"1"`` or ``"10"`` names, and the
    later of the two would silently win.
    """
    out = {}
    for key, item in _object(value, field).items():
        node = int(key)
        if str(node) != key:
            raise ValueError(f"{field} key {key!r} must be written {str(node)!r}")
        out[node] = read(key, item)
    return out


def load_tree(source) -> ScenarioTree:
    """Parse and validate a tree from its JSON form.

    ``source`` may be a JSON string, UTF-8 bytes, or a file-like object.  The
    expected document is ``{"depth": int, "nodes": [{"id", "parent", "time",
    "prob", "price"}, ...]}``; ids must be dense ``0..len(nodes)-1`` in any
    order, and the root's parent is ``null``.  A key written twice in one
    object is not rejected: the later value wins, as in ``json.loads``.

    Raises
    ------
    ParseError
        Malformed JSON, missing fields, an ``id``, ``parent``, ``time`` or
        ``depth`` that is not an integer fitting in 64 bits, or a ``prob`` or
        ``price`` that is not a JSON number.  A bad ``depth`` is named
        first, then the first malformed node in list order.
    ValidationError
        Structurally invalid tree; the message names the offending node.
    """
    text = _read_source(source)
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ParseError(f"invalid JSON: {exc}") from exc
    return _tree_from_document(obj)


def _tree_from_document(obj) -> ScenarioTree:
    """The tree of a parsed tree document, checked as ``load_tree`` says."""
    if not isinstance(obj, dict) or "depth" not in obj or "nodes" not in obj:
        raise ParseError('tree document must be an object with "depth" and "nodes"')
    try:
        depth = _int64(obj["depth"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f'bad "depth": {exc}') from exc
    raw_nodes = obj["nodes"]
    if not isinstance(raw_nodes, list):
        raise ParseError('"nodes" must be a list')
    try:
        # one type test per column, where a node that is not an object fails
        # its subscript; the walk only names the culprit
        ids, parent, time, prob, price = (
            [item[f] for item in raw_nodes] for f in ("id", "parent", "time", "prob", "price")
        )
        parent = [-1 if p is None else p for p in parent]
        if not {type(v) for col in (ids, parent, time) for v in col} <= {int}:
            raise TypeError
        if not {type(v) for col in (prob, price) for v in col} <= {int, float}:
            raise TypeError
        ids, parent, time = (np.array(col, dtype=np.int64) for col in (ids, parent, time))
        prob, price = np.array(prob, dtype=float), np.array(price, dtype=float)
    except (KeyError, TypeError, OverflowError):
        for k, item in enumerate(raw_nodes):
            if not isinstance(item, dict):
                raise ParseError(f"nodes[{k}] is not an object") from None
            try:
                _int64(item["id"])
                if item["parent"] is not None:
                    _int64(item["parent"])
                _int64(item["time"])
                _number(item["prob"], "prob"), _number(item["price"], "price")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"nodes[{k}] is malformed: {exc}") from exc
        raise  # not reached: the walk rejects what the type tests and conversions reject
    if not np.array_equal(np.sort(ids), np.arange(ids.size)):
        raise ValidationError("node ids are not dense 0..node_count-1")
    by_id = np.argsort(ids)
    return ScenarioTree(*(col[by_id] for col in (parent, time, prob, price)), depth)


_NODE_JSON = (
    '    {\n      "id": %d,\n      "parent": %s,\n      "time": %d,\n'
    '      "prob": %r,\n      "price": %r\n    }'
)


def dumps_tree(tree: ScenarioTree) -> str:
    """Canonical JSON form: fixed key order, nodes by ascending id, 2-space indent.

    The root's parent is written as ``null``.  ``dumps_tree(load_tree(x))`` is
    idempotent byte-for-byte.
    """
    parents = tree.parent.tolist()
    parents[0] = "null"  # the root, the only node without a parent
    rows = zip(
        range(tree.node_count), parents, tree.time.tolist(), tree.cond_prob.tolist(), tree.price.tolist()
    )
    # %r of a float is what json writes for a finite one, and every price and
    # probability is finite: the bytes are json.dumps(doc, indent=2)
    nodes = ",\n".join([_NODE_JSON % row for row in rows])
    return f'{{\n  "depth": {tree.depth},\n  "nodes": [\n{nodes}\n  ]\n}}\n'


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
    than rejected.  The root price is 100.  Per-node branching is uniform on
    ``{2..max_branching}``; conditional probabilities are bounded away from
    zero and sum to one exactly in floating point.
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

    parent, time, cond_prob, price = [-1], [0], [1.0], [100.0]
    frontier = [0]
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
                new_frontier.append(len(parent))
                parent.append(p)
                time.append(t)
                cond_prob.append(float(probs[j]))
                price.append(float(price[p] * factors[j]))
        frontier = new_frontier
    return ScenarioTree(parent, time, cond_prob, price, depth)
