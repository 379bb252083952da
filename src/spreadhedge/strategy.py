"""Portfolio processes on a scenario tree under proportional transaction costs.

A strategy stores its decisions — per-node buy/sell share counts and a
nonnegative bond consumption — together with the pre-trade endowment at the
root.  Holdings are derived: every trade at a node executes at that node's
price, paying the ask ``S`` on purchases and receiving the bid ``(1-lam)S``
on sales.  Making consumption an explicit variable turns the self-financing
inequality into an identity, which is exactly the shape the hedging LP needs.

Bond-side variation is measured on the realized bond path (net of
consumption), stock-side variation on the gross buy/sell decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    BadFriction,
    ParseError,
    PreconditionViolated,
    ShapeMismatch,
    ValidationError,
)
from .scenario_tree import ScenarioTree, _finite, _node_map, _number, _object, _stop_above

__all__ = [
    "Strategy",
    "AdmissibilityCap",
    "PortfolioPath",
    "SelfFinancingCheck",
    "AdmissibilityCheck",
    "portfolio_path",
    "is_self_financing",
    "liquidate",
    "liquidation_values",
    "check_admissibility",
    "minimal_admissibility_bound",
    "make_ask_strategy",
    "make_bid_strategy",
    "lower_friction_transform",
    "total_variation",
    "random_strategy",
]


def _rate(lam) -> float:
    """The proportional friction rate: buy at ``S``, sell at ``(1 - lam) * S``."""
    lam = float(lam)
    if not (0.0 <= lam < 1.0):
        raise BadFriction(f"transaction cost rate must be in [0, 1), got {lam}")
    return lam


@dataclass(frozen=True)
class Strategy:
    """Trading decisions per node plus the pre-trade endowment at the root.

    ``buy``/``sell`` are share counts, ``consume`` is bonds burned at the
    node; all three are expected nonnegative for a self-financing strategy
    (``is_self_financing`` reports violations instead of assuming them).
    Every entry, ``initial`` included, must be finite: NaN passes every
    comparison the checks make.
    """

    initial: tuple[float, float]
    buy: np.ndarray
    sell: np.ndarray
    consume: np.ndarray

    def __post_init__(self):
        # copies: freezing the caller's arrays would make them read-only too
        buy = np.array(self.buy, dtype=float)
        sell = np.array(self.sell, dtype=float)
        consume = np.array(self.consume, dtype=float)
        if not (buy.shape == sell.shape == consume.shape) or buy.ndim != 1:
            raise ShapeMismatch("buy/sell/consume must be equal-length vectors")
        initial = (float(self.initial[0]), float(self.initial[1]))
        parts = {"initial": np.array(initial), "buy": buy, "sell": sell, "consume": consume}
        for name, arr in parts.items():
            _finite(arr, f"strategy {name}")
        for arr in (buy, sell, consume):
            arr.setflags(write=False)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "buy", buy)
        object.__setattr__(self, "sell", sell)
        object.__setattr__(self, "consume", consume)

    @property
    def node_count(self) -> int:
        return self.buy.size

    @classmethod
    def zero(cls, tree: ScenarioTree, initial=(0.0, 0.0)) -> "Strategy":
        n = tree.node_count
        return cls(initial, np.zeros(n), np.zeros(n), np.zeros(n))

    @classmethod
    def from_trades(
        cls,
        tree: ScenarioTree,
        trades: Mapping[int, Mapping[str, float]],
        initial=(0.0, 0.0),
    ) -> "Strategy":
        """Build from a sparse trade map; omitted nodes trade nothing.  A trade
        key other than ``buy``, ``sell`` and ``consume`` is a ``ParseError``:
        a misspelt key would otherwise read as no trade."""
        n = tree.node_count
        buy, sell, consume = np.zeros(n), np.zeros(n), np.zeros(n)
        for node, t in trades.items():
            node = tree.check_node(node)
            for key in t:
                if key not in ("buy", "sell", "consume"):
                    raise ParseError(f"unknown trade key {key!r} at node {node}")
            buy[node] = float(t.get("buy", 0.0))
            sell[node] = float(t.get("sell", 0.0))
            consume[node] = float(t.get("consume", 0.0))
        return cls(initial, buy, sell, consume)

    def to_json(self) -> dict:
        active = np.flatnonzero((self.buy != 0) | (self.sell != 0) | (self.consume != 0))
        trades = {
            str(i): {
                "buy": float(self.buy[i]),
                "sell": float(self.sell[i]),
                "consume": float(self.consume[i]),
            }
            for i in active
        }
        return {"initial": [self.initial[0], self.initial[1]], "trades": trades}

    @classmethod
    def from_json(cls, tree: ScenarioTree, obj: dict) -> "Strategy":
        try:
            initial = tuple(_number(obj["initial"][i], f"initial[{i}]") for i in (0, 1))
            trades = _node_map(
                obj.get("trades", {}),
                "trades",
                lambda k, v: {
                    kk: _number(vv, f"{kk} at node {k}")
                    for kk, vv in _object(v, f"trade at node {k}").items()
                },
            )
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ParseError(f"bad strategy document: {exc}") from exc
        return cls.from_trades(tree, trades, initial)


@dataclass(frozen=True)
class PortfolioPath:
    """Post-trade holdings and cumulative trade decompositions along each path.

    ``phi0``/``phi1`` are bond and share holdings after the node's trade.
    ``up0``/``down0`` split the realized bond increments, ``up1``/``down1``
    accumulate gross buys and sells; ``delta0`` is the per-node bond move.
    ``liquidation`` is the bond value of closing the holdings at each node
    (longs sell at the bid, shorts cover at the ask).
    """

    phi0: np.ndarray
    phi1: np.ndarray
    up0: np.ndarray
    down0: np.ndarray
    up1: np.ndarray
    down1: np.ndarray
    delta0: np.ndarray
    liquidation: np.ndarray


def portfolio_path(tree: ScenarioTree, lam, strategy: Strategy) -> PortfolioPath:
    """Derive holdings from trades at friction ``lam``."""
    lam = _rate(lam)
    tree.check_size("strategy", strategy.node_count)
    delta0 = (
        -tree.price * strategy.buy
        + (1.0 - lam) * tree.price * strategy.sell
        - strategy.consume
    )
    x0, y0 = strategy.initial
    moves = np.column_stack(
        [delta0, np.maximum(delta0, 0.0), np.maximum(-delta0, 0.0), strategy.buy, strategy.sell]
    )
    moves[0, 0] += x0
    phi0, up0, down0, up1, down1 = tree.path_sum(moves).T
    # the net position from the gross legs, so that phi1 - y0 == up1 - down1
    # holds exactly whenever adding y0 is exact (always for y0 = 0)
    phi1 = y0 + (up1 - down1)
    liquidation = liquidate(phi0, phi1, tree.price, lam)
    return PortfolioPath(phi0, phi1, up0, down0, up1, down1, delta0, liquidation)


@dataclass(frozen=True)
class SelfFinancingCheck:
    ok: bool
    violations: tuple[tuple[int, str, float], ...]

    def __bool__(self) -> bool:
        return self.ok


def is_self_financing(tree: ScenarioTree, lam, strategy: Strategy) -> SelfFinancingCheck:
    """Check the financing identity holds with nonnegative slack at every node.

    Holdings are derived from the trades, so the bond-update identity holds by
    construction; what can fail is the sign of the decomposition: a negative
    ``consume`` injects bonds from nowhere, a negative ``buy``/``sell`` trades
    at the wrong side of the spread.  Violations are reported per node with
    their residual (the negative entry).
    """
    _rate(lam)
    tree.check_size("strategy", strategy.node_count)
    violations = []
    for name, arr in (("buy", strategy.buy), ("sell", strategy.sell), ("consume", strategy.consume)):
        bad = np.flatnonzero(arr < -1e-9)
        for i in bad:
            violations.append((int(i), name, float(arr[i])))
    violations.sort()
    return SelfFinancingCheck(not violations, tuple(violations))


def liquidate(phi0, phi1, price, lam):
    """Bond value of closing the position, elementwise: longs sell at the bid,
    shorts cover at the ask."""
    lam = _rate(lam)
    return phi0 + np.maximum(phi1, 0.0) * (1.0 - lam) * price - np.maximum(-phi1, 0.0) * price


def liquidation_values(tree: ScenarioTree, lam, strategy: Strategy) -> np.ndarray:
    return portfolio_path(tree, lam, strategy).liquidation


@dataclass(frozen=True)
class AdmissibilityCap:
    """Floor on liquidation value: ``-M`` in bonds, or ``-M(1+S)`` in the
    symmetric bond-plus-stock unit."""

    kind: str
    bound: float = float("inf")

    def __post_init__(self):
        if self.kind not in ("numeraire_based", "numeraire_free"):
            raise ValidationError(f"unknown admissibility kind {self.kind!r}")
        if not (self.bound >= 0.0):
            raise ValidationError(f"admissibility bound must be >= 0, got {self.bound}")

    @classmethod
    def unbounded(cls) -> "AdmissibilityCap":
        return cls("numeraire_based", float("inf"))

    @classmethod
    def numeraire_based(cls, m: float) -> "AdmissibilityCap":
        return cls("numeraire_based", float(m))

    @classmethod
    def numeraire_free(cls, m: float) -> "AdmissibilityCap":
        return cls("numeraire_free", float(m))

    @property
    def is_bounded(self) -> bool:
        return np.isfinite(self.bound)

    def floor(self, price: np.ndarray) -> np.ndarray:
        if self.kind == "numeraire_based":
            return np.full_like(np.asarray(price, dtype=float), -self.bound)
        return -self.bound * (1.0 + np.asarray(price, dtype=float))


@dataclass(frozen=True)
class AdmissibilityCheck:
    ok: bool
    witness: tuple[int, float, float] | None  # node, value, floor

    def __bool__(self) -> bool:
        return self.ok


def _admissibility(tree: ScenarioTree, values, cap: AdmissibilityCap) -> AdmissibilityCheck:
    """``check_admissibility`` on derived liquidation values; an unbounded
    cap's floor is ``-inf`` everywhere, so nothing fails."""
    floors = cap.floor(tree.price)
    bad = np.flatnonzero(values < floors - 1e-9)
    if bad.size:
        i = int(bad[0])
        return AdmissibilityCheck(False, (i, float(values[i]), float(floors[i])))
    return AdmissibilityCheck(True, None)


def check_admissibility(
    tree: ScenarioTree, lam, strategy: Strategy, cap: AdmissibilityCap
) -> AdmissibilityCheck:
    """Verify the liquidation floor at every node.

    On a finite tree every stopping time hits a node set, so a node-wise check
    covers all stopping times.  Returns the first violating node (ascending
    id) with the value and floor there.
    """
    return _admissibility(tree, liquidation_values(tree, lam, strategy), cap)


def _minimal_bound(tree: ScenarioTree, values, kind: str) -> float:
    """``minimal_admissibility_bound`` on liquidation values already derived."""
    if kind == "numeraire_based":
        return float(max(0.0, -values.min()))
    return float(max(0.0, (-values / (1.0 + tree.price)).max()))


def minimal_admissibility_bound(tree: ScenarioTree, lam, strategy: Strategy, kind: str) -> float:
    """Smallest M >= 0 making the strategy admissible for the given kind."""
    return _minimal_bound(tree, liquidation_values(tree, lam, strategy), kind)


def _stop_trades(tree: ScenarioTree, stop, counts: Mapping[int, float], side: str) -> np.ndarray:
    """``counts[n]`` at each stop node ``n`` and 0 elsewhere."""
    trades = np.zeros(tree.node_count)
    for i in np.flatnonzero(_stop_above(tree, stop) == np.arange(tree.node_count)).tolist():
        if i not in counts:
            raise ShapeMismatch(f"no share count for stop node {i}")
        q = float(counts[i])
        if q < 0.0:
            raise ValidationError(f"{side} strategy needs nonnegative share counts, got {q} at node {i}")
        trades[i] = q
    return trades


def make_ask_strategy(tree: ScenarioTree, stop, f: Mapping[int, float]) -> Strategy:
    """Buy ``f[n]`` shares at the ask when the stopping time fires at ``n`` and hold."""
    n = tree.node_count
    return Strategy((0.0, 0.0), _stop_trades(tree, stop, f, "ask"), np.zeros(n), np.zeros(n))


def make_bid_strategy(tree: ScenarioTree, lam, stop, g: Mapping[int, float]) -> Strategy:
    """Sell ``g[n]`` shares at the bid when the stopping time fires at ``n`` and hold."""
    _rate(lam)
    n = tree.node_count
    return Strategy((0.0, 0.0), np.zeros(n), _stop_trades(tree, stop, g, "bid"), np.zeros(n))


def lower_friction_transform(tree: ScenarioTree, strategy: Strategy, lam, lam_prime) -> Strategy:
    """Re-express a strategy under smaller friction, crediting the bid improvement.

    The output keeps the same trades and augments the bond leg by
    ``(lam - lam')/(1 - lam)`` times the cumulated upward bond variation of
    the input path, realized through a reduced consumption.  The stock leg is
    unchanged and the result is self-financing at ``lam'``.
    """
    lam = _rate(lam)
    lam_p = _rate(lam_prime)
    if lam_p > lam:
        raise BadFriction(f"target rate {lam_p} exceeds source rate {lam}")
    path = portfolio_path(tree, lam, strategy)
    coeff = (lam - lam_p) / (1.0 - lam)
    new_consume = (
        strategy.consume
        + (lam - lam_p) * tree.price * strategy.sell
        - coeff * np.maximum(path.delta0, 0.0)
    )
    new_consume = np.where((new_consume < 0.0) & (new_consume > -1e-12), 0.0, new_consume)
    out = Strategy(strategy.initial, strategy.buy, strategy.sell, new_consume)
    if not is_self_financing(tree, lam_p, out):
        raise PreconditionViolated("input strategy was not self-financing at its declared rate")
    return out


def total_variation(tree: ScenarioTree, lam, strategy: Strategy, node: int) -> tuple[float, float]:
    """Cumulative (bond, stock) variation along the path from the root to ``node``."""
    node = tree.check_node(node)
    path = portfolio_path(tree, lam, strategy)
    return (
        float(path.up0[node] + path.down0[node]),
        float(path.up1[node] + path.down1[node]),
    )


def random_strategy(
    tree: ScenarioTree,
    seed: int,
    *,
    scale: float = 1.0,
    liquidate_at_leaves: bool = False,
) -> Strategy:
    """Deterministic random self-financing strategy from a zero endowment.

    Property-suite instance source.  Trades are sparse nonnegative share
    counts: each node buys with probability 1/2 and sells with probability
    1/2.  With ``liquidate_at_leaves`` the final stock position is closed at
    every leaf so the terminal portfolio is pure bond.
    """
    rng = np.random.default_rng(int(seed))
    n = tree.node_count
    buy = np.where(rng.random(n) < 0.5, rng.exponential(scale, n), 0.0)
    sell = np.where(rng.random(n) < 0.5, rng.exponential(scale, n), 0.0)
    consume = np.where(rng.random(n) < 0.2, rng.exponential(0.1 * scale, n), 0.0)
    if liquidate_at_leaves:
        leaves = tree.leaves
        pos = tree.path_sum(buy - sell)[leaves]
        sell[leaves] += np.maximum(pos, 0.0)
        buy[leaves] += np.maximum(-pos, 0.0)
    return Strategy((0.0, 0.0), buy, sell, consume)
