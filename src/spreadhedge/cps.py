"""Consistent price systems: nonnegative martingale pairs inside the spread.

A system is stored as the node-indexed pair ``(z0, z1)``: ``z0`` is the
density process of a pricing measure Q against the physical measure and
``z1 = z0 * shadow`` for a shadow price evolving inside the bid-ask band
``[(1-lam)S, S]``.  The martingale constraints are linear in ``(z0, z1)``,
which is what both the verification routines and the dual LP consume; the
(Q, shadow) view is derived.

``z0`` may vanish on part of the tree (Q then is only absolutely continuous);
``strict`` systems have ``z0 > 0`` everywhere.  On a finite tree every
nonnegative local martingale is a true martingale, so one type serves both
the local and the uniformly-integrable notion; ``stopped_martingale_check``
is the concrete witness of that degeneracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    BadFrictionGap,
    CertificateFailure,
    MismatchedTrees,
    ParseError,
    PreconditionViolated,
    ShapeMismatch,
    UnverifiedInput,
    ValidationError,
)
from .scenario_tree import ClaimSpec, ScenarioTree, _stop_ids
from .strategy import Strategy, _rate, portfolio_path

__all__ = [
    "ConsistentPriceSystem",
    "CpsCheck",
    "verify_cps",
    "shadow_price",
    "expected_claim",
    "polar_pairing",
    "supermartingale_check",
    "concatenate_cps",
    "stopped_martingale_check",
    "mix_cps",
    "random_cps",
]

CPS_TOL = 1e-9


@dataclass(frozen=True)
class ConsistentPriceSystem:
    """Node-indexed martingale pair.  ``support`` marks the nodes the system
    is defined on (``None`` means the whole tree); systems built for a market
    truncated at a stopping time live on the truncated node set."""

    z0: np.ndarray
    z1: np.ndarray
    support: np.ndarray | None = None

    def __post_init__(self):
        z0 = np.asarray(self.z0, dtype=float)
        z1 = np.asarray(self.z1, dtype=float)
        if z0.shape != z1.shape or z0.ndim != 1:
            raise ShapeMismatch("z0 and z1 must be equal-length vectors")
        support = self.support
        if support is not None:
            support = np.asarray(support, dtype=bool)
            if support.shape != z0.shape:
                raise ShapeMismatch("support mask must match z0/z1")
            support.setflags(write=False)
        z0.setflags(write=False)
        z1.setflags(write=False)
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "support", support)

    @property
    def node_count(self) -> int:
        return self.z0.size

    def support_mask(self) -> np.ndarray:
        if self.support is None:
            return np.ones(self.node_count, dtype=bool)
        return self.support

    @property
    def strict(self) -> bool:
        """True when the density component is positive on the whole support."""
        return bool((self.z0[self.support_mask()] > 0.0).all())

    @classmethod
    def from_maps(
        cls,
        tree: ScenarioTree,
        z0: Mapping[int, float],
        z1: Mapping[int, float],
    ) -> "ConsistentPriceSystem":
        """Build from sparse node maps; nodes present in both maps form the support."""
        n = tree.node_count
        a0 = np.zeros(n)
        a1 = np.zeros(n)
        mask = np.zeros(n, dtype=bool)
        keys = set(z0) | set(z1)
        for k in keys:
            i = tree.check_node(int(k))
            if int(k) not in z0 or int(k) not in z1:
                raise ShapeMismatch(f"node {k} present in only one of z0/z1")
            a0[i] = float(z0[int(k)])
            a1[i] = float(z1[int(k)])
            mask[i] = True
        support = None if mask.all() else mask
        return cls(a0, a1, support)

    def to_json(self) -> dict:
        mask = self.support_mask()
        ids = np.flatnonzero(mask)
        return {
            "z0": {str(int(i)): float(self.z0[i]) for i in ids},
            "z1": {str(int(i)): float(self.z1[i]) for i in ids},
        }

    @classmethod
    def from_json(cls, tree: ScenarioTree, obj: dict) -> "ConsistentPriceSystem":
        try:
            z0 = {int(k): float(v) for k, v in obj["z0"].items()}
            z1 = {int(k): float(v) for k, v in obj["z1"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad price-system document: {exc}") from exc
        return cls.from_maps(tree, z0, z1)


def _stop_above(tree: ScenarioTree, stop) -> np.ndarray:
    """Per node, the stop node at or above it, or -1 while the stop has not
    fired (everywhere for ``stop=None``).

    A stop set is an antichain, so every root path holds at most one stop
    node and the path sum of ``id + 1`` over the stop nodes names it.  The
    truncated market is the mask ``(above < 0) | (above == node)``.
    """
    mark = np.zeros(tree.node_count)
    if stop is not None:
        ids = np.fromiter(_stop_ids(tree, stop), dtype=np.int64)
        mark[ids] = ids + 1.0
    return tree.path_sum(mark).astype(np.int64) - 1


@dataclass(frozen=True)
class CpsCheck:
    ok: bool
    worst: dict
    witness: dict

    def __bool__(self) -> bool:
        return self.ok


def verify_cps(
    tree: ScenarioTree,
    lam,
    cps: ConsistentPriceSystem,
    *,
    stop=None,
    tol: float = CPS_TOL,
) -> CpsCheck:
    """Check all defining constraints, reporting the worst residual per family.

    Families: root normalization (``z0`` starts at 1), the martingale
    identities for both components at every branch point, the spread bounds
    ``(1-lam) S z0 <= z1 <= S z0``, and nonnegativity.  Residuals are scaled
    by ``max(1, price)`` at the node where they live.  With ``stop`` given,
    the check runs on the market truncated at that stopping time.
    """
    lam = _rate(lam)
    if cps.node_count != tree.node_count:
        raise ShapeMismatch(
            f"price system indexes {cps.node_count} nodes, tree has {tree.node_count}"
        )
    above = _stop_above(tree, stop)
    required = (above < 0) | (above == np.arange(tree.node_count))
    have = cps.support_mask()
    if (required & ~have).any():
        missing = np.flatnonzero(required & ~have)[:5].tolist()
        raise ShapeMismatch(f"price system undefined on required nodes {missing}")

    z0, z1, S = cps.z0, cps.z1, tree.price
    scale = np.maximum(1.0, S)
    worst: dict[str, float] = {}
    witness: dict[str, int] = {}

    def record(family: str, residuals: np.ndarray, nodes: np.ndarray) -> None:
        if residuals.size == 0:
            worst[family] = 0.0
            witness[family] = -1
            return
        k = int(np.argmax(residuals))
        worst[family] = float(residuals[k])
        witness[family] = int(nodes[k])

    record("root", np.array([abs(z0[0] - 1.0)]), np.array([0]))

    # branch points strictly before the stop fires
    branch = tree.internal[above[tree.internal] < 0]
    z = np.column_stack([z0, z1])
    drift = np.abs(z - tree.children_mean(z))
    record("martingale", drift[branch].max(axis=1) / scale[branch], branch)

    nodes = np.flatnonzero(required)
    lo = (1.0 - lam) * S[nodes] * z0[nodes] - z1[nodes]
    hi = z1[nodes] - S[nodes] * z0[nodes]
    record("spread", np.maximum(np.maximum(lo, hi), 0.0) / scale[nodes], nodes)
    record(
        "nonnegative",
        np.maximum(np.maximum(-z0[nodes], -z1[nodes]), 0.0) / scale[nodes],
        nodes,
    )

    ok = all(v <= tol for v in worst.values())
    return CpsCheck(ok, worst, witness)


def shadow_price(tree: ScenarioTree, cps: ConsistentPriceSystem, node: int) -> float:
    """The implied frictionless price ``z1/z0``; where the density vanishes it
    is defined to be the market price."""
    node = tree.check_node(node)
    if cps.node_count != tree.node_count:
        raise ShapeMismatch("price system does not index this tree")
    z0 = cps.z0[node]
    if z0 > 0.0:
        return float(cps.z1[node] / z0)
    return float(tree.price[node])


def expected_claim(tree: ScenarioTree, cps: ConsistentPriceSystem, claim: ClaimSpec) -> float:
    """Expected payoff under the pricing measure: sum of P(leaf) z0(leaf) X(leaf)."""
    x = claim.payoff_vector(tree)
    leaves = tree.leaves
    return float(np.sum(tree.path_prob[leaves] * cps.z0[leaves] * x))


def polar_pairing(tree: ScenarioTree, lam, cps: ConsistentPriceSystem, strategy: Strategy) -> float:
    """Terminal pairing ``E[phi0_T z0_T + phi1_T z1_T]``.

    For every self-financing strategy started from (0, 0) and every verified
    system this is nonpositive (up to roundoff): trading inside the spread
    never beats the shadow price.
    """
    _rate(lam)
    path = portfolio_path(tree, lam, strategy)
    leaves = tree.leaves
    return float(
        np.sum(
            tree.path_prob[leaves]
            * (path.phi0[leaves] * cps.z0[leaves] + path.phi1[leaves] * cps.z1[leaves])
        )
    )


@dataclass(frozen=True)
class SupermartingaleCheck:
    ok: bool
    witness: tuple[int, float] | None  # node, deficit

    def __bool__(self) -> bool:
        return self.ok


def supermartingale_check(
    tree: ScenarioTree,
    lam,
    cps: ConsistentPriceSystem,
    strategy: Strategy,
    *,
    tol: float = CPS_TOL,
) -> SupermartingaleCheck:
    """Check the paired value ``V = phi0 * z0 + phi1 * z1`` is a supermartingale.

    The check is division-free: at every branch point it asks
    ``V(node) >= sum_k cond_prob(k) * V(k)`` under the physical conditional
    probabilities.  ``V`` is ``z0`` times shadow wealth
    ``phi0 + phi1 * (z1/z0)``, and the physical weights times ``z0(k)/z0(node)``
    are the Q-conditional weights, so for a strict system the inequality is
    the Q-supermartingale property of shadow wealth multiplied through by
    ``z0(node) > 0``: the two statements are equivalent.  Forming ``z1/z0``
    and ``z0(k)/z0(node)`` instead would magnify the roundoff a solver leaves
    in ``(z0, z1)`` by ``1/z0``, failing true statements wherever the
    density is small.

    A deficit fails when it exceeds ``tol * max(1, |V(node)|, S(node) * z0(node))``.
    The scale is in root units (``z0`` is 1 at the root), the units in which
    ``(z0, z1)`` and hence their roundoff are stated; ``S * z0`` bounds the
    stock leg's size at the node.  The ``witness`` reports ``(node, deficit)``
    with the deficit in these z0-weighted units.
    """
    lam = _rate(lam)
    if cps.node_count != tree.node_count:
        raise ShapeMismatch("price system does not index this tree")
    path = portfolio_path(tree, lam, strategy)
    value = path.phi0 * cps.z0 + path.phi1 * cps.z1
    expected = tree.children_mean(value)
    scale = np.maximum(np.maximum(1.0, np.abs(value)), tree.price * cps.z0)
    internal = tree.internal
    bad = internal[value[internal] < expected[internal] - tol * scale[internal]]
    if bad.size:
        i = int(bad[0])
        return SupermartingaleCheck(False, (i, float(expected[i] - value[i])))
    return SupermartingaleCheck(True, None)


def concatenate_cps(
    tree: ScenarioTree,
    lam,
    lam_n,
    lam_prime,
    stop,
    cps_local: ConsistentPriceSystem,
    cps_global: ConsistentPriceSystem,
) -> ConsistentPriceSystem:
    """Splice a system for the market stopped at ``stop`` onto a strict global one.

    Up to the stopping time the result follows the local pair with the stock
    component damped by ``(1 - lam')``; strictly afterwards it follows the
    global pair rescaled to match at the splice node.  With
    ``0 < lam' < (lam - lam_n)/2`` the spliced shadow price stays inside the
    ``lam`` spread, and the output is re-verified at ``lam`` before being
    returned.
    """
    lam = _rate(lam)
    lam_n = _rate(lam_n)
    lam_p = _rate(lam_prime)
    if not (0.0 < lam_p < (lam - lam_n) / 2.0):
        raise BadFrictionGap(
            f"need 0 < lam' < (lam - lam_n)/2 = {(lam - lam_n) / 2.0}, got lam' = {lam_p}"
        )
    local_check = verify_cps(tree, lam_n, cps_local, stop=stop)
    if not local_check:
        raise UnverifiedInput(f"local system fails at its rate: {local_check.worst}")
    global_check = verify_cps(tree, lam_p, cps_global)
    if not global_check:
        raise UnverifiedInput(f"global system fails at its rate: {global_check.worst}")
    if not cps_global.strict:
        raise UnverifiedInput("global system must have a strictly positive density")

    above = _stop_above(tree, stop)
    after = (above >= 0) & (above != np.arange(tree.node_count))
    a = above[after]
    z0 = cps_local.z0.copy()
    z1 = (1.0 - lam_p) * cps_local.z1
    z0[after] = cps_global.z0[after] * cps_local.z0[a] / cps_global.z0[a]
    z1[after] = (1.0 - lam_p) * cps_global.z1[after] * cps_local.z1[a] / cps_global.z1[a]
    out = ConsistentPriceSystem(z0, z1)
    check = verify_cps(tree, lam, out)
    if not check:
        raise CertificateFailure(f"spliced system fails at the target rate: {check.worst}")
    return out


def stopped_martingale_check(
    tree: ScenarioTree,
    x,
    stop,
    bound: float,
    *,
    tol: float = 1e-10,
) -> bool:
    """Verify the process frozen at the stopping time is a martingale.

    Hypotheses checked first: ``x`` is nonnegative everywhere and bounded by
    ``bound`` strictly before the stop.  On a finite tree this is the whole
    content of the local-to-true martingale upgrade: boundedness before the
    stop leaves nothing for the stopped process to lose.
    """
    if isinstance(x, Mapping):
        arr = np.zeros(tree.node_count)
        for k, v in x.items():
            arr[tree.check_node(int(k))] = float(v)
        x = arr
    x = np.asarray(x, dtype=float)
    if x.shape != (tree.node_count,):
        raise ShapeMismatch("process must assign a value to every node")
    if (x < -tol).any():
        raise PreconditionViolated("process must be nonnegative")
    above = _stop_above(tree, stop)
    nodes = np.arange(tree.node_count)
    # strict ancestors of stop nodes: their subtree holds a stop node below them
    is_stop = above == nodes
    before = np.flatnonzero(tree.subtree_sum(is_stop) - is_stop > 0)
    over = before[x[before] > bound + tol * max(1.0, bound)]
    if over.size:
        i = int(over[0])
        raise PreconditionViolated(f"process exceeds bound {bound} at pre-stop node {i}: {x[i]}")
    frozen = x[np.where(above >= 0, above, nodes)]
    internal = tree.internal
    drift = np.abs(frozen - tree.children_mean(frozen))[internal]
    return not (drift > tol * np.maximum(1.0, np.abs(frozen[internal]))).any()


def mix_cps(
    cps_a: ConsistentPriceSystem, cps_b: ConsistentPriceSystem, mu: float
) -> ConsistentPriceSystem:
    """Convex combination ``mu * a + (1 - mu) * b`` (the feasible set is convex).

    Mixing a strict system into a boundary one with any positive weight
    restores strict positivity; strictness of the result is inferred from the
    mixed values."""
    if cps_a.node_count != cps_b.node_count:
        raise MismatchedTrees("price systems index different node counts")
    ma, mb = cps_a.support_mask(), cps_b.support_mask()
    if (ma != mb).any():
        raise MismatchedTrees("price systems live on different supports")
    mu = float(mu)
    if not (0.0 <= mu <= 1.0):
        raise ValidationError(f"mixing weight must be in [0, 1], got {mu}")
    z0 = mu * cps_a.z0 + (1.0 - mu) * cps_b.z0
    z1 = mu * cps_a.z1 + (1.0 - mu) * cps_b.z1
    return ConsistentPriceSystem(z0, z1, None if ma.all() else ma)


def random_cps(
    tree: ScenarioTree,
    lam,
    seed: int,
    *,
    stop=None,
) -> ConsistentPriceSystem:
    """Deterministic random strict system, built without solving any program.

    Forward construction: pick a shadow price strictly inside the spread at
    the root, then at each branch choose positive Q-weights and child shadow
    prices inside their spreads matching the conditional-expectation identity.
    Works whenever each branch point's children straddle enough price range
    (always true for straddle-generated trees); raises ``ValidationError``
    when the construction is impossible at some node.

    With ``stop`` given, the construction halts at the stopping time and the
    result lives on the truncated market.
    """
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
    for i in tree.order:
        if above[i] >= 0 or not tree.children[i]:
            continue
        kids = np.array(tree.children[i], dtype=np.int64)
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
            # frictionless spread is a point: solve the expectation identity exactly
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
            # weight window on the low-price anchor: above mu1 the low mix
            # stays below the target, below mu2 the high mix stays above
            lo_at_cmax, hi_at_cmin = lo[c_max], hi[c_min]
            mu2 = 1.0 if hi_at_cmin >= target else (
                (hi[c_max] - target) / (hi[c_max] - hi_at_cmin)
            )
            mu1 = 0.0 if lo_at_cmax <= target else (
                (lo_at_cmax - target) / (lo_at_cmax - lo[c_min])
            )
            mu = 0.5 * (mu1 + mu2)  # the window [mu1, mu2] is never empty
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
