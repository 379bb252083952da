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
from .scenario_tree import ClaimSpec, ScenarioTree, _finite, _node_map, _number, _stop_above
from .strategy import PortfolioPath, Strategy, _rate, portfolio_path

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
    """Node-indexed martingale pair.  ``support`` is always a boolean mask of
    the nodes the system is defined on (``None`` in the constructor means the
    whole tree); systems built for a market truncated at a stopping time live
    on the truncated node set.  All three arrays are read-only copies, and
    every entry of ``z0`` and ``z1`` must be finite: NaN passes every
    comparison the checks make."""

    z0: np.ndarray
    z1: np.ndarray
    support: np.ndarray | None = None

    def __post_init__(self):
        # copies: freezing the caller's arrays would make them read-only too
        z0 = np.array(self.z0, dtype=float)
        z1 = np.array(self.z1, dtype=float)
        if z0.shape != z1.shape or z0.ndim != 1:
            raise ShapeMismatch("z0 and z1 must be equal-length vectors")
        support = np.ones(z0.size, bool) if self.support is None else np.array(self.support, bool)
        if support.shape != z0.shape:
            raise ShapeMismatch("support mask must match z0/z1")
        _finite(z0, "price system z0")
        _finite(z1, "price system z1")
        for arr in (z0, z1, support):
            arr.setflags(write=False)
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "support", support)

    @property
    def node_count(self) -> int:
        return self.z0.size

    @property
    def strict(self) -> bool:
        """True when the density component is positive on the whole support."""
        return bool((self.z0[self.support] > 0.0).all())

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
            i = tree.check_node(k)
            if k not in z0 or k not in z1:
                raise ShapeMismatch(f"node {k} present in only one of z0/z1")
            a0[i] = float(z0[k])
            a1[i] = float(z1[k])
            mask[i] = True
        return cls(a0, a1, mask)

    def to_json(self) -> dict:
        ids = np.flatnonzero(self.support)
        return {
            "z0": {str(int(i)): float(self.z0[i]) for i in ids},
            "z1": {str(int(i)): float(self.z1[i]) for i in ids},
        }

    @classmethod
    def from_json(cls, tree: ScenarioTree, obj: dict) -> "ConsistentPriceSystem":
        try:
            z0 = _node_map(obj["z0"], "z0", lambda k, v: _number(v, f"z0 at node {k}"))
            z1 = _node_map(obj["z1"], "z1", lambda k, v: _number(v, f"z1 at node {k}"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad price-system document: {exc}") from exc
        return cls.from_maps(tree, z0, z1)


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
) -> CpsCheck:
    """Check all defining constraints, reporting the worst residual per family.

    Families: root normalization (``z0`` starts at 1), the martingale
    identities for both components at every branch point, the spread bounds
    ``(1-lam) S z0 <= z1 <= S z0``, and nonnegativity.  Residuals are scaled
    by ``max(1, price)`` at the node where they live.  With ``stop`` given,
    the check runs on the market truncated at that stopping time.
    """
    lam = _rate(lam)
    tree.check_size("price system", cps.node_count)
    above = _stop_above(tree, stop)
    required = (above < 0) | (above == np.arange(tree.node_count))
    if (required & ~cps.support).any():
        missing = np.flatnonzero(required & ~cps.support)[:5].tolist()
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

    ok = all(v <= CPS_TOL for v in worst.values())
    return CpsCheck(ok, worst, witness)


def shadow_price(tree: ScenarioTree, cps: ConsistentPriceSystem, node: int) -> float:
    """The implied frictionless price ``z1/z0``; where the density vanishes it
    is defined to be the market price."""
    node = tree.check_node(node)
    tree.check_size("price system", cps.node_count)
    z0 = cps.z0[node]
    if z0 > 0.0:
        return float(cps.z1[node] / z0)
    return float(tree.price[node])


def expected_claim(tree: ScenarioTree, cps: ConsistentPriceSystem, claim: ClaimSpec) -> float:
    """Expected payoff under the pricing measure: sum of P(leaf) z0(leaf) X(leaf)."""
    tree.check_size("price system", cps.node_count)
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
    tree.check_size("price system", cps.node_count)
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

    A deficit fails when it exceeds ``CPS_TOL * max(1, |V(node)|, S(node) * z0(node))``.
    The scale is in root units (``z0`` is 1 at the root), the units in which
    ``(z0, z1)`` and hence their roundoff are stated; ``S * z0`` bounds the
    stock leg's size at the node.  The ``witness`` reports ``(node, deficit)``
    with the deficit in these z0-weighted units.
    """
    lam = _rate(lam)
    tree.check_size("price system", cps.node_count)
    return _supermartingale(tree, portfolio_path(tree, lam, strategy), cps)


def _supermartingale(tree: ScenarioTree, path: PortfolioPath, cps) -> SupermartingaleCheck:
    """``supermartingale_check`` on a portfolio path already derived."""
    value = path.phi0 * cps.z0 + path.phi1 * cps.z1
    expected = tree.children_mean(value)
    scale = np.maximum(np.maximum(1.0, np.abs(value)), tree.price * cps.z0)
    internal = tree.internal
    bad = internal[value[internal] < expected[internal] - CPS_TOL * scale[internal]]
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
) -> bool:
    """Verify the process ``x``, a node-indexed array, frozen at the stopping
    time is a martingale.

    Hypotheses checked first: ``x`` and ``bound`` are finite, ``x`` is
    nonnegative everywhere and bounded by ``bound`` strictly before the stop.
    On a finite tree this is the whole content of the local-to-true
    martingale upgrade: boundedness before the stop leaves nothing for the
    stopped process to lose.
    """
    tol = 1e-10
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeMismatch(f"process must be a node-indexed vector, got shape {x.shape}")
    tree.check_size("process", x.size)
    _finite(x, "process x")
    if not np.isfinite(bound):
        raise ValidationError(f"bound must be finite, got {bound}")
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
    if (cps_a.support != cps_b.support).any():
        raise MismatchedTrees("price systems live on different supports")
    mu = float(mu)
    if not (0.0 <= mu <= 1.0):
        raise ValidationError(f"mixing weight must be in [0, 1], got {mu}")
    z0 = mu * cps_a.z0 + (1.0 - mu) * cps_b.z0
    z1 = mu * cps_a.z1 + (1.0 - mu) * cps_b.z1
    return ConsistentPriceSystem(z0, z1, cps_a.support)


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

    The branch points of one time step are extended together (``_extend``),
    with the weights of the whole step drawn in node id order.  The output
    is the same, bit for bit, as extending one branch point at a time.
    """
    lam = _rate(lam)
    rng = np.random.default_rng(int(seed))
    n = tree.node_count
    above = _stop_above(tree, stop)
    required = (above < 0) | (above == np.arange(n))

    S = tree.price
    shadow = np.full(n, np.nan)
    z0 = np.zeros(n)

    lo, hi = (1.0 - lam) * S[0], S[0]
    shadow[0] = lo if hi <= lo else lo + rng.uniform(0.15, 0.85) * (hi - lo)
    z0[0] = 1.0
    n_kids = np.bincount(tree.parent[1:], minlength=n)
    first_kid = np.cumsum(n_kids) - n_kids
    by_parent = np.argsort(tree.parent[1:], kind="stable") + 1  # children in id order
    for lvl in tree.levels[:-1]:
        nodes = lvl[above[lvl] < 0]  # branch points before the stop fires
        if not nodes.size:
            break
        k_of = n_kids[nodes]
        draws = rng.uniform(0.2, 1.0, size=int(k_of.sum()))
        offset = np.cumsum(k_of) - k_of
        found = np.empty(nodes.size, dtype=bool)
        for k in np.unique(k_of).tolist():
            rows = np.flatnonzero(k_of == k)
            i = nodes[rows]
            cols = np.arange(k)
            kids = by_parent[first_kid[i, None] + cols]
            q, child_shadow = _extend(lam, shadow[i], S[kids], draws[offset[rows, None] + cols])
            found[rows] = ~np.isnan(q[:, 0])
            shadow[kids] = child_shadow
            z0[kids] = z0[i, None] * q / tree.cond_prob[kids]
        if not found.all():
            i = nodes[np.argmin(found)]
            kids = np.flatnonzero(tree.parent == i)
            lo, hi, target = ((1.0 - lam) * S[kids]).min(), S[kids].max(), shadow[i]
            if not (lo <= target <= hi):
                raise ValidationError(
                    f"cannot extend shadow price {target} through node {i}: "
                    f"children reach only [{lo}, {hi}]"
                )
            raise ValidationError(f"shadow-price extension failed at node {i}")

    shadow = np.where(np.isnan(shadow), S, shadow)
    z1 = z0 * shadow
    out = ConsistentPriceSystem(z0, z1, required)
    check = verify_cps(tree, lam, out, stop=stop)
    if not check:
        raise CertificateFailure(f"random system failed verification: {check.worst}")
    return out


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two C-contiguous ``(m, k)`` blocks, each by the
    kernel of a 1-D ``a[r] @ b[r]``; ``(a * b).sum(1)`` rounds differently."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _extend(lam: float, target: np.ndarray, S: np.ndarray, draws: np.ndarray):
    """Q-weights and child shadow prices for ``m`` branch points of ``k``
    children each, shadow prices ``target`` ``(m,)``, child prices ``S`` and
    raw weights ``draws`` ``(m, k)``.

    Returns ``(q, child_shadow)``, both ``(m, k)``; ``q`` is NaN on the rows
    where the children cannot carry the target.  Row sums are
    ``sum(axis=1)`` of a C-contiguous block, which numpy reduces row by row
    like a 1-D sum.
    """
    m, k = S.shape
    r = np.arange(m)
    lo, hi = (1.0 - lam) * S, S
    c_min, c_max = lo.argmin(axis=1), hi.argmax(axis=1)
    lo_min, hi_max = lo[r, c_min], hi[r, c_max]
    rest = draws / draws.sum(axis=1, keepdims=True)
    q = np.full((m, k), np.nan)
    open_ = (lo_min <= target) & (target <= hi_max)

    def anchored(rows, mu):
        # weight mu on the cheapest child and 1 - mu on the dearest
        a = np.zeros((rows.size, k))
        a[np.arange(rows.size), c_min[rows]] += mu
        a[np.arange(rows.size), c_max[rows]] += 1.0 - mu
        return a

    if lam == 0.0:
        # frictionless spread is a point: solve the expectation identity exactly
        s_lo, s_hi = hi[r, c_min], hi_max
        rest_mean = _rowdot(rest, hi)
        flat = np.abs(s_hi - s_lo) <= 1e-14 * np.maximum(1.0, s_hi)
        exact = np.abs(rest_mean - target) <= 1e-12 * np.maximum(1.0, np.abs(target))
        hit = open_ & flat & exact
        q[hit] = rest[hit]
        open_ &= ~flat
        eps = 0.25
        for _ in range(80):
            o = np.flatnonzero(open_)
            if not o.size:
                break
            t_anchor = (target[o] - eps * rest_mean[o]) / (1.0 - eps)
            mu = (t_anchor - s_hi[o]) / (s_lo[o] - s_hi[o])
            got = (0.0 < mu) & (mu < 1.0)
            o = o[got]
            q[o] = (1.0 - eps) * anchored(o, mu[got]) + eps * rest[o]
            open_[o] = False
            eps *= 0.5
    else:
        # weight window on the low-price anchor: above mu1 the low mix
        # stays below the target, below mu2 the high mix stays above
        lo_at_cmax, hi_at_cmin = lo[r, c_max], hi[r, c_min]
        with np.errstate(divide="ignore", invalid="ignore"):
            mu2 = np.where(hi_at_cmin >= target, 1.0, (hi_max - target) / (hi_max - hi_at_cmin))
            mu1 = np.where(lo_at_cmax <= target, 0.0, (lo_at_cmax - target) / (lo_at_cmax - lo_min))
        anchor = anchored(r, 0.5 * (mu1 + mu2))  # the window [mu1, mu2] is never empty
        eps = 0.25
        for _ in range(80):
            o = np.flatnonzero(open_)
            if not o.size:
                break
            cand = (1.0 - eps) * anchor[o] + eps * rest[o]
            got = (_rowdot(cand, lo[o]) <= target[o]) & (target[o] <= _rowdot(cand, hi[o]))
            q[o[got]] = cand[got]
            open_[o[got]] = False
            eps *= 0.5
    span = _rowdot(q, hi - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.minimum(1.0, np.maximum(0.0, (target - _rowdot(q, lo)) / span))
    point = span <= 1e-14 * np.maximum(1.0, np.abs(target))
    child_shadow = np.where(point[:, None], hi, lo + theta[:, None] * (hi - lo))
    return q / q.sum(axis=1, keepdims=True), child_shadow
