"""The pricing engine: the hedging LP, its price-system dual, zero-gap certification.

``build_primal`` encodes the cheapest super-replication of a claim: choose an
initial bond endowment and per-node trades so the terminal stock position is
flat and terminal bonds dominate the payoff, optionally under a liquidation
floor at every node.  ``build_dual`` encodes the richest pricing measure:
maximize the expected payoff over all consistent price systems.  On a finite
tree both problems are ordinary LPs and strong duality makes the
super-replication price equal the dual value exactly.  ``superhedge_price``
solves only the hedging LP: its multipliers already form an optimal price
system (``dual_cps_from_primal``), so one solve yields the hedge, the price
system and the zero-gap certificate between the two.  ``build_dual`` is kept
only as the independent test oracle; no runtime path solves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cps import (
    ConsistentPriceSystem,
    expected_claim,
    supermartingale_check,
    verify_cps,
)
from .errors import (
    CertificateFailure,
    DualInfeasible,
    PreconditionViolated,
    ShapeMismatch,
    ValidationError,
)
from .lp import LinearProgram, LpSolution, solve, verify_certificate
from .scenario_tree import ClaimSpec, ScenarioTree
from .strategy import (
    AdmissibilityCap,
    Strategy,
    _rate,
    check_admissibility,
    is_self_financing,
    minimal_admissibility_bound,
    portfolio_path,
)

__all__ = [
    "PrimalVariableMap",
    "DualVariableMap",
    "SuperHedgeReport",
    "build_primal",
    "build_dual",
    "extract_strategy",
    "dual_cps_from_primal",
    "has_cps",
    "superhedge_price",
    "variation_bound_check",
    "price_curve",
]

GAP_TOL = 1e-7


@dataclass(frozen=True)
class PrimalVariableMap:
    """Column layout of the hedging LP: the initial endowment plus per-node
    trades; rows come in leaf order (flat-stock equalities, then budget
    inequalities), then the optional per-node floor blocks."""

    x0: int
    buy: np.ndarray
    sell: np.ndarray
    consume: np.ndarray
    long_part: np.ndarray | None = None
    short_part: np.ndarray | None = None


@dataclass(frozen=True)
class DualVariableMap:
    z0: np.ndarray
    z1: np.ndarray


def build_primal(
    tree: ScenarioTree, lam, claim: ClaimSpec, cap: AdmissibilityCap
) -> tuple[LinearProgram, PrimalVariableMap]:
    """Assemble the super-replication LP.

    Variables: the free initial bond endowment, then nonnegative buy/sell
    share counts and bond consumption per node.  Holdings are implied by the
    financing recursion started from (endowment, 0).  Each leaf contributes a
    flat-stock equality and a budget inequality (terminal bonds cover the
    payoff, consumption absorbs any overshoot).  A bounded cap adds, per
    node, a long/short split of the stock position and a liquidation-floor
    inequality.  Objective: minimize the endowment.
    """
    lam = _rate(lam)
    x = claim.payoff_vector(tree)
    n = tree.node_count
    leaves = tree.leaves
    n_leaves = leaves.size

    x0 = 0
    buy = np.arange(1, 1 + n)
    sell = np.arange(1 + n, 1 + 2 * n)
    consume = np.arange(1 + 2 * n, 1 + 3 * n)
    n_vars = 1 + 3 * n
    long_part = short_part = None
    if cap.is_bounded:
        long_part = np.arange(n_vars, n_vars + n)
        short_part = np.arange(n_vars + n, n_vars + 2 * n)
        n_vars += 2 * n

    names = ["x0"]
    names += [f"buy[{i}]" for i in range(n)]
    names += [f"sell[{i}]" for i in range(n)]
    names += [f"consume[{i}]" for i in range(n)]
    if cap.is_bounded:
        names += [f"long[{i}]" for i in range(n)]
        names += [f"short[{i}]" for i in range(n)]

    S = tree.price
    # row r covers the trades at the nodes on its root path: leaf rows, then
    # with a bounded cap one row per node
    on_path = tree.path_sum(np.eye(n)) > 0
    rows = on_path[leaves]
    b_ub = -x
    if cap.is_bounded:
        rows = np.vstack([rows, on_path])
        b_ub = np.concatenate([b_ub, -cap.floor(S)])
    m = rows.shape[0]
    # np.where keeps every structural zero +0.0
    net = np.ones((m, 1))
    net[n_leaves:] = -1.0
    A_eq = np.zeros((m, n_vars))
    b_eq = np.zeros(m)
    # leaf rows: the terminal stock position is flat
    # node rows: long - short = cumulated net stock position
    A_eq[:, buy] = np.where(rows, net, 0.0)
    A_eq[:, sell] = np.where(rows, -net, 0.0)
    # leaf rows: terminal bonds dominate the payoff, -phi0(leaf) <= -X(leaf)
    # node rows: liquidation floor, -phi0(i) - (1-lam) S long + S short <= -floor
    A_ub = np.zeros((m, n_vars))
    A_ub[:, x0] = -1.0
    A_ub[:, buy] = np.where(rows, S, 0.0)
    A_ub[:, sell] = np.where(rows, -(1.0 - lam) * S, 0.0)
    A_ub[:, consume] = np.where(rows, 1.0, 0.0)
    if cap.is_bounded:
        node_rows = np.arange(n_leaves, m)
        A_eq[node_rows, long_part] = 1.0
        A_eq[node_rows, short_part] = -1.0
        A_ub[node_rows, long_part] = -(1.0 - lam) * S
        A_ub[node_rows, short_part] = S

    c = np.zeros(n_vars)
    c[x0] = 1.0
    lower = np.zeros(n_vars)
    lower[x0] = -np.inf
    lp = LinearProgram(
        c=c,
        objective_sense="minimize",
        A_eq=A_eq,
        b_eq=b_eq,
        A_ub=A_ub,
        b_ub=b_ub,
        lower=lower,
        upper=np.full(n_vars, np.inf),
        names=tuple(names),
    )
    return lp, PrimalVariableMap(x0, buy, sell, consume, long_part, short_part)


def build_dual(
    tree: ScenarioTree, lam, claim: ClaimSpec
) -> tuple[LinearProgram, DualVariableMap]:
    """Assemble the price-system LP.

    Variables: the nonnegative pair (z0, z1) per node.  Constraints: the
    density starts at 1, both components satisfy the martingale identity at
    every branch point, and z1 lies in the spread band ``[(1-lam) S z0,
    S z0]`` node-wise.  Objective: maximize the expected payoff
    ``sum P(leaf) z0(leaf) X(leaf)``.
    """
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
    for i in tree.internal:
        kids = list(tree.children[i])
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
    lp = LinearProgram(
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
    return lp, DualVariableMap(z0, z1)


def extract_strategy(
    solution: LpSolution, vmap: PrimalVariableMap, tree: ScenarioTree
) -> Strategy:
    """Read the optimal trades out of a primal solution.

    Tiny negative trade values (solver dust) are clamped to zero; anything
    beyond 1e-9 fails the financing certificate.
    """
    if solution.status != "optimal":
        raise CertificateFailure(f"primal solution status is {solution.status}")
    xs = solution.x
    x0 = float(xs[vmap.x0])
    buy = np.asarray(xs[vmap.buy], dtype=float)
    sell = np.asarray(xs[vmap.sell], dtype=float)
    consume = np.asarray(xs[vmap.consume], dtype=float)
    worst = min(buy.min(initial=0.0), sell.min(initial=0.0), consume.min(initial=0.0))
    if worst < -1e-9:
        raise CertificateFailure(f"extracted trades violate nonnegativity by {-worst}")
    strat = Strategy(
        (x0, 0.0), np.maximum(buy, 0.0), np.maximum(sell, 0.0), np.maximum(consume, 0.0)
    )
    if strat.node_count != tree.node_count:
        raise ShapeMismatch("strategy length does not match tree")
    return strat


def dual_cps_from_primal(
    tree: ScenarioTree,
    lam,
    solution: LpSolution,
    vmap: PrimalVariableMap,
) -> ConsistentPriceSystem:
    """Map the hedging LP's own multipliers to a price system.

    The budget multiplier of each leaf is the pricing-measure weight, the
    flat-stock multiplier the stock-account weight; dividing their subtree
    sums by the physical path probability yields the martingale pair.  Valid
    for the unbounded-cap LP, whose only rows are the leaf blocks.
    """
    if solution.status != "optimal":
        raise CertificateFailure(f"primal solution status is {solution.status}")
    if vmap.long_part is not None:
        raise ValidationError("multiplier mapping applies to the unbounded-cap program")
    leaves = tree.leaves
    weights = np.zeros((tree.node_count, 2))
    weights[leaves, 0] = -solution.y_ub[: leaves.size]
    weights[leaves, 1] = solution.y_eq[: leaves.size]
    beta, alpha = tree.subtree_sum(weights).T
    z0 = beta / tree.path_prob
    z1 = alpha / tree.path_prob
    return ConsistentPriceSystem(np.maximum(z0, 0.0), np.maximum(z1, 0.0))


def has_cps(tree: ScenarioTree, lam) -> bool:
    """Feasibility probe: does any consistent price system exist at this rate?

    By Farkas' lemma a price system exists exactly when the zero claim's
    unbounded-cap hedging LP is bounded: otherwise some self-financing
    strategy ends with unbounded free bonds, an arbitrage.
    """
    zero = ClaimSpec({int(l): 0.0 for l in tree.leaves})
    lp, _ = build_primal(tree, lam, zero, AdmissibilityCap.unbounded())
    return solve(lp).status != "unbounded"


@dataclass
class SuperHedgeReport:
    """Everything a pricing run certifies, in one place.

    ``dual_value`` is ``E_Q[X]`` under ``cps`` and ``gap`` is
    ``|primal - dual|``; with an unbounded cap the gap is asserted to be at
    most 1e-7 before the report is returned.  ``cps`` is the optimal price
    system read off the unbounded-cap hedging LP's multipliers; its density
    may vanish at some nodes.  ``cps_strict`` is ``cps`` when that is strict,
    else None.  ``dual_status`` is the status of that pricing LP, which is
    ``"optimal"`` on every returned report.
    """

    lam: float
    cap: AdmissibilityCap
    bound_kind: str
    claim_bound: float
    primal_status: str
    dual_status: str
    primal_value: float
    dual_value: float
    gap: float
    strategy: Strategy | None
    cps: ConsistentPriceSystem | None
    cps_strict: ConsistentPriceSystem | None
    computed_cap_bound: float
    certificates: dict

    def all_certified(self) -> bool:
        return all(bool(v) for v in self.certificates.values())

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "mode": "nb" if self.cap.kind == "numeraire_based" else "nf",
            "cap": "inf" if not self.cap.is_bounded else self.cap.bound,
            "bound_kind": self.bound_kind,
            "claim_bound": self.claim_bound,
            "primal_status": self.primal_status,
            "dual_status": self.dual_status,
            "primal": self.primal_value,
            "dual": self.dual_value,
            "gap": self.gap,
            "computed_cap_bound": self.computed_cap_bound,
            "strategy": None if self.strategy is None else self.strategy.to_json(),
            "cps": None if self.cps is None else self.cps.to_json(),
            "cps_strict": None if self.cps_strict is None else self.cps_strict.to_json(),
            "certificates": {k: (None if v is None else bool(v)) for k, v in self.certificates.items()},
        }


def superhedge_price(
    tree: ScenarioTree,
    lam,
    claim: ClaimSpec,
    cap: AdmissibilityCap | None = None,
) -> SuperHedgeReport:
    """Price a claim from the hedging LP and certify hedge and price system.

    The unbounded-cap hedging LP is solved once.  Its optimum is the price
    and its multipliers give the price system (``dual_cps_from_primal``);
    the price system is verified on its own, and the gap
    ``|x0 - E_Q[X]|`` between the two independently checked objects is
    asserted to vanish (at 1e-7), which by weak duality proves both optimal.
    The extracted strategy is checked self-financing and admissible at its
    own minimal bound, and the paired value ``phi0 * z0 + phi1 * z1`` of the
    hedge against the price system is checked to be a supermartingale under
    the physical measure (the division-free form of shadow wealth being a
    Q-supermartingale, valid whether or not the density vanishes somewhere).
    A bounded cap adds one solve of the capped hedging LP for the hedge and
    the primal value; the dual value and price system stay those of the
    cap-free program.  The capped price may be higher; a capped LP that ends
    without an optimum is reported, not raised.  ``DualInfeasible`` is raised
    when the unbounded-cap LP is unbounded, that is, when no price system
    exists at all: the market itself admits arbitrage at this friction.
    """
    lam = _rate(lam)
    cap = cap or AdmissibilityCap.unbounded()
    claim.validate(tree)

    pricing_lp, pricing_map = build_primal(tree, lam, claim, AdmissibilityCap.unbounded())
    pricing_sol = solve(pricing_lp)
    if pricing_sol.status == "unbounded":
        raise DualInfeasible(
            f"no consistent price system at rate {lam}: the tree admits arbitrage"
        )
    if pricing_sol.status != "optimal":
        raise CertificateFailure(f"hedging program ended with status {pricing_sol.status}")
    cps = dual_cps_from_primal(tree, lam, pricing_sol, pricing_map)
    dual_value = expected_claim(tree, cps, claim)
    complementary_slackness = verify_certificate(pricing_lp, pricing_sol).ok

    if cap.is_bounded:
        primal_lp, pmap = build_primal(tree, lam, claim, cap)
        primal_sol = solve(primal_lp)
        if primal_sol.status == "unbounded":
            raise CertificateFailure(
                "capped program unbounded although the cap-free one is bounded"
            )
        if primal_sol.status == "optimal":
            complementary_slackness = (
                complementary_slackness and verify_certificate(primal_lp, primal_sol).ok
            )
    else:
        primal_sol, pmap = pricing_sol, pricing_map

    certificates: dict = {}
    strategy = None
    computed_bound = math.nan
    if primal_sol.status == "optimal":
        primal_value = primal_sol.objective
        strategy = extract_strategy(primal_sol, pmap, tree)
        sf = is_self_financing(tree, lam, strategy)
        certificates["self_financing"] = bool(sf)

        path = portfolio_path(tree, lam, strategy)
        x = claim.payoff_vector(tree)
        leaves = tree.leaves
        scale = np.maximum(1.0, np.abs(x))
        terminal_ok = bool(
            (np.abs(path.phi1[leaves]) <= 1e-9).all()
            and ((path.phi0[leaves] - x) >= -1e-9 * scale).all()
        )
        certificates["terminal_dominates"] = terminal_ok

        computed_bound = minimal_admissibility_bound(tree, lam, strategy, cap.kind)
        adm = check_admissibility(tree, lam, strategy, AdmissibilityCap(cap.kind, computed_bound))
        if cap.is_bounded:
            adm_declared = check_admissibility(tree, lam, strategy, cap)
            certificates["admissibility"] = bool(adm) and bool(adm_declared)
        else:
            certificates["admissibility"] = bool(adm)
    else:
        primal_value = math.inf
        certificates["self_financing"] = None
        certificates["terminal_dominates"] = None
        certificates["admissibility"] = None

    certificates["cps"] = bool(verify_cps(tree, lam, cps))
    if strategy is not None:
        certificates["supermartingale"] = bool(
            supermartingale_check(tree, lam, cps, strategy)
        )
    else:
        certificates["supermartingale"] = None
    certificates["complementary_slackness"] = complementary_slackness

    gap = abs(primal_value - dual_value) if np.isfinite(primal_value) else math.inf
    if not cap.is_bounded:
        if not (gap <= GAP_TOL):
            raise CertificateFailure(
                f"duality gap {gap} exceeds {GAP_TOL} with an unbounded cap"
            )

    return SuperHedgeReport(
        lam=lam,
        cap=cap,
        bound_kind=claim.bound_kind,
        claim_bound=claim.lower_bound(tree),
        primal_status=primal_sol.status,
        dual_status=pricing_sol.status,
        primal_value=primal_value,
        dual_value=dual_value,
        gap=gap,
        strategy=strategy,
        cps=cps,
        cps_strict=cps if cps.strict else None,
        computed_cap_bound=computed_bound,
        certificates=certificates,
    )


@dataclass(frozen=True)
class VariationBoundCheck:
    ok: bool
    lhs: float
    rhs: float

    def __bool__(self) -> bool:
        return self.ok


def variation_bound_check(
    tree: ScenarioTree,
    lam,
    lam_prime,
    strategy: Strategy,
    cps_prime: ConsistentPriceSystem,
    bound: float,
) -> VariationBoundCheck:
    """Check the a-priori bound on expected terminal bond variation.

    For a liquidating, numeraire-free ``bound``-admissible strategy from
    (0, 0) at rate ``lam``, and any strict price system at a strictly smaller
    rate ``lam'``, the expected total bond variation under the pricing
    measure is at most ``bound * (2/(lam - lam') + 1) * (1 + E_Q[S_T])``.
    Both sides are returned.
    """
    lam = _rate(lam)
    lam_p = _rate(lam_prime)
    if not (0.0 < lam_p < lam):
        raise PreconditionViolated(f"need 0 < lam' < lam, got lam'={lam_p}, lam={lam}")
    if strategy.initial != (0.0, 0.0):
        raise PreconditionViolated("strategy must start from a zero endowment")
    if not is_self_financing(tree, lam, strategy):
        raise PreconditionViolated("strategy is not self-financing at its rate")
    path = portfolio_path(tree, lam, strategy)
    leaves = tree.leaves
    if np.abs(path.phi1[leaves]).max(initial=0.0) > 1e-9:
        raise PreconditionViolated("stock position must be liquidated at every leaf")
    bound = float(bound)
    if bound < 0.0:
        raise PreconditionViolated("admissibility bound must be nonnegative")
    if not check_admissibility(tree, lam, strategy, AdmissibilityCap.numeraire_free(bound)):
        raise PreconditionViolated("strategy is not admissible at the stated bound")
    if not cps_prime.strict:
        raise PreconditionViolated("price system must be strict")
    if not verify_cps(tree, lam_p, cps_prime):
        raise PreconditionViolated("price system fails verification at lam'")

    weights = tree.path_prob[leaves] * cps_prime.z0[leaves]
    lhs = float(weights @ (path.up0[leaves] + path.down0[leaves]))
    e_q_s = float(weights @ tree.price[leaves])
    rhs = bound * (2.0 / (lam - lam_p) + 1.0) * (1.0 + e_q_s)
    return VariationBoundCheck(lhs <= rhs + 1e-9, lhs, rhs)


def price_curve(
    tree: ScenarioTree,
    claim: ClaimSpec,
    lambdas,
    cap: AdmissibilityCap | None = None,
) -> list[tuple[float, float]]:
    """Super-replication price per friction level, checked nondecreasing.

    ``lambdas`` must be ascending values in [0, 1).  Evaluations are
    independent and could run in parallel; they are run sequentially here.
    """
    lams = [float(v) for v in lambdas]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValidationError("friction grid must be strictly ascending")
    out = []
    for lam in lams:
        report = superhedge_price(tree, lam, claim, cap)
        out.append((lam, report.primal_value))
    for (la, pa), (lb, pb) in zip(out, out[1:]):
        if pb < pa - 1e-9 * max(1.0, abs(pa)):
            raise CertificateFailure(
                f"price decreased from {pa} at {la} to {pb} at {lb}"
            )
    return out
