"""The pricing engine: the hedging LP, its price-system dual, zero-gap certification.

``build_primal`` encodes the cheapest super-replication of a claim: choose an
initial bond endowment and the trades at each internal node so that
liquidating the position carried into each leaf covers its payoff,
optionally under a liquidation floor at every node.  ``build_dual`` encodes
the richest pricing measure: maximize the expected payoff over all
consistent price systems.  On a finite tree both problems are ordinary LPs
and strong duality makes the super-replication price equal the dual value
exactly.  ``superhedge_price`` solves only the hedging LP: its multipliers
already form an optimal price system (``dual_cps_from_primal``), so one
solve yields the hedge, the price system and the zero-gap certificate
between the two.  ``build_dual`` is kept only as the independent test
oracle; no runtime path solves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cps import ConsistentPriceSystem, _supermartingale, expected_claim, verify_cps
from .errors import (
    CertificateFailure,
    DualInfeasible,
    PreconditionViolated,
    ShapeMismatch,
    ValidationError,
)
from .lp import LinearProgram, LpSolution, solve
from .scenario_tree import AdmissibilityCap, ClaimSpec, ScenarioTree
from .strategy import SIGN_TOL, Strategy, _rate, is_self_financing, portfolio_path

__all__ = [
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
# relative size below which an extracted trade is solver roundoff: on the
# hedging LPs of suite 1-200 under four caps, every such entry is at most
# 5.1e-15 of its hedge's largest trade and every real one at least 9.2e-6
DUST = 1e-12
# a final stock holding within FLAT_TOL of zero is liquidated
FLAT_TOL = 1e-9


def build_primal(tree: ScenarioTree, lam, claim: ClaimSpec, cap: AdmissibilityCap) -> LinearProgram:
    """Assemble the super-replication LP.

    Columns, ``I`` per block for the tree's ``I`` internal nodes in id
    order: ``[x0 | buy | sell]``, the free initial bond endowment, then the
    nonnegative share counts bought and sold at each internal node.  A leaf
    only liquidates (``extract_strategy``), and no bond is consumed: a
    consumption costs nothing and only tightens the rows.  Holdings are
    implied by the financing recursion started from (endowment, 0).  Every
    row reads ``-phi0 - mark * phi1 <= -rhs`` over the trades on its node's
    root path, so a leaf's rows read the position its parent carries in.
    The liquidation value is the smaller of the bid mark
    ``phi0 + (1-lam) S phi1`` and the ask mark ``phi0 + S phi1``.  Rows:
    every leaf's bid-marked row, then every leaf's ask-marked one, with rhs
    X, or ``max(X, floor)`` under a bounded cap; a bounded cap adds the same
    two blocks over the internal nodes with the cap's floor as rhs; each
    block in node order.  Objective: minimize the endowment.  The no-trade
    hedge holding the largest rhs in bonds is feasible: no phase 1 is run.
    """
    lam = _rate(lam)
    x = claim.payoff_vector(tree)
    leaves, internal = tree.leaves, tree.internal
    n_vars = 1 + 2 * internal.size
    buy, sell = slice(1, 1 + internal.size), slice(1 + internal.size, n_vars)
    names = ["x0"] + [f"buy[{i}]" for i in internal] + [f"sell[{i}]" for i in internal]

    S = tree.price
    bid = (1.0 - lam) * S
    nodes, mark, rhs = np.tile(leaves, 2), np.concatenate([bid[leaves], S[leaves]]), np.tile(x, 2)
    if cap.is_bounded:
        # no row asks less than its node's floor: a leaf's floor rows would
        # repeat its terminal rows with a smaller rhs
        floor = cap.floor(S)
        nodes = np.concatenate([nodes, internal, internal])
        mark = np.concatenate([mark, bid[internal], S[internal]])
        rhs = np.maximum(np.concatenate([rhs, floor[internal], floor[internal]]), floor[nodes])
    # rows[r, k]: internal node k trades on the root path of row r's node
    rows = (tree.path_sum(np.eye(tree.node_count)[:, internal]) > 0)[nodes]
    mark = mark[:, None]
    # -phi0 - mark * phi1 <= -rhs in trade variables; np.where keeps every
    # structural zero +0.0
    A_ub = np.zeros((nodes.size, n_vars))
    A_ub[:, 0] = -1.0
    A_ub[:, buy] = np.where(rows, S[internal] - mark, 0.0)
    A_ub[:, sell] = np.where(rows, mark - bid[internal], 0.0)

    c = np.zeros(n_vars)
    c[0] = 1.0
    lower = np.zeros(n_vars)
    lower[0] = -np.inf
    return LinearProgram(
        c=c,
        objective_sense="minimize",
        A_ub=A_ub,
        b_ub=-rhs,
        lower=lower,
        upper=np.full(n_vars, np.inf),
        names=tuple(names),
    )


def build_dual(tree: ScenarioTree, lam, claim: ClaimSpec) -> LinearProgram:
    """Assemble the price-system LP.

    Columns, ``n`` per block: ``[z0 | z1]``, the nonnegative pair per node.
    Constraints: the density starts at 1, both components satisfy the
    martingale identity at every branch point, and z1 lies in the spread band
    ``[(1-lam) S z0, S z0]`` node-wise.  Objective: maximize the expected
    payoff ``sum P(leaf) z0(leaf) X(leaf)``.
    """
    lam = _rate(lam)
    x = claim.payoff_vector(tree)
    n = tree.node_count
    z0 = np.arange(0, n)
    z1 = np.arange(n, 2 * n)
    n_vars = 2 * n
    names = [f"z0[{i}]" for i in range(n)] + [f"z1[{i}]" for i in range(n)]

    # rows 1 + 2k and 2 + 2k: the z0 and z1 martingale identities at the
    # k-th internal node, where each child writes -cond_prob
    internal = tree.internal
    n_eq = 1 + 2 * internal.size
    A_eq = np.zeros((n_eq, n_vars))
    b_eq = np.zeros(n_eq)
    A_eq[0, z0[0]] = 1.0
    b_eq[0] = 1.0
    rows = 1 + 2 * np.arange(internal.size)
    up = 1 + 2 * np.searchsorted(internal, tree.parent[1:])  # each child's parent's row
    p = tree.cond_prob[1:]
    A_eq[rows, z0[internal]] = 1.0
    A_eq[up, z0[1:]] = -p
    A_eq[rows + 1, z1[internal]] = 1.0
    A_eq[up + 1, z1[1:]] = -p

    # rows 2i and 2i + 1: (1-lam) S z0 <= z1 <= S z0 at node i
    A_ub = np.zeros((2 * n, n_vars))
    b_ub = np.zeros(2 * n)
    S = tree.price
    i = np.arange(n)
    A_ub[2 * i, z0] = (1.0 - lam) * S
    A_ub[2 * i, z1] = -1.0
    A_ub[2 * i + 1, z0] = -S
    A_ub[2 * i + 1, z1] = 1.0

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


def extract_strategy(solution: LpSolution, tree: ScenarioTree) -> Strategy:
    """Read the optimal trades out of a solution of ``build_primal``'s LP for
    ``tree``, whose ``1 + 2I`` columns are ``[x0 | buy | sell]`` over the
    ``I`` internal nodes, in normal form.

    Each internal node nets its purchase against its sale, so no node trades
    both ways; a round trip only costs the spread, and dropping it only adds
    bonds.  Net trades smaller than ``DUST`` times the largest net trade
    (scale floored at 1) are solver roundoff and become zero.  A holding
    carried into a leaf is roundoff below that threshold and below
    ``FLAT_TOL``, the terminal certificate's tolerance on a final holding,
    and is kept; each leaf liquidates any other holding ``h`` (sells ``h`` at
    the bid, or buys ``-h`` at the ask), so every hedge ends within
    ``FLAT_TOL`` of flat; nothing is consumed.  The endowment stays the LP's
    ``x0``.  A solution of another size is a ``ShapeMismatch``.  Tiny
    negative trade values are clamped to zero before netting; anything
    beyond ``SIGN_TOL`` fails the financing certificate.
    """
    if solution.status != "optimal":
        raise CertificateFailure(f"primal solution status is {solution.status}")
    internal, leaves, n = tree.internal, tree.leaves, tree.node_count
    if solution.x.size != 1 + 2 * internal.size:
        raise ShapeMismatch(
            f"hedging-LP solution has {solution.x.size} entries, "
            f"the tree's program has {1 + 2 * internal.size}"
        )
    trades = np.asarray(solution.x[1:], dtype=float).reshape(2, internal.size)
    worst = trades.min(initial=0.0)
    if worst < -SIGN_TOL:
        raise CertificateFailure(f"extracted trades violate nonnegativity by {-worst}")
    bought, sold = np.maximum(trades, 0.0)
    net = bought - sold
    dust = DUST * max(1.0, np.abs(net).max(initial=0.0))
    net[np.abs(net) < dust] = 0.0
    buy, sell = np.zeros((2, n))
    buy[internal], sell[internal] = np.maximum(net, 0.0), np.maximum(-net, 0.0)
    held = (tree.path_sum(buy) - tree.path_sum(sell))[tree.parent[leaves]]
    held[np.abs(held) < min(dust, FLAT_TOL)] = 0.0
    buy[leaves], sell[leaves] = np.maximum(-held, 0.0), np.maximum(held, 0.0)
    return Strategy((float(solution.x[0]), 0.0), buy, sell, np.zeros(n))


def dual_cps_from_primal(tree: ScenarioTree, lam, solution: LpSolution) -> ConsistentPriceSystem:
    """Map the hedging LP's own multipliers to a price system.

    With ``a`` and ``b`` the negated multipliers of the leaf bid-marked and
    ask-marked rows, a leaf's pricing-measure weight is ``a + b`` and its
    stock-account weight ``(1-lam) S a + S b``; dividing their subtree sums
    by the physical path probability yields the martingale pair.  Valid for
    the unbounded-cap LP, whose only rows are the leaf rows.
    """
    lam = _rate(lam)
    if solution.status != "optimal":
        raise CertificateFailure(f"primal solution status is {solution.status}")
    leaves = tree.leaves
    if solution.y_ub.size > 2 * leaves.size:
        raise ValidationError("multiplier mapping applies to the unbounded-cap program")
    a, b = -solution.y_ub.reshape(2, leaves.size)
    weights = np.zeros((tree.node_count, 2))
    weights[leaves, 0] = a + b
    weights[leaves, 1] = (1.0 - lam) * tree.price[leaves] * a + tree.price[leaves] * b
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
    lp = build_primal(tree, lam, zero, AdmissibilityCap.unbounded())
    return solve(lp).status != "unbounded"


@dataclass(frozen=True)
class SuperHedgeReport:
    """Everything a pricing run certifies, in one place.

    ``dual_value`` is ``E_Q[X]`` under ``cps`` and ``gap`` is
    ``|primal - dual|``; with an unbounded cap the gap is asserted to be at
    most 1e-7 before the report is returned.  ``cps`` is the optimal price
    system read off the unbounded-cap hedging LP's multipliers; its density
    may vanish at some nodes.  ``certificates["complementary_slackness"]``
    records that each hedging LP solved (the cap-free one, and the capped
    one when the cap binds) passed ``verify_certificate``.  ``solve`` raises
    ``NumericalBreakdown`` on an optimum that fails it, so the key is true
    in every returned report; the residuals behind it are not kept.
    """

    lam: float
    cap: AdmissibilityCap
    bound_kind: str
    claim_bound: float
    primal_value: float
    dual_value: float
    gap: float
    strategy: Strategy
    cps: ConsistentPriceSystem
    computed_cap_bound: float
    certificates: dict

    # the statuses of the hedging and pricing LPs: a report exists only when
    # both are optimal
    primal_status = "optimal"
    dual_status = "optimal"
    # the keys of ``certificates``, in report order
    CERTIFICATES = ("self_financing", "terminal_dominates", "admissibility", "cps", "supermartingale",
                    "complementary_slackness")

    @property
    def cps_strict(self) -> ConsistentPriceSystem | None:
        """``cps`` when it is strict, else None."""
        return self.cps if self.cps.strict else None

    def all_certified(self) -> bool:
        return all(bool(v) for v in self.certificates.values())

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "mode": AdmissibilityCap.MODES[self.cap.kind],
            "cap": "inf" if not self.cap.is_bounded else self.cap.bound,
            "bound_kind": self.bound_kind,
            "claim_bound": self.claim_bound,
            "primal_status": self.primal_status,
            "dual_status": self.dual_status,
            "primal": self.primal_value,
            "dual": self.dual_value,
            "gap": self.gap,
            "computed_cap_bound": self.computed_cap_bound,
            "strategy": self.strategy.to_json(),
            "cps": self.cps.to_json(),
            "cps_strict": None if self.cps_strict is None else self.cps_strict.to_json(),
            "certificates": {k: bool(v) for k, v in self.certificates.items()},
        }


def _certify(tree, lam, claim, strategy, cps, cap) -> tuple[dict, float]:
    """Judge a hedge and a price system, whichever engine made them, deriving
    the hedge's holdings and the leaf payoffs once.  Returns the
    certificates, ``admissibility`` judged under ``cap``, and the hedge's own
    minimal bound for ``cap.kind``."""
    path = portfolio_path(tree, lam, strategy)
    x = claim.payoff_vector(tree)
    leaves = tree.leaves
    scale = np.maximum(1.0, np.abs(x))
    terminal_ok = bool(
        (np.abs(path.phi1[leaves]) <= FLAT_TOL).all()
        and ((path.phi0[leaves] - x) >= -1e-9 * scale).all()
    )
    certificates = {
        "self_financing": bool(is_self_financing(tree, lam, strategy)),
        "terminal_dominates": terminal_ok,
        "admissibility": bool(cap.check(tree.price, path.liquidation)),
        "cps": bool(verify_cps(tree, lam, cps)),
        "supermartingale": bool(_supermartingale(tree, path, cps)),
    }
    return certificates, cap.minimal_bound(tree.price, path.liquidation)


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
    One pass over its holdings checks the extracted strategy self-financing,
    dominating and admissible under ``cap``, and the paired value ``phi0 *
    z0 + phi1 * z1`` of hedge and price system a supermartingale under the
    physical measure (shadow wealth as a Q-supermartingale, in division-free
    form, valid whether or not the density vanishes somewhere).
    A cap that the cap-free hedge meets (the minimal bound its certification
    reports for the cap's kind is at most M) keeps that hedge, optimal for the
    capped program too.  A binding cap adds one solve of the capped hedging
    LP, whose hedge is certified in turn and gives the primal value; the dual
    value and price system stay those of the cap-free program.  The capped
    price may be higher.  The capped LP starts feasible, at the no-trade
    hedge, and is bounded whenever the cap-free one is, so a capped solve
    without an optimum is a solver fault: it raises ``CertificateFailure``, as
    on the cap-free LP.  ``DualInfeasible`` is raised when the unbounded-cap
    LP is unbounded, that is, when no price system exists at all: the market
    itself admits arbitrage at this friction.
    """
    lam = _rate(lam)
    cap = cap or AdmissibilityCap.unbounded()

    pricing_sol = solve(build_primal(tree, lam, claim, AdmissibilityCap.unbounded()))
    if pricing_sol.status == "unbounded":
        raise DualInfeasible(
            f"no consistent price system at rate {lam}: the tree admits arbitrage"
        )
    if pricing_sol.status != "optimal":
        raise CertificateFailure(f"hedging program ended with status {pricing_sol.status}")
    cps = dual_cps_from_primal(tree, lam, pricing_sol)
    dual_value = expected_claim(tree, cps, claim)
    complementary_slackness = pricing_sol.certificate.ok
    primal_sol, strategy = pricing_sol, extract_strategy(pricing_sol, tree)
    certificates, computed_bound = _certify(tree, lam, claim, strategy, cps, cap)

    if computed_bound > cap.bound:  # the cap binds; an unbounded cap never does
        primal_sol = solve(build_primal(tree, lam, claim, cap))
        if primal_sol.status != "optimal":
            raise CertificateFailure(f"capped hedging program ended with status {primal_sol.status}")
        complementary_slackness = complementary_slackness and primal_sol.certificate.ok
        strategy = extract_strategy(primal_sol, tree)
        certificates, computed_bound = _certify(tree, lam, claim, strategy, cps, cap)

    primal_value = primal_sol.objective
    certificates["complementary_slackness"] = complementary_slackness

    gap = abs(primal_value - dual_value)
    if not cap.is_bounded and not (gap <= GAP_TOL):
        raise CertificateFailure(f"duality gap {gap} exceeds {GAP_TOL} with an unbounded cap")

    return SuperHedgeReport(
        lam=lam,
        cap=cap,
        bound_kind=claim.bound_kind,
        claim_bound=claim.lower_bound(tree),
        primal_value=primal_value,
        dual_value=dual_value,
        gap=gap,
        strategy=strategy,
        cps=cps,
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
    if np.abs(path.phi1[leaves]).max(initial=0.0) > FLAT_TOL:
        raise PreconditionViolated("stock position must be liquidated at every leaf")
    cap = AdmissibilityCap.numeraire_free(bound)
    if not cap.check(tree.price, path.liquidation):
        raise PreconditionViolated("strategy is not admissible at the stated bound")
    if not cps_prime.strict:
        raise PreconditionViolated("price system must be strict")
    if not verify_cps(tree, lam_p, cps_prime):
        raise PreconditionViolated("price system fails verification at lam'")

    weights = tree.path_prob[leaves] * cps_prime.z0[leaves]
    lhs = float(weights @ (path.up0[leaves] + path.down0[leaves]))
    e_q_s = float(weights @ tree.price[leaves])
    rhs = cap.bound * (2.0 / (lam - lam_p) + 1.0) * (1.0 + e_q_s)
    return VariationBoundCheck(lhs <= rhs + 1e-9, lhs, rhs)


def price_curve(
    tree: ScenarioTree,
    claim: ClaimSpec,
    lambdas,
    cap: AdmissibilityCap | None = None,
) -> list[SuperHedgeReport]:
    """The ``superhedge_price`` report per friction level, prices certified
    nondecreasing at 1e-9 relative: a wider spread only adds price systems.

    ``lambdas`` must be strictly ascending values in [0, 1).  Evaluations are
    independent and could run in parallel; they are run sequentially here.
    """
    lams = [float(v) for v in lambdas]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValidationError("friction grid must be strictly ascending")
    reports = [superhedge_price(tree, lam, claim, cap) for lam in lams]
    for a, b in zip(reports, reports[1:]):
        if b.primal_value < a.primal_value - 1e-9 * max(1.0, abs(a.primal_value)):
            raise CertificateFailure(
                f"price decreased from {a.primal_value} at {a.lam} to {b.primal_value} at {b.lam}"
            )
    return reports
