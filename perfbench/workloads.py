"""Seeded instances, timed operations and output checks for each workload.

Every workload draws its instances from a finite pool stored in
``references.json`` together with the reference price of each priced
instance.  ``--seed`` picks one pool variant per slot, so the same seed gives
the same instances and the program only ever sees the generated trees,
claims and files.  Variants of a slot share the slot's tree shape (depth,
branching and node count), which keeps the cost of a pass nearly independent
of the seed while the prices, probabilities, strikes and frictions change.

The spreadhedge package is resolved through module attributes at call time
(``sh.superhedge_price``, ``sh_cli.main``), so the tracer in ``spans.py`` can
wrap those names from outside the package.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spreadhedge as sh
import spreadhedge.cli as sh_cli
import spreadhedge.strategy as sh_strategy

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# A price matches its reference when it is within this share of max(1, |ref|);
# the engine's own duality-gap certificate uses the same 1e-7.
PRICE_RTOL = 1e-7

# Acceptance criterion 3 family: 200 slots, slot s has depth 1 + (s-1) % 5 and
# branching 2 + s % 2.  Slot 55 is the known false supermartingale
# certificate; it always runs its acceptance instance (variant 0).
SUITE_SLOTS = 200
KNOWN_DEFECT_SLOT = 55

DEEP_RUNGS = (("binary6", 6, 2), ("binary7", 7, 2), ("ternary5", 5, 3))
DEEP_TERNARY_SEED = 13  # variant 0 of the ternary rung: 227 nodes
DEEP_LAMBDAS = (0.01, 0.05, 0.2)

CLI_TREES = (("small", 5, 2), ("large", 6, 2))  # 63 and 127 nodes
CLI_CLAIM = "max(S-100,0)-20"
CLI_LAMBDAS = (0.01, 0.05, 0.1, 0.2, 0.3)
CLI_CHECK_LAMBDAS = (0.02, 0.2)
CLI_MODES = (("nb", 10.0), ("nf", 0.1))

TOOLKIT_SMALL = (10, 8)  # depth 10 (2047 nodes), 8 trees per pass
TOOLKIT_LARGE = (13, 1)  # depth 13 (16383 nodes), 1 tree per pass

GOLDEN_TREE = {
    "depth": 1,
    "nodes": [
        {"id": 0, "parent": None, "time": 0, "prob": 1.0, "price": 100.0},
        {"id": 1, "parent": 0, "time": 1, "prob": 0.5, "price": 120.0},
        {"id": 2, "parent": 0, "time": 1, "prob": 0.5, "price": 80.0},
    ],
}
GOLDEN_PRICE = 140.0 / 9.0


def price_matches(value: float, ref: float) -> bool:
    return abs(value - ref) <= PRICE_RTOL * max(1.0, abs(ref))


def load_pool() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


# ---------------------------------------------------------------------------
# instance builders shared with make_references.py


def suite_shape(slot: int) -> tuple[int, int]:
    return 1 + (slot - 1) % 5, 2 + slot % 2


def suite_instance(slot: int, tree_seed: int, param_seed: int):
    """(tree, claim, lam) of the criterion-3 family; variant 0 uses
    tree_seed = param_seed = slot and reproduces the acceptance instance."""
    depth, branching = suite_shape(slot)
    tree = sh.generate_random_tree(tree_seed, depth, branching)
    rng = np.random.default_rng(param_seed)
    strike = tree.price[0] * rng.uniform(0.7, 1.3)
    shift = float(rng.uniform(-20.0, 20.0)) if slot % 3 == 0 else 0.0
    payoffs = {int(l): max(float(tree.price[l] - strike), 0.0) + shift for l in tree.leaves}
    lam = float(rng.uniform(0.01, 0.45))
    kind = "constant" if slot % 2 else "stock_bond"
    return tree, sh.ClaimSpec(payoffs, kind), lam


def atm_call(tree) -> "sh.ClaimSpec":
    s0 = float(tree.price[0])
    return sh.ClaimSpec({int(l): max(float(tree.price[l]) - s0, 0.0) for l in tree.leaves})


def golden_smoke() -> str | None:
    """Price the one-period binomial call; None when it gives 140/9."""
    tree = sh.load_tree(json.dumps(GOLDEN_TREE))
    rep = sh.superhedge_price(tree, 0.1, sh.ClaimSpec({1: 20.0, 2: 0.0}))
    if abs(rep.primal_value - GOLDEN_PRICE) > 1e-9 or not rep.all_certified():
        return f"golden binomial priced {rep.primal_value!r}, expected 140/9"
    return None


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    """One operation's verdict.  ``wrong`` marks a wrong output value (a
    price off its reference, a broken invariant); ``ok`` is false for any
    failure, including a false certificate on a correct price."""

    ok: bool = True
    wrong: bool = False
    notes: list = field(default_factory=list)

    def fail(self, note: str, wrong: bool = False) -> None:
        self.ok = False
        self.wrong = self.wrong or wrong
        self.notes.append(note)


@dataclass
class Op:
    label: str
    run: object  # callable returning the raw result
    check: object  # callable(result) -> Outcome
    output: Path | None = None  # file the operation writes, if any


def _priced_check(label: str, ref: float):
    def check(rep) -> Outcome:
        out = Outcome()
        if not price_matches(rep.primal_value, ref):
            out.fail(f"{label}: price {rep.primal_value!r} misses reference {ref!r}", wrong=True)
        if not rep.all_certified():
            bad = sorted(k for k, v in rep.certificates.items() if not v)
            out.fail(f"{label}: certificates not true: {bad}")
        return out

    return check


def _pick_variant(recs: list[dict], rng: np.random.Generator) -> list[dict]:
    """The records of one variant, drawn uniformly."""
    variants = sorted({r["variant"] for r in recs})
    v = variants[int(rng.integers(len(variants)))]
    return [r for r in recs if r["variant"] == v]


class Workload:
    name = ""

    def __init__(self, pool: dict, seed: int, workdir: Path):
        self.pool = pool
        self.seed = int(seed)
        self.workdir = workdir
        self.ops: list[Op] = []

    def select(self) -> list[dict]:
        """Pool records this seed runs, in order."""
        raise NotImplementedError

    def setup(self) -> None:
        """Generate the instances (and their files) and build ``self.ops``."""
        raise NotImplementedError


class ZeroGapSuite(Workload):
    name = "zero_gap_suite"

    def select(self) -> list[dict]:
        by_slot: dict[int, list[dict]] = {}
        for rec in self.pool["zero_gap_suite"]:
            by_slot.setdefault(rec["slot"], []).append(rec)
        rng = _rng(self.seed, 1)
        chosen = []
        for slot in range(1, SUITE_SLOTS + 1):
            variants = sorted(by_slot[slot], key=lambda r: r["variant"])
            k = int(rng.integers(len(variants)))
            chosen.append(variants[0] if slot == KNOWN_DEFECT_SLOT else variants[k])
        return chosen

    def setup(self) -> None:
        self.ops = []
        for rec in self.select():
            tree, claim, lam = suite_instance(rec["slot"], rec["tree_seed"], rec["param_seed"])
            label = f"slot {rec['slot']} variant {rec['variant']}"
            self.ops.append(
                Op(
                    label,
                    (lambda t=tree, c=claim, l=lam: sh.superhedge_price(t, l, c)),
                    _priced_check(label, rec["price"]),
                )
            )


class DeepLadder(Workload):
    name = "deep_ladder"

    def select(self) -> list[dict]:
        rng = _rng(self.seed, 2)
        chosen = []
        for rung, _, _ in DEEP_RUNGS:
            recs = _pick_variant([r for r in self.pool["deep_ladder"] if r["rung"] == rung], rng)
            chosen += sorted(recs, key=lambda r: r["lam"])
        return chosen

    def setup(self) -> None:
        self.ops = []
        shapes = {rung: (d, b) for rung, d, b in DEEP_RUNGS}
        trees = {}
        for rec in self.select():
            key = (rec["rung"], rec["tree_seed"])
            if key not in trees:
                d, b = shapes[rec["rung"]]
                tree = sh.generate_random_tree(rec["tree_seed"], d, b)
                trees[key] = (tree, atm_call(tree))
            tree, claim = trees[key]
            label = f"{rec['rung']} seed {rec['tree_seed']} lambda {rec['lam']}"
            self.ops.append(
                Op(
                    label,
                    (lambda t=tree, c=claim, l=rec["lam"]: sh.superhedge_price(t, l, c)),
                    _priced_check(label, rec["price"]),
                )
            )


def cli_argv(tree_path: Path, mode: str, cap: float, out_path: Path) -> list[str]:
    return [
        "price",
        "--tree", str(tree_path),
        "--claim-expr", CLI_CLAIM,
        "--lambda", ",".join(repr(v) for v in CLI_LAMBDAS),
        "--mode", mode,
        "--cap", repr(cap),
        "--check-lambdas", ",".join(repr(v) for v in CLI_CHECK_LAMBDAS),
        "--format", "json",
        "--output", str(out_path),
    ]


def check_cli_output(label: str, code: int, out_path: Path, refs: list[dict]) -> Outcome:
    """Exit code 0, every certificate true, prices on their references and
    nondecreasing in lambda, and the floor binding in at least one row."""
    out = Outcome()
    if code != 0:
        out.fail(f"{label}: exit code {code}")
        return out
    try:
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        rows = doc["curve"]
        grid = doc["cps_feasibility_grid"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.fail(f"{label}: unreadable output: {exc}", wrong=True)
        return out
    if len(rows) != len(refs):
        out.fail(f"{label}: {len(rows)} rows for {len(refs)} lambdas", wrong=True)
        return out
    for row, ref in zip(rows, refs):
        if not price_matches(row["primal"], ref["primal"]) or not price_matches(row["dual"], ref["dual"]):
            out.fail(
                f"{label}: lambda {row['lambda']} primal/dual {row['primal']!r}/{row['dual']!r} "
                f"miss references {ref['primal']!r}/{ref['dual']!r}",
                wrong=True,
            )
        bad = sorted(k for k, v in row["certificates"].items() if v is not True)
        if bad:
            out.fail(f"{label}: lambda {row['lambda']} certificates not true: {bad}")
    prices = [row["primal"] for row in rows]
    if any(b < a - 1e-9 * max(1.0, abs(a)) for a, b in zip(prices, prices[1:])):
        out.fail(f"{label}: price not nondecreasing in lambda: {prices}", wrong=True)
    if not any(row["primal"] > row["dual"] + 1e-7 * max(1.0, abs(row["dual"])) for row in rows):
        out.fail(f"{label}: the floor binds in no row", wrong=True)
    if sorted(grid.values()) != [True] * len(CLI_CHECK_LAMBDAS):
        out.fail(f"{label}: feasibility grid {grid}", wrong=True)
    return out


def run_cli(argv: list[str], out_path: Path) -> int:
    out_path.unlink(missing_ok=True)  # a failed run must not leave the last pass's output
    return sh_cli.main(argv)


class CappedCliCurve(Workload):
    name = "capped_cli_curve"

    def select(self) -> list[dict]:
        rng = _rng(self.seed, 3)
        chosen = []
        for size, _, _ in CLI_TREES:
            chosen += _pick_variant([r for r in self.pool["capped_cli_curve"] if r["tree"] == size], rng)
        return chosen

    def setup(self) -> None:
        self.ops = []
        self.workdir.mkdir(parents=True, exist_ok=True)
        shapes = {size: (d, b) for size, d, b in CLI_TREES}
        recs = self.select()
        for size, _, _ in CLI_TREES:
            mine = [r for r in recs if r["tree"] == size]
            tree_seed = mine[0]["tree_seed"]
            d, b = shapes[size]
            tree_path = self.workdir / f"tree-{size}.json"
            tree_path.write_text(sh.dumps_tree(sh.generate_random_tree(tree_seed, d, b)), encoding="utf-8")
            for mode, cap in CLI_MODES:
                refs = sorted((r for r in mine if r["mode"] == mode), key=lambda r: r["lam"])
                out_path = self.workdir / f"out-{size}-{mode}.json"
                label = f"{size} tree seed {tree_seed} --mode {mode} --cap {cap}"
                argv = cli_argv(tree_path, mode, cap, out_path)
                self.ops.append(
                    Op(
                        label,
                        (lambda a=argv, p=out_path: run_cli(a, p)),
                        (lambda code, l=label, p=out_path, r=refs: check_cli_output(l, code, p, r)),
                        out_path,
                    )
                )


def toolkit_bundle(tree, params: dict) -> dict:
    """One verification bundle: every toolkit routine on one tree.  Returns
    the raw results; ``check_bundle`` judges them."""
    lam, lam_n, lam_p = params["lam"], params["lam_n"], params["lam_p"]
    res = {}
    text = sh.dumps_tree(tree)
    res["round_trip"] = sh.dumps_tree(sh.load_tree(text)) == text
    cps = sh.random_cps(tree, lam, params["cps_seed"])
    res["cps"] = bool(sh.verify_cps(tree, lam, cps))
    strat = sh.random_strategy(tree, params["strategy_seed"], liquidate_at_leaves=True)
    res["self_financing"] = bool(sh.is_self_financing(tree, lam, strat))
    path = sh.portfolio_path(tree, lam, strat)
    res["liquidated"] = bool(np.abs(path.phi1[tree.leaves]).max() <= 1e-9)
    bound = sh_strategy.minimal_admissibility_bound(tree, lam, strat, "numeraire_free")
    cap = sh.AdmissibilityCap.numeraire_free(bound)
    res["admissible"] = bool(sh.check_admissibility(tree, lam, strat, cap))
    res["pairing"] = sh.polar_pairing(tree, lam, cps, strat)
    res["supermartingale"] = bool(sh.supermartingale_check(tree, lam, cps, strat))
    cps_p = sh.random_cps(tree, lam_p, params["cps_p_seed"])
    lower = sh.lower_friction_transform(tree, strat, lam, lam_p)
    res["lower_friction"] = bool(sh.is_self_financing(tree, lam_p, lower))
    res["variation_bound"] = bool(sh.variation_bound_check(tree, lam, lam_p, strat, cps_p, bound))
    local = sh.random_cps(tree, lam_n, params["local_seed"], stop=params["stop"])
    spliced = sh.concatenate_cps(tree, lam, lam_n, lam_p, params["stop"], local, cps_p)
    res["concatenated"] = bool(sh.verify_cps(tree, lam, spliced))
    mixed = sh.mix_cps(cps, cps_p, params["mu"])
    res["mixed"] = bool(sh.verify_cps(tree, lam, mixed)) and mixed.strict
    return res


def check_bundle(label: str, res: dict) -> Outcome:
    out = Outcome()
    for key, val in res.items():
        if key == "pairing":
            if not val <= 1e-9:
                out.fail(f"{label}: polar pairing {val!r} > 1e-9", wrong=True)
        elif val is not True:
            out.fail(f"{label}: {key} is false", wrong=key in ("round_trip", "variation_bound"))
    return out


class CertifyToolkit(Workload):
    name = "certify_toolkit"

    def select(self) -> list[dict]:
        rng = _rng(self.seed, 4)
        recs = []
        for depth, count in (TOOLKIT_SMALL, TOOLKIT_LARGE):
            for _ in range(count):
                lam = float(rng.uniform(0.15, 0.35))
                lam_n = lam * float(rng.uniform(0.2, 0.6))
                lam_p = (lam - lam_n) / 2.0 * float(rng.uniform(0.2, 0.8))
                recs.append(
                    {
                        "depth": depth,
                        "tree_seed": int(rng.integers(1, 2**31)),
                        "lam": lam,
                        "lam_n": lam_n,
                        "lam_p": lam_p,
                        "cps_seed": int(rng.integers(1, 2**31)),
                        "strategy_seed": int(rng.integers(1, 2**31)),
                        "cps_p_seed": int(rng.integers(1, 2**31)),
                        "local_seed": int(rng.integers(1, 2**31)),
                        # a fixed level keeps the truncated-market work the same for every seed
                        "stop_time": depth // 2,
                        "stop_seed": int(rng.integers(1, 2**31)),
                        "mu": float(rng.uniform(0.1, 0.9)),
                    }
                )
        return recs

    def setup(self) -> None:
        self.ops = []
        for rec in self.select():
            tree = sh.generate_random_tree(rec["tree_seed"], rec["depth"], 2)
            level = np.flatnonzero(tree.time == rec["stop_time"])
            keep = np.random.default_rng(rec["stop_seed"]).random(level.size) < 0.7
            params = dict(rec, stop={int(i) for i in level[keep]})
            label = f"{tree.node_count}-node tree seed {rec['tree_seed']}"
            self.ops.append(
                Op(
                    label,
                    (lambda t=tree, p=params: toolkit_bundle(t, p)),
                    (lambda res, l=label: check_bundle(l, res)),
                )
            )


WORKLOADS = {
    cls.name: cls for cls in (ZeroGapSuite, DeepLadder, CappedCliCurve, CertifyToolkit)
}


def run_op(op: Op) -> tuple[float, Outcome]:
    """Run one operation; returns its latency and verdict.  Only the call
    into the program is timed, not the check."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # any raise is a failed operation, reported by type
        elapsed = time.perf_counter() - start
        out = Outcome()
        out.fail(f"{op.label}: raised {type(exc).__name__}: {exc}")
        return elapsed, out
    elapsed = time.perf_counter() - start
    return elapsed, op.check(result)
