"""Command-line surface: batch pricing, verification, certificates, generation.

Exit codes compose in pipelines: 0 means success with every certificate
true, 2 means a domain finding (arbitrage, a failed certificate, a failed
verification) with exactly one machine-readable ``reason`` in the output,
1 means unusable input.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .cps import ConsistentPriceSystem, verify_cps
from .errors import (
    BadFriction,
    BadFrictionGap,
    CertificateFailure,
    DualInfeasible,
    ParseError,
    PreconditionViolated,
    ShapeMismatch,
    SpreadHedgeError,
    UnverifiedInput,
    ValidationError,
)
from .cps import concatenate_cps
from .scenario_tree import (
    ClaimSpec,
    PriceModel,
    ScenarioTree,
    dumps_tree,
    generate_random_tree,
    load_tree,
)
from .strategy import (
    AdmissibilityCap,
    Strategy,
    check_admissibility,
    is_self_financing,
    minimal_admissibility_bound,
)
from .superhedge import (
    SuperHedgeReport,
    has_cps,
    superhedge_price,
    variation_bound_check,
)

__all__ = ["RunConfig", "run", "emit_report", "parse_payoff_expr", "main"]

CSV_COLUMNS = [
    "lambda",
    "primal",
    "dual",
    "gap",
    "mode",
    "cap",
    "cert_self_financing",
    "cert_terminal_dominates",
    "cert_admissibility",
    "cert_cps",
    "cert_supermartingale",
    "cert_complementary_slackness",
]


@dataclass
class RunConfig:
    """Parsed invocation; one instance per command run."""

    command: str
    tree_path: str | None = None
    claim_path: str | None = None
    strategy_path: str | None = None
    cps_path: str | None = None
    cps_global_path: str | None = None
    input_path: str | None = None
    lambdas: tuple[float, ...] = ()
    lam_prime: float | None = None
    lam_n: float | None = None
    mode: str = "nb"
    cap: float = math.inf
    seed: int = 1
    depth: int = 3
    branching: int = 2
    straddle: bool = True
    stop: tuple[int, ...] = ()
    claim_expr: str | None = None
    bound_kind: str = "constant"
    check_lambdas: tuple[float, ...] = ()
    output: str | None = None
    fmt: str = "text"


# ---------------------------------------------------------------------------
# payoff expressions: +, -, *, max, min, constants, S


class _ExprParser:
    """Recursive-descent parser for the tiny payoff grammar."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(f"payoff expression: {msg} at position {self.pos} in {self.text!r}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos]

    def expr(self):
        node = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                rhs = self.term()
                node = (lambda a, b: (lambda s: a(s) + b(s)))(node, rhs)
            elif ch == "-":
                self.pos += 1
                rhs = self.term()
                node = (lambda a, b: (lambda s: a(s) - b(s)))(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.pos += 1
            rhs = self.factor()
            node = (lambda a, b: (lambda s: a(s) * b(s)))(node, rhs)
        return node

    def factor(self):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            inner = self.factor()
            return lambda s: -inner(s)
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return inner
        if ch.isalpha():
            word = self.take_word()
            if word == "S":
                return lambda s: s
            if word in ("max", "min"):
                if self.peek() != "(":
                    self.error(f"expected '(' after {word}")
                self.pos += 1
                a = self.expr()
                if self.peek() != ",":
                    self.error("expected ','")
                self.pos += 1
                b = self.expr()
                if self.peek() != ")":
                    self.error("expected ')'")
                self.pos += 1
                fn = max if word == "max" else min
                return (lambda f, x, y: (lambda s: f(x(s), y(s))))(fn, a, b)
            self.error(f"unknown name {word!r}")
        if ch.isdigit() or ch == ".":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isdigit() or self.text[self.pos] in ".eE"
                or (self.text[self.pos] in "+-" and self.text[self.pos - 1] in "eE")
            ):
                self.pos += 1
            try:
                val = float(self.text[start : self.pos])
            except ValueError:
                self.error("bad number")
            return lambda s, v=val: v
        self.error("unexpected character")

    def parse(self):
        node = self.expr()
        if self.peek() != "":
            self.error("trailing input")
        return node


def parse_payoff_expr(text: str):
    """Compile a payoff expression over the terminal price into a callable."""
    return _ExprParser(text).parse()


# ---------------------------------------------------------------------------
# document IO


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_tree(path: str) -> ScenarioTree:
    try:
        with open(path, "rb") as fh:
            return load_tree(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_claim(cfg: RunConfig, tree: ScenarioTree) -> ClaimSpec:
    if cfg.claim_expr is not None:
        fn = parse_payoff_expr(cfg.claim_expr)
        payoffs = {int(l): float(fn(float(tree.price[l]))) for l in tree.leaves}
        return ClaimSpec(payoffs, cfg.bound_kind)
    if cfg.claim_path is None:
        raise ParseError("a claim file or --claim-expr is required")
    claim = ClaimSpec.from_json(_read_json(cfg.claim_path))
    claim.validate(tree)
    return claim


def _cap(cfg: RunConfig) -> AdmissibilityCap:
    kind = "numeraire_based" if cfg.mode == "nb" else "numeraire_free"
    return AdmissibilityCap(kind, cfg.cap)


# ---------------------------------------------------------------------------
# rendering


def _fmt_bool(v) -> str:
    if v is None:
        return "n/a"
    return "true" if v else "false"


def emit_report(report, fmt: str) -> str:
    """Render one report or a curve of reports deterministically.

    ``report`` is a ``SuperHedgeReport``, a list of them (a friction curve),
    or an equivalent plain dict previously produced by the JSON format.
    Reports with no certificates are rejected.
    """
    reports = report if isinstance(report, list) else [report]
    if not reports:
        raise ValidationError("nothing to render")
    dicts = []
    for r in reports:
        d = r.to_json() if isinstance(r, SuperHedgeReport) else dict(r)
        if not d.get("certificates"):
            raise ValidationError("report carries no certificates")
        dicts.append(d)

    if fmt == "json":
        payload = dicts[0] if len(dicts) == 1 else dicts
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    rows = []
    for d in dicts:
        c = d["certificates"]
        rows.append(
            {
                "lambda": repr(d["lambda"]),
                "primal": repr(d["primal"]),
                "dual": repr(d["dual"]),
                "gap": f"{float(d['gap']):.1e}",
                "mode": d["mode"],
                "cap": str(d["cap"]),
                "cert_self_financing": _fmt_bool(c.get("self_financing")),
                "cert_terminal_dominates": _fmt_bool(c.get("terminal_dominates")),
                "cert_admissibility": _fmt_bool(c.get("admissibility")),
                "cert_cps": _fmt_bool(c.get("cps")),
                "cert_supermartingale": _fmt_bool(c.get("supermartingale")),
                "cert_complementary_slackness": _fmt_bool(c.get("complementary_slackness")),
            }
        )

    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in rows:
            lines.append(",".join(row[c] for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    if fmt == "text":
        lines = []
        for d, row in zip(dicts, rows):
            lines.append(f"lambda    {float(d['lambda']):.6g}")
            lines.append(f"primal    {float(d['primal']):.4f}")
            lines.append(f"dual      {float(d['dual']):.4f}")
            lines.append(f"gap       {row['gap']}")
            lines.append(f"mode/cap  {row['mode']} / {row['cap']}")
            lines.append("certificates:")
            for key in CSV_COLUMNS[6:]:
                lines.append(f"  {key[5:]:28s} {row[key]}")
            lines.append("")
        return "\n".join(lines)

    raise ValidationError(f"unknown format {fmt!r}")


def _write_output(cfg: RunConfig, text: str) -> None:
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _finding(cfg: RunConfig, reason: str, detail: str, extra: dict | None = None) -> int:
    payload = {"reason": reason, "detail": detail}
    if extra:
        payload.update(extra)
    if cfg.fmt == "json":
        _write_output(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif cfg.fmt == "csv":
        _write_output(cfg, "reason,detail\n" + f"{reason},{json.dumps(detail)}\n")
    else:
        _write_output(cfg, f"reason: {reason}\n{detail}\n")
    return 2


# ---------------------------------------------------------------------------
# commands


def _cmd_price(cfg: RunConfig) -> int:
    tree = _load_tree(cfg.tree_path)
    claim = _load_claim(cfg, tree)
    cap = _cap(cfg)
    reports = []
    try:
        for lam in cfg.lambdas:
            reports.append(superhedge_price(tree, lam, claim, cap))
    except DualInfeasible as exc:
        return _finding(cfg, "dual_infeasible", str(exc))
    except CertificateFailure as exc:
        return _finding(cfg, "certificate_failure", str(exc))
    grid = {}
    for lam_check in cfg.check_lambdas:
        grid[repr(float(lam_check))] = has_cps(tree, lam_check)
    text = emit_report(reports if len(reports) > 1 else reports[0], cfg.fmt)
    if grid and cfg.fmt == "text":
        text += "price-system feasibility grid:\n"
        for k in sorted(grid, key=float):
            text += f"  lambda'={k}: {'feasible' if grid[k] else 'infeasible'}\n"
    elif grid and cfg.fmt == "json":
        payload = json.loads(text)
        if isinstance(payload, dict):
            payload["cps_feasibility_grid"] = grid
        else:
            payload = {"curve": payload, "cps_feasibility_grid": grid}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_output(cfg, text)
    ok = all(r.all_certified() for r in reports)
    if not ok:
        return 2
    return 0


def _cmd_dual(cfg: RunConfig) -> int:
    tree = _load_tree(cfg.tree_path)
    claim = _load_claim(cfg, tree)
    lam = cfg.lambdas[0]
    try:
        report = superhedge_price(tree, lam, claim)
    except DualInfeasible as exc:
        return _finding(cfg, "dual_infeasible", str(exc))
    except CertificateFailure as exc:
        return _finding(cfg, "certificate_failure", str(exc))
    if not report.certificates["cps"]:
        return _finding(cfg, "certificate_failure", "optimal price system fails verification")
    cps = report.cps
    payload = {
        "lambda": lam,
        "dual": report.dual_value,
        "cps": cps.to_json(),
        "strict": cps.strict,
    }
    if cfg.fmt == "json":
        _write_output(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _write_output(
            cfg,
            f"lambda {lam!r}\ndual   {report.dual_value!r}\nstrict {str(cps.strict).lower()}\n",
        )
    return 0


def _cmd_verify_cps(cfg: RunConfig) -> int:
    tree = _load_tree(cfg.tree_path)
    cps = ConsistentPriceSystem.from_json(tree, _read_json(cfg.cps_path))
    lam = cfg.lambdas[0]
    check = verify_cps(tree, lam, cps)
    lines = ["family            worst-residual  witness-node"]
    for fam in sorted(check.worst):
        lines.append(f"{fam:18s}{check.worst[fam]:.3e}       {check.witness[fam]}")
    body = "\n".join(lines) + "\n"
    if cfg.fmt == "json":
        payload = {
            "ok": check.ok,
            "worst": {k: check.worst[k] for k in sorted(check.worst)},
            "witness": {k: check.witness[k] for k in sorted(check.witness)},
        }
        if not check.ok:
            payload["reason"] = "cps_invalid"
        _write_output(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0 if check.ok else 2
    if not check.ok:
        return _finding(cfg, "cps_invalid", body)
    _write_output(cfg, body)
    return 0


def _cmd_check_strategy(cfg: RunConfig) -> int:
    tree = _load_tree(cfg.tree_path)
    strat = Strategy.from_json(tree, _read_json(cfg.strategy_path))
    lam = cfg.lambdas[0]
    sf = is_self_financing(tree, lam, strat)
    cap = _cap(cfg)
    adm = check_admissibility(tree, lam, strat, cap)
    min_nb = minimal_admissibility_bound(tree, lam, strat, "numeraire_based")
    min_nf = minimal_admissibility_bound(tree, lam, strat, "numeraire_free")
    payload = {
        "self_financing": sf.ok,
        "violations": [list(v) for v in sf.violations],
        "admissible": adm.ok,
        "witness": None if adm.witness is None else list(adm.witness),
        "minimal_bound_nb": min_nb,
        "minimal_bound_nf": min_nf,
    }
    if cfg.fmt == "json":
        if not (sf.ok and adm.ok):
            payload["reason"] = (
                "strategy_not_self_financing" if not sf.ok else "not_admissible"
            )
        _write_output(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0 if sf.ok and adm.ok else 2
    body = (
        f"self-financing  {str(sf.ok).lower()}\n"
        f"admissible      {str(adm.ok).lower()}\n"
        f"minimal bound   nb {min_nb!r} / nf {min_nf!r}\n"
    )
    if not sf.ok:
        return _finding(cfg, "strategy_not_self_financing", body)
    if not adm.ok:
        return _finding(cfg, "not_admissible", body)
    _write_output(cfg, body)
    return 0


def _cmd_variation_bound(cfg: RunConfig) -> int:
    tree = _load_tree(cfg.tree_path)
    strat = Strategy.from_json(tree, _read_json(cfg.strategy_path))
    cps = ConsistentPriceSystem.from_json(tree, _read_json(cfg.cps_path))
    check = variation_bound_check(
        tree, cfg.lambdas[0], cfg.lam_prime, strat, cps, cfg.cap
    )
    body = f"lhs {check.lhs!r}\nrhs {check.rhs!r}\nok  {str(check.ok).lower()}\n"
    if cfg.fmt == "json":
        payload = {"lhs": check.lhs, "rhs": check.rhs, "ok": check.ok}
        if not check.ok:
            payload["reason"] = "variation_bound_violated"
        _write_output(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0 if check.ok else 2
    if not check.ok:
        return _finding(cfg, "variation_bound_violated", body)
    _write_output(cfg, body)
    return 0


def _cmd_concat_cps(cfg: RunConfig) -> int:
    tree = _load_tree(cfg.tree_path)
    local = ConsistentPriceSystem.from_json(tree, _read_json(cfg.cps_path))
    glob = ConsistentPriceSystem.from_json(tree, _read_json(cfg.cps_global_path))
    try:
        out = concatenate_cps(
            tree, cfg.lambdas[0], cfg.lam_n, cfg.lam_prime, set(cfg.stop), local, glob
        )
    except UnverifiedInput as exc:
        return _finding(cfg, "cps_invalid", str(exc))
    except CertificateFailure as exc:
        return _finding(cfg, "certificate_failure", str(exc))
    _write_output(cfg, json.dumps(out.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_gen_tree(cfg: RunConfig) -> int:
    seed = cfg.seed
    env = os.environ.get("SPREADHEDGE_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ParseError(f"SPREADHEDGE_SEED must be an integer: {env!r}") from exc
    pm = PriceModel(straddle=cfg.straddle)
    tree = generate_random_tree(seed, cfg.depth, cfg.branching, pm)
    _write_output(cfg, dumps_tree(tree))
    return 0


def _cmd_report(cfg: RunConfig) -> int:
    payload = _read_json(cfg.input_path)
    _write_output(cfg, emit_report(payload if isinstance(payload, list) else payload, cfg.fmt))
    return 0


_COMMANDS = {
    "price": _cmd_price,
    "dual": _cmd_dual,
    "verify-cps": _cmd_verify_cps,
    "check-strategy": _cmd_check_strategy,
    "variation-bound": _cmd_variation_bound,
    "concat-cps": _cmd_concat_cps,
    "gen-tree": _cmd_gen_tree,
    "report": _cmd_report,
}


def run(cfg: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    for lam in cfg.lambdas:
        if not (0.0 <= lam < 1.0):
            raise ValidationError(f"lambda must be in [0, 1), got {lam}")
    return _COMMANDS[cfg.command](cfg)


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1; domain findings own exit code 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="spreadhedge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, tree=True, lam=True):
        if tree:
            sp.add_argument("--tree", required=True, dest="tree_path")
        if lam:
            sp.add_argument("--lambda", required=True, dest="lambdas")
        sp.add_argument("--format", default="text", choices=["json", "csv", "text"], dest="fmt")
        sp.add_argument("--output", default=None)

    sp = sub.add_parser("price", help="super-replication price with certificates")
    add_common(sp)
    sp.add_argument("--claim", dest="claim_path")
    sp.add_argument("--claim-expr", dest="claim_expr")
    sp.add_argument("--bound", default="constant", choices=["constant", "stock_bond"], dest="bound_kind")
    sp.add_argument("--mode", default="nb", choices=["nb", "nf"])
    sp.add_argument("--cap", default="inf")
    sp.add_argument("--check-lambdas", default="", dest="check_lambdas")

    sp = sub.add_parser("dual", help="dual value and optimal price system")
    add_common(sp)
    sp.add_argument("--claim", dest="claim_path")
    sp.add_argument("--claim-expr", dest="claim_expr")
    sp.add_argument("--bound", default="constant", choices=["constant", "stock_bond"], dest="bound_kind")

    sp = sub.add_parser("verify-cps", help="verify a price system at a friction level")
    add_common(sp)
    sp.add_argument("--cps", required=True, dest="cps_path")

    sp = sub.add_parser("check-strategy", help="self-financing and admissibility checks")
    add_common(sp)
    sp.add_argument("--strategy", required=True, dest="strategy_path")
    sp.add_argument("--mode", default="nb", choices=["nb", "nf"])
    sp.add_argument("--cap", default="inf")

    sp = sub.add_parser("variation-bound", help="expected bond-variation bound check")
    add_common(sp)
    sp.add_argument("--strategy", required=True, dest="strategy_path")
    sp.add_argument("--cps", required=True, dest="cps_path")
    sp.add_argument("--lambda-prime", required=True, type=float, dest="lam_prime")
    sp.add_argument("--cap", required=True)

    sp = sub.add_parser("concat-cps", help="splice a stopped-market system onto a global one")
    add_common(sp)
    sp.add_argument("--cps", required=True, dest="cps_path")
    sp.add_argument("--cps-global", required=True, dest="cps_global_path")
    sp.add_argument("--lambda-n", required=True, type=float, dest="lam_n")
    sp.add_argument("--lambda-prime", required=True, type=float, dest="lam_prime")
    sp.add_argument("--stop", required=True)

    sp = sub.add_parser("gen-tree", help="emit a random scenario tree")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--branching", type=int, default=2)
    sp.add_argument("--allow-arbitrage", action="store_true")
    sp.add_argument("--format", default="json", choices=["json"], dest="fmt")
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("report", help="re-render a saved report")
    sp.add_argument("--input", required=True, dest="input_path")
    sp.add_argument("--format", default="text", choices=["json", "csv", "text"], dest="fmt")
    sp.add_argument("--output", default=None)
    return p


def _parse_float_list(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    return tuple(float(v) for v in str(text).split(","))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for key in (
        "tree_path claim_path strategy_path cps_path cps_global_path input_path "
        "claim_expr bound_kind mode output fmt lam_prime lam_n seed depth branching"
    ).split():
        if hasattr(args, key):
            setattr(cfg, key, getattr(args, key))
    if hasattr(args, "lambdas"):
        cfg.lambdas = _parse_float_list(args.lambdas)
        if not cfg.lambdas:
            raise ParseError("--lambda needs at least one value")
    if hasattr(args, "check_lambdas"):
        cfg.check_lambdas = _parse_float_list(args.check_lambdas)
    if hasattr(args, "cap"):
        raw = str(args.cap)
        cfg.cap = math.inf if raw == "inf" else float(raw)
        if cfg.cap < 0 or math.isnan(cfg.cap):
            raise ParseError(f"--cap must be a nonnegative number or 'inf', got {raw}")
    if hasattr(args, "stop"):
        cfg.stop = tuple(int(v) for v in str(args.stop).split(",") if v != "")
    if hasattr(args, "allow_arbitrage"):
        cfg.straddle = not args.allow_arbitrage
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except (ParseError, ValidationError, ShapeMismatch, BadFriction, BadFrictionGap) as exc:
        sys.stderr.write(f"spreadhedge: {exc}\n")
        return 1
    except (DualInfeasible,) as exc:
        sys.stdout.write(json.dumps({"reason": "dual_infeasible", "detail": str(exc)}) + "\n")
        return 2
    except (CertificateFailure, UnverifiedInput, PreconditionViolated) as exc:
        sys.stdout.write(json.dumps({"reason": "certificate_failure", "detail": str(exc)}) + "\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"spreadhedge: io error: {exc}\n")
        return 1
    except SpreadHedgeError as exc:
        sys.stderr.write(f"spreadhedge: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
