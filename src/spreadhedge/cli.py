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

from .cps import ConsistentPriceSystem, verify_cps
from .errors import (
    CertificateFailure,
    DualInfeasible,
    ParseError,
    PreconditionViolated,
    SpreadHedgeError,
    UnverifiedInput,
    ValidationError,
)
from .cps import concatenate_cps
from .scenario_tree import (
    ClaimSpec,
    PriceModel,
    ScenarioTree,
    _number,
    _tree_from_document,
    dumps_tree,
    generate_random_tree,
)
from .strategy import (
    AdmissibilityCap,
    Strategy,
    _admissibility,
    _minimal_bound,
    _rate,
    is_self_financing,
    liquidation_values,
)
from .superhedge import (
    SuperHedgeReport,
    has_cps,
    superhedge_price,
    variation_bound_check,
)

__all__ = ["emit_report", "parse_payoff_expr", "main"]

CSV_COLUMNS = [
    "lambda", "primal", "dual", "gap", "mode", "cap", *(f"cert_{key}" for key in SuperHedgeReport.CERTIFICATES)
]


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


_TOO_DEEP = "payoff expression nested too deeply"


def parse_payoff_expr(text: str):
    """Compile a payoff expression over the terminal price into a callable.

    The parser and the compiled callable both recurse, so an expression
    nested past Python's recursion limit raises ``ParseError`` from either.
    """
    try:
        node = _ExprParser(text).parse()
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None

    def payoff(s):
        try:
            return node(s)
        except RecursionError:
            raise ParseError(_TOO_DEEP) from None

    return payoff


# ---------------------------------------------------------------------------
# document IO


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key written twice is a ``ParseError``, where
    ``json`` would keep the later value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"key {key!r} is written twice in one object")
        obj[key] = value
    return obj


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_tree(path: str) -> ScenarioTree:
    return _tree_from_document(_read_json(path))


def _load_claim(args: argparse.Namespace, tree: ScenarioTree) -> ClaimSpec:
    if args.claim_expr is not None:
        fn = parse_payoff_expr(args.claim_expr)
        payoffs = {int(l): float(fn(float(tree.price[l]))) for l in tree.leaves}
        return ClaimSpec(payoffs, args.bound_kind)
    if args.claim_path is None:
        raise ParseError("a claim file or --claim-expr is required")
    # validated against the tree by the pricing LP's assembly
    return ClaimSpec.from_json(_read_json(args.claim_path))


def _cap(args: argparse.Namespace) -> AdmissibilityCap:
    kind = "numeraire_based" if args.mode == "nb" else "numeraire_free"
    return AdmissibilityCap(kind, args.cap)


# ---------------------------------------------------------------------------
# rendering


def _fmt_bool(v) -> str:
    if v is None:
        return "n/a"
    return "true" if v else "false"


def emit_report(report, fmt: str, grid: dict | None = None) -> str:
    """Render one report or a curve of reports deterministically.

    ``report`` is a ``SuperHedgeReport``, a list of them (a friction curve),
    or the plain JSON the JSON format produced, whose own grid replaces
    ``grid``.  Reports with no certificates are rejected, and so are plain
    dicts lacking a key the renderers read, holding a value of the wrong
    type, or whose certificates are not exactly ``SuperHedgeReport.CERTIFICATES``;
    a certificate is ``true``, ``false`` or ``null`` (rendered ``n/a``).
    ``grid``, the ``--check-lambdas`` verdicts ``{repr(lambda'): feasible}``,
    follows as text lines or as the JSON key ``cps_feasibility_grid`` (a
    curve then sits under ``curve``); CSV leaves it out.
    """
    grid = {} if grid is None else grid
    if isinstance(report, dict):
        # saved by `price --check-lambdas`: a report, or {"curve": [...]}, with its grid
        if "cps_feasibility_grid" in report:
            report = dict(report)
            grid = report.pop("cps_feasibility_grid")
        report = report.get("curve", report)
    if not isinstance(grid, dict):
        raise ValidationError(f"'cps_feasibility_grid' must be an object, got {type(grid).__name__}")
    for k, v in grid.items():
        _numeric("'cps_feasibility_grid' key")(k)  # the text form sorts the keys as numbers
        if not isinstance(v, bool):
            raise ValidationError(f"'cps_feasibility_grid' value for {k!r} must be true or false, got {v!r}")
    reports = report if isinstance(report, list) else [report]
    if not reports:
        raise ValidationError("nothing to render")
    dicts = []
    for r in reports:
        d = r.to_json() if isinstance(r, SuperHedgeReport) else r
        if not isinstance(d, dict):
            raise ValidationError(f"a report must be an object, got {type(d).__name__}")
        if not d.get("certificates") or not isinstance(d["certificates"], dict):
            raise ValidationError("report carries no certificates")
        for key in ("lambda", "primal", "dual", "gap", "mode", "cap"):
            if key not in d:
                raise ValidationError(f"report lacks {key!r}")
        try:
            for key in ("lambda", "primal", "dual", "gap"):
                _number(d[key], f"report {key!r}")
        except (TypeError, OverflowError) as exc:
            raise ValidationError(str(exc)) from exc
        if not isinstance(d["mode"], str):
            raise ValidationError(f"report 'mode' must be a string, got {d['mode']!r}")
        certs = d["certificates"]
        unknown = [key for key in certs if key not in SuperHedgeReport.CERTIFICATES]
        missing = [key for key in SuperHedgeReport.CERTIFICATES if key not in certs]
        if unknown or missing:
            raise ValidationError(f"report certificate names: unknown {unknown}, missing {missing}")
        for key, v in certs.items():
            if v is not None and not isinstance(v, bool):
                raise ValidationError(f"report certificate {key!r} must be true, false or null, got {v!r}")
        dicts.append(d)

    if fmt == "json":
        payload = dicts[0] if len(dicts) == 1 else dicts
        if grid and len(dicts) == 1:
            payload = {**payload, "cps_feasibility_grid": grid}
        elif grid:
            payload = {"curve": payload, "cps_feasibility_grid": grid}
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
                **{f"cert_{key}": _fmt_bool(c[key]) for key in SuperHedgeReport.CERTIFICATES},
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
            for key in SuperHedgeReport.CERTIFICATES:
                lines.append(f"  {key:28s} {row[f'cert_{key}']}")
            lines.append("")
        text = "\n".join(lines)
        if grid:
            text += "price-system feasibility grid:\n"
            for k in sorted(grid, key=float):
                text += f"  lambda'={k}: {'feasible' if grid[k] else 'infeasible'}\n"
        return text

    raise ValidationError(f"unknown format {fmt!r}")


def _write_output(args: argparse.Namespace, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _finding(args: argparse.Namespace, reason: str, detail: str) -> int:
    payload = {"reason": reason, "detail": detail}
    if args.fmt == "json":
        _write_output(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif args.fmt == "csv":
        _write_output(args, "reason,detail\n" + f"{reason},{json.dumps(detail)}\n")
    else:
        _write_output(args, f"reason: {reason}\n{detail}\n")
    return 2


def _verdict(args: argparse.Namespace, payload: dict, body: str, reason: str | None) -> int:
    """Emit a check's outcome: JSON gets ``payload`` (plus ``reason`` when it
    failed), the other formats ``body``, or a finding carrying it."""
    if args.fmt == "json":
        if reason is not None:
            payload = {**payload, "reason": reason}
        _write_output(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif reason is not None:
        return _finding(args, reason, body)
    else:
        _write_output(args, body)
    return 0 if reason is None else 2


# ---------------------------------------------------------------------------
# commands


def _cmd_price(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_path)
    claim = _load_claim(args, tree)
    cap = _cap(args)
    reports = [superhedge_price(tree, lam, claim, cap) for lam in args.lambdas]
    grid = {repr(lam_check): has_cps(tree, lam_check) for lam_check in args.check_lambdas}
    _write_output(args, emit_report(reports, args.fmt, grid))
    return 0 if all(r.all_certified() for r in reports) else 2


def _cmd_dual(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_path)
    claim = _load_claim(args, tree)
    lam = args.lam
    report = superhedge_price(tree, lam, claim)
    if not report.certificates["cps"]:
        return _finding(args, "certificate_failure", "optimal price system fails verification")
    cps = report.cps
    payload = {
        "lambda": lam,
        "dual": report.dual_value,
        "cps": cps.to_json(),
        "strict": cps.strict,
    }
    body = f"lambda {lam!r}\ndual   {report.dual_value!r}\nstrict {str(cps.strict).lower()}\n"
    return _verdict(args, payload, body, None)


def _cmd_verify_cps(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_path)
    cps = ConsistentPriceSystem.from_json(tree, _read_json(args.cps_path))
    check = verify_cps(tree, args.lam, cps)
    lines = ["family            worst-residual  witness-node"]
    for fam in sorted(check.worst):
        lines.append(f"{fam:18s}{check.worst[fam]:.3e}       {check.witness[fam]}")
    payload = {"ok": check.ok, "worst": check.worst, "witness": check.witness}
    body = "\n".join(lines) + "\n"
    return _verdict(args, payload, body, None if check.ok else "cps_invalid")


def _cmd_check_strategy(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_path)
    strat = Strategy.from_json(tree, _read_json(args.strategy_path))
    lam = args.lam
    sf = is_self_financing(tree, lam, strat)
    values = liquidation_values(tree, lam, strat)
    adm = _admissibility(tree, values, _cap(args))
    min_nb = _minimal_bound(tree, values, "numeraire_based")
    min_nf = _minimal_bound(tree, values, "numeraire_free")
    payload = {
        "self_financing": sf.ok,
        "violations": [list(v) for v in sf.violations],
        "admissible": adm.ok,
        "witness": None if adm.witness is None else list(adm.witness),
        "minimal_bound_nb": min_nb,
        "minimal_bound_nf": min_nf,
    }
    body = (
        f"self-financing  {str(sf.ok).lower()}\n"
        f"admissible      {str(adm.ok).lower()}\n"
        f"minimal bound   nb {min_nb!r} / nf {min_nf!r}\n"
    )
    reason = None
    if not sf.ok:
        reason = "strategy_not_self_financing"
    elif not adm.ok:
        reason = "not_admissible"
    return _verdict(args, payload, body, reason)


def _cmd_variation_bound(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_path)
    strat = Strategy.from_json(tree, _read_json(args.strategy_path))
    cps = ConsistentPriceSystem.from_json(tree, _read_json(args.cps_path))
    check = variation_bound_check(
        tree, args.lam, args.lam_prime, strat, cps, args.cap
    )
    payload = {"lhs": check.lhs, "rhs": check.rhs, "ok": check.ok}
    body = f"lhs {check.lhs!r}\nrhs {check.rhs!r}\nok  {str(check.ok).lower()}\n"
    return _verdict(args, payload, body, None if check.ok else "variation_bound_violated")


def _cmd_concat_cps(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree_path)
    local = ConsistentPriceSystem.from_json(tree, _read_json(args.cps_path))
    glob = ConsistentPriceSystem.from_json(tree, _read_json(args.cps_global_path))
    try:
        out = concatenate_cps(
            tree, args.lam, args.lam_n, args.lam_prime, set(args.stop), local, glob
        )
    except UnverifiedInput as exc:
        return _finding(args, "cps_invalid", str(exc))
    except CertificateFailure as exc:
        return _finding(args, "certificate_failure", str(exc))
    _write_output(args, json.dumps(out.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_gen_tree(args: argparse.Namespace) -> int:
    seed = args.seed
    env = os.environ.get("SPREADHEDGE_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ParseError(f"SPREADHEDGE_SEED must be an integer: {env!r}") from exc
    pm = PriceModel(straddle=not args.allow_arbitrage)
    tree = generate_random_tree(seed, args.depth, args.branching, pm)
    _write_output(args, dumps_tree(tree))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _write_output(args, emit_report(_read_json(args.input_path), args.fmt))
    return 0


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1; domain findings own exit code 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _numeric(name: str, kind=float, many: bool = False):
    """Converter of numeric text, the argparse ``type=`` of every numeric
    flag: ``kind`` of the text, or with ``many`` the tuple of its
    comma-separated values (none for "").  Text ``kind`` cannot convert is a
    ``ParseError`` naming ``name``; a value it converts but rejects
    (``_rate``'s friction range, a negative cap) raises ``kind``'s own error."""

    def one(text: str):
        try:
            return kind(text)
        except ValueError as exc:
            raise ParseError(f"{name} expects a number, got {text!r}") from exc

    def convert(text: str):
        if not many:
            return one(text)
        return tuple(one(v) for v in text.split(",")) if text else ()

    return convert


def _lambdas(text: str) -> tuple[float, ...]:
    if not text:
        raise ParseError("--lambda needs at least one value")
    return _numeric("--lambda", _rate, many=True)(text)


def _one_lambda(command: str):
    """``--lambda`` of a command that checks at one friction level."""

    def convert(text: str) -> float:
        lams = _lambdas(text)
        if len(lams) > 1:
            raise ParseError(f"--lambda takes one value for {command}")
        return lams[0]

    return convert


def _cap_bound(text: str) -> float:
    cap = float(text)  # "inf" included
    if not cap >= 0.0:
        raise ParseError(f"--cap must be a nonnegative number or 'inf', got {text}")
    return cap


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="spreadhedge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        return sp

    def io_flags(sp, fmts=("json", "csv", "text")):  # the last format is the default
        sp.add_argument("--format", default=fmts[-1], choices=fmts, dest="fmt")
        sp.add_argument("--output", default=None)

    def priced(name, handler, summary):
        sp = command(name, handler, summary)
        sp.add_argument("--tree", required=True, dest="tree_path")
        if name == "price":  # a curve: one report per friction level
            sp.add_argument("--lambda", required=True, type=_lambdas, dest="lambdas")
        else:
            sp.add_argument("--lambda", required=True, type=_one_lambda(name), dest="lam")
        io_flags(sp)
        return sp

    def claim(sp):
        sp.add_argument("--claim", dest="claim_path")
        sp.add_argument("--claim-expr", dest="claim_expr")
        sp.add_argument("--bound", default="constant", choices=["constant", "stock_bond"], dest="bound_kind")

    sp = priced("price", _cmd_price, "super-replication price with certificates")
    claim(sp)
    sp.add_argument("--mode", default="nb", choices=["nb", "nf"])
    sp.add_argument("--cap", default=math.inf, type=_numeric("--cap", _cap_bound))
    sp.add_argument(
        "--check-lambdas", default=(), type=_numeric("--check-lambdas", _rate, many=True), dest="check_lambdas"
    )

    claim(priced("dual", _cmd_dual, "dual value and optimal price system"))

    sp = priced("verify-cps", _cmd_verify_cps, "verify a price system at a friction level")
    sp.add_argument("--cps", required=True, dest="cps_path")

    sp = priced("check-strategy", _cmd_check_strategy, "self-financing and admissibility checks")
    sp.add_argument("--strategy", required=True, dest="strategy_path")
    sp.add_argument("--mode", default="nb", choices=["nb", "nf"])
    sp.add_argument("--cap", default=math.inf, type=_numeric("--cap", _cap_bound))

    sp = priced("variation-bound", _cmd_variation_bound, "expected bond-variation bound check")
    sp.add_argument("--strategy", required=True, dest="strategy_path")
    sp.add_argument("--cps", required=True, dest="cps_path")
    sp.add_argument("--lambda-prime", required=True, type=_numeric("--lambda-prime", _rate), dest="lam_prime")
    sp.add_argument("--cap", required=True, type=_numeric("--cap", _cap_bound))

    sp = priced("concat-cps", _cmd_concat_cps, "splice a stopped-market system onto a global one")
    sp.add_argument("--cps", required=True, dest="cps_path")
    sp.add_argument("--cps-global", required=True, dest="cps_global_path")
    sp.add_argument("--lambda-n", required=True, type=_numeric("--lambda-n", _rate), dest="lam_n")
    sp.add_argument("--lambda-prime", required=True, type=_numeric("--lambda-prime", _rate), dest="lam_prime")
    sp.add_argument("--stop", required=True, type=_numeric("--stop", int, many=True))

    sp = command("gen-tree", _cmd_gen_tree, "emit a random scenario tree")
    for flag, default in (("--seed", 1), ("--depth", 3), ("--branching", 2)):
        sp.add_argument(flag, default=default, type=_numeric(flag, int))
    sp.add_argument("--allow-arbitrage", action="store_true")
    io_flags(sp, ("json",))

    sp = command("report", _cmd_report, "re-render a saved report")
    sp.add_argument("--input", required=True, dest="input_path")
    io_flags(sp)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            return args.handler(args)
        except DualInfeasible as exc:
            return _finding(args, "dual_infeasible", str(exc))
        except (CertificateFailure, UnverifiedInput, PreconditionViolated) as exc:
            return _finding(args, "certificate_failure", str(exc))
    except SystemExit as exc:  # argparse: usage errors and --help
        return int(exc.code or 0)
    except OSError as exc:
        sys.stderr.write(f"spreadhedge: io error: {exc}\n")
        return 1
    except SpreadHedgeError as exc:
        sys.stderr.write(f"spreadhedge: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
