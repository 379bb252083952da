import hashlib
import json

import pytest

from spreadhedge import (
    AdmissibilityCap,
    ClaimSpec,
    ConsistentPriceSystem,
    ParseError,
    dumps_tree,
    generate_random_tree,
    load_tree,
    random_cps,
    superhedge_price,
    verify_cps,
)
from spreadhedge.cli import emit_report, main, parse_payoff_expr
from tests.conftest import B1_JSON

RISING_JSON = json.dumps(
    {
        "depth": 1,
        "nodes": [
            {"id": 0, "parent": None, "time": 0, "prob": 1.0, "price": 100.0},
            {"id": 1, "parent": 0, "time": 1, "prob": 1.0, "price": 120.0},
        ],
    }
)


def _renamed(certificates: dict, key: str, new_key) -> dict:
    """``certificates`` with ``key`` renamed ``new_key``, or dropped for None."""
    out = {k: v for k, v in certificates.items() if k != key}
    if new_key is not None:
        out[new_key] = certificates[key]
    return out


@pytest.fixture
def files(tmp_path):
    tree = tmp_path / "b1.json"
    tree.write_text(B1_JSON)
    claim = tmp_path / "call.json"
    claim.write_text(json.dumps({"payoffs": {"1": 20.0, "2": 0.0}, "bound": "constant"}))
    cps = tmp_path / "z.json"
    cps.write_text(
        json.dumps({"z0": {"0": 1.0, "1": 1.0, "2": 1.0}, "z1": {"0": 94.0, "1": 110.0, "2": 78.0}})
    )
    rising = tmp_path / "rising.json"
    rising.write_text(RISING_JSON)
    strat = tmp_path / "hedge.json"
    d = 5.0 / 9.0
    strat.write_text(
        json.dumps(
            {
                "initial": [140.0 / 9.0, 0.0],
                "trades": {
                    "0": {"buy": d, "sell": 0.0, "consume": 0.0},
                    "1": {"buy": 0.0, "sell": d, "consume": 0.0},
                    "2": {"buy": 0.0, "sell": d, "consume": 0.0},
                },
            }
        )
    )
    return tmp_path


class TestPayoffExpr:
    def test_call(self):
        f = parse_payoff_expr("max(S-100,0)")
        assert f(120.0) == 20.0 and f(80.0) == 0.0

    def test_arithmetic(self):
        f = parse_payoff_expr("2*S + 3 - min(S, 50)")
        assert f(40.0) == 2 * 40 + 3 - 40
        assert f(60.0) == 2 * 60 + 3 - 50

    def test_unary_minus_and_parens(self):
        f = parse_payoff_expr("-(S - 100)*2")
        assert f(90.0) == 20.0

    def test_bad_expressions(self):
        for expr in ("max(S,", "2 ** S", "foo(S)", "S S", ""):
            with pytest.raises(ParseError):
                parse_payoff_expr(expr)

    @pytest.mark.parametrize(
        "expr",
        ["+".join(["S"] * 5001), "(" * 2000 + "S" + ")" * 2000, "-" * 3000 + "S"],
        ids=["long-sum", "nested-parens", "unary-minus-run"],
    )
    def test_too_deep_is_parse_error(self, expr):
        # used to raise RecursionError: the sum when called, the others
        # while parsing
        with pytest.raises(ParseError, match="^payoff expression nested too deeply$"):
            parse_payoff_expr(expr)(100.0)


class TestPriceCommand:
    def test_text_report(self, files, capsys):
        code = main(
            [
                "price",
                "--tree", str(files / "b1.json"),
                "--claim", str(files / "call.json"),
                "--lambda", "0.1",
                "--cap", "inf",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "15.5556" in out
        assert "self_financing" in out

    def test_expression_claim_matches_file_claim(self, files, capsys):
        code = main(
            [
                "price",
                "--tree", str(files / "b1.json"),
                "--claim-expr", "max(S-100,0)",
                "--lambda", "0.1",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["primal"] - 140.0 / 9.0) < 1e-9
        assert doc["certificates"]["supermartingale"] is True

    def test_tiny_friction_exits_zero(self, tmp_path, capsys):
        tree = tmp_path / "tree27.json"
        tree.write_text(dumps_tree(generate_random_tree(27, 4, 3)))
        code = main(
            [
                "price",
                "--tree", str(tree),
                "--claim-expr", "max(S-100,0)",
                "--lambda", "1e-6",
                "--format", "json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["certificates"]["supermartingale"] is True

    def test_curve_csv(self, files, capsys):
        code = main(
            [
                "price",
                "--tree", str(files / "b1.json"),
                "--claim", str(files / "call.json"),
                "--lambda", "0,0.1",
                "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("lambda,primal,dual,gap,mode,cap")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0.0"

    def test_deterministic_output(self, files, capsys):
        argv = [
            "price",
            "--tree", str(files / "b1.json"),
            "--claim", str(files / "call.json"),
            "--lambda", "0.1",
            "--format", "json",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_arbitrage_exit_code_2_with_reason(self, files, capsys):
        code = main(
            [
                "price",
                "--tree", str(files / "rising.json"),
                "--claim-expr", "0",
                "--lambda", "0.1",
                "--format", "json",
            ]
        )
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["reason"] == "dual_infeasible"

    def test_feasibility_grid(self, files, capsys):
        code = main(
            [
                "price",
                "--tree", str(files / "b1.json"),
                "--claim", str(files / "call.json"),
                "--lambda", "0.1",
                "--check-lambdas", "0.01,0.05",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["cps_feasibility_grid"].values()) == {True}

    def test_bad_lambda_is_input_error(self, files):
        code = main(
            [
                "price",
                "--tree", str(files / "b1.json"),
                "--claim", str(files / "call.json"),
                "--lambda", "1.5",
            ]
        )
        assert code == 1

    def test_output_file(self, files, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "price",
                "--tree", str(files / "b1.json"),
                "--claim", str(files / "call.json"),
                "--lambda", "0.1",
                "--format", "json",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["dual_status"] == "optimal"


class TestDualCommand:
    def test_dual_json(self, files, capsys):
        code = main(
            [
                "dual",
                "--tree", str(files / "b1.json"),
                "--claim", str(files / "call.json"),
                "--lambda", "0.1",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["dual"] - 140.0 / 9.0) < 1e-9
        assert set(doc["cps"]) == {"z0", "z1"}

    def test_dual_cps_is_the_price_commands_cps(self, files, capsys):
        deep = files / "deep.json"
        deep.write_text(dumps_tree(generate_random_tree(7, 5, 2)))
        for tree_path in (files / "b1.json", deep):
            args = ["--tree", str(tree_path), "--claim-expr", "max(S-100,0)", "--lambda", "0.1"]
            assert main(["dual", *args, "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            tree = load_tree(tree_path.read_text())
            assert verify_cps(tree, 0.1, ConsistentPriceSystem.from_json(tree, doc["cps"]))
            assert main(["price", *args, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["cps"] == doc["cps"]

    def test_dual_infeasible_exit_2(self, files, capsys):
        code = main(
            [
                "dual",
                "--tree", str(files / "rising.json"),
                "--claim-expr", "0",
                "--lambda", "0.1",
                "--format", "json",
            ]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().out)["reason"] == "dual_infeasible"


class TestVerifyCommands:
    def test_verify_cps_ok(self, files, capsys):
        code = main(
            [
                "verify-cps",
                "--tree", str(files / "b1.json"),
                "--cps", str(files / "z.json"),
                "--lambda", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spread" in out and "martingale" in out

    def test_verify_cps_failure_exit_2(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"z0": {"0": 1.0, "1": 1.0, "2": 1.0}, "z1": {"0": 94.0, "1": 121.0, "2": 78.0}})
        )
        code = main(
            [
                "verify-cps",
                "--tree", str(files / "b1.json"),
                "--cps", str(bad),
                "--lambda", "0.1",
                "--format", "json",
            ]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().out)["reason"] == "cps_invalid"

    def test_check_strategy(self, files, capsys):
        code = main(
            [
                "check-strategy",
                "--tree", str(files / "b1.json"),
                "--strategy", str(files / "hedge.json"),
                "--lambda", "0.1",
                "--mode", "nb",
                "--cap", "inf",
            ]
        )
        assert code == 0
        assert "self-financing  true" in capsys.readouterr().out

    def test_variation_bound(self, files, tmp_path, capsys):
        strat = tmp_path / "round.json"
        strat.write_text(
            json.dumps(
                {
                    "initial": [0.0, 0.0],
                    "trades": {
                        "0": {"buy": 1.0, "sell": 0.0, "consume": 0.0},
                        "1": {"buy": 0.0, "sell": 1.0, "consume": 0.0},
                        "2": {"buy": 0.0, "sell": 1.0, "consume": 0.0},
                    },
                }
            )
        )
        mart = tmp_path / "mart.json"
        mart.write_text(
            json.dumps({"z0": {"0": 1.0, "1": 1.0, "2": 1.0}, "z1": {"0": 100.0, "1": 120.0, "2": 80.0}})
        )
        code = main(
            [
                "variation-bound",
                "--tree", str(files / "b1.json"),
                "--strategy", str(strat),
                "--cps", str(mart),
                "--lambda", "0.1",
                "--lambda-prime", "0.05",
                "--cap", str(28.0 / 81.0),
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["lhs"] - 190.0) < 1e-9

    def test_precondition_finding_honours_format_and_output(self, files, tmp_path, capsys):
        held = tmp_path / "held.json"
        held.write_text(
            json.dumps({"initial": [0.0, 0.0], "trades": {"0": {"buy": 1.0, "sell": 0.0, "consume": 0.0}}})
        )
        out = tmp_path / "f"
        code = main(
            [
                "variation-bound",
                "--tree", str(files / "b1.json"),
                "--strategy", str(held),
                "--cps", str(files / "z.json"),
                "--lambda", "0.1",
                "--lambda-prime", "0.05",
                "--cap", "100",
                "--format", "text",
                "--output", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("reason: certificate_failure\n")


VERDICT_DOCS = {
    "zbad.json": {"z0": {"0": 1.0, "1": 1.0, "2": 1.0}, "z1": {"0": 94.0, "1": 121.0, "2": 78.0}},
    "leak.json": {
        "initial": [140.0 / 9.0, 0.0],
        "trades": {"0": {"buy": 5.0 / 9.0}, "1": {"sell": 5.0 / 9.0, "consume": -1.0}, "2": {"sell": 5.0 / 9.0}},
    },
    "round.json": {"initial": [0.0, 0.0], "trades": {"0": {"buy": 1.0}, "1": {"sell": 1.0}, "2": {"sell": 1.0}}},
    "mart.json": {"z0": {"0": 1.0, "1": 1.0, "2": 1.0}, "z1": {"0": 100.0, "1": 120.0, "2": 80.0}},
}
VERDICT_ARGS = {
    "verify-cps ok": ["verify-cps", "--cps", "z.json"],
    "verify-cps bad": ["verify-cps", "--cps", "zbad.json"],
    "check-strategy ok": ["check-strategy", "--strategy", "hedge.json"],
    "check-strategy leak": ["check-strategy", "--strategy", "leak.json"],
    "check-strategy capped": ["check-strategy", "--strategy", "round.json", "--cap", "1"],
    "variation-bound ok": [
        "variation-bound", "--strategy", "round.json", "--cps", "mart.json",
        "--lambda-prime", "0.05", "--cap", repr(28.0 / 81.0),
    ],
}
# (exit code, sha256 of stdout) of each check command on passing and failing input
VERDICT_BYTES = {
    ("verify-cps ok", "json"): (0, "e9574d556bdbda5b57796799bf6deb0d30231276a752e9794375c86de38352e4"),
    ("verify-cps ok", "csv"): (0, "1aec3e1054e4a831df858cc2061fd55c08fa905bc78c3dc0b4d3ac7f16d533da"),
    ("verify-cps ok", "text"): (0, "1aec3e1054e4a831df858cc2061fd55c08fa905bc78c3dc0b4d3ac7f16d533da"),
    ("verify-cps bad", "json"): (2, "de8dffb16ffbf63d5ce7d0c626c0d9b1e86b7ef61040a81d4485aa100bb5c74c"),
    ("verify-cps bad", "csv"): (2, "54cf0afd7442a11157bc008612a9012b91d763627013ef090fd3262571bfbedc"),
    ("verify-cps bad", "text"): (2, "bfe74bec1f4d99e9f1415c0dbbdbd6a98d98c62a578fe427a7d803b19dbbe83f"),
    ("check-strategy ok", "json"): (0, "5fb3402b547ba4f73e477b17822452ae7f335c7db9e2ca0debc61e8327761e94"),
    ("check-strategy ok", "csv"): (0, "ebc93069425128e233d7579506ab193ac0fdd0d138361530fb22bdc8068180a4"),
    ("check-strategy ok", "text"): (0, "ebc93069425128e233d7579506ab193ac0fdd0d138361530fb22bdc8068180a4"),
    ("check-strategy leak", "json"): (2, "e89bf828f6eb3fbfd274ef4757e8e66d0c669cdd9e5a49bec1fa272a8da7bf28"),
    ("check-strategy leak", "csv"): (2, "92514d914c30848b1d206f0b50f72ac85931c311ee91ca93fdf6b2a0c4f613e3"),
    ("check-strategy leak", "text"): (2, "5db68c53e635edb21c6ffbd54f77b7c4618f053168e367c8b8ae7d094357ad5a"),
    ("check-strategy capped", "json"): (2, "b47cdae0398e88d9b91576e99bcd63c379736b192a867177f85e73d4004c2e45"),
    ("check-strategy capped", "csv"): (2, "30b0da1162d3b207b6c927fd8a62fe20ec33dd7eb305529ce6a9714ce6aa764f"),
    ("check-strategy capped", "text"): (2, "a7515c7d8caf12d7105a51e6a58b7c7c5653687e325a95d678914046ac89e073"),
    ("variation-bound ok", "json"): (0, "a36b4dcde96895142b12afe03f3522ed37be7176d9e45b7557f0dbef346d501c"),
    ("variation-bound ok", "csv"): (0, "418ff86d5522bb65402ac3bd1e496dd0ce5be541aec8d0e74e4655befacfcc0d"),
    ("variation-bound ok", "text"): (0, "418ff86d5522bb65402ac3bd1e496dd0ce5be541aec8d0e74e4655befacfcc0d"),
}


class TestVerdictBytes:
    @pytest.mark.parametrize("case, fmt", sorted(VERDICT_BYTES))
    def test_output_and_exit_code_pinned(self, files, capsys, case, fmt):
        for name, doc in VERDICT_DOCS.items():
            (files / name).write_text(json.dumps(doc))
        argv = [a if not a.endswith(".json") else str(files / a) for a in VERDICT_ARGS[case]]
        argv += ["--tree", str(files / "b1.json"), "--lambda", "0.1", "--format", fmt]
        code = main(argv)
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERDICT_BYTES[case, fmt], out


class TestGenerationAndReport:
    def test_gen_tree_valid(self, capsys):
        code = main(["gen-tree", "--seed", "1", "--depth", "3", "--branching", "2"])
        assert code == 0
        from spreadhedge import load_tree

        tree = load_tree(capsys.readouterr().out)
        assert tree.depth == 3

    def test_env_seed_override(self, capsys, monkeypatch):
        main(["gen-tree", "--seed", "1", "--depth", "2", "--branching", "2"])
        base = capsys.readouterr().out
        monkeypatch.setenv("SPREADHEDGE_SEED", "99")
        main(["gen-tree", "--seed", "1", "--depth", "2", "--branching", "2"])
        overridden = capsys.readouterr().out
        assert base != overridden

    def test_concat_cps_command(self, files, tmp_path, capsys):
        tree_path = files / "b1.json"
        from spreadhedge import load_tree

        tree = load_tree(B1_JSON)
        local = random_cps(tree, 0.05, 1, stop={0})
        glob = random_cps(tree, 0.05, 2)
        lp = tmp_path / "local.json"
        lp.write_text(json.dumps(local.to_json()))
        gp = tmp_path / "global.json"
        gp.write_text(json.dumps(glob.to_json()))
        code = main(
            [
                "concat-cps",
                "--tree", str(tree_path),
                "--cps", str(lp),
                "--cps-global", str(gp),
                "--lambda", "0.2",
                "--lambda-n", "0.05",
                "--lambda-prime", "0.05",
                "--stop", "0",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"z0", "z1"}

    def test_report_round_trip(self, files, tmp_path, capsys):
        saved = tmp_path / "rep.json"
        main(
            [
                "price",
                "--tree", str(files / "b1.json"),
                "--claim", str(files / "call.json"),
                "--lambda", "0.1",
                "--format", "json",
                "--output", str(saved),
            ]
        )
        code = main(["report", "--input", str(saved), "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("lambda,primal,dual,gap")

    def test_curve_report_round_trip(self, files, tmp_path, capsys):
        saved = tmp_path / "curve.json"
        main(
            [
                "price",
                "--tree", str(files / "b1.json"),
                "--claim", str(files / "call.json"),
                "--lambda", "0,0.05,0.1,0.2,0.3",
                "--format", "json",
                "--output", str(saved),
            ]
        )
        code = main(["report", "--input", str(saved), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6  # header plus five friction levels
        prices = [float(l.split(",")[1]) for l in lines[1:]]
        assert prices == sorted(prices)

    def test_report_renders_identically_after_json_round_trip(self):
        tree = generate_random_tree(7, 3, 2)
        s0 = float(tree.price[0])
        claim = ClaimSpec({int(l): max(float(tree.price[l]) - s0, 0.0) - 5.0 for l in tree.leaves})
        caps = [
            AdmissibilityCap.unbounded(),
            AdmissibilityCap.numeraire_based(2.0),
            AdmissibilityCap.numeraire_free(0.05),
        ]
        reports = [
            superhedge_price(tree, lam, claim, cap) for lam in (0.0, 0.05, 0.2) for cap in caps
        ]
        saved = json.loads(emit_report(reports, "json"))
        grid = {"0.02": True, "0.3": False}
        for fmt in ("text", "csv", "json"):
            assert emit_report(saved, fmt) == emit_report(reports, fmt)
            for rep, doc in zip(reports, saved):
                assert emit_report(doc, fmt) == emit_report(rep, fmt)
            # saved with a grid, as `price --check-lambdas` writes it: the document carries its grid
            for doc in (reports, reports[0]):
                with_grid = json.loads(emit_report(doc, "json", grid))
                assert emit_report(with_grid, fmt) == emit_report(doc, fmt, grid)

    def test_curve_saved_with_feasibility_grid_renders(self, files, tmp_path, capsys):
        # `report` reproduces the bytes `price` printed, the feasibility grid included
        grid = {"csv": "", "json": '"cps_feasibility_grid"', "text": "price-system feasibility grid:"}
        for lambdas in ("0.01,0.05", "0.05"):
            price = [
                "price",
                "--tree", str(files / "b1.json"),
                "--claim", str(files / "call.json"),
                "--lambda", lambdas,
                "--mode", "nf",
                "--cap", "1",
                "--check-lambdas", "0.3,0.02",
            ]
            saved = tmp_path / "saved.json"
            assert main(price + ["--format", "json", "--output", str(saved)]) == 0
            if "," in lambdas:
                assert set(json.loads(saved.read_text())) == {"curve", "cps_feasibility_grid"}
            for fmt, marker in grid.items():
                assert main(price + ["--format", fmt]) == 0
                direct = capsys.readouterr().out
                assert marker in direct
                assert main(["report", "--input", str(saved), "--format", fmt]) == 0
                assert capsys.readouterr().out == direct, (lambdas, fmt)

    @pytest.mark.parametrize(
        "node, field, value",
        [(1, "id", 1.9), (2, "parent", False), (1, "time", "1"), (None, "depth", 1.0)],
    )
    def test_non_integer_field_is_input_error(self, tmp_path, capsys, node, field, value):
        doc = json.loads(B1_JSON)
        (doc if node is None else doc["nodes"][node])[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["price", "--tree", str(bad), "--claim-expr", "0", "--lambda", "0.1"]) == 1
        err = capsys.readouterr().err
        where = 'bad "depth"' if node is None else f"nodes[{node}] is malformed"
        assert err.startswith(f"spreadhedge: {where}: expected an integer"), err

    @pytest.mark.parametrize("field", ["parent", "time"])
    def test_oversize_integer_is_input_error(self, tmp_path, capsys, field):
        doc = json.loads(B1_JSON)
        doc["nodes"][2][field] = 10**23
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        assert main(["price", "--tree", str(big), "--claim-expr", "0", "--lambda", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spreadhedge: nodes[2] is malformed"), err

    def test_overlong_integer_literal_is_input_error(self, files, tmp_path, capsys):
        claim = tmp_path / "claim.json"
        claim.write_text('{"payoffs": {"1": ' + "1" * 5000 + ', "2": 0.0}}')
        argv = ["price", "--tree", str(files / "b1.json"), "--claim", str(claim), "--lambda", "0.1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("spreadhedge:")

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(
            ["price", "--tree", str(tmp_path / "nope.json"), "--claim-expr", "0", "--lambda", "0.1"]
        )
        assert code == 1

    def test_unknown_flag_is_input_error(self):
        assert main(["price", "--bogus"]) == 1

    def test_non_numeric_flag_is_input_error(self, files, capsys):
        price = ["price", "--tree", str(files / "b1.json"), "--claim-expr", "0"]
        concat = [
            "concat-cps", "--tree", str(files / "b1.json"), "--lambda", "0.2",
            "--cps", str(files / "z.json"), "--cps-global", str(files / "z.json"),
            "--lambda-n", "0.05", "--lambda-prime", "0.05",
        ]
        for flag, argv in (
            ("--lambda", price + ["--lambda", "abc"]),
            ("--check-lambdas", price + ["--lambda", "0.1", "--check-lambdas", "0.1,abc"]),
            ("--cap", price + ["--lambda", "0.1", "--cap", "abc"]),
            ("--stop", concat + ["--stop", "0,abc"]),
            ("--lambda-n", concat + ["--stop", "0", "--lambda-n", "abc"]),
            ("--lambda-prime", concat + ["--stop", "0", "--lambda-prime", "abc"]),
            ("--seed", ["gen-tree", "--seed", "abc"]),
            ("--depth", ["gen-tree", "--depth", "abc"]),
            ("--branching", ["gen-tree", "--branching", "abc"]),
        ):
            assert main(argv) == 1, flag
            err = capsys.readouterr().err
            assert err == f"spreadhedge: {flag} expects a number, got 'abc'\n", (flag, err)
        assert main(price + ["--lambda", ""]) == 1
        assert capsys.readouterr().err == "spreadhedge: --lambda needs at least one value\n"

    @pytest.mark.parametrize(
        "name, text",
        [
            ("tree", B1_JSON.replace('"price": 80.0', '"price": "80"')),
            ("claim", '{"payoffs": {"1": "20", "2": false}}'),
            ("strategy", '{"initial": [0, 0], "trades": {"0": {"buy": NaN, "sell": 0, "consume": 0}}}'),
        ],
        ids=["tree-price-str", "claim-str-false", "strategy-nan"],
    )
    def test_non_number_document_is_input_error(self, files, capsys, name, text):
        # each used to be accepted with exit 0: the strings and false as their
        # float() values, and the NaN trade as self-financing and admissible
        (files / "bad.json").write_text(text)
        argv = {
            "tree": ["price", "--tree", "bad.json", "--claim", "call.json"],
            "claim": ["price", "--tree", "b1.json", "--claim", "bad.json"],
            "strategy": ["check-strategy", "--tree", "b1.json", "--strategy", "bad.json", "--cap", "1"],
        }[name]
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        assert main(argv + ["--lambda", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spreadhedge: ") and ("JSON number" in err or "not finite" in err), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-cps", "--cps", "nan.json"],
            [
                "variation-bound", "--strategy", "hedge.json", "--cps", "nan.json",
                "--lambda-prime", "0.05", "--cap", "100",
            ],
            [
                "concat-cps", "--cps", "nan.json", "--cps-global", "z.json",
                "--lambda-n", "0.05", "--lambda-prime", "0.01", "--stop", "0",
            ],
        ],
        ids=["verify-cps", "variation-bound", "concat-cps"],
    )
    def test_non_finite_price_system_is_input_error(self, files, capsys, argv):
        # each used to reach the checks, where NaN passes every comparison,
        # and exit 2
        (files / "nan.json").write_text('{"z0": {"0": 1, "1": NaN, "2": 1}, "z1": {"0": 94, "1": 110, "2": 78}}')
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        assert main(argv + ["--tree", str(files / "b1.json"), "--lambda", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "spreadhedge: price system z0[1] is nan, not finite\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, text, field",
        [
            (["check-strategy", "--strategy"], '{"initial": [0, 0], "trades": {"0": [1]}}', "trade at node 0"),
            (["verify-cps", "--cps"], '{"z0": [1, 1, 1], "z1": {"0": 94, "1": 110, "2": 78}}', "z0"),
            (["price", "--claim"], '{"payoffs": [1, 2]}', "payoffs"),
        ],
        ids=["strategy-trade", "cps-z0", "claim-payoffs"],
    )
    def test_list_for_an_object_is_input_error(self, files, capsys, argv, text, field):
        # each used to escape main as an AttributeError traceback
        (files / "list.json").write_text(text)
        argv = [*argv, str(files / "list.json"), "--tree", str(files / "b1.json"), "--lambda", "0.1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("spreadhedge: bad ") and f": {field} must be a JSON object, got " in err, err

    @pytest.mark.parametrize(
        "expr",
        ["+".join(["S"] * 5001), "(" * 2000 + "S" + ")" * 2000, "-" * 3000 + "S"],
        ids=["long-sum", "nested-parens", "unary-minus-run"],
    )
    def test_deep_payoff_expression_is_input_error(self, files, capsys, expr):
        # each used to end in a RecursionError traceback
        argv = ["price", "--tree", str(files / "b1.json"), f"--claim-expr={expr}", "--lambda", "0.1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "spreadhedge: payoff expression nested too deeply\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (
                ["check-strategy", "--strategy"],
                '{"initial": [0, 0], "trades": {"1": {"buy": 1}, "01": {"consume": 0}}}',
                "bad strategy document: trades key '01' must be written '1'",
            ),
            (
                ["price", "--claim"],
                '{"payoffs": {"1": 20, "2": 0, "02": 50}}',
                "bad claim document: payoffs key '02' must be written '2'",
            ),
            (
                ["verify-cps", "--cps"],
                '{"z0": {"0": 1, "1": 1, "2": 1, "00": 1}, "z1": {"0": 94, "1": 110, "2": 78, "00": 90}}',
                "bad price-system document: z0 key '00' must be written '0'",
            ),
        ],
        ids=["strategy", "claim", "cps"],
    )
    def test_node_named_twice_is_input_error(self, files, capsys, argv, text, message):
        # each used to merge the two keys, the later one winning, and exit 0
        (files / "twice.json").write_text(text)
        argv = [*argv, str(files / "twice.json"), "--tree", str(files / "b1.json"), "--lambda", "0.1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"spreadhedge: {message}\n" and captured.out == ""

    @pytest.mark.parametrize(
        "argv, text, key",
        [
            (
                ["check-strategy", "--tree", "b1.json", "--strategy", "twice.json"],
                '{"initial": [0, 0], "trades": {"1": {"buy": 1}, "1": {"consume": 0}}}',
                "1",
            ),
            (
                ["price", "--tree", "b1.json", "--claim", "twice.json"],
                '{"payoffs": {"1": 20, "2": 0, "2": 50}}',
                "2",
            ),
            (
                ["verify-cps", "--tree", "b1.json", "--cps", "twice.json"],
                '{"z0": {"0": 1, "1": 1, "2": 1}, "z1": {"0": 94, "1": 110, "2": 78}, "z0": {}}',
                "z0",
            ),
            (
                ["price", "--tree", "twice.json", "--claim", "call.json"],
                B1_JSON.replace('"price": 80.0', '"price": -80.0, "price": 80.0'),
                "price",
            ),
        ],
        ids=["strategy", "claim", "cps", "tree"],
    )
    def test_key_written_twice_is_input_error(self, files, capsys, argv, text, key):
        # json.load kept the later value: the strategy exited 0 with its
        # purchase dropped, and the tree priced with exit 0
        (files / "twice.json").write_text(text)
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        assert main(argv + ["--lambda", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"spreadhedge: key '{key}' is written twice in one object\n"
        assert captured.out == ""

    def test_unknown_trade_key_is_input_error(self, files, capsys):
        # used to be certified as no trade with exit 0
        (files / "typo.json").write_text('{"initial": [0, 0], "trades": {"0": {"by": 1.0}}}')
        argv = [
            "check-strategy", "--tree", str(files / "b1.json"),
            "--strategy", str(files / "typo.json"), "--lambda", "0.1",
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == "spreadhedge: unknown trade key 'by' at node 0\n"

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("dual", ["--claim", "call.json"]),
            ("verify-cps", ["--cps", "z.json"]),
            ("check-strategy", ["--strategy", "hedge.json"]),
            (
                "variation-bound",
                ["--strategy", "hedge.json", "--cps", "z.json", "--lambda-prime", "0.05", "--cap", "1"],
            ),
            (
                "concat-cps",
                ["--cps", "z.json", "--cps-global", "z.json", "--lambda-n", "0.01",
                 "--lambda-prime", "0.02", "--stop", "0"],
            ),
        ],
    )
    def test_lambda_list_for_a_one_lambda_command_is_input_error(self, files, capsys, command, flags):
        # the values after the first used to be dropped with exit 0
        flags = [str(files / f) if f.endswith(".json") else f for f in flags]
        argv = [command, "--tree", str(files / "b1.json"), *flags]
        assert main(argv + ["--lambda", "0.1,0.2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"spreadhedge: --lambda takes one value for {command}\n"
        assert captured.out == ""
        assert main(argv + ["--lambda", "0.1"]) in (0, 2)  # one value still runs

    @pytest.mark.parametrize(
        "fmt, edit, key",
        [
            ("text", lambda doc: [{"certificates": {"cps": True}}], "'lambda'"),
            ("csv", lambda doc: {**doc, "gap": "small"}, "'gap'"),
            ("text", lambda doc: {**doc, "gap": "small"}, "'gap'"),
            ("text", lambda doc: {**doc, "cps_feasibility_grid": [0.02]}, "'cps_feasibility_grid'"),
            (
                "text",
                lambda doc: {**doc, "certificates": {**doc["certificates"], "self_financing": "false"}},
                "'self_financing'",
            ),
            ("text", lambda doc: {**doc, "cps_feasibility_grid": {"0.02": "false"}}, "'0.02'"),
            ("text", lambda doc: {**doc, "certificates": _renamed(doc["certificates"], "cps", "cpz")}, "'cpz'"),
            (
                "csv",
                lambda doc: {**doc, "certificates": _renamed(doc["certificates"], "supermartingale", None)},
                "'supermartingale'",
            ),
        ],
        ids=[
            "no-lambda", "gap-str-csv", "gap-str-text", "grid-list", "cert-str", "grid-value-str",
            "cert-renamed", "cert-missing",
        ],
    )
    def test_malformed_saved_report_is_input_error(self, files, capsys, fmt, edit, key):
        # the first four used to escape main (KeyError, ValueError,
        # AttributeError); the string verdicts rendered by their truthiness,
        # "false" as true and feasible, with exit 0; a renamed or missing
        # certificate rendered as n/a, with exit 0
        saved = files / "saved.json"
        price = ["price", "--tree", str(files / "b1.json"), "--claim", str(files / "call.json")]
        assert main(price + ["--lambda", "0.1", "--format", "json", "--output", str(saved)]) == 0
        saved.write_text(json.dumps(edit(json.loads(saved.read_text()))))
        assert main(["report", "--input", str(saved), "--format", fmt]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spreadhedge: ") and key in err

    def test_report_without_certificates_rejected(self, tmp_path):
        from spreadhedge import ValidationError
        from spreadhedge.cli import emit_report

        with pytest.raises(ValidationError):
            emit_report({"lambda": 0.1, "primal": 1.0, "certificates": {}}, "text")
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps({"lambda": 0.1, "primal": 1.0, "certificates": {}}))
        assert main(["report", "--input", str(stripped), "--format", "text"]) == 1
