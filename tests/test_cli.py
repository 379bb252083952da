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
        for fmt in ("text", "csv", "json"):
            assert emit_report(saved, fmt) == emit_report(reports, fmt)
            for rep, doc in zip(reports, saved):
                assert emit_report(doc, fmt) == emit_report(rep, fmt)

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(
            ["price", "--tree", str(tmp_path / "nope.json"), "--claim-expr", "0", "--lambda", "0.1"]
        )
        assert code == 1

    def test_unknown_flag_is_input_error(self):
        assert main(["price", "--bogus"]) == 1

    def test_report_without_certificates_rejected(self, tmp_path):
        from spreadhedge import ValidationError
        from spreadhedge.cli import emit_report

        with pytest.raises(ValidationError):
            emit_report({"lambda": 0.1, "primal": 1.0, "certificates": {}}, "text")
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps({"lambda": 0.1, "primal": 1.0, "certificates": {}}))
        assert main(["report", "--input", str(stripped), "--format", "text"]) == 1
