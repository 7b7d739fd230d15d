import json

import pytest

from celogic.cli import main


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "worlds": ["w1", "w2"],
                "agents": {"i": [["w1", "w2"]], "j": [["w1"], ["w2"]]},
                "valuation": {"p": ["w1"]},
            }
        )
    )
    return str(path)


@pytest.fixture
def env_file(tmp_path):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"ci": "p & ~q", "cscep": "true"}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProve:
    def test_valid_thesis_exits_zero(self, capsys):
        code, out, _ = run(capsys, "prove", "K{i,1.1} a -> K{i,1.1} K{i,1.1} a")
        assert code == 0
        assert "valid" in out

    def test_invalid_thesis_exits_one_with_countermodel(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "prove",
            "(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj",
        )
        assert code == 1
        data = json.loads(out)
        assert data["valid"] is False
        assert data["world"] in data["model"]["worlds"]

    def test_malformed_formula_exits_two(self, capsys):
        code, _, err = run(capsys, "parse", "K{")
        assert code == 2
        assert err.startswith("error:")

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "--format", "dot", "prove", "a -> K{i,1.1} a"
        )
        assert code == 1
        assert out.startswith("graph model")


class TestParse:
    def test_ast_dump(self, capsys):
        code, out, _ = run(capsys, "parse", "(p)^ci -> q")
        assert code == 0
        assert "Rel ^ci" in out and "Imp" in out

    def test_default_variant_fills_untagged(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "parse", "K{i} a")
        assert code == 0
        assert json.loads(out)["know"]["variant"] == "1.1"
        code, out, _ = run(
            capsys, "--default-variant", "2.2", "--format", "json", "parse", "K{i} a"
        )
        assert json.loads(out)["know"]["variant"] == "2.2"


class TestEval:
    def test_true_at_world(self, capsys, model_file):
        code, out, _ = run(
            capsys, "eval", "K{i,1.1} p | ~p", "--model", model_file, "--world", "w2"
        )
        assert code == 0
        assert out.strip() == "true"

    def test_false_at_world(self, capsys, model_file):
        code, out, _ = run(
            capsys, "eval", "p", "--model", model_file, "--world", "w2"
        )
        assert code == 1
        assert out.strip() == "false"

    def test_env_file(self, capsys, model_file, env_file):
        code, out, _ = run(
            capsys,
            "eval",
            "(p)^ci",
            "--model",
            model_file,
            "--world",
            "w1",
            "--env",
            env_file,
        )
        assert code == 0

    def test_unknown_world_is_usage_error(self, capsys, model_file):
        code, _, err = run(
            capsys, "eval", "p", "--model", model_file, "--world", "w9"
        )
        assert code == 2
        assert err.startswith("error:")


class TestReduce:
    def test_trace_lists_schema_names(self, capsys):
        code, out, _ = run(capsys, "reduce", "((p)^ck)^ci")
        assert code == 0
        assert "Context iteration" in out and "Atoms" in out
        assert "result: ci -> ck -> p" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "reduce", "(K{j,2.2} p)^ci")
        data = json.loads(out)
        assert data["result"] == "cj -> K{j,2.2} (cj -> p)"
        assert data["steps"][0]["axiom"] == "2.2-Contextual Knowledge"


class TestDeepInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("prove", "(" + "~" * 300 + "p)^ci -> p"),
            ("prove", "~" * 700 + "p"),
            ("reduce", "~" * 700 + "p"),
        ],
    )
    def test_nested_too_deeply_exits_three(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err == "error: formula nested too deeply\n"


class TestDialogue:
    def test_winning_thesis(self, capsys):
        code, out, _ = run(capsys, "dialogue", "K{i,1.1} a -> K{i,1.1} K{i,1.1} a")
        assert code == 0
        assert "winning strategy" in out

    def test_losing_thesis_prints_refutation(self, capsys):
        code, out, _ = run(
            capsys, "dialogue", "(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj"
        )
        assert code == 1
        assert "O wins the play" in out

    def test_budget_exhaustion_exits_three(self, capsys):
        code, _, err = run(
            capsys, "dialogue", "--budget", "3", "K{i,1.1} a -> K{i,1.1} K{i,1.1} a"
        )
        assert code == 3
        assert err.startswith("error:")

    def test_budget_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("CEL_BUDGET", "3")
        code, _, _ = run(capsys, "dialogue", "K{i,1.1} a -> K{i,1.1} K{i,1.1} a")
        assert code == 3


class TestOracle:
    def test_found_countermodel_exits_one(self, capsys):
        code, out, _ = run(capsys, "oracle", "a -> K{i,1.1} a", "--max-worlds", "2")
        assert code == 1
        data = json.loads(out)
        assert data["world"] in data["model"]["worlds"]

    def test_no_countermodel_exits_zero(self, capsys):
        code, out, _ = run(capsys, "oracle", "a -> a", "--max-worlds", "3")
        assert code == 0
        assert "no counter-model" in out


class TestSuite:
    def test_suite_agreement_exits_zero(self, capsys):
        code, out, _ = run(capsys, "suite")
        assert code == 0
        assert "all verdicts agree" in out

    def test_suite_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "suite")
        assert code == 0
        rows = json.loads(out)
        assert all(row["agree"] for row in rows)
