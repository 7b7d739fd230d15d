import json
import sys

import pytest

from celogic.cli import main
from celogic.epistemology import run_suite
from celogic.kripke import ContextEnv, find_countermodel
from celogic.reduction import reduce_full
from celogic.syntax import parse_formula, render_formula

from nested import json_depth


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

    def test_nine_nested_equivalences_get_a_verdict(self, capsys):
        # derived-iff relativizes each operand once, so the reduction stays
        # linear; nine p's under <-> are p, and the thesis is ci -> p
        chain = " <-> ".join(["p"] * 9)
        code, out, err = run(capsys, "prove", f"({chain})^ci")
        assert code == 1
        assert "invalid" in out
        assert err == ""


class TestParse:
    def test_ast_dump(self, capsys):
        code, out, _ = run(capsys, "parse", "(p)^ci -> q")
        assert code == 0
        assert "Rel ^ci" in out and "Imp" in out

    def test_default_variant_fills_untagged(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "parse", "K{i} a")
        assert code == 0
        assert json.loads(out)["nodes"][-1]["know"]["variant"] == "1.1"
        code, out, _ = run(
            capsys, "--default-variant", "2.2", "--format", "json", "parse", "K{i} a"
        )
        assert json.loads(out)["nodes"][-1]["know"]["variant"] == "2.2"


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


def _deep(body: str, d: int) -> str:
    return body * d + "p"


# the three 5,000-deep families, each command's exit code on it
_DEEP_FAMILIES = {
    "negations": f"{_deep('~', 5000)} -> {_deep('~', 5000)}",
    "rel-negations": f"({_deep('~', 5000)})^ci -> q",
    "rel-knowledge": f"({_deep('K{i,1.1} ', 5000)})^ci -> q",
}
_DEEP_VERDICTS = [
    ("parse", "negations", 0),
    ("reduce", "negations", 0),
    ("prove", "negations", 0),
    ("oracle", "negations", 0),
    ("parse", "rel-negations", 0),
    ("prove", "rel-negations", 1),
    ("oracle", "rel-negations", 1),
    ("parse", "rel-knowledge", 0),
    ("prove", "rel-knowledge", 1),
    ("oracle", "rel-knowledge", 1),
]


class TestDeepInput:
    def test_nested_too_deeply_exits_three(self, capsys, tmp_path):
        # the standard JSON decoder recurses once per level of an input file
        path = tmp_path / "env.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "oracle", "--env", str(path), "p")
        assert code == 3
        assert err == "error: input file nested too deeply\n"

    def test_deep_parentheses_are_parsed(self, capsys):
        # the parser keeps open parentheses on a stack
        code, out, err = run(capsys, "parse", "(" * 2000 + "p" + ")" * 2000)
        assert (code, out, err) == (0, "Atom p\n", "")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("prove", "(" + "~" * 300 + "p)^ci -> p"), 1),
            (("prove", "~" * 700 + "p"), 1),
            (("reduce", "~" * 700 + "p"), 0),
        ],
        ids=["prove-rel-300", "prove-700", "reduce-700"],
    )
    def test_formerly_too_deep_input_gets_its_verdict(self, capsys, argv, expected):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (expected, "")

    @pytest.mark.parametrize(
        "command, family, expected",
        _DEEP_VERDICTS,
        ids=[f"{command}-{family}" for command, family, _ in _DEEP_VERDICTS],
    )
    def test_5000_deep_families_are_decided(self, capsys, command, family, expected):
        # at the default recursion limit: every walk behind these commands
        # runs on an explicit stack
        code, _, err = run(capsys, command, _DEEP_FAMILIES[family])
        assert (code, err) == (expected, "")

    @pytest.mark.parametrize(
        "command", ["parse", "reduce", "prove", "oracle", "dialogue"]
    )
    def test_every_command_decides_450_negations_each_side(self, capsys, command):
        side = "~" * 450 + "p"
        code, _, err = run(capsys, command, f"{side} -> {side}")
        assert (code, err) == (0, "")

    def test_prove_decides_900_negations_each_side(self, capsys):
        # at the default recursion limit
        side = "~" * 900 + "p"
        code, _, err = run(capsys, "prove", f"{side} -> {side}")
        assert (code, err) == (0, "")

    def test_prove_decides_a_chain_of_1199_splits(self, capsys):
        # at the default recursion limit: the tableau runs on an explicit stack
        links = [f"(p{i} -> p{i + 1})" for i in range(1, 1200)]
        chain = " & ".join(["p1", *links]) + " -> p1200"
        code, out, err = run(capsys, "prove", chain)
        assert (code, out, err) == (0, "valid\n", "")

    def test_parse_reads_250_parentheses(self, capsys):
        # the parser takes three frames per parenthesis level
        code, _, err = run(capsys, "parse", "(" * 250 + "p" + ")" * 250)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "command, body",
        [
            ("dialogue", "~" * 450 + "p"),
            ("dialogue", "K{i,1.1} " * 450 + "p"),
            ("oracle", "~" * 300 + "p"),
        ],
        ids=["dialogue-negations", "dialogue-knowledge", "oracle-negations"],
    )
    def test_a_deep_relativized_body_is_decided(self, capsys, command, body):
        # the game search runs on an explicit stack, but its time grows faster
        # than the play's length, so dialogue is checked at 450 levels here;
        # _DEEP_VERDICTS holds the oracle to 5,000
        code, _, err = run(capsys, command, f"({body})^ci -> q")
        assert (code, err) == (1, "")


class TestJsonWriter:
    @pytest.mark.parametrize(
        "argv",
        [
            ("parse", "~" * 1000 + "p"),
            ("dialogue", "~" * 600 + "p -> p"),
            # the tableau branches once per link, 599 splits in a row
            ("prove", " & ".join(
                ["p1"] + [f"(p{n} -> p{n + 1})" for n in range(1, 600)]
            ) + " -> p600"),
        ],
        ids=["parse-1000", "dialogue-600", "prove-chain-600"],
    )
    def test_deep_documents_are_written(self, capsys, monkeypatch, argv):
        # the AST, the strategy and the proof log are flat lists of nodes,
        # so the standard encoder and decoder, which recurse once per
        # level, write and read them at the default recursion limit
        def refuse(limit):
            raise AssertionError(f"the recursion limit was set to {limit}")

        with monkeypatch.context() as patch:
            patch.setattr(sys, "setrecursionlimit", refuse)
            code, out, err = run(capsys, "--format", "json", *argv)
            doc = json.loads(out)
        assert (code, err) == (0, "")
        assert json_depth(doc) <= 8

    @pytest.mark.parametrize(
        "argv",
        [
            ("reduce", "(K{j,2.2} P{i,1.2} (p & q))^ci"),
            ("oracle", "a -> K{i,1.1} a"),
            ("oracle", "a -> a"),
            ("suite",),
        ],
        ids=["reduce", "oracle", "oracle-none", "suite"],
    )
    def test_documents_are_json_dumps_of_the_library_data(self, capsys, argv):
        command, *formula = argv
        if command == "reduce":
            trace = reduce_full(parse_formula(formula[0]))
            doc = {"steps": trace.to_json(), "result": render_formula(trace.result)}
        elif command == "oracle":
            found = find_countermodel(parse_formula(formula[0]), ContextEnv())
            doc = {"world": None, "model": None}
            if found is not None:
                doc = {"world": found[1], "model": found[0].to_json()}
        else:
            doc = run_suite().to_json()
        _, out, err = run(capsys, "--format", "json", *argv)
        assert (out, err) == (json.dumps(doc, indent=2) + "\n", "")


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

    @pytest.mark.parametrize("thesis", ["p", "ci"])
    def test_atomic_thesis_exits_one(self, capsys, thesis):
        code, out, _ = run(capsys, "dialogue", thesis)
        assert code == 1
        assert out.startswith("O wins: no winning strategy for P")

    def test_atomic_thesis_with_a_bound_context_exits_one(self, capsys, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"ci": "p"}))
        code, out, _ = run(capsys, "dialogue", "--env", str(path), "ci")
        assert code == 1
        assert "O wins the play" in out

    def test_json_winning_thesis_is_one_document(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "dialogue", "K{i,1.1} a -> K{i,1.1} K{i,1.1} a"
        )
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True and data["strategy"][0]["turn"] == "O"

    def test_json_losing_thesis_is_one_document(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "dialogue",
            "(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj",
        )
        assert code == 1
        data = json.loads(out)
        assert data["valid"] is False
        assert data["refutation"][0]["kind"] == "thesis"

    def test_budget_exhaustion_exits_three(self, capsys):
        code, _, err = run(
            capsys, "dialogue", "--budget", "3", "K{i,1.1} a -> K{i,1.1} K{i,1.1} a"
        )
        assert code == 3
        assert err.startswith("error:")

    def test_budget_stop_while_building_the_strategy_prints_no_verdict(self, capsys):
        # the search wins within 124 positions; unfolding its strategy needs more
        thesis = "((K{j,1.1} p & K{j,1.1} (p -> q)) -> K{j,1.1} q)^ci"
        code, out, err = run(
            capsys, "--format", "json", "dialogue", "--budget", "124", thesis
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: search budget exhausted")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_budget_is_a_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "dialogue", "--budget", budget, "p -> p")
        assert code == 2
        assert out == ""
        assert err == "error: --budget must be a positive integer\n"


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

    def test_no_countermodel_follows_the_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "oracle", "a -> a")
        assert code == 0
        assert json.loads(out) == {"world": None, "model": None}
        code, out, _ = run(capsys, "--format", "dot", "oracle", "a -> a")
        assert code == 0
        assert out == "// no counter-model with up to 3 worlds\n"

    def test_model_space_over_the_ceiling_exits_three(self, capsys):
        code, out, err = run(
            capsys, "oracle", "K{i,1.1} p & K{j,1.1} q & r -> s", "--max-worlds", "5"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "exceed the ceiling" in err
        assert err.count("\n") == 1

    def test_context_names_are_not_scanned(self, capsys):
        # ci is read as its body (a fresh stand-in), never from the valuation
        code, out, _ = run(capsys, "--format", "json", "oracle", "ci -> (p)^ci")
        assert code == 1
        assert json.loads(out)["model"]["valuation"] == {"_ctx_ci": ["w1"], "p": []}


class TestSuite:
    def test_suite_agreement_exits_zero(self, capsys):
        code, out, _ = run(capsys, "suite")
        assert code == 0
        assert "all verdicts agree" in out

    def test_non_positive_budget_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "suite", "--budget", "0")
        assert code == 2
        assert out == ""
        assert err == "error: --budget must be a positive integer\n"

    def test_suite_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "suite")
        assert code == 0
        rows = json.loads(out)
        assert all(row["agree"] for row in rows)


class TestContextNames:
    """Every command reads a formula's context names the one way
    (``ContextEnv.for_formula``)."""

    def test_oracle_reads_the_body_of_a_bound_name_used_as_an_atom(
        self, capsys, tmp_path
    ):
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"ci": "p"}))
        code, out, _ = run(capsys, "oracle", "--env", str(path), "ci -> q")
        assert code == 1
        assert json.loads(out)["model"]["valuation"]["p"] == ["w1"]

    @pytest.mark.parametrize("command", ["prove", "dialogue", "oracle", "eval"])
    def test_a_body_literal_that_is_a_context_name_exits_two(
        self, capsys, tmp_path, model_file, command
    ):
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"ci": "cj & p", "cj": "q"}))
        argv = [command, "--env", str(path), "(~(p)^cj)^ci"]
        if command == "eval":
            argv += ["--model", model_file, "--world", "w1"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "cj" in err
        assert err.count("\n") == 1


class TestInputErrors:
    def test_failed_internal_check_exits_three(self, capsys, monkeypatch):
        # a counter-model that the check finds true is an internal fault
        monkeypatch.setattr("celogic.prove.satisfies", lambda *args: True)
        code, out, err = run(capsys, "prove", "a -> K{i,1.1} a")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content", ['["ci"]', '{"ci": 3}', "[1]"])
    @pytest.mark.parametrize("option", ["--env", "--model"])
    def test_file_of_the_wrong_shape_exits_two(
        self, capsys, tmp_path, model_file, option, content
    ):
        path = tmp_path / "bad.json"
        path.write_text(content)
        argv = ["eval", "p", "--world", "w1", "--model", model_file]
        argv += [option, str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "model",
        [
            {"worlds": "ab", "agents": {"i": ["ab"]}, "valuation": {"p": "a"}},
            {"worlds": ["a"], "agents": {"i": ["a"]}},
            {"worlds": ["a"], "agents": {"i": "a"}},
            {"worlds": ["a"], "agents": [["a"]]},
            {"worlds": ["a"], "valuation": {"p": [1]}},
            {"worlds": ["a"], "valuation": [["p"]]},
        ],
        ids=[
            "strings", "class-string", "classes-string", "agents-list",
            "valuation-number", "valuation-list",
        ],
    )
    def test_model_lists_of_another_shape_exit_two(self, capsys, tmp_path, model):
        # a string where a list belongs is not split into its characters
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        argv = ["eval", "--model", str(path), "--world", "a", "K{i,1.1} p"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read model file ")
