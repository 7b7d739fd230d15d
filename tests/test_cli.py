import contextlib
import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

import celogic
from celogic.cli import main
from celogic.dialogue import legal_moves, replay_script
from celogic.epistemology import run_suite
from celogic.kripke import ContextEnv, find_countermodel
from celogic.reduction import reduce_full
from celogic.syntax import parse_formula, render_formula


def json_depth(doc) -> int:
    """How many levels a JSON value nests: 1 for a scalar or an empty
    container, one more than its deepest item for any other container."""
    depth, stack = 1, [(doc, 1)]
    while stack:
        value, d = stack.pop()
        depth = max(depth, d)
        if isinstance(value, dict):
            stack.extend((item, d + 1) for item in value.values())
        elif isinstance(value, list):
            stack.extend((item, d + 1) for item in value)
    return depth


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


def _fresh_interpreter(argv, timeout, **environ):
    """Run the CLI in a fresh interpreter on this checkout's source, with
    these extra environment variables, killed after ``timeout`` seconds."""
    return _python(["-m", "celogic.cli", *argv], timeout, **environ)


def _python(args, timeout, **environ):
    """Run a fresh interpreter with these arguments, as _fresh_interpreter."""
    source = str(pathlib.Path(celogic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, **environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=timeout,
    )


def _same_under_two_hash_seeds(argv, expected):
    """The CLI exits ``expected`` on argv and prints the same non-empty
    output under two string-hash seeds. String hashes, and so the order of
    sets of strings, are seeded per interpreter: each seed needs a fresh one."""
    outputs = []
    for seed in ("0", "1"):
        done = _fresh_interpreter(argv, 60, PYTHONHASHSEED=seed)
        assert (done.returncode, done.stderr) == (expected, b"")
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and outputs[0]


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail the block if it runs longer than ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _last_line_is(text):
    def check(out, err):
        assert out.splitlines()[-1] == text

    return check


def _error_starts_with(text):
    def check(out, err):
        assert err.startswith(text)

    return check


def _refutation_replays(thesis, length):
    """The JSON refutation replays move by move to a position where P, to
    move, has none."""

    def check(out, err):
        refutation = json.loads(out)["refutation"]
        state = replay_script({"thesis": thesis, "moves": refutation[1:]})
        assert len(state.moves) == len(refutation) == length
        assert state.turn == "P" and not legal_moves(state)

    return check


_SIDE_600 = "~" * 600 + "p"
_SIDE_900 = "~" * 900 + "p"
# a 26-deep <-> chain: the game plays each <-> as two implications over the
# same sides, so its thesis has 2**26 paths over 79 nodes
_IFF_CHAIN = "p" + "".join(" <-> " + x for x in "qp" * 13)

# argv, exit code, check of the standard output and error
_LONG_DIALOGUES = [
    (("dialogue", f"{_SIDE_600} -> q"), 1, _last_line_is("O wins the play")),
    (
        ("--format", "json", "dialogue", f"{_SIDE_600} -> q"),
        1,
        _refutation_replays(f"{_SIDE_600} -> q", 602),
    ),
    (("dialogue", f"{_SIDE_900} -> {_SIDE_900}"), 0, None),
    (
        ("dialogue", "--budget", "5000", _IFF_CHAIN),
        3,
        _error_starts_with("error: search budget exhausted"),
    ),
]


class TestDialogue:
    @pytest.mark.parametrize(
        "argv, expected, check",
        _LONG_DIALOGUES,
        ids=["refutation-600", "refutation-600-json", "won-900", "iff-chain-26"],
    )
    def test_long_plays_and_deep_chains(self, capsys, argv, expected, check):
        # the 26-deep chain stops at its budget, without a verdict, well
        # within a minute
        with _time_limit(60):
            code, out, err = run(capsys, *argv)
        assert code == expected
        if check:
            check(out, err)

    @pytest.mark.parametrize(
        "thesis, expected",
        [
            ("K{i,1.1} a -> K{i,1.1} K{i,1.1} a", 0),  # prints P's strategy
            ("(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj", 1),  # O's refutation
        ],
    )
    def test_output_does_not_depend_on_hash_order(self, thesis, expected):
        _same_under_two_hash_seeds(["--format", "json", "dialogue", thesis], expected)

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

    def test_running_out_of_memory_exits_three(self, capsys, monkeypatch):
        # exit 1 would say O wins: a resource limit says nothing of the thesis
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("celogic.dialogue.has_winning_strategy", exhausted)
        code, out, err = run(capsys, "dialogue", "p -> p")
        assert code == 3
        assert out == ""
        assert err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "thesis",
        [
            # valid: its proof runs to about 380 kB of JSON
            " & ".join(["p1", *(f"(p{i} -> p{i + 1})" for i in range(1, 200))])
            + " -> p200",
            # invalid: its counter-model's valuation runs to about 190 kB
            " & ".join(f"p{i}" for i in range(1, 5001)) + " -> q",
        ],
        ids=["valid", "invalid"],
    )
    def test_a_closed_output_pipe_exits_three(self, thesis):
        # as `celogic --format json prove F | head -c 100`: the output is
        # larger than a pipe holds, so the write fails once the reader is gone
        source = str(pathlib.Path(celogic.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "celogic.cli", "--format", "json", "prove", thesis],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 3
        assert b"Traceback" not in err and err == b""

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_non_positive_budget_is_a_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "dialogue", "--budget", budget, "p -> p")
        assert code == 2
        assert out == ""
        assert err == "error: --budget must be a positive integer\n"


_TWO_WORLDS = {
    "worlds": ["w1", "w2"],
    "agents": {"i": [["w1", "w2"]]},
    "valuation": {"p": ["w1"]},
}

# argv, in which a dict is JSON written to a file and passed by its path,
# and the exit code
_ORACLE_AND_EVAL = [
    (("oracle", "a -> K{i,1.1} a", "--max-worlds", "3"), 1),
    (("oracle", "--env", {"ci": "false"}, "(p)^ci"), 0),
    (("oracle", "--env", {"ci": "true"}, "(p)^ci"), 1),
    (("oracle", "K{i,1.1} (p | ~p)"), 0),
    (("eval", "--model", _TWO_WORLDS, "--world", "w1", "p"), 0),
    (("eval", "--model", _TWO_WORLDS, "--world", "w1", "K{i,1.1} p"), 1),
    (
        ("eval", "--model", _TWO_WORLDS, "--world", "w1",
         f"({_deep('~', 5000)})^ci -> {_deep('~', 5000)}"),
        0,
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    _ORACLE_AND_EVAL,
    ids=[
        "countermodel", "false-context", "true-context", "known-tautology",
        "eval-atom", "eval-knowledge", "eval-5000-deep",
    ],
)
def test_oracle_and_eval_exit_codes(capsys, tmp_path, argv, expected):
    code, _, err = run(capsys, *_with_files(tmp_path, argv))
    assert (code, err) == (expected, "")


def _with_files(tmp_path, argv):
    """argv with each dict written as JSON to a file and passed by its path."""
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            path = tmp_path / f"{len(args)}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        args.append(arg)
    return args


def _is_json(out, err):
    json.loads(out)


def _out_starts_with(text):
    def check(out, err):
        assert out.startswith(text)

    return check


def _out_has(text):
    def check(out, err):
        assert text in out

    return check


_CHAIN_1200 = " & ".join(
    ["p1"] + [f"(p{i} -> p{i + 1})" for i in range(1, 1200)]
) + " -> p1200"
_SCHEMA_THESIS = "(p & q)^ci <-> ((p)^ci & (q)^ci)"
_CROSS_THESIS = "(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj"
_ONE_WORLD = {"worlds": ["w1"], "agents": {"i": [["w1"]]}, "valuation": {"p": ["w1"]}}
# w2 is in both of i's classes
_TWO_CLASSES = {"worlds": ["w1", "w2"], "agents": {"i": [["w1", "w2"], ["w2"]]}}

# argv, in which a dict is JSON written to a file and passed by its path,
# the exit code, and a check of the standard output and error
_CONSOLE_LINES = [
    (("--format", "json", "parse", "(K{i,1.2} p)^ci"), 0, _is_json),
    (("reduce", "((p & q)^ck)^ci"), 0, None),
    (("--format", "json", "reduce", "(K{j,2.2} p)^ci"), 0, _is_json),
    (("dialogue", _SCHEMA_THESIS), 0, None),
    (("dialogue", _CROSS_THESIS), 1, None),
    (("dialogue", "--env", {"ci": "p"}, "(p)^ci"), 0, None),
    # O asks for i's world 1i.1 where agent i1 is in play too
    (("dialogue", "a & K{i1,1.1} a -> K{i,1.1} a"), 1, _out_has("?_K{i}/1i.1")),
    # only prove and oracle draw under dot; the others print their text form
    (
        ("--format", "dot", "dialogue", "p -> p"),
        0,
        _last_line_is("P has a winning strategy"),
    ),
    (
        ("prove", "--env", {"ci": "cj & p", "cj": "q"}, "(~(p)^cj)^ci"),
        2,
        _error_starts_with("error: "),
    ),
    (("prove", "--env", {"ci": "false"}, "(p)^ci"), 0, None),
    (("prove", "--env", {"ci": "true"}, "ci"), 0, None),
    (("prove", "--env", {"ci": "true"}, "(p)^ci"), 1, None),
    (("prove", "--env", {"ci": "p & ~q"}, "ci -> p & ~q"), 0, None),
    (("prove", "--env", {"ci": "p & ~q"}, "p -> ci"), 1, None),
    (("--format", "json", "prove", _CHAIN_1200), 0, _is_json),
    (("--help",), 0, _out_starts_with("usage: celogic ")),
    (
        ("--format", "json", "eval", "p", "--model", _ONE_WORLD, "--world", "w1"),
        0,
        _last_line_is('{"world": "w1", "value": true}'),
    ),
    (
        ("--format", "dot", "prove", "p -> p"),
        0,
        _last_line_is("// valid: no counter-model to draw"),
    ),
    (("--format", "dot", "oracle", "p"), 1, _out_starts_with("graph model {")),
    (
        ("eval", "p", "--model", _TWO_CLASSES, "--world", "w1"),
        2,
        _error_starts_with("error: model is not well-formed: "),
    ),
    (("oracle", "--max-worlds", "0", "p"), 2, _error_starts_with("error: ")),
]


@pytest.mark.parametrize(
    "argv, expected, check",
    _CONSOLE_LINES,
    ids=[
        "parse-json", "reduce-iteration", "reduce-json", "dialogue-schema",
        "dialogue-cross", "dialogue-env", "dialogue-shorter-agent", "dialogue-dot",
        "prove-env-cycle", "prove-false-context",
        "prove-true-context-name", "prove-true-context", "prove-context-body",
        "prove-context-converse", "prove-chain-1200-json", "help",
        "eval-json", "prove-valid-dot", "oracle-dot", "eval-ill-formed-model",
        "oracle-no-worlds",
    ],
)
def test_console_lines(capsys, tmp_path, argv, expected, check):
    code, out, err = run(capsys, *_with_files(tmp_path, argv))
    assert code == expected
    if expected != 2:
        assert err == ""
    if check:
        check(out, err)


class TestOracle:
    def test_a_model_space_far_over_the_ceiling_exits_three_at_once(self):
        # counting the model space must not enumerate it: this would hang
        done = _fresh_interpreter(["oracle", "--max-worlds", "5000", "p -> q"], 20)
        assert done.returncode == 3
        assert done.stderr.startswith(b"error: ") and b"exceed the ceiling" in done.stderr

    def test_each_reduction_step_is_a_valid_biconditional(self, capsys):
        # criterion 4 through the CLI, by the tableau and by the oracle,
        # which reads Rel directly and shares no rewrite with the reducer
        code, out, _ = run(
            capsys, "--format", "json", "reduce", "(K{j,2.2} P{i,1.2} (p & q))^ci"
        )
        steps = json.loads(out)["steps"]
        assert (code, len(steps)) == (0, 8)
        for step in steps:
            biconditional = f"({step['before']}) <-> ({step['after']})"
            for command in ("prove", "oracle"):
                code, _, err = run(capsys, command, biconditional)
                assert (code, err) == (0, ""), (command, biconditional)

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

    def test_output_does_not_depend_on_hash_order(self):
        _same_under_two_hash_seeds(["--format", "json", "suite"], 0)


def test_importing_the_package_loads_no_dataclass_machinery():
    # every command and every benchmark worker imports the package first,
    # and loading dataclasses (with inspect) and running its decorators took
    # about half of that import. -S keeps site's own imports out.
    names = "dataclasses", "inspect"
    code = f"import celogic, sys; print([n for n in {names!r} if n in sys.modules])"
    done = _python(["-S", "-c", code], 20)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"[]\n", b"")


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("prove", "--env"),
            ("dialogue", "--env"),
            ("oracle", "--env"),
            ("eval", "--world", "w1", "--model"),
        ],
        ids=["prove", "dialogue", "oracle", "eval"],
    )
    def test_the_formula_is_read_before_any_file(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, argv[0], "p &", *argv[1:], missing)
        assert (code, out) == (2, "")
        assert err == "error: expected a formula (at position 3)\n"

    def test_eval_reads_the_model_before_the_env(self, capsys, tmp_path):
        model, env = tmp_path / "model.json", tmp_path / "env.json"
        model.write_text("[1]")
        env.write_text("[1]")
        argv = ["eval", "p", "--world", "w1", "--model", str(model), "--env", str(env)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read model file {model}: ")
        assert err.count("\n") == 1
