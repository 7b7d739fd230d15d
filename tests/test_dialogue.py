import hashlib
import json
import pathlib
import random
import sys
import time

import pytest

from celogic import dialogue
from celogic.dialogue import (
    AssertPayload,
    BudgetExhaustedError,
    IllegalMoveError,
    Move,
    RequestPayload,
    _Search,
    _assertion_of_move,
    _attack_record_of_move,
    apply_move,
    game_form,
    has_winning_strategy,
    initial_state,
    legal_moves,
    move_from_json,
    move_to_json,
    parse_label,
    render_label,
    render_payload,
    render_transcript,
    replay_script,
    validate_move,
)
from celogic.epistemology import SUITE_ROWS
from celogic.kripke import ContextEnv
from celogic.prove import prove_cel
from celogic.syntax import (
    And,
    Atom,
    Iff,
    Imp,
    Know,
    Not,
    Or,
    Poss,
    Rel,
    UntaggedOperatorError,
    formula_info,
    parse_context,
    parse_formula,
    render_formula,
    variant_contexts_names,
)

from corpus import random_formula
from nested import nested_strategy

PLAYS_DIR = pathlib.Path(__file__).parent / "data" / "plays"
PLAY_FILES = sorted(PLAYS_DIR.glob("*.json"))


def load_play(path):
    return json.loads(path.read_text())


def _backtracking_parse_label(text, agents):
    """The reader parse_label replaced, kept as its reference on short
    labels: it backtracks, so its time is exponential in the worst case."""
    if not text.startswith("1"):
        raise ValueError(text)
    names = sorted(agents, key=len, reverse=True)

    def read(rest):
        if not rest:
            return ()
        for name in filter(rest.startswith, names):
            end = len(name)
            while end < len(rest) and rest[end].isdigit():
                end += 1
            if end > len(name):
                later = read(rest[end:])
                if later is not None:
                    return ((name, int(rest[len(name):end])),) + later
        return None

    label = read(text[1:])
    if label is None:
        raise ValueError(text)
    return label


class TestLabels:
    def test_render(self):
        assert render_label(()) == "1"
        assert render_label((("i", 1), ("j", 2))) == "1i1j2"

    def test_parse(self):
        assert parse_label("1", ["i"]) == ()
        assert parse_label("1i1j2", ["i", "j"]) == (("i", 1), ("j", 2))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_label("2i1", ["i"])
        with pytest.raises(ValueError):
            parse_label("1x1", ["i"])
        with pytest.raises(ValueError):
            parse_label("1i1i", ["i", "i1"])

    def test_parse_falls_back_to_a_shorter_agent_name(self):
        agents = ["i", "i1"]
        assert parse_label("1i1", agents) == (("i", 1),)
        assert parse_label("1i1i11", agents) == (("i", 1), ("i1", 1))
        # the longest name is kept wherever the rest reads after it
        assert parse_label("1i11", agents) == (("i1", 1),)
        assert parse_label("1i12", agents) == (("i1", 2),)

    def test_parse_matches_the_backtracking_reader(self):
        rng = random.Random(37)
        agent_sets = [
            ("i",), ("i", "j"), ("i", "i1"), ("i", "i1", "i11"), ("a", "ab", "b1")
        ]
        outcomes = set()
        for _ in range(3000):
            agents = rng.choice(agent_sets)
            pieces = agents + ("0", "1", "2", "12", "x")
            text = "1" + "".join(rng.choice(pieces) for _ in range(rng.randrange(9)))
            try:
                expected = _backtracking_parse_label(text, agents)
            except ValueError:
                with pytest.raises(ValueError):
                    parse_label(text, agents)
                outcomes.add("unreadable")
            else:
                assert parse_label(text, agents) == expected, (text, agents)
                outcomes.add(len(expected) > 1)
        assert outcomes == {"unreadable", True, False}

    def test_parse_gives_up_on_an_unreadable_ambiguous_label_at_once(self):
        # each "i11" reads as one step of i1 or as a step of i and the start
        # of the next, so the backtracking reader took time 2**k here
        text = "1" + "i11" * 60 + "x"
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_label(text, ["i", "i1"])
        assert time.perf_counter() - start < 1.0

    def test_parse_reads_a_long_label_without_recursing(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"the recursion limit was set to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        agents = ["i", "i1"]
        label = tuple((agents[n % 2], n % 3 + 1) for n in range(5000))
        assert parse_label(render_label(label), agents) == label

    def test_labels_of_random_plays_read_back(self):
        agents = ("i", "i1")
        rng = random.Random(31)
        labels = set()
        for _ in range(40):
            thesis = random_formula(rng, 3, agents=agents, contexts=("ci", "ci1"))
            state = initial_state(thesis)
            while moves := legal_moves(state):
                state = apply_move(state, rng.choice(moves))
            labels |= state.introduced
        assert {agent for label in labels for agent, _ in label} == set(agents)
        for label in labels:
            assert parse_label(render_label(label), agents) == label

    def test_refutation_naming_a_shorter_agent_replays(self):
        thesis = "a & K{i1,1.1} a -> K{i,1.1} a"
        result = has_winning_strategy(parse_formula(thesis))
        assert result.verdict is False
        moves = [move_to_json(m) for m in result.refutation[1:]]
        assert any(m["payload"].get("request", {}).get("label") == "1i1" for m in moves)
        state = replay_script({"thesis": thesis, "moves": moves})
        assert state.moves == result.refutation


class TestGameForm:
    def test_equivalence_becomes_two_implications(self):
        f = Iff(Atom("p"), Atom("q"))
        g = game_form(f)
        assert g == parse_formula("(p -> q) & (q -> p)")

    def test_relativized_possibility_dualizes(self):
        f = Rel(Poss("i", "1.1", Atom("p")), "ci")
        g = game_form(f)
        assert g == Rel(parse_formula("~K{i,1.1} ~p"), "ci")

    def test_bare_possibility_stays(self):
        f = Poss("i", "1.1", Atom("p"))
        assert game_form(f) == f


class TestInitialState:
    def test_thesis_at_world_one(self):
        f = parse_formula("K{i,1.1} a -> K{i,1.1} K{i,1.1} a")
        s = initial_state(f)
        assert len(s.moves) == 1
        assert s.moves[0].actor == "P"
        assert render_label(s.moves[0].payload.label) == "1"
        assert s.turn == "O"

    def test_atomic_thesis_leaves_o_without_moves(self):
        s = initial_state(Atom("p"))
        assert legal_moves(s) == []
        # but P may not state an atom O has not stated, so P loses at once
        assert has_winning_strategy(Atom("p")).verdict is False

    def test_untagged_operator_under_relativization_rejected(self):
        with pytest.raises(UntaggedOperatorError):
            initial_state(parse_formula("(K{i} a)^ci"))


class TestLegalMoves:
    def _example_one_prefix(self):
        data = load_play(PLAYS_DIR / "introspection-absolute.json")
        thesis = parse_formula(data["thesis"])
        agents = formula_info(game_form(thesis)).agents
        state = initial_state(thesis)
        for move_data in data["moves"][:4]:
            state = apply_move(state, move_from_json(move_data, agents))
        return state, agents

    def test_fresh_world_attack_available(self):
        # after P restates knowledge at the new world, O may dig one deeper
        state, agents = self._example_one_prefix()
        wanted = Move(
            "O",
            "attack",
            4,
            RequestPayload("?_K", "i", parse_label("1i1i1", agents)),
        )
        assert wanted in legal_moves(state)

    def test_contextualist_introspection_endpoint_is_stuck(self):
        state = replay_script(load_play(PLAYS_DIR / "cross-introspection-12.json"))
        assert state.turn == "P"
        assert legal_moves(state) == []

    def test_single_literal_context_cannot_be_attacked(self):
        data = load_play(PLAYS_DIR / "cross-introspection-12.json")
        thesis = parse_formula(data["thesis"])
        agents = formula_info(game_form(thesis)).agents
        state = initial_state(thesis)
        for move_data in data["moves"][:3]:
            state = apply_move(state, move_from_json(move_data, agents))
        # O asserted cj at world 1 in move 3; P cannot attack it
        for move in legal_moves(state):
            target = state.moves[move.target]
            if move.kind == "attack":
                assert target.payload.formula != Atom("cj")


class TestApplyMove:
    @pytest.mark.parametrize("path", PLAY_FILES, ids=lambda p: p.stem)
    def test_scripts_replay(self, path):
        text = path.read_text()
        data = json.loads(text)
        state = replay_script(data)
        assert len(state.moves) == len(data["moves"]) + 1
        # the files are the only statement of the plays: each is its moves
        # as move_to_json writes them, byte for byte, under its own name
        agents = formula_info(game_form(parse_formula(data["thesis"]))).agents
        moves = [move_from_json(m, agents) for m in data["moves"]]
        moves_json = [move_to_json(m) for m in moves]
        assert json.dumps({**data, "moves": moves_json}, indent=1) == text
        assert path.stem == data["name"]

    def test_winning_plays_end_with_opponent_stuck(self):
        for path in PLAY_FILES:
            data = load_play(path)
            state = replay_script(data)
            if data["winner"] == "P":
                assert state.turn == "O" and legal_moves(state) == []
            else:
                assert state.turn == "P" and legal_moves(state) == []

    def test_turn_order_enforced(self):
        s = initial_state(parse_formula("p -> p"))
        move = Move("P", "attack", 0, AssertPayload((), Atom("p")))
        with pytest.raises(IllegalMoveError, match="PL-0"):
            apply_move(s, move)

    def test_atom_formality_rule_named(self):
        # P may not state an atom O has not stated at that world
        s = initial_state(parse_formula("p -> q"))
        s = apply_move(s, Move("O", "attack", 0, AssertPayload((), Atom("p"))))
        with pytest.raises(IllegalMoveError, match="PL-3"):
            apply_move(s, Move("P", "defend", 1, AssertPayload((), Atom("q"))))

    def test_world_formality_rule_named(self):
        f = parse_formula("K{i,1.1} a -> K{i,1.1} a")
        s = initial_state(f)
        s = apply_move(
            s, Move("O", "attack", 0, AssertPayload((), parse_formula("K{i,1.1} a")))
        )
        fresh = parse_label("1i1", ["i"])
        with pytest.raises(IllegalMoveError, match="ML-frw"):
            apply_move(s, Move("P", "attack", 1, RequestPayload("?_K", "i", fresh)))

    def test_context_formality_rule_named(self):
        data = load_play(PLAYS_DIR / "cross-introspection-12.json")
        state = replay_script(data)
        # P attacking O's opening assertion needs ci at world 1: never granted
        attack = Move("P", "attack", 1, AssertPayload((), Atom("ci")))
        with pytest.raises(IllegalMoveError, match="ML-frc"):
            apply_move(state, attack)

    def test_repeat_attack_rejected(self):
        s = initial_state(parse_formula("p -> p"))
        m = Move("O", "attack", 0, AssertPayload((), Atom("p")))
        s = apply_move(s, m)
        s = apply_move(s, Move("P", "defend", 1, AssertPayload((), Atom("p"))))
        with pytest.raises(IllegalMoveError, match="PL-2"):
            apply_move(s, m)

    def test_particle_mismatch_named(self):
        s = initial_state(parse_formula("p & q -> p"))
        with pytest.raises(IllegalMoveError, match="particle mismatch"):
            apply_move(s, Move("O", "attack", 0, RequestPayload("?_L")))

    def test_a_tuple_that_is_not_a_payload_is_rejected(self):
        # equal to RequestPayload("?_L") and AssertPayload((), p) as tuples
        s = initial_state(parse_formula("p & q"))
        with pytest.raises(IllegalMoveError, match="PL-0"):
            apply_move(s, Move("O", "attack", 0, ("?_L", None, None)))
        s = initial_state(parse_formula("p -> p"))
        s = apply_move(s, Move("O", "attack", 0, AssertPayload((), Atom("p"))))
        with pytest.raises(IllegalMoveError, match="PL-0"):
            apply_move(s, Move("P", "defend", 1, ((), Atom("p"))))

    def test_world_rejections_are_pinned(self):
        def said(world, text):
            return AssertPayload(parse_label(world, ["i"]), parse_formula(text))

        def ask(world):
            return RequestPayload("?_K", "i", parse_label(world, ["i"]))

        # Depth 1 gives O two fresh worlds. P's two K defences of the
        # disjunction let O spend both, by ?_K or by answering ?_P{i}.
        thesis = "P{i,1.1} a -> K{i,1.1} b | K{i,1.1} c"
        opening = [
            Move("O", "attack", 0, said("1", "P{i,1.1} a")),
            Move("P", "defend", 1, said("1", "K{i,1.1} b | K{i,1.1} c")),
            Move("O", "attack", 2, RequestPayload("?")),
        ]
        cap_spent_before_k = opening + [
            Move("P", "defend", 3, said("1", "K{i,1.1} b")),
            Move("O", "attack", 4, ask("1i1")),
            Move("P", "attack", 1, RequestPayload("?_P", "i")),
            Move("O", "defend", 6, said("1i2", "a")),
            Move("P", "defend", 3, said("1", "K{i,1.1} c")),
        ]
        cap_spent_before_p = opening + [
            Move("P", "defend", 3, said("1", "K{i,1.1} c")),
            Move("O", "attack", 4, ask("1i1")),
            Move("P", "defend", 3, said("1", "K{i,1.1} b")),
            Move("O", "attack", 6, ask("1i2")),
            Move("P", "attack", 1, RequestPayload("?_P", "i")),
        ]
        cases = [
            (
                "K{i,1.1} a -> K{i,1.1} a",
                [Move("O", "attack", 0, said("1", "K{i,1.1} a"))],
                Move("P", "attack", 1, ask("1i1")),
                "ML-frw: P cannot introduce ?_K{i}/1i1",
            ),
            (
                thesis,
                cap_spent_before_k,
                Move("O", "attack", 8, ask("1i3")),
                "world cap: O's fresh-world budget is spent",
            ),
            (
                "P{i,1.1} a",
                [Move("O", "attack", 0, RequestPayload("?_P", "i"))],
                Move("P", "defend", 1, said("1i1", "a")),
                "particle mismatch: 1i1: a does not answer ?_P{i} on P{i,1.1} a",
            ),
            (
                thesis,
                cap_spent_before_p,
                Move("O", "defend", 8, said("1i3", "a")),
                "particle mismatch: 1i3: a does not answer ?_P{i} on P{i,1.1} a",
            ),
        ]
        for text, prefix, move, message in cases:
            state = initial_state(parse_formula(text))
            for m in prefix:
                state = apply_move(state, m)
            if text == thesis:
                assert state.o_fresh == state.rules.fresh_cap == 2
            with pytest.raises(IllegalMoveError) as exc:
                apply_move(state, move)
            assert str(exc.value) == message


class TestRecords:
    def _play(self):
        data = load_play(PLAYS_DIR / "cross-introspection-12.json")
        thesis = parse_formula(data["thesis"], data.get("default_variant"))
        state = initial_state(thesis, ContextEnv.from_json(data.get("env", {})))
        agents = formula_info(state.thesis).agents
        return state, [move_from_json(m, agents) for m in data["moves"]]

    def test_states_reached_by_the_same_moves_are_equal(self):
        start, moves = self._play()
        a, b = dialogue.replay(start, moves), dialogue.replay(start, moves)
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != start and dialogue.replay(start, moves[:-1]) != a

    def test_equality_leaves_the_ledgers_out(self):
        start, moves = self._play()
        a = dialogue.replay(start, moves)
        b = a._replace(assertions=frozenset(), open_targets={})
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != tuple(a) and tuple(a) != a
        assert a != a._replace(turn=dialogue.P if a.turn == dialogue.O else dialogue.O)

    def test_records_are_immutable(self):
        start, moves = self._play()
        for record, name in (
            (start, "turn"),
            (moves[0], "target"),
            (moves[0].payload, "label"),
            (RequestPayload("?_L"), "kind"),
        ):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_an_assertion_never_equals_a_request(self):
        for label, formula in (((), Atom("p")), ("?_L", None), (None, None)):
            said = AssertPayload(label, formula)
            for asked in (RequestPayload(label, formula), RequestPayload("?_K", "i", ())):
                assert said != asked and asked != said
                assert asked not in {said: 0}

    def test_reprs_name_the_fields(self):
        move = Move("O", "attack", 0, RequestPayload("?_L"))
        assert repr(move) == (
            "Move(actor='O', kind='attack', target=0, "
            "payload=RequestPayload(kind='?_L', agent=None, label=None))"
        )
        assert repr(AssertPayload((), Atom("p"))) == (
            "AssertPayload(label=(), formula=Atom(name='p'))"
        )


class TestWinningStrategy:
    @pytest.mark.parametrize("path", PLAY_FILES, ids=lambda p: p.stem)
    def test_script_verdicts(self, path):
        data = load_play(path)
        result = has_winning_strategy(parse_formula(data["thesis"]))
        assert result.verdict == (data["winner"] == "P")

    def test_refutation_is_a_replayable_play(self):
        f = parse_formula("(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj")
        result = has_winning_strategy(f)
        assert result.verdict is False
        state = initial_state(f)
        for move in result.refutation[1:]:
            state = apply_move(state, move)
        assert state.turn == "P" and legal_moves(state) == []

    def test_budget_exhaustion_is_an_error(self):
        f = parse_formula("(K{j,1.1} K{k,1.1} p -> K{k,1.1} p)^ci")
        with pytest.raises(BudgetExhaustedError):
            has_winning_strategy(f, budget=5)

    def test_a_deep_iff_chain_reaches_its_budget(self):
        # game_form plays each <-> as both implications, so the thesis has
        # 2**40 paths over its 121 distinct nodes; setting the game up
        # walks the nodes, not the paths
        f = Atom("p")
        for n in range(40):
            f = Iff(f, Atom("pq"[n % 2]))
        with pytest.raises(BudgetExhaustedError):
            has_winning_strategy(f, budget=50)

    @pytest.mark.parametrize(
        "text",
        [
            "(K{i,2.1} q -> q | q) & (P{i,1.2} p)^cj"
            " <-> ((q <-> q) | (p <-> q)) & (q <-> q)^cj",
            "(p & q <-> K{i,1.1} p)^ci -> (q <-> q <-> ~q <-> (p)^cj^cj)",
        ],
    )
    def test_invalid_theses_decided_within_a_small_budget(self, text):
        # a search that first narrows P's defences to the latest attack and
        # then searches again in full ran past 5,000 positions on each
        f = parse_formula(text)
        result = has_winning_strategy(f, budget=5000)
        assert result.verdict is False
        assert result.verdict == prove_cel(f).is_valid

    def test_negation_schema_games(self):
        for text in ["(~q)^ci -> (ci -> ~(q)^ci)", "(ci -> ~(q)^ci) -> (~q)^ci"]:
            assert has_winning_strategy(parse_formula(text)).verdict is True

    def test_strategy_is_built_once_on_read(self):
        result = has_winning_strategy(
            parse_formula("K{i,1.1} a -> K{i,1.1} K{i,1.1} a")
        )
        positions = result.positions
        nodes = result.strategy
        assert nodes[0] == {"parent": None, "turn": "O"}
        assert result.strategy is nodes
        assert result.positions == positions

    def test_strategy_past_the_budget_raises_on_read(self):
        # unfolding this strategy meets positions the search never visited:
        # histories that reach a searched position in another move order
        f = parse_formula("((K{j,1.1} p & K{j,1.1} (p -> q)) -> K{j,1.1} q)^ci")
        spent = has_winning_strategy(f).positions
        result = has_winning_strategy(f, budget=spent)
        assert result.verdict is True and result.positions == spent
        with pytest.raises(BudgetExhaustedError):
            result.strategy


class TestLongPlays:
    @pytest.fixture(autouse=True)
    def default_limit(self, monkeypatch):
        # the search, the strategy and the refutation run on explicit stacks
        def refuse(limit):
            raise AssertionError(f"the recursion limit was set to {limit}")

        assert sys.getrecursionlimit() == 1000
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)

    def test_a_long_won_play_and_its_strategy(self):
        result = has_winning_strategy(parse_formula("~" * 600 + "p -> p"))
        assert result.verdict is True and result.positions == 603
        # in preorder each position's first child comes right after it
        nodes, moves = result.strategy, 0
        while "end" not in nodes[moves]:
            assert nodes[moves + 1]["parent"] == moves
            moves += 1
        assert moves == 602

    def test_a_long_refutation(self):
        result = has_winning_strategy(parse_formula("~" * 600 + "p -> q"))
        assert result.verdict is False and result.positions == 602
        assert len(result.refutation) == 602

    def test_legal_moves_walk_only_the_open_targets(self, monkeypatch):
        # Deep into a long play each player has hundreds of targets, almost
        # all used up: one listing works out the payloads of at most a few.
        side = "~" * 600 + "p"
        state = initial_state(parse_formula(f"{side} -> {side}"))
        search = _Search(0)
        while len(state.moves) < 600:
            state = apply_move(state, search.moves(state)[0][0])
        calls = []
        for name in ("_attack_payloads", "_defence_payloads"):
            payloads = getattr(dialogue, name)
            monkeypatch.setattr(
                dialogue, name, lambda *args, f=payloads: calls.append(1) or f(*args)
            )
        for _ in range(2):  # a position of P's, then one of O's
            calls.clear()
            moves = legal_moves(state)
            assert moves
            assert len(calls) <= 4
            state = apply_move(state, moves[0])


# Theses on which the game has disagreed with the tableau, with their
# context bindings. Defect A: P won every atomic thesis, since O has no move
# against an atom. Defect B: O wins each classical tautology below on tempo,
# with a delayed defence that leaves P without an answer; a strict xfail
# fails as soon as the game agrees. Defect C: under a binding the game grants
# O only a conceded context's positive literals, and lets P assert a context
# name only after O has, so O wins theses that hold through a negative
# literal, a false body or a true body.
_DEFECT_B = pytest.mark.xfail(
    strict=True, reason="defect B: O wins some tautologies on tempo"
)
_DEFECT_C = pytest.mark.xfail(
    strict=True, reason="defect C: the game reads a bound context apart"
)
_DISAGREEMENT_ROWS = [
    ("p", {}),
    ("ci", {}),
    ("ci", {"ci": "p"}),
    pytest.param("~(q <-> ~q)", {}, marks=_DEFECT_B),
    pytest.param("K{j,1.2} ~(q <-> ~q)", {}, marks=_DEFECT_B),
    pytest.param("((p -> q) -> p) -> p", {}, marks=_DEFECT_B),
    pytest.param("((q)^ci <-> ~q) -> (K{j,1.1} q)^ci", {}, marks=_DEFECT_B),
    pytest.param("(~p -> p) -> (q <-> q) -> P{j,2.1} p", {}, marks=_DEFECT_B),
    pytest.param("(p)^ci", {"ci": "false"}, marks=_DEFECT_C),
    pytest.param("(~p)^ci", {"ci": "~p"}, marks=_DEFECT_C),
    pytest.param("(~q)^ci", {"ci": "p & ~q"}, marks=_DEFECT_C),
    pytest.param("(p)^ci <-> p", {"ci": "true"}, marks=_DEFECT_C),
    pytest.param("q -> ci", {"ci": "true"}, marks=_DEFECT_C),
]


@pytest.mark.parametrize("thesis, bindings", _DISAGREEMENT_ROWS)
def test_game_agrees_with_the_tableau(thesis, bindings):
    f = parse_formula(thesis)
    env = ContextEnv.from_json(bindings)
    result = has_winning_strategy(f, env)
    assert result.verdict == prove_cel(f, env).is_valid
    if isinstance(f, Atom):
        # the formal rule refutes an atomic thesis with the one-move play
        assert result.refutation == initial_state(f, env).moves


# P may state an atom that O granted by conceding a context whose body has it
# as a positive literal; without that grant O wins the first thesis.
_GRANT_ROWS = ["(p)^ci", "(K{i,1.1} p)^ci -> (p)^ci"]


@pytest.mark.parametrize("thesis", _GRANT_ROWS)
def test_p_uses_the_literals_of_a_conceded_context(thesis):
    f = parse_formula(thesis)
    env = ContextEnv.from_json({"ci": "p"})
    assert has_winning_strategy(f, env).verdict is True
    assert prove_cel(f, env).is_valid


def _follow_strategy(thesis, nodes, rng):
    """Play the strategy against a random O policy; P must leave O stuck."""
    children = [[] for _ in nodes]
    for i, node in enumerate(nodes[1:], 1):
        children[node["parent"]].append(i)
    agents = formula_info(game_form(thesis)).agents
    state, at = initial_state(thesis), 0
    for _ in range(400):
        node = nodes[at]
        if state.turn == "P":
            assert node["turn"] == "P", "strategy out of sync"
            (at,) = children[at]
            state = apply_move(state, move_from_json(nodes[at]["move"], agents))
            continue
        moves = legal_moves(state)
        if not moves:
            assert node.get("end"), "strategy claims play goes on"
            return
        assert node["turn"] == "O"
        move = rng.choice(moves)
        key = json.dumps(move_to_json(move), sort_keys=True)
        for child in children[at]:
            if json.dumps(nodes[child]["move"], sort_keys=True) == key:
                at = child
                break
        else:
            raise AssertionError("strategy misses an O move")
        state = apply_move(state, move)
    raise AssertionError("play did not terminate")


def test_strategy_beats_random_opponents():
    theses = [
        parse_formula("K{i,1.1} a -> K{i,1.1} K{i,1.1} a"),
        parse_formula("(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj"),
        parse_formula("((K{j,1.1} p & K{j,1.1} (p -> q)) -> K{j,1.1} q)^ci"),
        parse_formula("(p & q)^ci <-> ((p)^ci & (q)^ci)"),
    ]
    rng = random.Random(2024)
    plans = [(t, has_winning_strategy(t).strategy) for t in theses]
    for round_index in range(250):
        for thesis, nodes in plans:
            _follow_strategy(thesis, nodes, rng)


def _game_theses():
    """Every SUITE_ROWS thesis, then every recorded play's thesis."""
    theses = [parse_formula(row.formula) for row in SUITE_ROWS]
    for path in PLAY_FILES:
        data = load_play(path)
        theses.append(parse_formula(data["thesis"], data.get("default_variant")))
    return theses


# sha256 over the game's whole output on _game_theses(): verdict, positions
# searched, the strategy and the refutation, byte for byte. A change to the
# search's speed may move only the positions searched. The first pin was
# recorded when the strategy nested one level per move, and checks the
# strategy re-nested by the test decoder; the second pins the flat list.
GAME_OUTPUT_SHA256 = "0ea31de80c665f544784b768b57595267655683d70525d39bf0d8396507bbae6"
FLAT_GAME_OUTPUT_SHA256 = "1693d45f00efcdedbd215332ccb8ac94a3fbde1582cabe63de50ec5a272de8de"


def test_game_output_is_pinned():
    flat, nested = hashlib.sha256(), hashlib.sha256()
    for thesis in _game_theses():
        result = has_winning_strategy(thesis)
        refutation = result.refutation
        if refutation is not None:
            refutation = [move_to_json(m) for m in refutation]
        for digest, strategy in [
            (flat, result.strategy), (nested, nested_strategy(result.strategy))
        ]:
            record = [result.verdict, result.positions, json.dumps(strategy), refutation]
            digest.update(json.dumps(record).encode())
    assert (flat.hexdigest(), nested.hexdigest()) == (
        FLAT_GAME_OUTPUT_SHA256, GAME_OUTPUT_SHA256
    )


def _scanned_ledgers(state):
    """The reference for what apply_move keeps: the ledgers, the worlds and
    the position's records from a full scan of the history."""
    first_move_of_assertion = {}
    first_move_of_attack = {}
    records = set()
    introduced = {()}
    o_fresh = 0
    for i, move in enumerate(state.moves):
        a = _assertion_of_move(state, i)
        if a is not None and a not in first_move_of_assertion:
            first_move_of_assertion[a] = i
        r = _attack_record_of_move(state, i)
        if r is not None and r not in first_move_of_attack:
            first_move_of_attack[r] = i
        if move.kind == "attack":
            records.add(r)
        elif move.kind == "defend":
            attack = _attack_record_of_move(state, move.target)
            records.add((move.actor, attack, move.payload))
        label = move.payload.label
        if label is not None and label not in introduced:
            introduced.add(label)
            o_fresh += move.actor == "O"
    # O's one right per target: what O's records act on
    o_spent = {target for actor, target, _ in records if actor == "O"}

    def still_open(player, target, payloads, fixed):
        """Whether the player may still act on the target: it has a move
        on it, O has not acted on it, and P has not made every move on it
        if its moves are fixed."""
        if not payloads:
            return False
        if player == "O":
            return target not in o_spent
        return not fixed or any(("P", target, p) not in records for p in payloads)

    open_targets = {}
    for player in ("O", "P"):
        attacks = tuple(
            (target, i)
            for target, i in first_move_of_assertion.items()
            if target[0] != player
            and still_open(
                player,
                target,
                _reference_attack_payloads(state, player, target),
                not isinstance(target[2], Know),
            )
        )
        defences = tuple(
            (attack, i)
            for attack, i in first_move_of_attack.items()
            if attack[0] != player
            and still_open(
                player,
                attack,
                _reference_defence_payloads(state, player, attack),
                not isinstance(attack[1][2], Poss),
            )
        )
        open_targets[player] = (attacks, defences)
    return {
        "assertion_index": first_move_of_assertion,
        "attack_index": first_move_of_attack,
        "records": records,
        "introduced": introduced,
        "o_fresh": o_fresh,
        "open_targets": open_targets,
    }


LEDGER_RANDOM_THESES = 40
LEDGER_PLAYS_PER_THESIS = 3


def test_ledgers_match_a_scan_of_the_history():
    rng = random.Random(11)
    theses = [parse_formula(row.formula) for row in SUITE_ROWS]
    theses += [random_formula(rng, 3) for _ in range(LEDGER_RANDOM_THESES)]
    checked = 0
    for thesis in theses:
        for _ in range(LEDGER_PLAYS_PER_THESIS):
            state = initial_state(thesis)
            while True:
                scan = _scanned_ledgers(state)
                assert state.assertions == scan["assertion_index"].keys()
                # each player's open targets, in the order legal_moves
                # walks them
                assert state.open_targets == scan["open_targets"]
                for name in ("records", "introduced", "o_fresh"):
                    assert getattr(state, name) == scan[name], name
                # the position is the records, kept as they are
                assert state.position_key() is state.records
                # every record is new, so the turn follows from their number
                assert len(state.records) == len(state.moves) - 1
                assert state.turn == ("O" if len(state.records) % 2 == 0 else "P")
                # every assertion but the thesis is a record's payload
                rebuilt = {("P", (), state.thesis)} | {
                    (actor, p.label, p.formula)
                    for actor, _, p in state.records
                    if isinstance(p, AssertPayload)
                }
                assert rebuilt == state.assertions
                # an attack's attacker never owns its target, so a defence
                # is always made by the attacked player
                for attacker, target, _ in scan["attack_index"]:
                    assert attacker != target[0]
                checked += 1
                moves = legal_moves(state)
                if not moves:
                    break
                state = apply_move(state, rng.choice(moves))
    assert checked > 10 * len(theses)


class TestTranscript:
    def test_example_table_layout(self):
        data = load_play(PLAYS_DIR / "introspection-absolute.json")
        state = replay_script(data)
        text = render_transcript(state, winner="P")
        lines = text.splitlines()
        assert "O" in lines[0] and "P" in lines[0]
        assert "1: K{i,1.1} a -> K{i,1.1} K{i,1.1} a" in text
        assert "?_K{i}/1i1i1" in text
        assert text.endswith("P wins the play")
        # nine moves pair into five rows: thesis plus four attack rows
        body = [l for l in lines[2:] if l.strip() and "wins" not in l]
        assert len(body) == 5

    def test_single_move_play(self):
        state = initial_state(Atom("p"))
        text = render_transcript(state)
        assert "(0)" in text and "1: p" in text

    def test_deferred_defence_sits_on_attack_row(self):
        data = load_play(PLAYS_DIR / "factivity-11.json")
        state = replay_script(data)
        text = render_transcript(state)
        row = next(l for l in text.splitlines() if l.startswith("(9)"))
        assert "(20)" in row


# sha256 over render_transcript of every recorded play, then of the
# refutation of each of _game_theses() that O wins, byte for byte.
TRANSCRIPT_SHA256 = "96385a80e43766c222104ee7655ba14b066aec8c72620e28b5a3b84089565c73"


def test_transcripts_are_pinned():
    digest = hashlib.sha256()
    for path in PLAY_FILES:
        text = render_transcript(replay_script(load_play(path)))
        digest.update(text.encode() + b"\0")
    for thesis in _game_theses():
        refutation = has_winning_strategy(thesis).refutation
        if refutation is not None:
            text = render_transcript(refutation, winner="O")
            digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == TRANSCRIPT_SHA256


# ---------------------------------------------------------------------------
# legal_moves against an uncached reference: the particle rules worked out
# afresh at every position, the worlds found by search, every candidate
# filtered by the reference's own repetition, restatement and formality
# rules, and the moves sorted by their printed payloads.


def _reference_cluster(introduced, agent, world):
    """The agent's cluster by search: the worlds reachable from ``world``
    through steps of this agent over the introduced labels."""
    seen = {world}
    frontier = [world]
    while frontier:
        w = frontier.pop()
        if w and w[-1][0] == agent and w[:-1] in introduced and w[:-1] not in seen:
            seen.add(w[:-1])
            frontier.append(w[:-1])
        for v in introduced:
            if len(v) == len(w) + 1 and v[:-1] == w and v[-1][0] == agent:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return seen


def _reference_world_options(state, actor, agent, world):
    """The agent's cluster, then O's fresh successor, which takes the least
    index no introduced child of the world uses for that agent."""
    options = sorted(_reference_cluster(state.introduced, agent, world))
    if actor == "O" and state.o_fresh < state.rules.fresh_cap:
        used = {
            v[-1][1]
            for v in state.introduced
            if len(v) == len(world) + 1 and v[:-1] == world and v[-1][0] == agent
        }
        index = min(set(range(1, len(used) + 2)) - used)
        options.append(world + ((agent, index),))
    return options


def _searched_and_replayed_positions(check=lambda state: None):
    """Every position the SUITE_ROWS searches step and the recorded plays
    pass through, each handed to ``check`` when it is reached, before the
    search or the play moves on from it."""
    visited = []

    def reach(state):
        check(state)
        visited.append(state)

    class Recording(_Search):
        def _value(self, state):
            reach(state)
            return super()._value(state)

    for row in SUITE_ROWS:
        Recording(dialogue.DEFAULT_SEARCH_BUDGET).win(
            initial_state(parse_formula(row.formula))
        )
    for path in PLAY_FILES:
        data = load_play(path)
        thesis = parse_formula(data["thesis"], data.get("default_variant"))
        state = initial_state(thesis, ContextEnv.from_json(data.get("env", {})))
        agents = formula_info(state.thesis).agents
        reach(state)
        for move_data in data["moves"]:
            state = apply_move(state, move_from_json(move_data, agents))
            reach(state)
    return visited


def _assert_steps_agree_with_apply_move(state):
    """The search steps each legal move on the target legal_moves found for
    it; that gives what apply_move gives, on all seven fields, the
    assertions and open_targets ledgers included."""
    for move, target in dialogue._candidates(state):
        assert tuple(dialogue._step(state, move, target)) == tuple(
            apply_move(state, move)
        )


def test_the_search_steps_each_move_as_apply_move_does():
    visited = _searched_and_replayed_positions(_assert_steps_agree_with_apply_move)
    assert len(visited) > 1000


def test_world_table_matches_a_fresh_computation():
    # At every position the SUITE_ROWS searches and the recorded plays visit,
    # the table a game shares between its states gives what a fresh table does.
    visited = _searched_and_replayed_positions()
    tables = {}
    for state in visited:
        rules = state.rules
        tables[id(rules)] = rules.world_options
        fresh = state._replace(rules=dialogue.GameRules(rules.env, rules.fresh_cap))
        for actor in (dialogue.P, dialogue.O):
            for agent in formula_info(state.thesis).agents:
                for world in state.introduced:
                    assert dialogue._world_options(
                        state, actor, agent, world
                    ) == dialogue._world_options(fresh, actor, agent, world)
    entries = [options for table in tables.values() for options in table.values()]
    assert len(visited) > 1000 and len(entries) > 100
    assert all(type(options) is tuple for options in entries)


def _reference_attack_payloads(state, actor, target):
    _, world, f = target
    match f:
        case Atom(name):
            if name in state.rules.env.bindings:
                if len(state.rules.env.bindings[name].literals) >= 2:
                    return [RequestPayload("?_L"), RequestPayload("?_R")]
            return []
        case Not(body):
            return [AssertPayload(world, body)]
        case And():
            return [RequestPayload("?_L"), RequestPayload("?_R")]
        case Or():
            return [RequestPayload("?")]
        case Imp(l, _):
            return [AssertPayload(world, l)]
        case Know(agent, _, _):
            return [
                RequestPayload("?_K", agent, w)
                for w in _reference_world_options(state, actor, agent, world)
            ]
        case Poss(agent, _, _):
            return [RequestPayload("?_P", agent)]
        case Rel(And(), _):
            return [RequestPayload("?_L"), RequestPayload("?_R")]
        case Rel(Know(agent, variant, _), c):
            cx = variant_contexts_names(variant, c, agent)[0]
            return [AssertPayload(world, Atom(cx))]
        case Rel(_, c):
            return [AssertPayload(world, Atom(c))]


def _reference_rel(body, c):
    if isinstance(body, Poss):
        body = Not(Know(body.agent, body.variant, Not(body.body)))
    return Rel(body, c)


def _reference_defence_payloads(state, actor, attack):
    _, (_, world, f), payload = attack
    left = payload == RequestPayload("?_L")
    match f:
        case Atom(name):
            lits = [
                Atom(a) if positive else Not(Atom(a))
                for a, positive in state.rules.env.bindings[name].literals
            ]
            if left:
                return [AssertPayload(world, lits[0])]
            rest = lits[1]
            for extra in lits[2:]:
                rest = And(rest, extra)
            return [AssertPayload(world, rest)]
        case Not():
            return []
        case And(l, r):
            return [AssertPayload(world, l if left else r)]
        case Or(l, r):
            return [AssertPayload(world, l), AssertPayload(world, r)]
        case Imp(_, r):
            return [AssertPayload(world, r)]
        case Know(_, _, body):
            return [AssertPayload(payload.label, body)]
        case Poss(agent, _, body):
            return [
                AssertPayload(w, body)
                for w in _reference_world_options(state, actor, agent, world)
            ]
        case Rel(Atom() | Rel() as body, _):
            return [AssertPayload(world, body)]
        case Rel(Not(inner), c):
            return [AssertPayload(world, Not(_reference_rel(inner, c)))]
        case Rel(And(l, r), c):
            return [AssertPayload(world, _reference_rel(l if left else r, c))]
        case Rel(Or(l, r), c):
            body = Or(_reference_rel(l, c), _reference_rel(r, c))
            return [AssertPayload(world, body)]
        case Rel(Imp(l, r), c):
            body = Imp(_reference_rel(l, c), _reference_rel(r, c))
            return [AssertPayload(world, body)]
        case Rel(Know(agent, variant, inner), c):
            cy = variant_contexts_names(variant, c, agent)[1]
            body = Know(agent, variant, _reference_rel(inner, cy))
            return [AssertPayload(world, body)]


def _reference_sort_key(move):
    p = move.payload
    if isinstance(p, AssertPayload):
        payload_key = (0, render_label(p.label), render_formula(p.formula))
    else:
        payload_key = (1, p.kind, p.agent or "", render_label(p.label or ()))
    return (move.kind, move.target, payload_key)


def _reference_right_spent(scan, actor, target, payload):
    """O attacks an assertion once, whatever the payload; P once per payload."""
    return any(
        attacker == actor and attacked == target and (actor == "O" or p == payload)
        for attacker, attacked, p in scan["attack_index"]
    )


def _reference_restates(scan, actor, payload):
    """P may not restate a complex formula already on P's record."""
    return (
        actor == "P"
        and isinstance(payload, AssertPayload)
        and not isinstance(payload.formula, Atom)
        and ("P", payload.label, payload.formula) in scan["assertion_index"]
    )


def _reference_granted_atoms(state, scan, world):
    """Atoms O stands committed to at ``world``: the atoms O stated there,
    plus the positive literals of the contexts O stated there."""
    bindings = state.rules.env.bindings
    granted = set()
    for actor, w, f in scan["assertion_index"]:
        if actor == "O" and w == world and isinstance(f, Atom):
            granted.add(f.name)
            if f.name in bindings:
                granted |= {a for a, positive in bindings[f.name].literals if positive}
    return granted


def _reference_allowed(state, scan, actor, payload):
    """P may not restate a complex formula, may state a context name only
    where O has stated it (ML-frc), and an atom only where O has granted it
    (PL-3)."""
    if _reference_restates(scan, actor, payload):
        return False
    if actor == "O" or not isinstance(payload, AssertPayload):
        return True
    f = payload.formula
    if not isinstance(f, Atom):
        return True
    if f.name in state.rules.env.bindings:
        return ("O", payload.label, f) in scan["assertion_index"]
    return f.name in _reference_granted_atoms(state, scan, payload.label)


def reference_legal_moves(state, scan=None):
    """The moves from a scan of the history, not from the state's ledgers."""
    scan = scan or _scanned_ledgers(state)
    actor = state.turn
    opponent = "O" if actor == "P" else "P"
    moves = []
    for target, index in scan["assertion_index"].items():
        if target[0] == actor:
            continue
        for payload in _reference_attack_payloads(state, actor, target):
            if _reference_right_spent(scan, actor, target, payload):
                continue
            if _reference_allowed(state, scan, actor, payload):
                moves.append(Move(actor, "attack", index, payload))
    attacks = scan["attack_index"]
    defences = {(attack, p) for _, attack, p in scan["records"] if attack in attacks}
    answered = {attack for attack, _ in defences}
    for attack, index in scan["attack_index"].items():
        if attack[0] != opponent or attack[1][0] != actor:
            continue
        if actor == "O" and attack in answered:
            continue
        moves.extend(
            Move(actor, "defend", index, payload)
            for payload in _reference_defence_payloads(state, actor, attack)
            if (attack, payload) not in defences
            and _reference_allowed(state, scan, actor, payload)
        )
    moves.sort(key=_reference_sort_key)
    return moves


def _reference_search_order(state, moves):
    """The reference's moves in the order the search tries them: at P's
    turn, P's defences of the latest attack that admits one come before P's
    other defences, each group in the reference's order."""
    defences = [m for m in moves if m.kind == "defend"]
    if state.turn == "O" or not defences:
        return moves
    latest = max(m.target for m in defences)
    return (
        [m for m in moves if m.kind == "attack"]
        + [m for m in defences if m.target == latest]
        + [m for m in defences if m.target != latest]
    )


def _play_against_reference(thesis, env, rng, plays):
    """Seeded random plays of the thesis; at every position both players'
    move lists and open targets equal the reference's, the search tries the
    same moves in the order the reference gives, and steps each as
    apply_move does. Returns the number of positions checked."""
    search = _Search(0)
    checked = 0
    for _ in range(plays):
        state = initial_state(thesis, env)
        while True:
            scan = _scanned_ledgers(state)
            reference = reference_legal_moves(state, scan)
            assert legal_moves(state) == reference
            tried = [move for move, _ in search.moves(state)]
            assert tried == _reference_search_order(state, reference)
            assert state.open_targets == scan["open_targets"]
            _assert_steps_agree_with_apply_move(state)
            checked += 1
            moves = legal_moves(state)
            if not moves:
                break
            state = apply_move(state, rng.choice(moves))
    return checked


REFERENCE_RANDOM_THESES = 40
REFERENCE_PLAYS_PER_THESIS = 3


def test_legal_moves_match_the_uncached_reference():
    rng = random.Random(23)
    theses = [parse_formula(row.formula) for row in SUITE_ROWS]
    theses += [random_formula(rng, 3) for _ in range(REFERENCE_RANDOM_THESES)]
    checked = sum(
        _play_against_reference(t, None, rng, REFERENCE_PLAYS_PER_THESIS)
        for t in theses
    )
    assert checked > 10 * len(theses)


REFERENCE_DEEP_THESES = 20


def test_legal_moves_match_the_reference_under_bound_contexts():
    # depth-4 theses, under bindings where a compound context is attacked
    # by projections and one context's body names another's atom
    env = ContextEnv.from_json({"ci": "p & ~q", "cj": "q"})
    rng = random.Random(31)
    theses = [random_formula(rng, 4) for _ in range(REFERENCE_DEEP_THESES)]
    checked = sum(_play_against_reference(t, env, rng, 3) for t in theses)
    assert checked > 10 * len(theses)


def _context_projections(thesis, env):
    """After O asserts ci against the thesis (p)^ci: each of P's attacks on
    that assertion, with O's answers to it."""
    state = initial_state(thesis, env)
    state = apply_move(state, Move("O", "attack", 0, AssertPayload((), Atom("ci"))))
    out = []
    for move in legal_moves(state):
        if move.kind == "attack":
            after = apply_move(state, move)
            answers = [render_payload(m.payload) for m in legal_moves(after)]
            out.append((render_payload(move.payload), answers))
    return out


def test_legal_moves_follow_each_games_context_bindings():
    # The payloads on a context name come from the game's own bindings: a
    # compound ci is attacked by ?_L/?_R and each projection is answered
    # with its literals, an atomic stand-in is not attacked at all. One
    # game's payloads must not leak into a later game's.
    thesis = parse_formula("(p)^ci")
    cases = [
        ("p & q", [("?_L", ["1: p"]), ("?_R", ["1: q"])]),
        ("q & ~r", [("?_L", ["1: q"]), ("?_R", ["1: ~r"])]),
        ("~r & q & p", [("?_L", ["1: p"]), ("?_R", ["1: q & ~r"])]),
        (None, []),
        ("p & q", [("?_L", ["1: p"]), ("?_R", ["1: q"])]),
    ]
    rng = random.Random(5)
    for body, expected in cases:
        env = ContextEnv({"ci": parse_context(body)} if body else {})
        assert _context_projections(thesis, env) == expected
        _play_against_reference(thesis, env, rng, 5)


def _candidate_moves(state):
    """Every move the reference particle rules offer the player to move: each
    attack payload on every assertion and each defence payload against every
    attack, naming the first move of its target."""
    actor = state.turn
    scan = _scanned_ledgers(state)
    for target, index in scan["assertion_index"].items():
        for payload in _reference_attack_payloads(state, actor, target):
            yield Move(actor, "attack", index, payload)
    for attack, index in scan["attack_index"].items():
        for payload in _reference_defence_payloads(state, actor, attack):
            yield Move(actor, "defend", index, payload)


def test_validate_move_accepts_exactly_the_listed_moves():
    # What lets the search step through listed moves without validating them.
    rng = random.Random(29)
    theses = [parse_formula(row.formula) for row in SUITE_ROWS]
    theses += [random_formula(rng, 3) for _ in range(REFERENCE_RANDOM_THESES)]
    # P attacks both of O's implications with p -> p, and may not restate it
    theses.append(parse_formula("((p -> p) -> q) & ((p -> p) -> r) -> s"))
    checked = 0
    rejected = set()
    for thesis in theses:
        for _ in range(REFERENCE_PLAYS_PER_THESIS):
            state = initial_state(thesis)
            while True:
                listed = legal_moves(state)
                candidates = list(_candidate_moves(state))
                assert set(listed) <= set(candidates)
                for move in candidates:
                    try:
                        validate_move(state, move)
                    except IllegalMoveError as exc:
                        assert move not in listed, move
                        rejected.add(str(exc) if exc.rule == "PL-2" else exc.rule)
                    else:
                        assert move in listed, move
                    checked += 1
                if not listed:
                    break
                state = apply_move(state, rng.choice(listed))
    assert checked > 50 * len(theses)
    assert {"PL-0", "PL-3", "ML-frc"} <= rejected
    assert {
        "PL-2: this attack was already made",
        "PL-2: this defence was already given",
        "PL-2: O has already answered this attack",
        "PL-2: restating one's own assertion changes nothing for P",
    } <= rejected
