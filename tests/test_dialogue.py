import copy
import gc
import hashlib
import json
import pathlib
import pickle
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celogic import dialogue
from celogic.cli import main
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
from celogic.kripke import ContextEnv, find_countermodel
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

from corpus import (
    all_formulas,
    cross_semantics_corpus,
    hygiene_corpus,
    random_formula,
)

PLAYS_DIR = pathlib.Path(__file__).parent / "data" / "plays"
PLAY_FILES = sorted(PLAYS_DIR.glob("*.json"))


def load_play(path):
    return json.loads(path.read_text())


# Agent names for the label properties: some are others followed by digits
# (i1, i11), by a letter (ab, iA) or by "_" (i_).
_AGENT_POOL = ("i", "i1", "i11", "a", "ab", "b1", "i_", "iA")


def _unseparated_name(label):
    """A label's name as it was printed before steps had a separator."""
    return "1" + "".join(f"{a}{n}" for a, n in label)


def _digit_suffixed(agents):
    """Whether one agent's name is another's followed by a digit: then the
    unseparated names collide, and order some labels differently."""
    return any(
        b.startswith(a) and b[len(a)].isdigit()
        for a in agents
        for b in agents
        if len(b) > len(a)
    )


class TestLabels:
    def test_render(self):
        assert render_label(()) == "1"
        assert render_label((("i", 1), ("j", 2))) == "1i.1j.2"

    @pytest.mark.parametrize(
        "first, second",
        [
            ((("i", 1), ("j", 2)), (("i", 12),)),
            # one agent's name is another's followed by digits: without a
            # separator both labels printed as 1i11
            ((("i", 11),), (("i1", 1),)),
        ],
        ids=["two-agents", "digit-suffixed-agent"],
    )
    def test_distinct_labels_render_apart(self, first, second):
        assert render_label(first) != render_label(second)
        for label in (first, second):
            assert parse_label(render_label(label)) == label

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_names_read_back_apart_and_keep_their_order(self, data):
        agents = data.draw(
            st.lists(st.sampled_from(_AGENT_POOL), min_size=1, unique=True)
        )
        step = st.tuples(st.sampled_from(agents), st.integers(1, 120))
        shared = data.draw(st.lists(step, max_size=8))
        first, second = (
            tuple(shared + data.draw(st.lists(step, max_size=8 - len(shared))))
            for _ in range(2)
        )
        for label in (first, second):
            assert parse_label(render_label(label)) == label
        if first != second:
            assert render_label(first) != render_label(second)
        old = _unseparated_name(first), _unseparated_name(second)
        if old[0] != old[1] and not _digit_suffixed(agents):
            assert (old[0] < old[1]) == (render_label(first) < render_label(second))

    def test_parse(self):
        assert parse_label("1") == ()
        assert parse_label("1i.1j.2") == (("i", 1), ("j", 2))
        assert parse_label("1i1.12i.1") == (("i1", 12), ("i", 1))

    def test_parse_rejects_garbage(self):
        # what render_label never prints: no leading 1, a step without its
        # ".", index or agent, an index 0 or with a leading zero
        for text in ["2i.1", "1x", "1i.1i", "1i1", "1i.0", "1i.01", "1i.", "1.i1"]:
            with pytest.raises(ValueError):
                parse_label(text)

    def test_parse_reads_a_long_label_without_recursing(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"the recursion limit was set to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        agents = ["i", "i1"]
        label = tuple((agents[n % 2], n % 3 + 1) for n in range(5000))
        assert parse_label(render_label(label)) == label
        with pytest.raises(ValueError):
            parse_label(render_label(label) + ".")

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
            assert parse_label(render_label(label)) == label

    def test_refutation_naming_a_shorter_agent_replays(self):
        thesis = "a & K{i1,1.1} a -> K{i,1.1} a"
        result = has_winning_strategy(parse_formula(thesis))
        assert result.verdict is False
        moves = [move_to_json(m) for m in result.refutation[1:]]
        labels = [m["payload"].get("request", {}).get("label") for m in moves]
        assert "1i.1" in labels
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
        state = initial_state(thesis)
        for move_data in data["moves"][:4]:
            state = apply_move(state, move_from_json(move_data))
        return state

    def test_fresh_world_attack_available(self):
        # after P restates knowledge at the new world, O may dig one deeper
        state = self._example_one_prefix()
        wanted = Move(
            "O", "attack", 4, RequestPayload("?_K", "i", parse_label("1i.1i.1"))
        )
        assert wanted in legal_moves(state)

    def test_contextualist_introspection_endpoint_is_stuck(self):
        state = replay_script(load_play(PLAYS_DIR / "cross-introspection-12.json"))
        assert state.turn == "P"
        assert legal_moves(state) == []

    def test_single_literal_context_cannot_be_attacked(self):
        data = load_play(PLAYS_DIR / "cross-introspection-12.json")
        thesis = parse_formula(data["thesis"])
        state = initial_state(thesis)
        for move_data in data["moves"][:3]:
            state = apply_move(state, move_from_json(move_data))
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
        moves = [move_from_json(m) for m in data["moves"]]
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
        fresh = parse_label("1i.1")
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
            return AssertPayload(parse_label(world), parse_formula(text))

        def ask(world):
            return RequestPayload("?_K", "i", parse_label(world))

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
            Move("O", "attack", 4, ask("1i.1")),
            Move("P", "attack", 1, RequestPayload("?_P", "i")),
            Move("O", "defend", 6, said("1i.2", "a")),
            Move("P", "defend", 3, said("1", "K{i,1.1} c")),
        ]
        cap_spent_before_p = opening + [
            Move("P", "defend", 3, said("1", "K{i,1.1} c")),
            Move("O", "attack", 4, ask("1i.1")),
            Move("P", "defend", 3, said("1", "K{i,1.1} b")),
            Move("O", "attack", 6, ask("1i.2")),
            Move("P", "attack", 1, RequestPayload("?_P", "i")),
        ]
        cases = [
            (
                "K{i,1.1} a -> K{i,1.1} a",
                [Move("O", "attack", 0, said("1", "K{i,1.1} a"))],
                Move("P", "attack", 1, ask("1i.1")),
                "ML-frw: P cannot introduce ?_K{i}/1i.1",
            ),
            (
                thesis,
                cap_spent_before_k,
                Move("O", "attack", 8, ask("1i.3")),
                "world cap: O's fresh-world budget is spent",
            ),
            (
                "P{i,1.1} a",
                [Move("O", "attack", 0, RequestPayload("?_P", "i"))],
                Move("P", "defend", 1, said("1i.1", "a")),
                "particle mismatch: 1i.1: a does not answer ?_P{i} on P{i,1.1} a",
            ),
            (
                thesis,
                cap_spent_before_p,
                Move("O", "defend", 8, said("1i.3", "a")),
                "particle mismatch: 1i.3: a does not answer ?_P{i} on P{i,1.1} a",
            ),
            # moves of the wrong kind or on the wrong target, which no play lists
            (
                "p -> p",
                [],
                Move("O", "thesis", None, said("1", "p -> p")),
                "PL-0: the thesis is only asserted once",
            ),
            (
                "p -> p",
                [],
                Move("O", "foo", 0, said("1", "p")),
                "PL-0: unknown move kind 'foo'",
            ),
            (
                "p -> p",
                [],
                Move("O", "attack", 1, said("1", "p")),
                "PL-0: move must target an earlier move",
            ),
            (
                "p & q",
                [Move("O", "attack", 0, RequestPayload("?_L"))],
                Move("P", "attack", 1, RequestPayload("?_L")),
                "particle mismatch: only assertions can be attacked",
            ),
            (
                "p -> p",
                [Move("O", "attack", 0, said("1", "p"))],
                Move("P", "attack", 1, RequestPayload("?_L")),
                "PL-3: atomic statements cannot be attacked",
            ),
            (
                "p -> p",
                [],
                Move("O", "defend", 0, said("1", "p")),
                "PL-0: defences answer attacks",
            ),
            (
                "~p",
                [Move("O", "attack", 0, said("1", "p"))],
                Move("P", "defend", 1, said("1", "p")),
                "particle mismatch: ~p admits no defence",
            ),
            (
                "p & q -> p",
                [
                    Move("O", "attack", 0, said("1", "p & q")),
                    Move("P", "attack", 1, RequestPayload("?_L")),
                ],
                Move("O", "defend", 1, said("1", "p")),
                "PL-0: cannot defend against one's own attack",
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
        return state, [move_from_json(m) for m in data["moves"]]

    def test_states_reached_by_the_same_moves_are_equal(self):
        start, moves = self._play()
        a, b = dialogue.replay(start, moves), dialogue.replay(start, moves)
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != start and dialogue.replay(start, moves[:-1]) != a

    def test_states_compare_as_their_tuples(self):
        # the ledgers follow from (rules, moves), so two states that differ
        # in one list different moves, and compare unequal
        start, moves = self._play()
        a = dialogue.replay(start, moves)
        assert a == tuple(a) and hash(a) == hash(tuple(a))
        assert a.open_targets != ((), ()) and a.assertions != 0
        for b in (a._replace(open_targets=((), ())), a._replace(assertions=0)):
            assert a != b and not a == b
        assert a != a._replace(turn=dialogue.P if a.turn == dialogue.O else dialogue.O)
        # rules compare by identity, so the same moves replayed in a second
        # game of the same thesis reach a state equal in every other field
        again = dialogue.replay(self._play()[0], moves)
        assert again.rules is not a.rules and again[1:] == a[1:]
        assert again != a and not again == a

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

    def test_a_state_survives_deep_copies_and_pickles(self):
        start, moves = self._play()
        state = dialogue.replay(start, moves)
        for loaded in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert (loaded.moves, loaded.records) == (state.moves, state.records)
            assert dict(loaded.rules.bits) == dict(state.rules.bits)
            assert loaded.rules.fresh_cap == state.rules.fresh_cap

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
        rules = initial_state(parse_formula("(K{i,1.2} p)^ci")).rules
        assert repr(rules) == (
            "GameRules(env=ContextEnv({'ci': '_ctx_ci'}), fresh_cap=2)"
        )


class TestWinningStrategy:
    def test_results_compare_on_verdict_refutation_and_positions(self):
        first, second = (has_winning_strategy(parse_formula("p -> p")) for _ in "ab")
        assert first is not second and first == second and not first != second
        assert first != has_winning_strategy(parse_formula("p -> q"))
        assert first.__eq__((True, None, first.positions)) is NotImplemented
        assert first != (True, None, first.positions)

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

    def test_a_long_play_fits_in_20_mib(self):
        # 1,203 positions, each keeping its records and its assertions as
        # int bitsets, which a move grows by one bit: no set is copied
        side = "~" * 600 + "p"
        tracemalloc.start()
        try:
            result = has_winning_strategy(parse_formula(f"{side} -> {side}"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verdict is True and result.positions == 1203
        assert peak < 20 * 2**20, peak

    def test_legal_moves_walk_only_the_open_targets(self):
        # Deep into a long play each player has hundreds of targets, almost
        # all used up: one listing looks up the move tables of at most a few.
        side = "~" * 600 + "p"
        state = initial_state(parse_formula(f"{side} -> {side}"))
        search = _Search(0)
        while len(state.moves) < 600:
            state = apply_move(state, search.moves(state)[0][0])
        lookups = []

        class Counted(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        tables = Counted(state.rules.move_tables)
        object.__setattr__(state.rules, "move_tables", tables)  # a frozen field
        for _ in range(2):  # a position of P's, then one of O's
            lookups.clear()
            moves = legal_moves(state)
            assert moves
            assert 0 < len(lookups) <= 4
            state = apply_move(state, moves[0])


# Theses on which the game has disagreed with the tableau, with their
# context bindings. Defect A: P won every atomic thesis, since O has no move
# against an atom. Defect B: O wins each classical tautology below on tempo,
# with a delayed defence that leaves P without an answer; a strict xfail
# fails as soon as the game agrees. Defect C: under a binding the game grants
# O only a conceded context's positive literals, and lets P assert a context
# name only after O has, so O wins theses that hold through a negative
# literal, a false body or a true body. Defect D: P wins theses whose
# counter-models need four worlds in one class, since O may open only two
# fresh worlds; these are wrong "P wins", where B and C are wrong "O wins".
_DEFECT_B = pytest.mark.xfail(
    strict=True, reason="defect B: O wins some tautologies on tempo"
)
_DEFECT_C = pytest.mark.xfail(
    strict=True, reason="defect C: the game reads a bound context apart"
)
_DEFECT_D = pytest.mark.xfail(
    strict=True, reason="defect D: O opens too few worlds to refute"
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
    # the census's smallest defect-C row: one node
    pytest.param("ci", {"ci": "true"}, marks=_DEFECT_C),
    pytest.param(
        "K{i,1.1} (~p | ~q) | K{i,1.1} (~p | q) | K{i,1.1} (p | ~q) | K{i,1.1} (p | q)",
        {},
        marks=_DEFECT_D,
    ),
    pytest.param(
        "~(P{i,1.1} (p & q) & P{i,1.1} (p & ~q) & P{i,1.1} (~p & q) & P{i,1.1} (~p & ~q))",
        {},
        marks=_DEFECT_D,
    ),
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


CENSUS_NODES = 4
CENSUS_BUDGET = 20_000
CENSUS_WORLDS = 3


def test_the_three_engines_agree_on_every_small_formula():
    # the census of every formula of up to 4 nodes under no env: the tableau,
    # the game and the oracle give one verdict on each of 1,461 formulas
    env = ContextEnv()
    disagreements, formulas = [], 0
    for f in all_formulas(CENSUS_NODES):
        formulas += 1
        verdicts = (
            prove_cel(f, env).is_valid,
            has_winning_strategy(f, env, budget=CENSUS_BUDGET).verdict,
            find_countermodel(f, env, max_worlds=CENSUS_WORLDS) is None,
        )
        if len(set(verdicts)) > 1:
            disagreements.append((render_formula(f), verdicts))
    assert formulas == 1461
    assert disagreements == []


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
    state, at = initial_state(thesis), 0
    for _ in range(400):
        node = nodes[at]
        if state.turn == "P":
            assert node["turn"] == "P", "strategy out of sync"
            (at,) = children[at]
            state = apply_move(state, move_from_json(nodes[at]["move"]))
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
# search's speed may move only the positions searched.
FLAT_GAME_OUTPUT_SHA256 = "3f2ddc4beace1019bcfddfcc208563da10fe2ecc986157dd6db9f29c7c35e33f"


def test_game_output_is_pinned():
    digest = hashlib.sha256()
    for thesis in _game_theses():
        result = has_winning_strategy(thesis)
        refutation = result.refutation
        if refutation is not None:
            refutation = [move_to_json(m) for m in refutation]
        strategy = json.dumps(result.strategy)
        record = [result.verdict, result.positions, strategy, refutation]
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == FLAT_GAME_OUTPUT_SHA256


def _bit(state, key):
    """The key's bit in the game's numbering, which must already hold it:
    reading it numbers nothing."""
    assert key in state.rules.bits, key
    return state.rules.bits[key]


def _mask(state, keys):
    """The bitset of the keys, which the game's numbering must hold."""
    mask = 0
    for key in keys:
        mask |= _bit(state, key)
    return mask


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

    open_targets = []  # in turn order: the mover's, then the other player's
    for player in (state.turn, "P" if state.turn == "O" else "O"):
        attacks = tuple(
            (target, i, _bit(state, target))
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
            (attack, i, _bit(state, attack))
            for attack, i in first_move_of_attack.items()
            if attack[0] != player
            and still_open(
                player,
                attack,
                _reference_defence_payloads(state, player, attack),
                not isinstance(attack[1][2], Poss),
            )
        )
        open_targets.append((attacks, defences))
    return {
        "assertion_index": first_move_of_assertion,
        "attack_index": first_move_of_attack,
        "records": records,
        "introduced": introduced,
        "o_fresh": o_fresh,
        "open_targets": tuple(open_targets),
    }


LEDGER_RANDOM_THESES = 40
LEDGER_PLAYS_PER_THESIS = 3


def _decoded(state, bits):
    """The records or assertions whose bits are set in ``bits``, read back
    through the game's numbering table; every bit set must number one."""
    table = state.rules.bits
    # the table gives each key its own bit: 1, 2, 4, ... in order met
    assert sorted(table.values()) == [1 << i for i in range(len(table))]
    keys = {key for key, bit in table.items() if bit & bits}
    assert sum(table[key] for key in keys) == bits
    return keys


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
                records = _decoded(state, state.records)
                assertions = _decoded(state, state.assertions)
                assert assertions == scan["assertion_index"].keys()
                # each player's open targets, the mover's first, in the
                # order legal_moves walks them
                assert state.open_targets == scan["open_targets"]
                assert records == scan["records"]
                for name in ("introduced", "o_fresh"):
                    assert getattr(state, name) == scan[name], name
                # every record is new, so the turn follows from their number
                assert len(records) == len(state.moves) - 1
                assert state.turn == ("O" if len(records) % 2 == 0 else "P")
                # every assertion but the thesis is a record's payload
                rebuilt = {("P", (), state.thesis)} | {
                    (actor, p.label, p.formula)
                    for actor, _, p in records
                    if isinstance(p, AssertPayload)
                }
                assert rebuilt == assertions
                # an attack's attacker never owns its target, so a defence
                # is always made by the attacked player
                for attacker, target, _ in scan["attack_index"]:
                    assert attacker != target[0]
                checked += 1
                moves = legal_moves(state)
                _assert_tables_match_the_particle_rules(state)
                if not moves:
                    break
                state = apply_move(state, rng.choice(moves))
    assert checked > 10 * len(theses)


def test_a_disjunction_of_one_formula_is_defended_once():
    # after P asks which disjunct of O's q | q holds, O may answer q once
    said = lambda f: AssertPayload((), parse_formula(f))
    state = dialogue.replay(initial_state(parse_formula("(q | q) -> q")), [
        Move("O", "attack", 0, said("q | q")),
        Move("P", "attack", 1, RequestPayload("?")),
    ])
    assert legal_moves(state) == [Move("O", "defend", 2, said("q"))]


def test_move_orders_that_reach_the_same_records_share_a_position():
    # P asks for each conjunct of O's concession, in either order; O answers
    said = lambda f: AssertPayload((), parse_formula(f))
    start = apply_move(
        initial_state(parse_formula("(p & q) -> (q & p)")),
        Move("O", "attack", 0, said("p & q")),
    )
    left, right = RequestPayload("?_L"), RequestPayload("?_R")
    a = dialogue.replay(start, [
        Move("P", "attack", 1, left), Move("O", "defend", 2, said("p")),
        Move("P", "attack", 1, right), Move("O", "defend", 4, said("q")),
    ])
    b = dialogue.replay(start, [
        Move("P", "attack", 1, right), Move("O", "defend", 2, said("q")),
        Move("P", "attack", 1, left), Move("O", "defend", 4, said("p")),
    ])
    assert a.moves != b.moves and a != b
    assert type(a.records) is int
    assert a.records == b.records
    assert a.assertions == b.assertions
    assert a.records != start.records
    # so the search meets b's position in its memo and steps it no more
    search = _Search(dialogue.DEFAULT_SEARCH_BUDGET)
    value = search.win(a)
    positions = search.positions
    assert search.win(b) is value and search.positions == positions


class TestTranscript:
    def test_example_table_layout(self):
        data = load_play(PLAYS_DIR / "introspection-absolute.json")
        state = replay_script(data)
        text = render_transcript(state.moves, winner="P")
        lines = text.splitlines()
        assert "O" in lines[0] and "P" in lines[0]
        assert "1: K{i,1.1} a -> K{i,1.1} K{i,1.1} a" in text
        assert "?_K{i}/1i.1i.1" in text
        assert text.endswith("P wins the play")
        # nine moves pair into five rows: thesis plus four attack rows
        body = [l for l in lines[2:] if l.strip() and "wins" not in l]
        assert len(body) == 5

    def test_single_move_play(self):
        state = initial_state(Atom("p"))
        text = render_transcript(state.moves)
        assert "(0)" in text and "1: p" in text

    def test_deferred_defence_sits_on_attack_row(self):
        data = load_play(PLAYS_DIR / "factivity-11.json")
        state = replay_script(data)
        text = render_transcript(state.moves)
        row = next(l for l in text.splitlines() if l.startswith("(9)"))
        assert "(20)" in row


# sha256 over render_transcript of every recorded play, then of the
# refutation of each of _game_theses() that O wins, byte for byte.
TRANSCRIPT_SHA256 = "e8ba1b53a48efad9a11b9f6df9987da8693866505c94213937a80884ca0b3d08"


def test_transcripts_are_pinned():
    digest = hashlib.sha256()
    for path in PLAY_FILES:
        text = render_transcript(replay_script(load_play(path)).moves)
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


def _searched_and_replayed_positions(check=lambda state: None, games=()):
    """Every position the SUITE_ROWS searches step and the recorded plays
    pass through, and those the searches of ``games``, (thesis, env) pairs,
    step, each handed to ``check`` when it is reached, before the search or
    the play moves on from it."""
    visited = []

    def reach(state):
        check(state)
        visited.append(state)

    class Recording(_Search):
        def _value(self, state):
            reach(state)
            return super()._value(state)

    searches = [(parse_formula(row.formula), None) for row in SUITE_ROWS]
    for thesis, env in searches + list(games):
        Recording(dialogue.DEFAULT_SEARCH_BUDGET).win(initial_state(thesis, env))
    for path in PLAY_FILES:
        data = load_play(path)
        thesis = parse_formula(data["thesis"], data.get("default_variant"))
        state = initial_state(thesis, ContextEnv.from_json(data.get("env", {})))
        reach(state)
        for move_data in data["moves"]:
            state = apply_move(state, move_from_json(move_data))
            reach(state)
    return visited


def _assert_tables_match_the_particle_rules(state):
    """Each of the mover's open targets has the move table that the
    reference works out afresh from the particle rules, found through the
    target's bit as a listing finds it. Returns the tables by (kind,
    target)."""
    tables = {}
    for kind, targets in zip(("attack", "defend"), state.open_targets[0]):
        for target, _, bit in targets:
            table = [tuple(o) for o in dialogue._move_table(state, kind, target, bit)]
            assert table == _reference_table(state, kind, target)
            tables[kind, target] = table
    return tables


def _assert_steps_agree_with_apply_move(state):
    """The search steps each legal move with the option that the listing
    found for it in its target's move table; that gives what apply_move
    gives, on all seven fields, the assertions and open_targets ledgers
    included. Each option is one of its target's table, which is the one
    worked out afresh from the particle rules, and makes its move's record.
    Returns the tables by (kind, target)."""
    tables = _assert_tables_match_the_particle_rules(state)
    for move, option in dialogue._candidates(state):
        of_move = _assertion_of_move if move.kind == "attack" else _attack_record_of_move
        target = of_move(state, move.target)
        assert tuple(option) in tables[move.kind, target]
        assert option.record == (move.actor, target, move.payload)
        assert tuple(dialogue._step(state, move, option)) == tuple(
            apply_move(state, move)
        )
    return tables


# a compound context and a single-literal one
_BOUND = ContextEnv.from_json({"ci": "p & ~q", "cj": "q"})
# games where O concedes a compound context, which P may attack, and a
# single-literal one, which nobody may
_CONCEDED_CONTEXTS = [
    (parse_formula(thesis), _BOUND)
    for thesis in ("(p)^ci", "(~q)^ci -> (q)^cj", "(K{i,1.1} p)^ci -> (p)^ci")
]


def test_the_search_steps_each_move_as_apply_move_does():
    # also under bound contexts: there an atom may be a compound context,
    # which has attacks, and P's grant masks hold granted literals
    seen = set()

    def check(state):
        tables = _assert_steps_agree_with_apply_move(state)
        for (kind, target), table in tables.items():
            if kind == "attack" and isinstance(target[2], Atom) and table:
                seen.add("an attack on a compound context")
            # a grant mask of two bits or more: the atom as O's statement,
            # and a context O may state whose body grants it
            if any(grant & (grant - 1) for *_, grant in table):
                seen.add("a granted literal")

    bound = [(parse_formula(row.formula), _BOUND) for row in SUITE_ROWS]
    visited = _searched_and_replayed_positions(check, _CONCEDED_CONTEXTS + bound)
    assert len(visited) > 10000
    assert seen == {"an attack on a compound context", "a granted literal"}


def test_attackable_reads_the_particle_table():
    # _attackable answers without building a particle table; at every
    # assertion of every position reached, its answer is the table's
    answers = {}

    def check(state):
        rules = state.rules
        for i in range(len(state.moves)):
            assertion = _assertion_of_move(state, i)
            if assertion is None or (id(rules), assertion) in answers:
                continue
            _, world, f = assertion
            expected = isinstance(f, Know) or bool(
                dialogue._particle_table(rules, world, f)
            )
            assert dialogue._attackable(rules, assertion) is expected, assertion
            answers[id(rules), assertion] = (type(f), expected)

    visited = _searched_and_replayed_positions(check, _CONCEDED_CONTEXTS)
    assert len(visited) > 1000
    # atoms both ways, a compound context among the attackable ones
    assert {(Atom, True), (Atom, False), (Know, True), (Imp, True)} <= set(
        answers.values()
    )


# no binding, compound and one-literal bodies, constant and negative ones,
# and a body literal that is a context name, which for_formula refuses
_FOUR_ENVS = [
    {},
    {"ci": "p & ~q", "cj": "q"},
    {"ci": "true", "cj": "~p"},
    {"ci": "cj & p", "cj": "false"},
]


def _env_for(env, f):
    """``env.for_formula(f)``'s bindings, or the error it raises."""
    try:
        return env.for_formula(f).to_json()
    except ValueError as exc:  # compared by type and message
        return type(exc), str(exc)


def test_a_thesis_and_its_game_form_fix_the_same_env_and_world_cap():
    # initial_state reads both off the thesis, not off its game form
    envs = [ContextEnv.from_json(bindings) for bindings in _FOUR_ENVS]
    theses = [parse_formula(row.formula) for row in SUITE_ROWS]
    theses += cross_semantics_corpus() + hygiene_corpus()
    errors = changed = 0
    for thesis in theses:
        form = game_form(thesis)
        changed += form is not thesis
        assert formula_info(form).modal_depth == formula_info(thesis).modal_depth
        for env in envs:
            bindings = _env_for(env, thesis)
            assert _env_for(env, form) == bindings, render_formula(thesis)
            errors += type(bindings) is tuple
    # the game form differs on many theses, and some envs raise
    assert changed > 100 and errors > 0


def test_world_table_matches_a_fresh_computation():
    # At every position the SUITE_ROWS searches and the recorded plays visit,
    # the Know attacks and Poss defences are those the reference works out
    # afresh from the position; and so is every move table the game keeps
    # for them, by target and introduced worlds.
    visited = _searched_and_replayed_positions()
    games = {}
    for state in visited:
        games[id(state.rules)] = state
        for actor in (dialogue.P, dialogue.O):
            for move in state.moves:
                if not isinstance(move.payload, AssertPayload):
                    continue
                world, f = move.payload
                if isinstance(f, (Know, Poss)):
                    expected = _reference_world_payloads(state, actor, f, world)
                    assert list(dialogue._world_payloads(state, actor, f, world)) == expected
    tables = 0
    for state in games.values():
        for key, table in state.rules.move_tables.items():
            if type(key) is not tuple:
                continue
            length, introduced = key  # of the target's bit
            actor, target, _ = table[0].record
            assertion = target if isinstance(target[2], Know) else target[1]
            _, world, f = assertion
            at = state._replace(introduced=introduced)
            assert type(table) is tuple
            assert {o.target_bit for o in table} == {_bit(state, target)}
            assert _bit(state, target).bit_length() == length
            expected = _reference_world_payloads(at, actor, f, world)
            assert [o.payload for o in table] == expected
            tables += 1
    assert len(visited) > 1000 and tables > 80


def test_a_game_builds_each_move_table_once(monkeypatch):
    # One pass over SUITE_ROWS. A game builds the move table of a target the
    # first time a listing walks it, and finds it through the target's bit
    # at every later listing; a Know's attacks and a Poss's defences, once
    # per set of introduced worlds. So the builds are exactly the distinct
    # targets walked, and a listing that bypassed the game's tables would
    # build some twice. A particle table is built only at its assertion's
    # first attack or listing, so the same pass builds 160 of them.
    dialogue._KEPT.clear()
    games, built, walked, particle_tables = [], {}, set(), []

    def table_key(state, kind, target, bit):
        f = (target if kind == "attack" else target[1])[2]
        grows = isinstance(f, Know if kind == "attack" else Poss)
        return (id(state.rules), bit, state.introduced if grows else None)

    def candidates(state, original=dialogue._candidates):
        games.append(state.rules)  # alive, so that no two games share an id
        for kind, targets in zip(("attack", "defend"), state.open_targets[0]):
            for target, _, bit in targets:
                walked.add(table_key(state, kind, target, bit))
        return original(state)

    def move_table(state, kind, target, bit, original=dialogue._move_table):
        table = original(state, kind, target, bit)
        if id(table) not in built:  # each table is kept, so its id is its own
            built[id(table)] = (table, table_key(state, kind, target, bit))
        return table

    def particle_table(rules, world, f, original=dialogue._particle_table):
        particle_tables.append((id(rules), world, f))
        return original(rules, world, f)

    monkeypatch.setattr(dialogue, "_candidates", candidates)
    monkeypatch.setattr(dialogue, "_move_table", move_table)
    monkeypatch.setattr(dialogue, "_particle_table", particle_table)
    for row in SUITE_ROWS:
        has_winning_strategy(parse_formula(row.formula))
    keys = [key for _, key in built.values()]
    assert len(set(keys)) == len(keys)
    assert set(keys) == walked
    assert len(keys) == 600
    assert len(set(particle_tables)) == len(particle_tables) == 160


# The SUITE_ROWS games under _BOUND whose strategy unfolds past 50,000
# nodes: the first two past any memory (ROADMAP item 32), the third to
# 85,573 nodes, 23 MB of JSON in 3 s. Each is won by P, and is checked by
# what `celogic dialogue` prints in text and by its verdict and positions.
_UNFOLDS_PAST_50000 = {
    "(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj",
    "((K{j,1.1} p & K{j,1.1} (p -> q)) -> K{j,1.1} q)^ci",
    "(K{j,1.1} p)^ci <-> (ci -> K{j,1.1} (p)^ci)",
}


def _played(thesis, env=None, **kwargs):
    """A game's result, and its strategy as JSON text."""
    result = has_winning_strategy(thesis, env, **kwargs)
    return result, json.dumps(result.strategy)


class TestKeptTables:
    """A game that ends leaves its numbering and move tables for the next
    game of its thesis and env (``dialogue._KEPT``), which starts from
    copies of them and still searches every position."""

    @pytest.fixture(autouse=True)
    def cold(self):
        dialogue._KEPT.clear()

    @pytest.mark.parametrize("bindings", [None, _BOUND.to_json()], ids=["none", "bound"])
    def test_a_warm_game_prints_what_a_cold_one_does(
        self, bindings, capsys, monkeypatch, tmp_path
    ):
        # Each row is played with the memo cleared, then again: the second
        # game prints the same document byte for byte, searches as many
        # positions, and builds no move table and no particle table.
        argv = []
        if bindings is not None:
            path = tmp_path / "env.json"
            path.write_text(json.dumps(bindings))
            argv = ["--env", str(path)]
        results, built, particle_tables = [], {}, []

        def search(*args, original=dialogue.has_winning_strategy, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        def move_table(state, kind, target, bit, original=dialogue._move_table):
            table = original(state, kind, target, bit)
            built[id(table)] = table  # held, so that no two tables share an id
            return table

        def particle_table(rules, world, f, original=dialogue._particle_table):
            particle_tables.append((world, f))
            return original(rules, world, f)

        monkeypatch.setattr(dialogue, "has_winning_strategy", search)
        monkeypatch.setattr(dialogue, "_move_table", move_table)
        monkeypatch.setattr(dialogue, "_particle_table", particle_table)
        unfolds = set()
        for row in SUITE_ROWS:
            text = bindings is not None and row.formula in _UNFOLDS_PAST_50000
            if text:
                unfolds.add(row.formula)
            command = ["--format", "text" if text else "json", "dialogue"]
            dialogue._KEPT.clear()
            outputs = []
            for _ in ("cold", "warm"):
                counts = len(built), len(particle_tables)
                code = main([*command, *argv, row.formula])
                outputs.append((code, capsys.readouterr(), results[-1]))
            assert outputs[1] == outputs[0], row.formula
            assert (len(built), len(particle_tables)) == counts, row.formula
        assert unfolds == (_UNFOLDS_PAST_50000 if bindings else set())
        assert len(built) > 100 and len(particle_tables) > 100
        assert len(dialogue._KEPT) == 1

    def test_a_game_after_a_budget_stop_is_the_cold_game(self):
        thesis = parse_formula("(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj")
        cold = _played(thesis)
        assert cold[0].positions > 20
        dialogue._KEPT.clear()
        with pytest.raises(BudgetExhaustedError):
            has_winning_strategy(thesis, budget=20)
        assert len(dialogue._KEPT) == 0  # a stopped game leaves nothing
        assert _played(thesis) == cold
        assert len(dialogue._KEPT) == 1
        assert _played(thesis) == cold

    def test_one_thesis_under_two_envs_is_two_entries(self):
        # the memo is keyed by the thesis and its bindings: a compound ci
        # is attacked and granted, an unbound one is a stand-in
        thesis = parse_formula("(p)^ci")
        envs = [ContextEnv.from_json({"ci": "p & q"}), None]
        cold = []
        for env in envs:
            dialogue._KEPT.clear()
            cold.append(_played(thesis, env))
        assert cold[0][0].verdict is True and cold[1][0].verdict is False
        for order in (0, 1), (1, 0):
            dialogue._KEPT.clear()
            for i in order:
                assert _played(thesis, envs[i]) == cold[i]
            assert len(dialogue._KEPT) == 2
            for i in order:
                assert _played(thesis, envs[i]) == cold[i]

    def test_threads_playing_one_thesis_keep_one_numbering(self):
        # Four games of one thesis at once, cold and then warm: each gives
        # the one-thread result, the pair is kept once, with a bit of its
        # own for each key, and no warm game writes into what is kept.
        thesis = parse_formula("(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj")
        cold = _played(thesis, _BOUND)
        assert cold[0].positions > 400

        def play(start, out):
            start.wait(timeout=30)
            out.append(_played(thesis, _BOUND))

        def play_at_once():
            results = [[] for _ in range(4)]
            start = threading.Barrier(len(results))
            threads = [threading.Thread(target=play, args=(start, out)) for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [[cold]] * len(results)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                dialogue._KEPT.clear()
                play_at_once()
                [(_, _, bits, move_tables)] = dialogue._KEPT.values()
                assert sorted(bits.values()) == [1 << n for n in range(len(bits))]
                assert dialogue._KEPT.numbered == len(bits)
                kept = dict(bits), dict(move_tables)
                play_at_once()
                assert [*dialogue._KEPT.values()][0][2:] == kept
        finally:
            sys.setswitchinterval(interval)

    def test_a_warm_game_numbers_into_a_copy(self):
        # A key that a warm game meets first gets the next bit of the
        # game's own numbering; what the first game left is not changed,
        # and the next game starts from it.
        thesis = parse_formula("(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj")
        cold = _played(thesis)
        [(_, _, bits, move_tables)] = dialogue._KEPT.values()
        kept = dict(bits), dict(move_tables)
        warm = has_winning_strategy(thesis)
        numbering = warm._root.rules.bits
        assert numbering == bits and numbering is not bits
        assert numbering[("O", (), Atom("unmet"))] == 1 << len(bits)
        assert [*dialogue._KEPT.values()][0][2:] == kept
        assert _played(thesis) == cold

    def test_the_memo_keeps_at_most_its_bound_of_pairs(self):
        theses = [parse_formula(f"p{n} -> p{n}") for n in range(dialogue.MEMO_SIZE + 20)]
        for thesis in theses:
            assert has_winning_strategy(thesis).verdict is True
            assert len(dialogue._KEPT) <= dialogue.MEMO_SIZE
        assert len(dialogue._KEPT) == dialogue.MEMO_SIZE
        # the pairs kept first were dropped first
        assert [pair[0] for pair in dialogue._KEPT] == theses[20:]

    def test_the_memo_keeps_at_most_its_bound_of_keys(self, monkeypatch):
        monkeypatch.setattr(dialogue, "KEPT_KEYS", 40)
        theses = [parse_formula(f"p{n} -> p{n}") for n in range(20)]
        for thesis in theses:
            has_winning_strategy(thesis)
            sizes = [len(bits) for _, _, bits, _ in dialogue._KEPT.values()]
            assert dialogue._KEPT.numbered == sum(sizes) <= 40
        assert 1 < len(dialogue._KEPT) < 20
        assert [pair[0] for pair in dialogue._KEPT] == theses[-len(dialogue._KEPT):]
        # a game that numbers more keys than the bound is not kept, and
        # drops none of the pairs kept before it
        before = [*dialogue._KEPT]
        long = parse_formula("~~~~~~~~~~p -> ~~~~~~~~~~p")
        has_winning_strategy(long)
        assert [*dialogue._KEPT] == before

    def test_a_long_thesis_does_not_stay_resident(self):
        # ~x1100 p -> ~x1100 p numbers more keys than KEPT_KEYS: its tables,
        # MBs of them, are freed with its game, and the memo keeps nothing.
        # What the thesis keeps on its own nodes is made before measuring.
        side = "~" * 1100 + "p"
        thesis = parse_formula(f"{side} -> {side}")
        initial_state(thesis)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = has_winning_strategy(thesis)
            assert result.verdict is True
            assert len(result._root.rules.bits) > dialogue.KEPT_KEYS
            held = tracemalloc.get_traced_memory()[0] - before
            del result
            gc.collect()  # which also empties the free lists of freed tuples
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(dialogue._KEPT) == 0 and dialogue._KEPT.numbered == 0
        assert held > 2_000_000 and left < 100_000


def _reference_world_payloads(state, actor, f, world):
    """A Know's attacks, one ?_K request per world, or a Poss's defences,
    its body at each world."""
    worlds = _reference_world_options(state, actor, f.agent, world)
    if isinstance(f, Know):
        return [RequestPayload("?_K", f.agent, w) for w in worlds]
    return [AssertPayload(w, f.body) for w in worlds]


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
            # each distinct disjunct once: X | X is defended once
            return [AssertPayload(world, g) for g in dict.fromkeys((l, r))]
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


def _reference_payload_key(p):
    if isinstance(p, AssertPayload):
        return (0, render_label(p.label), render_formula(p.formula))
    return (1, p.kind, p.agent or "", render_label(p.label or ()))


def _reference_sort_key(move):
    return (move.kind, move.target, _reference_payload_key(move.payload))


def _reference_table(state, kind, target):
    """The target's move table worked out afresh, as tuples of the option
    fields: the payloads the reference particle rules give the player who
    does not own the target, in payload order, each with what its move adds
    to a position and what P's making it asks, every key's bit read from
    the game's numbering."""
    actor, other = ("O", "P") if target[0] == "P" else ("P", "O")
    if kind == "attack":
        payloads = _reference_attack_payloads(state, actor, target)
        grows = isinstance(target[2], Know)
    else:
        payloads = _reference_defence_payloads(state, actor, target)
        grows = isinstance(target[1][2], Poss)
    payloads = sorted(payloads, key=_reference_payload_key)
    records = [(actor, target, payload) for payload in payloads]
    # P uses a target up with every move on it, unless its moves grow with
    # the worlds; O with any one
    if actor == "O":
        uses_up = 0
    else:
        uses_up = -1 if grows else _mask(state, records)
    bindings = state.rules.env.bindings
    table = []
    for payload, record in zip(payloads, records):
        answerable = kind == "attack" and bool(
            _reference_defence_payloads(state, other, record)
        )
        said, said_bit, attackable, forbid, grant = None, 0, False, 0, 0
        if isinstance(payload, AssertPayload):
            world, f = payload
            said = (actor, world, f)
            said_bit = _bit(state, said)
            attackable = bool(_reference_attack_payloads(state, other, said))
            if actor == "P" and not isinstance(f, Atom):
                forbid = said_bit  # P may not restate it
            elif actor == "P":
                # a context name O has stated there; an atom O has stated
                # there, or granted by stating a context that has it
                grants = {("O", world, f)}
                if f.name not in bindings:
                    grants |= {
                        ("O", world, Atom(name))
                        for name, body in bindings.items()
                        if (f.name, True) in body.literals
                    }
                grant = _mask(state, grants)
        label = payload.label
        fresh = label if label is not None and label not in state.introduced else None
        table.append((
            payload, record, _bit(state, record), _bit(state, target), uses_up,
            answerable, said, said_bit, attackable, fresh, forbid, grant,
        ))
    return table


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
