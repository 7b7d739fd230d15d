import copy
import gc
import hashlib
import json
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys
import threading
import weakref
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celogic.syntax import (
    And,
    Atom,
    BOT,
    ContextFormula,
    FormulaSyntaxError,
    Iff,
    Imp,
    Know,
    Not,
    Or,
    Poss,
    Rel,
    TOP,
    Formula,
    UntaggedOperatorError,
    fold,
    formula_info,
    make_context,
    node_count,
    parse_context,
    parse_formula,
    render_context,
    render_formula,
    subformulas,
)

import celogic
from celogic import cli, dialogue, syntax
from celogic.epistemology import PRESETS, SUITE_ROWS, apply_preset
from celogic.reduction import reduce_full, reduce_result

from corpus import cross_semantics_corpus, hygiene_corpus, random_formula


class TestParseFormula:
    def test_introspection_thesis(self):
        f = parse_formula("K{i,1.1} a -> K{i,1.1} K{i,1.1} a")
        a = Atom("a")
        assert f == Imp(
            Know("i", "1.1", a), Know("i", "1.1", Know("i", "1.1", a))
        )

    def test_bare_atom(self):
        assert parse_formula("p") == Atom("p")

    def test_relativized_thesis(self):
        f = parse_formula("(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj")
        a = Atom("a")
        assert f == Imp(
            Rel(Know("i", "2.2", a), "ci"),
            Rel(Know("i", "2.2", Know("i", "2.2", a)), "cj"),
        )

    def test_precedence(self):
        f = parse_formula("~p & q | r -> s <-> t")
        assert f == Iff(
            Imp(Or(And(Not(Atom("p")), Atom("q")), Atom("r")), Atom("s")),
            Atom("t"),
        )

    def test_imp_right_associative(self):
        assert parse_formula("a -> b -> c") == Imp(
            Atom("a"), Imp(Atom("b"), Atom("c"))
        )

    def test_rel_chain(self):
        assert parse_formula("((p)^ck)^ci") == Rel(Rel(Atom("p"), "ck"), "ci")
        assert parse_formula("(p)^ck^ci") == Rel(Rel(Atom("p"), "ck"), "ci")

    def test_unicode_spellings(self):
        assert parse_formula("¬p ∧ q") == And(Not(Atom("p")), Atom("q"))
        assert parse_formula("p ∨ q → r ↔ s") == parse_formula("p | q -> r <-> s")

    def test_untagged_operator(self):
        assert parse_formula("K{i} a") == Know("i", None, Atom("a"))
        assert parse_formula("K{i} a", default_variant="1.2") == Know(
            "i", "1.2", Atom("a")
        )

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("p & ")
        assert err.value.position == 4

    def test_unknown_variant(self):
        with pytest.raises(FormulaSyntaxError, match="unknown variant"):
            parse_formula("K{i,3.1} a")
        # a bad default is the caller's error, not the text's
        with pytest.raises(ValueError, match="unknown default variant '3.3'") as err:
            parse_formula("p", "3.3")
        assert not isinstance(err.value, FormulaSyntaxError)

    def test_dangling_relativization(self):
        with pytest.raises(FormulaSyntaxError, match="relativization"):
            parse_formula("^ci")

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("   ")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError, match="trailing"):
            parse_formula("p q")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("p &", "expected a formula", 3),
            ("p -> )", "expected a formula", 5),
            ("(p", "expected ')'", 2),
            ("p q", "unexpected trailing input 'q'", 2),
            ("^ci", "relativization applied to nothing (use '(...)^name')", 0),
            ("K{i,3.1} p", "unknown variant tag '3.1'", 4),
            ("K i p", "expected '{' after modal operator", 2),
            ("p $ q", "unexpected character '$'", 2),
        ],
    )
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_deep_parentheses(self):
        depth = 250
        text = "(" * depth + "p" + ")" * depth
        assert sys.getrecursionlimit() == 1000
        assert parse_formula(text) is Atom("p")

    @pytest.mark.parametrize(
        "opening, closing, wrap",
        [
            ("(", ")", lambda f: f),
            ("~(p -> ", ")^ci", lambda f: Not(Rel(Imp(Atom("p"), f), "ci"))),
            ("(p | (", ") & q)", lambda f: Or(Atom("p"), And(f, Atom("q")))),
            ("K{i,1.1} (", " <-> p)", lambda f: Know("i", "1.1", Iff(f, Atom("p")))),
        ],
        ids=["bare", "prefixed", "precedence", "modal"],
    )
    def test_deep_parentheses_are_kept_on_a_stack(self, monkeypatch, opening, closing, wrap):
        # the parser keeps each open parenthesis on its own stack; it never
        # needs a higher recursion limit
        def refuse(limit):
            raise AssertionError(f"the recursion limit was set to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        depth = 5000
        expected = Atom("q")
        for _ in range(depth):
            expected = wrap(expected)
        f = parse_formula(opening * depth + "q" + closing * depth)
        assert f is expected
        assert parse_formula(render_formula(f)) is f

    @pytest.mark.parametrize(
        "text, n, wrap",
        [
            ("~" * 5000 + "p", 5000, Not),
            (
                "K{i,1.2} P{j} " * 2500 + "p",
                2500,
                lambda f: Know("i", "1.2", Poss("j", None, f)),
            ),
            (" -> ".join(["p"] * 5000), 4999, lambda f: Imp(Atom("p"), f)),
            (" & ".join(["p"] * 5000), 4999, lambda f: And(f, Atom("p"))),
        ],
        ids=["negations", "modal", "implications", "conjunctions"],
    )
    def test_deep_prefixes_and_runs(self, text, n, wrap):
        # prefix operators and runs of one connective are read in loops
        assert sys.getrecursionlimit() == 1000
        expected = Atom("p")
        for _ in range(n):
            expected = wrap(expected)
        f = parse_formula(text)
        assert f is expected
        assert render_formula(f) == text


def _context_models(atoms):
    """All truth assignments over the atoms."""
    atoms = sorted(atoms)
    for mask in range(1 << len(atoms)):
        yield {a: bool(mask >> i & 1) for i, a in enumerate(atoms)}


def _eval_literals(literals, row):
    return all(row[a] == positive for a, positive in literals)


class TestParseContext:
    def test_two_literals(self):
        assert parse_context("p & ~q") == ContextFormula((("p", True), ("q", False)))

    def test_top(self):
        assert parse_context("true") is not None
        assert parse_context("true").is_top
        assert parse_context("⊤").is_top

    def test_contradiction_collapses(self):
        # oracle: the literal set is unsatisfiable over its atoms
        literals = (("p", True), ("p", False))
        assert all(
            not _eval_literals(literals, row) for row in _context_models({"p"})
        )
        assert parse_context("p & ~p").is_bot

    def test_duplicates_removed(self):
        assert parse_context("p & p & ~q") == parse_context("~q & p")

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_context("  ")
        assert str(err.value) == "empty input (at position 0)"

    @pytest.mark.parametrize(
        "text", ["p | q", "(p)", "K{i,1.1} p", "p -> q", "true & p", "~~p"]
    )
    def test_rejects_non_literal_structure(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_context(text)

    @pytest.mark.parametrize(
        "text, position",
        [("p | q", 2), ("(p)", 0), ("true & p", 5), ("~~p", 1), ("p &", 3), ("~true", 1)],
    )
    def test_error_message_and_position(self, text, position):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_context(text)
        assert str(err.value) == (
            "context bodies are conjunctions of literals (or true/false)"
            f" (at position {position})"
        )
        assert err.value.position == position

    def test_render_round_trip(self):
        for text in ["true", "false", "p & ~q", "a1 & b & ~z9"]:
            cf = parse_context(text)
            assert parse_context(render_context(cf)) == cf

    def test_make_context_canonical_oracle(self):
        # any literal list is equivalent to its canonical form on all rows
        rng = random.Random(5)
        atoms = ["p", "q", "r"]
        for _ in range(200):
            lits = [
                (rng.choice(atoms), rng.choice([True, False]))
                for _ in range(rng.randint(1, 5))
            ]
            cf = make_context(lits)
            for row in _context_models(atoms):
                raw = _eval_literals(lits, row)
                if cf.is_bot:
                    assert not raw
                elif cf.is_top:
                    assert raw
                else:
                    assert raw == _eval_literals(cf.literals, row)


class TestRender:
    def test_single_operator(self):
        assert render_formula(Know("i", "1.1", Atom("a"))) == "K{i,1.1} a"

    def test_single_relativization(self):
        assert render_formula(Rel(Atom("p"), "ci")) == "(p)^ci"

    def test_minimal_parens(self):
        f = parse_formula("(a -> b) -> c")
        assert render_formula(f) == "(a -> b) -> c"
        g = parse_formula("a & (b & c)")
        assert render_formula(g) == "a & (b & c)"

    def test_round_trip_seeded(self):
        rng = random.Random(123)
        for _ in range(1000):
            f = random_formula(rng, 5)
            assert parse_formula(render_formula(f)) == f

    def test_round_trip_untagged(self):
        f = Know("i", None, Or(Atom("p"), Atom("q")))
        assert parse_formula(render_formula(f)) == f


@st.composite
def formulas(draw, max_depth=4):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_formula(random.Random(seed), depth)


@given(formulas())
@settings(max_examples=300, deadline=None)
def test_parse_render_round_trip_property(f):
    assert parse_formula(render_formula(f)) == f


def _preorder(f: Formula) -> list[Formula]:
    """Reference preorder by plain recursion."""
    match f:
        case Not(body) | Know(_, _, body) | Poss(_, _, body) | Rel(body, _):
            return [f] + _preorder(body)
        case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
            return [f] + _preorder(l) + _preorder(r)
    return [f]


class TestSubformulas:
    def test_preorder_on_the_hygiene_corpus(self):
        for f in hygiene_corpus():
            assert list(subformulas(f)) == _preorder(f)

    def test_deep_input(self):
        f = Atom("p")
        for _ in range(5000):
            f = Not(f)
        assert node_count(f) == 5001


class TestFold:
    def test_each_distinct_node_is_stepped_once(self):
        x = Atom("p")
        for _ in range(40):
            x = And(x, x)
        stepped = []  # ids: a failure must not print the DAG, 2**41 nodes

        def size(g):
            assert id(g) not in stepped  # fails at once, not after 2**41 steps
            stepped.append(id(g))
            return 1 + sum((yield g.children()))

        assert fold(x, size) == 2**41 - 1
        assert len(stepped) == 41

    @pytest.mark.parametrize("value", [None, 0, False, ()], ids=repr)
    def test_a_falsy_value_is_stepped_once(self, value):
        # each child of And(p, p) is needed twice; the second read of p finds
        # its falsy value in the memo and does not step p again
        p = Atom("p")
        stepped = []

        def step(g):
            stepped.append(g)
            if g is p:
                return value
            return (yield g.children())

        memo = {}
        assert fold(And(p, p), step, memo) == (value, value)
        assert stepped == [And(p, p), p]
        assert memo[p] is value

    def test_a_step_may_ask_for_a_node_outside_the_formula(self):
        p, q = Atom("p"), Atom("q")
        expansion = And(Imp(p, q), Imp(q, p))

        def expand(g):
            if isinstance(g, Iff):
                return (yield And(Imp(g.left, g.right), Imp(g.right, g.left)))
            return g.rebuild(*(yield g.children()))

        f = Not(Iff(p, q))
        assert fold(f, expand) is Not(expansion)
        assert expansion not in set(subformulas(f))

    def test_an_exception_in_a_step_reaches_the_caller(self):
        raised = []

        def step(g):
            if g is Atom("q"):
                raised.append(LookupError("no value for q"))
                raise raised[-1]
            return len((yield g.children()))

        f = Not(And(Atom("p"), Atom("q")))
        for calls in (1, 2):
            with pytest.raises(LookupError) as err:
                fold(f, step)
            assert len(raised) == calls
            assert err.value is raised[-1]
        assert str(raised[0]) == str(raised[1])

    def test_a_passed_memo_is_read_and_filled(self):
        f = And(Not(Atom("p")), Atom("q"))
        stepped = []

        def size(g):
            stepped.append(g)
            return 1 + sum((yield g.children()))

        memo = {Not(Atom("p")): 10}
        assert fold(f, size, memo) == 12
        assert stepped == [f, Atom("q")]
        assert memo[f] == 12 and memo[Atom("q")] == 1
        stepped.clear()
        assert fold(f, size, memo) == 12
        assert fold(Atom("q"), size, memo) == 1
        assert stepped == []

    def test_values_are_filed_under_the_key(self):
        f = Or(Atom("p"), Not(Atom("p")))
        memo = {}

        def atoms(g):
            if isinstance(g, Atom):
                return {g.name}
            return set().union(*(yield g.children()))

        assert fold(f, atoms, memo, render_formula) == {"p"}
        assert {"p | ~p", "p", "~p"} <= set(memo)
        assert memo["~p"] == {"p"} and f not in memo

    def test_only_an_exact_tuple_is_a_batch(self):
        # A tuple subclass, such as a game state, is stepped as one node.
        class Pair(NamedTuple):
            left: str
            right: str

        def step(g):
            if isinstance(g, Pair):
                return ("pair", *g)
            if g != "root":
                return g.upper()
            batch = yield (Pair("a", "b"), "c")
            single = yield Pair("d", "e")
            return batch, single

        for key in (None, repr):
            assert fold("root", step, key=key) == (
                (("pair", "a", "b"), "C"),
                ("pair", "d", "e"),
            )

    def test_deep_input_at_the_default_limit(self):
        assert sys.getrecursionlimit() == 1000
        f = Rel(_chain(5000), "ci")

        def depth(g):
            return 1 + max((yield g.children()), default=0)

        assert fold(f, depth) == 5002


def _modal_depth(f: Formula) -> int:
    """Reference modal depth by plain recursion."""
    match f:
        case Know(_, _, body) | Poss(_, _, body):
            return 1 + _modal_depth(body)
        case Not(body) | Rel(body, _):
            return _modal_depth(body)
        case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
            return max(_modal_depth(l), _modal_depth(r))
    return 0


class TestFormulaInfo:
    def test_modal_depth_matches_recursion_on_the_corpora(self):
        for f in hygiene_corpus() + cross_semantics_corpus():
            assert formula_info(f).modal_depth == _modal_depth(f)

    def test_deep_knowledge_chain(self):
        f = Atom("p")
        for _ in range(5000):
            f = Know("i", "1.1", f)
        assert formula_info(f).modal_depth == 5000

    def test_atom(self):
        info = formula_info(Atom("p"))
        assert info.is_el and info.modal_depth == 0

    def test_two_agent_thesis(self):
        f = parse_formula("K{i,1.1} K{j,1.1} a -> (K{i,1.1} a & K{j,1.1} a)")
        info = formula_info(f)
        assert info.agents == {"i", "j"}
        assert info.modal_depth == 2
        assert info.is_el

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_shared_subtrees_are_walked_as_a_dag(self, depth):
        from celogic.dialogue import game_form

        for f in (iff_chain(depth), game_form(iff_chain(depth))):
            info = formula_info(f)
            atoms, agents, contexts, modal_depth = reference_formula_info(f)
            assert (info.atoms, info.agents, info.contexts) == (atoms, agents, contexts)
            assert info.modal_depth == modal_depth
            assert info.is_el == (not contexts)

    def test_contexts_are_syntactic(self):
        f = Rel(Know("k", "2.2", Atom("p")), "ci")
        info = formula_info(f)
        assert not info.is_el
        assert info.contexts == {"ci"}
        # the agent's own context only enters at rewrite time
        from celogic.reduction import needed_context_names

        assert "ck" in needed_context_names(f)


def reference_formula_info(f: Formula) -> tuple:
    """(atoms, agents, contexts, modal depth) of f, by a fold that steps
    each distinct node once and combines its children's values."""

    def step(g: Formula):
        kids = yield g.children()
        atoms, agents, contexts = (
            frozenset().union(*(kid[n] for kid in kids)) for n in range(3)
        )
        depth = max((kid[3] for kid in kids), default=0)
        match g:
            case Atom(name):
                atoms |= {name}
            case Know(agent, _, _) | Poss(agent, _, _):
                agents, depth = agents | {agent}, depth + 1
            case Rel(_, context):
                contexts |= {context}
        return atoms, agents, contexts, depth

    return fold(f, step)


def iff_chain(depth: int) -> Formula:
    """A left-grouped ``<->`` chain whose links reach the chain below them
    under 0, 1 and 2 modal operators, so one shared node is reached at
    several depths."""
    f = Atom("p")
    for n in range(depth):
        match n % 3:
            case 0:
                f = Iff(f, Atom("q"))
            case 1:
                f = Iff(Know("i", "1.1", f), f)
            case 2:
                f = Iff(f, Poss("j", "1.2", Rel(Know("i", "2.1", f), "ci")))
    return f


def _pinned_corpus() -> list[Formula]:
    suite = [parse_formula(row.formula) for row in SUITE_ROWS]
    return hygiene_corpus() + cross_semantics_corpus() + suite


def _untagged(f: Formula) -> Formula:
    """f with every K/P variant tag dropped."""
    return parse_formula(
        re.sub(r"\{(\w+),[12]\.[12]\}", r"{\1}", render_formula(f))
    )


def _walk_record(f: Formula) -> list:
    u = _untagged(f)
    try:
        dialogue.initial_state(u)
        untagged_error = False
    except UntaggedOperatorError:
        untagged_error = True
    return [
        reduce_full(f).to_json(),
        cli._ast_dump(f),
        cli._ast_json(f),
        render_formula(dialogue.game_form(f)),
        [render_formula(apply_preset(u, p)[0]) for p in PRESETS.values()],
        untagged_error,
    ]


# sha256 over json.dumps(_walk_record(f)) on _pinned_corpus(): the outputs
# of every structural walker (reduction trace, AST dumps, game form, preset
# retagging, the untagged-under-relativization check), byte for byte.
FLAT_STRUCTURAL_WALKS_SHA256 = "4ee6e8c32382d477962e7a12384a4e94cba4f592effe0bd25a04e23d4b129cfb"


def test_structural_walks_are_pinned():
    digest = hashlib.sha256()
    for f in _pinned_corpus():
        digest.update(json.dumps(_walk_record(f)).encode())
    assert digest.hexdigest() == FLAT_STRUCTURAL_WALKS_SHA256


_P, _Q, _R = Atom("p"), Atom("q"), Atom("r")

# one case per node kind: the node, the index of the child to change to r,
# and the node built by hand with that child changed
_REBUILDS = [
    (Not(_P), 0, Not(_R)),
    (And(_P, _Q), 1, And(_P, _R)),
    (Or(_P, _Q), 0, Or(_R, _Q)),
    (Imp(_P, _Q), 1, Imp(_P, _R)),
    (Iff(_P, _Q), 0, Iff(_R, _Q)),
    (Know("i", "1.2", _P), 0, Know("i", "1.2", _R)),
    (Poss("j", "2.1", _P), 0, Poss("j", "2.1", _R)),
    (Rel(_P, "ci"), 0, Rel(_R, "ci")),
]
_KINDS = [type(c[0]).__name__ for c in _REBUILDS]
_EVERY_KIND = pytest.mark.parametrize(
    "node", [_P] + [c[0] for c in _REBUILDS], ids=["Atom"] + _KINDS
)


class TestNodeProtocol:
    @_EVERY_KIND
    def test_rebuild_from_its_own_children_is_the_node(self, node):
        assert node.rebuild(*node.children()) is node

    @pytest.mark.parametrize("node, index, expected", _REBUILDS, ids=_KINDS)
    def test_rebuild_with_one_changed_child(self, node, index, expected):
        kids = list(node.children())
        kids[index] = _R
        new = node.rebuild(*kids)
        assert type(new) is type(node)
        assert new == expected
        assert new.children() == tuple(kids)
        for name in node.__match_args__:
            if not isinstance(getattr(node, name), Formula):
                assert getattr(new, name) == getattr(node, name)

    def test_atom_has_no_children(self):
        assert _P.children() == ()

    def test_every_subtree_of_the_corpora_rebuilds_to_itself(self):
        for f in _pinned_corpus():
            for g in subformulas(f):
                assert g.rebuild(*g.children()) is g


# ---------------------------------------------------------------------------
# Interning: equal formulas are one node


def _rebuilt_from_fields(f: Formula) -> Formula:
    """f built again node by node, from the leaves up, out of its fields."""
    return type(f)(
        *(
            _rebuilt_from_fields(getattr(f, name))
            if isinstance(getattr(f, name), Formula)
            else getattr(f, name)
            for name in f.__match_args__
        )
    )


_PICKLE_TEXT = "(K{i,1.2} (p & q))^ci -> P{j,2.1} ~r <-> (s | t)^ck"

_LOAD_IN_CHILD = """
import pickle, sys
from celogic.syntax import parse_formula
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = parse_formula(sys.argv[1])
print(hash("p"), loaded is fresh, loaded in {fresh}, fresh in {loaded})
"""


def _chain(depth: int) -> Formula:
    """A knowledge-and-negation chain ``depth`` operators deep, built
    bottom-up."""
    f = Atom("p")
    for i in range(depth):
        f = Not(f) if i % 2 else Know("i", "1.1", f)
    return f


class TestInterning:
    def test_every_subtree_rebuilt_from_its_fields_is_itself(self):
        checked = 0
        for f in _pinned_corpus():
            for g in subformulas(f):
                assert _rebuilt_from_fields(g) is g
                checked += 1
        assert checked > 10_000

    def test_copies_and_pickles_are_the_node_itself(self):
        f = parse_formula(_PICKLE_TEXT)
        for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert copied is f
        # equality and hash are identity, kept in no slot and no field
        assert "__eq__" not in vars(type(f)) and "__hash__" not in vars(type(f))
        assert not hasattr(f, "_hash")
        assert repr(f) == repr(_rebuilt_from_fields(f))

    @_EVERY_KIND
    def test_a_node_takes_its_fields_by_position_only(self, node):
        fields = {name: getattr(node, name) for name in node.__match_args__}
        assert type(node)(*fields.values()) is node
        *init, last = node.__match_args__
        with pytest.raises(TypeError):
            type(node)(**fields)
        with pytest.raises(TypeError):
            type(node)(*(fields[n] for n in init), **{last: fields[last]})

    @_EVERY_KIND
    def test_a_field_cannot_be_assigned_or_deleted(self, node):
        values = [getattr(node, name) for name in node.__match_args__]
        for name in (*node.__match_args__, "_normal", "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, _R)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert [getattr(node, name) for name in node.__match_args__] == values

    @_EVERY_KIND
    def test_a_wrong_arity_raises_type_error(self, node):
        cls, names = type(node), node.__match_args__
        values = [getattr(node, name) for name in names]
        fields = dict(zip(names, values))
        for args, kwargs in (
            (values[:-1], {}),  # a field short
            (values + [_R], {}),  # a field too many
            (values, {names[0]: values[0]}),  # a field given twice
            ((), {**fields, "extra": _R}),  # a keyword that names no field
            ((), dict(list(fields.items())[1:])),  # a keyword missing
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_the_table_does_not_grow(self):
        # atoms no other test builds, so every compound node of a pass is
        # new and all of it dies when the pass is dropped
        rng = random.Random(5)
        texts = [
            render_formula(random_formula(rng, 5, atoms=("interned_a", "interned_b")))
            for _ in range(200)
        ]
        gc.collect()
        before = len(syntax._INTERNED)
        for _ in range(4):
            formulas = [parse_formula(text) for text in texts]
            reduced = [reduce_result(f) for f in formulas]
            assert len(syntax._INTERNED) > before + 1_000
            del formulas, reduced
            gc.collect()
            assert len(syntax._INTERNED) == before

    def test_a_rebuilt_node_is_every_equal_node_built_after_it(self):
        node = And(Atom("late_a"), Atom("late_b"))
        rebuilt = []
        # a callback registered after the table's runs before the table's
        # own, so this rebuilds the node while its dead entry is still there
        watcher = weakref.ref(
            node, lambda _: rebuilt.append(And(Atom("late_a"), Atom("late_b")))
        )
        del node
        assert watcher() is None and len(rebuilt) == 1
        assert And(Atom("late_a"), Atom("late_b")) is rebuilt[0]
        assert parse_formula("late_a & late_b") is rebuilt[0]

    def test_threads_building_equal_formulas_get_one_node(self):
        def build(start, texts, out):
            start.wait(timeout=30)
            out.extend(parse_formula(text) for text in texts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(10):
                # names no other round or test uses: every node is new
                names = [f"t{round_}_{n}" for n in range(200)]
                texts = [f"K{{i,1.1}} ({a} & ~{a}) -> ({a} | q)^ci" for a in names]
                results = [[] for _ in range(4)]
                start = threading.Barrier(len(results))
                threads = [
                    threading.Thread(target=build, args=(start, texts, out))
                    for out in results
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert all(len(out) == len(texts) for out in results)
                for built in zip(*results):
                    assert all(f is built[0] for f in built)
        finally:
            sys.setswitchinterval(interval)

    def test_a_deep_chain_hashes_and_compares_without_recursion(self):
        f, g = _chain(5_000), _chain(5_000)
        assert f is g and f == g and hash(f) == hash(g)
        assert {f: "deep"}[g] == "deep"
        assert f != _chain(4_999) and f in {g}

    def test_a_pickle_loads_as_the_interned_node_under_another_seed(self):
        # string hashes are seeded per process: the pickle carries fields
        # only, so the child interns it as the node it parses itself
        data = pickle.dumps(parse_formula(_PICKLE_TEXT))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pathlib.Path(celogic.__file__).parent.parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        seeds_seen = set()
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run(
                [sys.executable, "-c", _LOAD_IN_CHILD, _PICKLE_TEXT],
                input=data,
                env=env,
                capture_output=True,
                check=True,
            ).stdout.decode().split()
            assert out[1:] == ["True", "True", "True"]
            seeds_seen.add(int(out[0]))
        # at least one child hashed strings differently from this process
        assert seeds_seen - {hash("p")}
