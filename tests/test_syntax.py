import random

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
    formula_info,
    make_context,
    node_count,
    parse_context,
    parse_formula,
    render_context,
    render_formula,
    subformulas,
)

from corpus import hygiene_corpus, random_formula


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

    def test_dangling_relativization(self):
        with pytest.raises(FormulaSyntaxError, match="relativization"):
            parse_formula("^ci")

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("   ")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError, match="trailing"):
            parse_formula("p q")


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

    @pytest.mark.parametrize(
        "text", ["p | q", "(p)", "K{i,1.1} p", "p -> q", "true & p", "~~p"]
    )
    def test_rejects_non_literal_structure(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_context(text)

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


class TestFormulaInfo:
    def test_atom(self):
        info = formula_info(Atom("p"))
        assert info.is_el and info.is_absolute and info.modal_depth == 0

    def test_two_agent_thesis(self):
        f = parse_formula("K{i,1.1} K{j,1.1} a -> (K{i,1.1} a & K{j,1.1} a)")
        info = formula_info(f)
        assert info.agents == {"i", "j"}
        assert info.modal_depth == 2
        assert info.is_el

    def test_contexts_are_syntactic(self):
        f = Rel(Know("k", "2.2", Atom("p")), "ci")
        info = formula_info(f)
        assert not info.is_el
        assert not info.is_absolute
        assert info.contexts == {"ci"}
        # the agent's own context only enters at rewrite time
        from celogic.reduction import needed_context_names

        assert "ck" in needed_context_names(f)
