import itertools

import pytest

from celogic import epistemology
from celogic.dialogue import BudgetExhaustedError, has_winning_strategy
from celogic.epistemology import (
    ANTI_SCEPTIC,
    CONTEXTUALIST,
    PRESETS,
    SCEPTIC,
    SUBJECTIVIST,
    PresetConstraintError,
    apply_preset,
    context_implies,
    run_suite,
)
from celogic.kripke import ContextEnv
from celogic.prove import Valid, prove_cel
from celogic.syntax import (
    BOT,
    ContextFormula,
    Iff,
    Know,
    Rel,
    TOP,
    make_context,
    parse_context,
    parse_formula,
)


class TestPresets:
    def test_four_named_positions(self):
        assert set(PRESETS) == {
            "sceptic",
            "anti-sceptic",
            "contextualist",
            "subjectivist",
        }
        assert SCEPTIC.variant == ANTI_SCEPTIC.variant == "1.1"
        assert CONTEXTUALIST.variant == "1.2"
        assert SUBJECTIVIST.variant == "2.2"

    def test_sceptic_collapse_on_a_relativized_claim(self):
        f = parse_formula("(K{j} p)^ci")
        tagged, env = apply_preset(f, SCEPTIC)
        assert tagged == parse_formula("(K{j,1.1} p)^ci")
        assert all(cf.is_top for cf in env.bindings.values())
        collapse = Iff(tagged, parse_formula("K{j,1.1} p"))
        assert isinstance(prove_cel(collapse, env), Valid)

    def test_contextualist_retags_only(self):
        f = parse_formula("K{i} a")
        tagged, env = apply_preset(f, CONTEXTUALIST)
        assert tagged == Know("i", "1.2", parse_formula("a"))
        assert env.bindings == {}

    def test_existing_tags_survive(self):
        f = parse_formula("K{i,2.1} a & K{j} b")
        tagged, _ = apply_preset(f, SUBJECTIVIST)
        assert tagged == parse_formula("K{i,2.1} a & K{j,2.2} b")

    def test_skeleton_preserved(self):
        f = parse_formula("(K{i} a -> ~K{j} (b | c))^ci")
        tagged, _ = apply_preset(f, SUBJECTIVIST)

        def skeleton(g):
            from celogic import syntax as s

            match g:
                case s.Know(agent, _, body):
                    return ("K", agent, skeleton(body))
                case s.Poss(agent, _, body):
                    return ("P", agent, skeleton(body))
                case s.Atom(name):
                    return name
                case s.Not(body):
                    return ("~", skeleton(body))
                case s.Rel(body, c):
                    return ("rel", c, skeleton(body))
                case s.And(l, r) | s.Or(l, r) | s.Imp(l, r) | s.Iff(l, r):
                    return (type(g).__name__, skeleton(l), skeleton(r))

        assert skeleton(tagged) == skeleton(f)

    def test_anti_sceptic_default_satisfies_constraint(self):
        from celogic.epistemology import DEFAULT_ANTI_BINDING

        f = parse_formula("(K{j} p)^ci")
        tagged, env = apply_preset(f, ANTI_SCEPTIC)
        assert tagged == parse_formula("(K{j,1.1} p)^ci")
        assert env.bindings["ci"] == DEFAULT_ANTI_BINDING
        assert context_implies(DEFAULT_ANTI_BINDING, TOP)
        assert not context_implies(TOP, DEFAULT_ANTI_BINDING)

    def test_anti_sceptic_custom_binding(self):
        f = parse_formula("(K{j} p)^ci")
        _, env = apply_preset(f, ANTI_SCEPTIC, anti_binding=parse_context("p & q"))
        assert env.bindings["ci"] == parse_context("p & q")

    def test_reversed_bindings_rejected(self):
        # truth-table oracle for the one-way implication
        assert context_implies(parse_context("p & q"), TOP)
        assert not context_implies(TOP, parse_context("p & q"))
        f = parse_formula("(K{j} p)^ci")
        with pytest.raises(PresetConstraintError):
            apply_preset(
                f,
                ANTI_SCEPTIC,
                anti_binding=TOP,
                scep_binding=parse_context("p & q"),
            )
        with pytest.raises(PresetConstraintError):
            apply_preset(
                f,
                ANTI_SCEPTIC,
                anti_binding=parse_context("p"),
                scep_binding=parse_context("p & q"),
            )

    def test_coinciding_non_canonical_bindings_accepted(self):
        # the same literals in two orders: each implies the other
        anti = ContextFormula((("b", True), ("a", True)))
        scep = ContextFormula((("a", True), ("b", True)))
        assert anti != scep
        tagged, env = apply_preset(
            parse_formula("K{i} p"), ANTI_SCEPTIC, anti_binding=anti, scep_binding=scep
        )
        assert tagged == parse_formula("K{i,1.1} p")
        assert env.bindings == {"cscep": scep}


class TestContextImplies:
    def test_truth_table_cases(self):
        assert context_implies(parse_context("p & q"), parse_context("p"))
        assert not context_implies(parse_context("p"), parse_context("p & q"))
        assert context_implies(parse_context("false"), parse_context("p"))
        assert context_implies(parse_context("p & ~p"), parse_context("q"))
        assert context_implies(parse_context("p"), TOP)

    def test_agrees_with_brute_force_on_two_atoms(self):
        # every context over p and q: each atom absent, positive or
        # negative (the empty set is TOP), and BOT
        contexts = [BOT] + [
            make_context(
                (atom, sign) for atom, sign in zip("pq", signs) if sign is not None
            )
            for signs in itertools.product((None, True, False), repeat=2)
        ]
        assert len(set(contexts)) == 10 and TOP in contexts
        rows = [dict(zip("pq", v)) for v in itertools.product((False, True), repeat=2)]

        def holds(context, row):
            return not context.is_bot and all(
                row[atom] == sign for atom, sign in context.literals
            )

        for premise, conclusion in itertools.product(contexts, repeat=2):
            expected = all(
                holds(conclusion, row) for row in rows if holds(premise, row)
            )
            assert context_implies(premise, conclusion) == expected, (
                premise,
                conclusion,
            )


class TestSuite:
    def test_all_rows_agree(self):
        report = run_suite()
        assert report.ok
        assert len(report.rows) == 23

    def test_expected_verdict_pattern(self):
        report = run_suite()
        by_anchor = {r["anchor"]: r for r in report.rows}
        assert by_anchor["cross-context introspection, contextualist"]["expected"] is False
        assert by_anchor["cross-context introspection, subjectivist"]["expected"] is True
        assert by_anchor["mixed agents: absolutist over subjectivist"]["expected"] is False

    def test_deterministic(self):
        assert run_suite().to_json() == run_suite().to_json()

    def test_text_rendering(self):
        text = run_suite().to_text()
        assert "all verdicts agree" in text

    def test_a_zero_budget_stops_the_search(self):
        with pytest.raises(BudgetExhaustedError):
            run_suite(budget=0)

    def test_no_budget_is_the_search_default(self, monkeypatch):
        budgets = []

        def search(f, env, budget):
            budgets.append(budget)
            return has_winning_strategy(f, env, budget=budget)

        monkeypatch.setattr(epistemology, "has_winning_strategy", search)
        assert run_suite().ok
        assert set(budgets) == {500_000}
