import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celogic.epistemology import SUITE_ROWS
from celogic.kripke import ContextEnv, enumerate_models, satisfies
from celogic.reduction import (
    AXIOM_ATOMS,
    AXIOM_ITERATION,
    ReductionBudgetError,
    needed_context_names,
    reduce_full,
    reduce_once,
    reduce_result,
    reduction_measure,
)
from celogic.syntax import (
    Atom,
    Iff,
    Imp,
    Know,
    Rel,
    UntaggedOperatorError,
    formula_info,
    parse_context,
    parse_formula,
    render_formula,
)

from corpus import cross_semantics_corpus, hygiene_corpus, random_formula


class TestReduceOnce:
    def test_atom_schema(self):
        result = reduce_once(Rel(Atom("p"), "ci"))
        assert result is not None
        rewritten, axiom, path = result
        assert rewritten == Imp(Atom("ci"), Atom("p"))
        assert axiom == AXIOM_ATOMS
        assert path == ()

    def test_knowledge_schema_11(self):
        f = Rel(Know("j", "1.1", Atom("p")), "ci")
        rewritten, axiom, _ = reduce_once(f)
        assert rewritten == Imp(
            Atom("ci"), Know("j", "1.1", Rel(Atom("p"), "ci"))
        )
        assert axiom == "1.1-Contextual Knowledge"

    def test_plain_formula_is_fixed(self):
        assert reduce_once(Atom("p")) is None
        assert reduce_once(parse_formula("K{i,1.1} a -> a")) is None

    def test_leftmost_outermost(self):
        f = parse_formula("(p)^ci & (q)^cj")
        _, _, path = reduce_once(f)
        assert path == (0,)

    def test_untagged_operator_under_relativization(self):
        with pytest.raises(UntaggedOperatorError):
            reduce_once(Rel(Know("j", None, Atom("p")), "ci"))


class TestReduceFull:
    def test_iteration_then_atoms(self):
        trace = reduce_full(parse_formula("((p)^ck)^ci"))
        assert [s.axiom for s in trace.steps] == [AXIOM_ITERATION, AXIOM_ATOMS]
        assert trace.result == parse_formula("ci -> (ck -> p)")

    def test_subjectivist_knowledge_two_steps(self):
        f = parse_formula("(K{i,2.2} a)^ci")
        trace = reduce_full(f)
        assert len(trace.steps) == 2
        assert trace.result == parse_formula("ci -> K{i,2.2} (ci -> a)")
        # semantic equality oracle over every small model
        env = ContextEnv({"ci": parse_context("p")})
        for m in enumerate_models(3, ["i"], ["a", "p"]):
            for w in m.worlds:
                assert satisfies(m, w, env, f) == satisfies(m, w, env, trace.result)

    def test_plain_input_identity(self):
        f = parse_formula("K{i,1.1} a -> a")
        trace = reduce_full(f)
        assert trace.steps == ()
        assert trace.result == f

    def test_chain_invariant_and_determinism(self):
        rng = random.Random(31)
        for _ in range(120):
            f = random_formula(rng, 4)
            t1 = reduce_full(f)
            t2 = reduce_full(f)
            assert t1 == t2
            if t1.steps:
                assert t1.steps[0].before == f
                assert t1.steps[-1].after == t1.result
            for a, b in zip(t1.steps, t1.steps[1:]):
                assert a.after == b.before

    def test_budget_error(self):
        f = parse_formula("(((p & q) & (p & q))^ci)^cj")
        with pytest.raises(ReductionBudgetError):
            reduce_full(f, step_budget=2)

    def test_trace_serialization(self):
        trace = reduce_full(parse_formula("((p)^ck)^ci"))
        data = trace.to_json()
        assert data[0]["axiom"] == AXIOM_ITERATION
        assert data[0]["before"] == "(p)^ck^ci"
        assert data[-1]["after"] == "ci -> ck -> p"

    def test_derived_rule_names(self):
        names = {s.axiom for s in reduce_full(parse_formula("(p | q)^ci")).steps}
        assert "derived-or" in names
        names = {s.axiom for s in reduce_full(parse_formula("(P{i,1.1} p)^ci")).steps}
        assert "derived-poss" in names
        names = {s.axiom for s in reduce_full(parse_formula("(p <-> q)^ci")).steps}
        assert "derived-iff" in names


class TestReduceResult:
    def test_matches_reduce_full_on_the_corpora(self):
        suite = [parse_formula(row.formula) for row in SUITE_ROWS]
        for f in hygiene_corpus() + cross_semantics_corpus() + suite:
            assert reduce_result(f) == reduce_full(f).result

    def test_matches_reduce_full_on_step_biconditionals(self):
        # reduce_full(Iff(a, b)).result is the Iff of the two normal forms
        # (the root is no redex, and every redex of a precedes those of b),
        # and every step's before and after share the trace's normal form,
        # so the reference is Iff(result, result) without re-reducing.
        for f in hygiene_corpus():
            trace = reduce_full(f)
            expected = Iff(trace.result, trace.result)
            for step in trace.steps:
                assert reduce_result(Iff(step.before, step.after)) == expected

    def test_plain_input_is_returned_as_is(self):
        f = parse_formula("K{i,1.1} a -> a & ~b")
        assert reduce_result(f) is f

    def test_untagged_operator_under_relativization(self):
        f = Rel(Know("j", None, Atom("p")), "ci")
        with pytest.raises(UntaggedOperatorError):
            reduce_full(f)
        with pytest.raises(UntaggedOperatorError):
            reduce_result(f)

    def test_same_budget_error_as_reduce_full(self):
        # each equivalence doubles its operands under a relativization, so
        # nine of them exceed the default budget of 4 * nodes**2 steps
        f = parse_formula("(" + " <-> ".join(["p"] * 9) + ")^ci")
        with pytest.raises(ReductionBudgetError):
            reduce_full(f)
        with pytest.raises(ReductionBudgetError):
            reduce_result(f)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_reduce_result_matches_reduce_full_property(seed, depth):
    f = random_formula(random.Random(seed), depth)
    trace = reduce_full(f)
    assert reduce_result(f) == trace.result
    for step in trace.steps:
        g = Iff(step.before, step.after)
        assert reduce_result(g) == reduce_full(g).result


class TestProperties:
    def test_measure_strictly_decreases(self):
        for f in hygiene_corpus():
            measure = reduction_measure(f)
            trace = reduce_full(f)
            for step in trace.steps:
                after = reduction_measure(step.after)
                assert after < measure, step.axiom
                measure = after

    def test_results_are_relativization_free(self):
        rng = random.Random(55)
        for _ in range(300):
            f = random_formula(rng, 5)
            trace = reduce_full(f)
            info = formula_info(trace.result)
            assert info.is_el

    def test_result_atoms_only_grow_by_context_names(self):
        rng = random.Random(56)
        for _ in range(200):
            f = random_formula(rng, 4)
            before = formula_info(f)
            after = formula_info(reduce_full(f).result)
            assert after.atoms - before.atoms <= needed_context_names(f)


class TestNeededContexts:
    def test_variant_implied_contexts(self):
        f = parse_formula("(K{k,2.2} p)^ci")
        assert needed_context_names(f) >= {"ci", "ck"}

    def test_plain_formula_needs_nothing(self):
        assert needed_context_names(parse_formula("K{i,1.1} p -> p")) == frozenset()

    def test_matches_reduction_guards(self):
        rng = random.Random(57)
        for _ in range(200):
            f = random_formula(rng, 4)
            guard_atoms = formula_info(reduce_full(f).result).atoms - formula_info(f).atoms
            assert guard_atoms <= needed_context_names(f)
