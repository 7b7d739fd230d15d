import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celogic import reduction
from celogic.dialogue import game_form
from celogic.epistemology import SUITE_ROWS
from celogic.kripke import ContextEnv, KripkeModel, enumerate_models, satisfies
from celogic.prove import prove_cel
from celogic.reduction import (
    AXIOM_ATOMS,
    AXIOM_ITERATION,
    ReductionBudgetError,
    is_relativization_free,
    needed_context_names,
    reduce_full,
    reduce_once,
    reduce_result,
)
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
    fold,
    formula_info,
    node_count,
    parse_context,
    parse_formula,
    render_formula,
    subformulas,
    variant_contexts_names,
)

from corpus import cross_semantics_corpus, hygiene_corpus, random_formula


# ---------------------------------------------------------------------------
# Reference implementations, kept to compare the one reduction pass against:
# a search for the leftmost-outermost redex from the root at every step, and
# a context walk that restates the rewrite rules. The reduction references
# apply the library's rewrite table, so they check the order of the steps
# and the budget, not the schemata.


def _reference_find_redex(f, path):
    if isinstance(f, Rel):
        return f, path
    for i, child in enumerate(f.children()):
        found = _reference_find_redex(child, path + (i,))
        if found is not None:
            return found
    return None


def reference_reduce_once(f):
    found = _reference_find_redex(f, ())
    if found is None:
        return None
    redex, path = found
    rewritten, axiom, _ = reduction._rewrite_redex(redex.body, redex.context)
    return reduction._replace(f, path, rewritten), axiom, path


def reference_reduce_full(f, step_budget=None):
    """(steps, result) as (before, axiom, path, after) tuples."""
    steps = []
    current = f
    while (result := reference_reduce_once(current)) is not None:
        if len(steps) == step_budget:
            raise ReductionBudgetError(f"no fixpoint within {step_budget} steps")
        after, axiom, path = result
        steps.append((current, axiom, path, after))
        current = after
    return steps, current


def reference_needed_context_names(f):
    out = set()

    def go(g):
        match g:
            case Rel(body, c):
                under(body, c)
            case _:
                for child in g.children():
                    go(child)

    def under(body, c):
        out.add(c)
        match body:
            case Atom(_):
                pass
            case Rel(inner, k):
                under(inner, k)
            case Not(inner):
                under(inner, c)
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                under(l, c)
                under(r, c)
            case Know(agent, variant, inner):
                cx, cy = variant_contexts_names(variant, c, agent)
                out.add(cx)
                under(inner, cy)
            case Poss(agent, variant, inner):
                under(Not(Know(agent, variant, Not(inner))), c)

    go(f)
    return frozenset(out)


def reduction_measure(f):
    """Termination measure: strictly decreases at every rewrite step.

    Relativization multiplies its body's weight; the possibility operator
    is weighted for its pre-expansion step.
    """

    def step(f):
        match f:
            case Atom(_):
                return 1
            case Not(body) | Know(_, _, body):
                return 1 + (yield body)
            case Poss(_, _, body):
                return 4 + (yield body)
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                return 1 + (yield l) + (yield r)
            case Rel(body, _):
                return 5 * (yield body)
        raise TypeError(f"not a formula: {f!r}")

    return fold(f, step)


def _outcome(fn):
    """fn's value, or its error type and message."""
    try:
        return "value", fn()
    except Exception as exc:  # compared, never swallowed
        return type(exc).__name__, str(exc)


def _step_tuples(trace):
    return [(s.before, s.axiom, s.path, s.after) for s in trace.steps], trace.result


def assert_matches_reference(f):
    expected = _outcome(lambda: reference_reduce_full(f))
    assert _outcome(lambda: _step_tuples(reduce_full(f))) == expected
    if expected[0] == "value":
        assert_trace_keeps_exact_pairs(*expected[1])
    assert _outcome(lambda: reduce_once(f)) == _outcome(
        lambda: reference_reduce_once(f)
    )
    # the pairs the trace left are unset: f and its steps are cold again
    assert_names_match_reference(f)
    if expected[0] == "value":
        # the step biconditionals in trace order, as criterion 4 reads them:
        # each reads the sets the one before it kept
        for before, _, _, after in expected[1][0]:
            assert reduce_once(before) == reference_reduce_once(before)
            assert_names_match_reference(Iff(before, after))
    # f warmed: its kept sets are read
    assert_names_match_reference(f)


def assert_names_match_reference(f):
    assert _outcome(lambda: needed_context_names(f)) == _outcome(
        lambda: reference_needed_context_names(f)
    )


def assert_trace_keeps_exact_pairs(steps, result):
    """After reduce_full, each step's before keeps the reference normal form
    and context names, and the result keeps that it is Rel-free. The pairs
    are then unset, so a later ``reduce_result`` on these trees walks them as
    trees no trace has finished."""
    befores = [before for before, _, _, _ in steps]
    for before in befores:
        assert before._normal == (result, reference_needed_context_names(before))
    assert result._normal is reduction._REL_FREE
    for g in befores + [result]:
        object.__delattr__(g, "_normal")


# nine p's under <->, one relativization: p, so the whole is ci -> p
_NINE_IFFS = "(" + " <-> ".join(["p"] * 9) + ")^ci"


def _corpora():
    suite = [parse_formula(row.formula) for row in SUITE_ROWS]
    return hygiene_corpus() + cross_semantics_corpus() + suite


class TestAgainstReference:
    def test_corpora(self):
        for f in _corpora():
            assert_matches_reference(f)

    @pytest.mark.parametrize(
        "text",
        [
            "((p & q)^ci)^cj",
            _NINE_IFFS,
            # an untagged operator at the first redex past the budget: the
            # rewrite's own error comes before the budget's
            "(p & K{j} q)^ci",
        ],
    )
    def test_explicit_budgets(self, text):
        f = parse_formula(text)
        for budget in range(13):
            expected = _outcome(lambda: reference_reduce_full(f, budget))
            assert _outcome(lambda: _step_tuples(reduce_full(f, budget))) == expected

    def test_untagged_operators(self):
        for text in ["(K{j} p)^ci", "(p & P{i} q)^cj", "~(~P{i} q)^ck", "K{i} (p)^ci"]:
            assert_matches_reference(parse_formula(text))

    def test_reduce_full_does_not_go_through_reduce_once(self, monkeypatch):
        def no_once(f):
            raise AssertionError("reduce_full called reduce_once")

        monkeypatch.setattr(reduction, "reduce_once", no_once)
        trace = reduce_full(parse_formula("((p & q)^ck)^ci"))
        assert trace.result == parse_formula("ci -> (ck -> p) & (ck -> q)")
        assert [s.path for s in trace.steps] == [(), (1,), (1, 0), (1, 1)]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_matches_reference_property(seed, depth):
    assert_matches_reference(random_formula(random.Random(seed), depth))


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

    def test_derived_iff_is_linear(self):
        # each operand is relativized once, not copied into two implications
        rewritten, axiom, path = reduce_once(parse_formula("(p <-> q & r)^ci"))
        assert rewritten == Imp(
            Atom("ci"),
            Iff(Rel(Atom("p"), "ci"), Rel(And(Atom("q"), Atom("r")), "ci")),
        )
        assert (axiom, path) == ("derived-iff", ())


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
        # so the reference is Iff(result, result) without re-reducing. The
        # steps come from the reference, which keeps no pair on them, so
        # each reduce_result walks a partly warmed step tree.
        for f in hygiene_corpus():
            steps, result = reference_reduce_full(f)
            expected = Iff(result, result)
            for before, _, _, after in steps:
                assert reduce_result(Iff(before, after)) == expected

    def test_plain_input_is_returned_as_is(self):
        f = parse_formula("K{i,1.1} a -> a & ~b")
        assert reduce_result(f) is f

    def test_untagged_operator_under_relativization(self):
        f = Rel(Know("j", None, Atom("p")), "ci")
        with pytest.raises(UntaggedOperatorError):
            reduce_full(f)
        with pytest.raises(UntaggedOperatorError):
            reduce_result(f)

    def test_nested_equivalences_reduce_linearly(self):
        # eight derived-iff steps and nine Atoms steps
        f = parse_formula(_NINE_IFFS)
        trace = reduce_full(f)
        assert len(trace.steps) == 17
        assert reduce_result(f) == trace.result
        assert prove_cel(Iff(trace.result, parse_formula("ci -> p"))).is_valid


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_reduce_result_matches_reduce_full_property(seed, depth):
    f = random_formula(random.Random(seed), depth)
    # the steps from the reference, which keeps no pair on them; f's own
    # trace comes last, as it leaves each step's pair for reduce_result
    steps, result = reference_reduce_full(f)
    assert reduce_result(f) == result
    for before, _, _, after in steps:
        g = Iff(before, after)
        assert reduce_result(g) == reduce_full(g).result
    assert reduce_full(f).result == result


# ---------------------------------------------------------------------------
# Kept normal forms: reduce_result keeps each finished node's normal form on
# the node. A warmed tree must give what a reduction that reads no kept form
# gives, value or error. Equal trees are one node, so no copy of a tree comes
# without its kept forms: the cold reference is the reference reduction
# above, which neither reads nor keeps them. The trace pass reads none but
# leaves them on the trees it builds, so it never builds the targets.


def _warming_order(f):
    """f's reference outcome, and the trees to reduce in order: f, then
    each step's biconditional and negated result. Each tree shares nodes
    with those before it, so reducing them in this order reads forms kept
    by the earlier reductions."""
    outcome = _outcome(lambda: reference_reduce_full(f))
    targets = [f]
    if outcome[0] == "value":
        for before, _, _, after in outcome[1][0]:
            targets += [Iff(before, after), Not(after)]
    return outcome, targets


def assert_kept_forms_exact(f):
    """reduce_result on each warmed tree gives the reference's normal form,
    and reduce_full after it gives the reference's trace: the trace path
    never reads a kept form."""
    _, targets = _warming_order(f)
    for g in targets:
        assert _outcome(lambda: reduce_result(g)) == _outcome(
            lambda: reference_reduce_full(g)[1]
        )
    for g in targets[:3]:
        assert _outcome(lambda: _step_tuples(reduce_full(g))) == _outcome(
            lambda: reference_reduce_full(g)
        )


def assert_kept_forms_match_the_trace(f):
    """As assert_kept_forms_exact's reduce_result half, with each step's
    outcome worked out from f's reference trace instead of a fresh
    reduction: a step's before and after both reduce to the trace's result.
    Cheap enough for every step of long traces."""
    outcome, (f, *targets) = _warming_order(f)
    expected = ("value", outcome[1][1]) if outcome[0] == "value" else outcome
    assert _outcome(lambda: reduce_result(f)) == expected
    if not targets:
        return
    result = expected[1]
    for iff, negated in zip(targets[::2], targets[1::2]):
        assert reduce_result(iff) == Iff(result, result)
        assert reduce_result(negated) == Not(result)


class TestKeptForms:
    def test_hygiene_corpus(self):
        for f in hygiene_corpus():
            assert_kept_forms_match_the_trace(f)

    def test_cross_corpus_and_suite(self):
        suite = [parse_formula(row.formula) for row in SUITE_ROWS]
        for f in cross_semantics_corpus() + suite:
            assert_kept_forms_exact(f)
            assert_kept_forms_match_the_trace(f)

    def test_pickles_keep_nothing(self):
        f = parse_formula("(K{i,1.2} (p & q))^ci -> P{j,2.1} ~r <-> (s | t)^ck")
        assert getattr(f, "_normal", None) is None
        data = pickle.dumps(f)
        reduce_result(f)
        assert f._normal == (reduce_full(f).result, reference_needed_context_names(f))
        # the kept form and names stay out of the pickle; a copy is the node
        assert pickle.dumps(f) == data
        for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(data)):
            assert copied is f

    def test_relativization_free_is_read_off_a_kept_form(self, monkeypatch):
        f = parse_formula("(K{i,1.2} p)^ci -> q")
        reduced = reduce_result(f)
        no_walk = lambda g: pytest.fail("walked a tree with a kept form")
        monkeypatch.setattr(reduction, "formula_info", no_walk)
        assert is_relativization_free(reduced) and is_relativization_free(f.right)
        assert not is_relativization_free(f)
        monkeypatch.undo()
        # a tree no reduction has finished keeps nothing, so it is walked
        assert is_relativization_free(Not(Atom("unreduced")))
        assert not is_relativization_free(Rel(Atom("unreduced"), "ci"))

    def test_relativization_free_walks_a_shared_dag_once(self):
        # game_form plays each <-> as two implications over the same sides,
        # so this 40-deep chain has 2**40 paths over 122 nodes: a walk over
        # every path would not finish, one over the nodes returns at once
        f = game_form(parse_formula("p" + "".join(" <-> " + x for x in "qp" * 20)))
        assert is_relativization_free(f) and not is_relativization_free(Rel(f, "ci"))

    def test_relativization_free_agrees_with_a_walk_on_the_corpora(self):
        for f in _corpora():
            free = not any(isinstance(g, Rel) for g in subformulas(f))
            assert is_relativization_free(f) == formula_info(f).is_el == free


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_kept_forms_exact_property(seed, depth):
    assert_kept_forms_exact(random_formula(random.Random(seed), depth))


def assert_rewrites_are_linear(f):
    # no schema copies a subformula: each node is swept by at most one
    # relativization and a possibility operator takes at most four rewrites
    assert len(reduce_full(f).steps) <= 4 * node_count(f)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_rewrites_are_linear_property(seed, depth):
    assert_rewrites_are_linear(random_formula(random.Random(seed), depth))


class TestProperties:
    def test_rewrites_are_linear_on_the_corpora(self):
        for f in _corpora():
            assert_rewrites_are_linear(f)
        assert_rewrites_are_linear(parse_formula(_NINE_IFFS))

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
            # names first: the trace leaves its pair on f
            names = needed_context_names(f)
            before = formula_info(f)
            after = formula_info(reduce_full(f).result)
            assert after.atoms - before.atoms <= names


class TestKeptNames:
    def test_a_warmed_formula_is_not_walked_again(self, monkeypatch):
        f = parse_formula("(K{i,1.2} P{j,2.1} (p)^ck)^ci -> K{j} q")
        names = ContextEnv().for_formula(f).bindings.keys()
        assert names == {"ci", "cj", "ck"} == f._normal[1]
        no_walk = lambda *args: pytest.fail("walked a node with kept names")
        monkeypatch.setattr(reduction, "variant_contexts_names", no_walk)
        assert ContextEnv().for_formula(f).bindings.keys() == names
        # a new formula that shares the warmed node reads its kept set
        assert needed_context_names(Iff(f, Rel(Atom("r"), "cl"))) == names | {"cl"}

    @pytest.mark.parametrize(
        "text",
        [
            "(K{i,1.2} p)^ci & (p & K{j} q)^ck",
            "(K{i,1.2} p)^ci -> ((K{k,1.1} p)^cj & P{j} q)^ck",
            "K{i} (p)^ci | (~(q)^cj -> ~K{k} r)^ck",
        ],
    )
    def test_an_untagged_operator_raises_the_same_error_each_call(self, text):
        f = parse_formula(text)
        expected = _outcome(lambda: reference_needed_context_names(f))
        assert expected[0] == "UntaggedOperatorError"
        # the sibling operand warmed first, then the whole twice
        assert_names_match_reference(f.left)
        assert _outcome(lambda: needed_context_names(f)) == expected
        assert _outcome(lambda: needed_context_names(f)) == expected
        # nothing is kept on the failing Rel or on its ancestors
        assert getattr(f, "_normal", None) is None
        assert getattr(f.right, "_normal", None) is None


# ---------------------------------------------------------------------------
# A finished trace leaves on each tree it built the pair reduce_result would
# keep there, so proving a step's biconditional reduces nothing again. The
# pairs themselves are checked against the references in
# assert_matches_reference.


class TestTraceKeptPairs:
    def test_proving_a_step_rewrites_nothing(self, monkeypatch):
        traces = [reduce_full(f) for f in _corpora()]
        no_rewrite = lambda *args: pytest.fail("rewrote a node of a finished trace")
        monkeypatch.setattr(reduction, "_rewrite_redex", no_rewrite)
        for trace in traces:
            for step in trace.steps:
                assert prove_cel(Iff(step.before, step.after)).is_valid

    @pytest.mark.parametrize(
        "f, budget, error",
        [
            # rewritten twice, then the untagged K{j} raises
            (
                Rel(And(Atom("kn_p"), Know("j", None, Atom("kn_q"))), "ckn"),
                None,
                UntaggedOperatorError,
            ),
            # four steps in full
            (
                Rel(Rel(And(Atom("kn_r"), Atom("kn_s")), "ckn_in"), "ckn_out"),
                2,
                ReductionBudgetError,
            ),
        ],
        ids=["untagged", "budget"],
    )
    def test_a_trace_that_raises_keeps_nothing(self, f, budget, error):
        # every tree the trace builds before it stops, held alive here; its
        # names occur nowhere else, so no other reduction has kept a pair
        trees = [f]
        try:
            while (once := reference_reduce_once(trees[-1])) is not None:
                trees.append(once[0])
        except UntaggedOperatorError:
            pass
        assert len(trees) > 2
        with pytest.raises(error):
            reduce_full(f, budget)
        kept = [g for t in trees for g in subformulas(t) if hasattr(g, "_normal")]
        assert kept == []

    def test_reduce_once_keeps_nothing(self):
        f = Rel(Not(Atom("once_p")), "conce")
        after, _, _ = reduce_once(f)
        kept = [g for t in (f, after) for g in subformulas(t) if hasattr(g, "_normal")]
        assert kept == []


class TestNeededContexts:
    @pytest.mark.parametrize(
        "text, names",
        [
            ("(K{k,2.2} p)^ci", {"ci", "ck"}),
            # the Rel's own name counts although its rewrite guards on ci only
            ("(K{i,2.2} p)^cj", {"ci", "cj"}),
        ],
        ids=["knowledge-guard", "own-name"],
    )
    def test_variant_implied_contexts(self, text, names):
        assert needed_context_names(parse_formula(text)) == names

    def test_plain_formula_needs_nothing(self):
        assert needed_context_names(parse_formula("K{i,1.1} p -> p")) == frozenset()

    def test_matches_reduction_guards(self):
        rng = random.Random(57)
        for _ in range(200):
            f = random_formula(rng, 4)
            # names first: the trace leaves its pair on f
            names = needed_context_names(f)
            guard_atoms = formula_info(reduce_full(f).result).atoms - formula_info(f).atoms
            assert guard_atoms <= names


class TestDeepRelativizedInput:
    """At the default recursion limit: the reduction and the mask compiler
    walk on explicit stacks, however deep the body under a Rel."""

    @staticmethod
    def _negations(d: int):
        f = Atom("p")
        for _ in range(d):
            f = Not(f)
        return Rel(f, "ci")

    def test_needed_context_names(self):
        assert needed_context_names(self._negations(5000)) == {"ci"}

    def test_satisfies(self):
        # with ci true, (~x5000 p)^ci is p; with ci false, it holds
        model = KripkeModel(
            ["w1", "w2", "w3"], {}, {"p": ["w1", "w3"], "_ctx_ci": ["w1", "w2"]}
        )
        for d, expected in [(2, [True, False, True]), (5000, [True, False, True])]:
            f = self._negations(d)
            env = ContextEnv().for_formula(f)
            assert [satisfies(model, w, env, f) for w in model.worlds] == expected
