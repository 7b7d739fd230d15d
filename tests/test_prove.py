import hashlib
import json
import sys

import pytest

from celogic import prove
from celogic.epistemology import SUITE_ROWS
from celogic.kripke import ContextEnv, check_model, find_countermodel, satisfies
from celogic.prove import (
    Invalid,
    NonEpistemicFragmentError,
    Valid,
    prove_cel,
    prove_el,
    verdict_to_json,
)
from celogic.reduction import needed_context_names, reduce_full
from celogic.syntax import Iff, parse_context, parse_formula

from corpus import cross_semantics_corpus, hygiene_corpus
from nested import nested_verdict


class TestProveEl:
    def test_positive_introspection(self):
        v = prove_el(parse_formula("K{i,1.1} a -> K{i,1.1} K{i,1.1} a"))
        assert isinstance(v, Valid)

    def test_distribution_over_agents(self):
        v = prove_el(
            parse_formula("K{i,1.1} K{j,1.1} a -> (K{i,1.1} a & K{j,1.1} a)")
        )
        assert isinstance(v, Valid)

    def test_truth_axiom(self):
        assert isinstance(prove_el(parse_formula("K{i,1.1} a -> a")), Valid)

    def test_converse_of_truth_fails_with_two_worlds(self):
        f = parse_formula("a -> K{i,1.1} a")
        v = prove_el(f)
        assert isinstance(v, Invalid)
        assert len(v.model.worlds) == 2
        assert check_model(v.model) == []
        assert not satisfies(v.model, v.world, ContextEnv(), f)
        # independent bounded search agrees that two worlds suffice
        oracle = find_countermodel(f, max_worlds=2)
        assert oracle is not None and len(oracle[0].worlds) == 2

    def test_negative_introspection(self):
        v = prove_el(parse_formula("~K{i,1.1} a -> K{i,1.1} ~K{i,1.1} a"))
        assert isinstance(v, Valid)

    def test_rejects_relativized_input(self):
        with pytest.raises(NonEpistemicFragmentError):
            prove_el(parse_formula("(p)^ci"))

    def test_rejects_relativized_input_whose_tableau_closes_at_once(self):
        # both relativizations come in the closing batch, which reaches no
        # tableau rule, so only prove_el's check up front rejects them
        with pytest.raises(NonEpistemicFragmentError):
            prove_el(parse_formula("(p)^ci -> (p)^ci"))

    def test_untagged_operators_are_fine_without_contexts(self):
        assert isinstance(prove_el(parse_formula("K{i} a -> a")), Valid)

    def test_propositional_classics(self):
        assert isinstance(prove_el(parse_formula("p | ~p")), Valid)
        assert isinstance(prove_el(parse_formula("((p -> q) -> p) -> p")), Valid)
        assert isinstance(prove_el(parse_formula("p -> q")), Invalid)

    def test_valid_proof_is_closed_tableau(self):
        v = prove_el(parse_formula("p | ~p"))
        data = verdict_to_json(v)
        assert data["valid"] and "tableau" in data["proof"]

    def test_context_bodies_expand(self):
        ctx = {"ci": parse_context("p & ~q")}
        assert isinstance(
            prove_el(parse_formula("ci -> p"), ctx), Valid
        )
        assert isinstance(
            prove_el(parse_formula("ci -> q"), ctx), Invalid
        )


class TestProveCel:
    def test_contextualist_introspection_invalid(self):
        f = parse_formula("(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj")
        v = prove_cel(f)
        assert isinstance(v, Invalid)

    def test_subjectivist_introspection_valid(self):
        f = parse_formula("(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj")
        assert isinstance(prove_cel(f), Valid)

    @pytest.mark.parametrize("variant", ["1.1", "1.2", "2.1", "2.2"])
    def test_closure_under_known_implication(self, variant):
        k = f"K{{j,{variant}}}"
        f = parse_formula(f"(({k} p & {k} (p -> q)) -> {k} q)^ci")
        assert isinstance(prove_cel(f), Valid)

    def test_invalid_witness_falsifies_original(self):
        f = parse_formula("(K{j,2.2} K{k,2.2} p -> K{k,2.2} p)^ci")
        v = prove_cel(f)
        assert isinstance(v, Invalid)
        env = ContextEnv().completed(needed_context_names(f))
        assert not satisfies(v.model, v.world, env, f)

    def test_explicit_bindings_shape_the_verdict(self):
        f = parse_formula("(p)^ci")
        # a trivial context makes the relativization collapse to its body
        top = ContextEnv({"ci": parse_context("true")})
        assert isinstance(prove_cel(parse_formula("(p)^ci <-> p"), top), Valid)
        # an impossible context makes any relativization hold
        bot = ContextEnv({"ci": parse_context("false")})
        assert isinstance(prove_cel(f, bot), Valid)
        # with the schema reading the same formula is refutable
        assert isinstance(prove_cel(f, ContextEnv()), Invalid)

    def test_context_names_used_as_atoms_resolve_through_bindings(self):
        env = ContextEnv({"ci": parse_context("p & q")})
        assert isinstance(prove_cel(parse_formula("ci -> p"), env), Valid)
        assert isinstance(prove_cel(parse_formula("p -> ci"), env), Invalid)

    @pytest.mark.parametrize("text", ["p -> p", "p -> q"])
    def test_equal_verdicts_hash_equal(self, text):
        first, second = (prove_cel(parse_formula(text)) for _ in range(2))
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_verdict_json_round_trip(self):
        f = parse_formula("(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj")
        data = verdict_to_json(prove_cel(f))
        assert data["valid"] is False
        from celogic.kripke import KripkeModel

        model = KripkeModel.from_json(data["model"])
        assert data["world"] in model.worlds


PINNED_STEP_TRACES = 150


def _pinned_formulas():
    """The hygiene corpus, the cross corpus, every SUITE_ROWS thesis, then
    the step biconditionals of the first PINNED_STEP_TRACES hygiene traces."""
    hygiene = hygiene_corpus()
    formulas = hygiene + cross_semantics_corpus()
    formulas += [parse_formula(row.formula) for row in SUITE_ROWS]
    for f in hygiene[:PINNED_STEP_TRACES]:
        formulas += [Iff(s.before, s.after) for s in reduce_full(f).steps]
    return formulas


# sha256 over verdict_to_json(prove_cel(f)) on _pinned_formulas(), proof
# logs and counter-models included, byte for byte. A change to the
# prover's speed must leave it as it is. The first pin was recorded when
# the proof log nested one level per split, and checks the log re-nested
# by the test decoder; the second pins the flat log as it is written.
PROVER_OUTPUT_SHA256 = "3d5b4b8122b2cf59fd8a8a22b3b8f95727f1175df68d4960ee85dae995940412"
FLAT_PROVER_OUTPUT_SHA256 = "812d9b18d39a04a37b7ba63b7bf5ba25be9b36e8e58d9f66536e19dc513c98f7"


def _pin_digests(docs):
    """The sha256 of the documents as written and of their nested forms."""
    flat, nested = hashlib.sha256(), hashlib.sha256()
    for doc in docs:
        flat.update(json.dumps(doc).encode())
        nested.update(json.dumps(nested_verdict(doc)).encode())
    return flat.hexdigest(), nested.hexdigest()


def test_prover_output_is_pinned():
    docs = (verdict_to_json(prove_cel(f, ContextEnv())) for f in _pinned_formulas())
    assert _pin_digests(docs) == (FLAT_PROVER_OUTPUT_SHA256, PROVER_OUTPUT_SHA256)


# Under ContextEnv() every context is a one-literal stand-in, so the pin
# above never runs the context rule on a true or false body, or splits on a
# body of several literals. These envs do: T on a false body and F on a true
# body close the branch, F on a body of two or three literals splits it.
BOUND_CONTEXT_ENVS = (
    {"ci": "true", "cj": "true", "ck": "true"},
    {"ci": "false", "cj": "false", "ck": "false"},
    {"ci": "p & ~q", "cj": "~p & q", "ck": "a & q"},
    {"ci": "p & q & ~a", "cj": "~p & ~q & a", "ck": "p & ~q & r"},
)

# sha256 over verdict_to_json(prove_cel(f, env)) for each env above and
# each formula of the cross corpus and SUITE_ROWS, proof logs and
# counter-models included, byte for byte: re-nested and as written, as
# for the pins above.
BOUND_CONTEXT_OUTPUT_SHA256 = "91bebdedaaf7367c6351d7c2ad9223f48d29461fcf19f06dd199a3bed358e845"
FLAT_BOUND_CONTEXT_OUTPUT_SHA256 = "413fd93dd0a3c204883b26337f9a33992f58561ba1a7d171e6b282832333df40"


def test_prover_output_under_bound_contexts_is_pinned():
    formulas = cross_semantics_corpus()
    formulas += [parse_formula(row.formula) for row in SUITE_ROWS]
    envs = [ContextEnv.from_json(bindings) for bindings in BOUND_CONTEXT_ENVS]
    docs = (verdict_to_json(prove_cel(f, env)) for env in envs for f in formulas)
    assert _pin_digests(docs) == (
        FLAT_BOUND_CONTEXT_OUTPUT_SHA256, BOUND_CONTEXT_OUTPUT_SHA256
    )


class TestLazyProofLog:
    THESIS = "(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj"

    def _count_renders(self, monkeypatch):
        calls = []
        render = prove.render_formula

        def counted(f, memo=None):
            calls.append((f, memo))
            return render(f, memo)

        monkeypatch.setattr(prove, "render_formula", counted)
        return calls

    def test_the_verdict_renders_nothing(self, monkeypatch):
        calls = self._count_renders(monkeypatch)
        assert isinstance(prove_cel(parse_formula(self.THESIS)), Valid)
        assert calls == []

    def test_the_log_is_built_once_on_read(self, monkeypatch):
        calls = self._count_renders(monkeypatch)
        v = prove_cel(parse_formula(self.THESIS))
        proof = v.proof
        rendered = len(calls)
        assert rendered > 0
        assert v.proof is proof
        assert len(calls) == rendered

    def test_one_memo_renders_the_whole_log(self, monkeypatch):
        # each distinct formula is rendered once per document, so the
        # rest of a left-grouped conjunction is not rendered at every step
        calls = self._count_renders(monkeypatch)
        prove_cel(parse_formula(_implication_chain(20))).proof
        memos = [memo for _, memo in calls]
        assert len(memos) > 40 and memos[0] is not None
        assert all(memo is memos[0] for memo in memos)


def _implication_chain(n: int) -> str:
    """p1 & (p1 -> p2) & ... & (p{n-1} -> pn) -> pn, the conjunction grouped
    to the left: as deep as one implication, n - 1 splits long."""
    links = [f"(p{i} -> p{i + 1})" for i in range(1, n)]
    return " & ".join(["p1", *links]) + f" -> p{n}"


class TestLongBranches:
    @pytest.fixture(autouse=True)
    def default_limit(self, monkeypatch):
        # the tableau runs on an explicit stack
        def refuse(limit):
            raise AssertionError(f"the recursion limit was set to {limit}")

        assert sys.getrecursionlimit() == 1000
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)

    def test_1199_splits_in_a_row_close(self):
        v = prove_cel(parse_formula(_implication_chain(1200)))
        assert isinstance(v, Valid)
        # each link splits, last link first; its second case closes at once
        log, cases = v.tableau, {}
        for i, (parent, _, _) in enumerate(log):
            cases.setdefault(parent, []).append(i)
        at, splits = 0, 0
        while len(log[at][2]) == 3:
            first, second = cases[at]
            assert log[second] == (at, (), (0, parse_formula(f"p{1200 - splits}")))
            at, splits = first, splits + 1
        assert splits == 1199
