"""One decision for a formula's context names: ``ContextEnv.for_formula``.

The prover, the oracle, the game and ``eval`` read a formula under the env
``for_formula`` returns, so they agree on which atoms are context names: the
formula's guards and the bound names it uses as atoms. Every other name,
body literals included, is a plain atom. The regression rows below are
disagreements between the engines that came from each deciding this its own
way.
"""

import random

import pytest

from celogic.dialogue import has_winning_strategy
from celogic.kripke import ContextEnv, find_countermodel
from celogic.prove import Invalid, Valid, prove_cel
from celogic.syntax import parse_formula, render_formula

from corpus import random_formula

# ci's body names cj, which is bound too
NESTED = {"ci": "cj & p", "cj": "q"}


class TestForFormula:
    def test_binds_the_guards_and_the_bound_names_used_as_atoms(self):
        env = ContextEnv.from_json({"ci": "p", "cj": "q", "ck": "r"})
        got = env.for_formula(parse_formula("cj -> (p)^ci"))
        assert got.to_json() == {"ci": "p", "cj": "q"}
        assert len(env.bindings) == 3

    def test_unbound_guards_get_their_fresh_stand_in(self):
        got = ContextEnv().for_formula(parse_formula("(K{i,1.2} p)^ck -> cj"))
        assert got.to_json() == {"ci": "_ctx_ci", "ck": "_ctx_ck"}

    def test_a_bound_body_literal_not_used_by_the_formula_is_an_atom(self):
        env = ContextEnv.from_json(NESTED)
        assert env.for_formula(parse_formula("(p)^ci")).to_json() == {"ci": "cj & p"}


class TestEnginesAgree:
    @pytest.mark.parametrize("text", ["ci -> q", "~K{i,2.1} ci"])
    def test_oracle_reads_the_body_of_a_bound_name_used_as_an_atom(self, text):
        f = parse_formula(text)
        env = ContextEnv.from_json({"ci": "p"})
        found = find_countermodel(f, env)
        assert found is not None
        model, world = found
        assert model.worlds == ("w1",) and world == "w1"
        assert {a for a, ws in model.valuation.items() if ws} == {"p"}
        assert isinstance(prove_cel(f, env), Invalid)

    def test_game_reads_a_bound_body_literal_as_an_atom(self):
        f = parse_formula("(p)^ci -> (q)^ci")
        env = ContextEnv.from_json(NESTED)
        assert has_winning_strategy(f, env).verdict is False
        assert isinstance(prove_cel(f, env), Invalid)
        assert find_countermodel(f, env) is not None

    @pytest.mark.parametrize(
        "engine",
        [prove_cel, find_countermodel, has_winning_strategy],
        ids=["prover", "oracle", "game"],
    )
    @pytest.mark.parametrize("text", ["ci -> q | (cj & ~cj)", "(~(p)^cj)^ci"])
    def test_every_engine_refuses_a_body_literal_that_is_a_context_name(
        self, engine, text
    ):
        with pytest.raises(ValueError, match=r"\bcj\b"):
            engine(parse_formula(text), ContextEnv.from_json(NESTED))


def test_prover_and_oracle_agree_under_bindings():
    """A valid verdict means there is no counter-model; an invalid verdict
    whose witness has at most two worlds means the oracle finds one."""
    env = ContextEnv.from_json({"ci": "p", "cj": "q & ~p"})
    rng = random.Random(5)
    disagreements = []
    for _ in range(300):
        f = random_formula(rng, 3, atoms=("p", "q", "ci"))
        verdict = prove_cel(f, env)
        found = find_countermodel(f, env, max_worlds=2)
        if isinstance(verdict, Valid):
            agree = found is None
        else:
            agree = len(verdict.model.worlds) > 2 or found is not None
        if not agree:
            disagreements.append(render_formula(f))
    assert disagreements == []
