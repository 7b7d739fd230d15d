"""One decision for a formula's context names: ``ContextEnv.for_formula``.

The prover, the oracle, the game and ``eval`` read a formula under the env
``for_formula`` returns, so they agree on which atoms are context names: the
formula's guards and the bound names it uses as atoms. Every other name,
body literals included, is a plain atom. The regression rows below are
disagreements between the engines that came from each deciding this its own
way.
"""

import json
import random

import pytest

from celogic import kripke
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
        # JSON text reads as the object it encodes
        text = json.dumps({"ci": "p", "cj": "q", "ck": "r"})
        assert ContextEnv.from_json(text).to_json() == env.to_json()

    def test_unbound_guards_get_their_fresh_stand_in(self):
        got = ContextEnv().for_formula(parse_formula("(K{i,1.2} p)^ck -> cj"))
        assert got.to_json() == {"ci": "_ctx_ci", "ck": "_ctx_ck"}

    def test_an_unbound_name_shares_one_stand_in(self, monkeypatch):
        env = ContextEnv.from_json({"ci": "p"})
        assert env.resolve("cj") is ContextEnv().resolve("cj")
        assert env.resolve("cj") is not env.resolve("ck")
        texts = ["(K{i,1.2} p)^cj -> cj", "(p)^ck -> ck -> p", "cj -> (q)^ci"]
        verdicts = [self.verdicts(env, parse_formula(text)) for text in texts]
        # a fresh stand-in on every call, as before sharing
        monkeypatch.setattr(kripke, "_stand_in", kripke._stand_in.__wrapped__)
        assert env.resolve("cj") is not env.resolve("cj")
        assert verdicts == [self.verdicts(env, parse_formula(text)) for text in texts]
        assert verdicts == [(False,) * 3, (True,) * 3, (False,) * 3]

    @staticmethod
    def verdicts(env, f):
        return (
            isinstance(prove_cel(f, env), Valid),
            find_countermodel(f, env) is None,
            has_winning_strategy(f, env).verdict,
        )

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
