import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celogic.epistemology import SUITE_ROWS
from celogic.kripke import (
    DEFAULT_ENUMERATION_CEILING,
    ContextEnv,
    EnumerationCeilingError,
    KripkeModel,
    ModelError,
    _FrameCtx,
    _ModelCtx,
    _atom_masks,
    bell_number,
    check_model,
    compile_formula,
    enumerate_models,
    eval_context,
    find_countermodel,
    model_space_size,
    satisfies,
    set_partitions,
    truth_mask,
)
from celogic.reduction import needed_context_names
from celogic.syntax import (
    Atom,
    BOT,
    Imp,
    Know,
    Not,
    Poss,
    TOP,
    formula_info,
    parse_context,
    parse_formula,
)

from corpus import cross_semantics_corpus, random_formula
import random


def single_world_model():
    return KripkeModel(["w1"], {"i": [["w1"]]}, {"a": ["w1"]})


class TestCheckModel:
    def test_minimal_model_ok(self):
        assert check_model(single_world_model()) == []

    def test_unknown_world_in_valuation(self):
        m = KripkeModel(["w1"], {"i": [["w1"]]}, {"p": ["w9"]})
        violations = check_model(m)
        assert len(violations) == 1
        assert "w9" in violations[0]

    def test_world_in_two_classes(self):
        m = KripkeModel(["w1", "w2"], {"i": [["w1", "w2"], ["w2"]]}, {})
        assert any("two classes" in v for v in check_model(m))

    def test_uncovered_world(self):
        m = KripkeModel(["w1", "w2"], {"i": [["w1"]]}, {})
        assert any("not covered" in v for v in check_model(m))

    def test_enumerated_models_always_pass(self):
        for m in enumerate_models(3, ["i"], ["p"]):
            assert check_model(m) == []

    def test_json_round_trip(self):
        m = KripkeModel(
            ["w1", "w2"], {"i": [["w1", "w2"]], "j": [["w1"], ["w2"]]}, {"p": ["w1"]}
        )
        assert KripkeModel.from_json(json.dumps(m.to_json())) == m

    def test_dot_export(self):
        dot = single_world_model().to_dot(highlight="w1")
        assert dot.startswith("graph model")
        assert '"w1"' in dot


class TestEvalContext:
    def test_top_anywhere(self):
        env = ContextEnv({"ci": TOP})
        assert eval_context(single_world_model(), "w1", env, "ci")

    def test_literal_conjunction(self):
        m = KripkeModel(["w1"], {"i": [["w1"]]}, {"p": ["w1"], "q": []})
        env = ContextEnv({"ci": parse_context("p & ~q")})
        assert eval_context(m, "w1", env, "ci")
        env2 = ContextEnv({"ci": parse_context("p & q")})
        assert not eval_context(m, "w1", env2, "ci")

    def test_bot_nowhere(self):
        env = ContextEnv({"ci": BOT})
        assert not eval_context(single_world_model(), "w1", env, "ci")

    def test_auto_bind_fresh_atom(self):
        m = KripkeModel(["w1"], {"i": [["w1"]]}, {"_ctx_ci": ["w1"]})
        assert eval_context(m, "w1", ContextEnv(), "ci")


class TestSatisfies:
    def test_reflexive_singleton_knowledge(self):
        f = Know("i", "1.1", Atom("a"))
        assert satisfies(single_world_model(), "w1", ContextEnv(), f)

    def test_bottom_context_makes_relativization_vacuous(self):
        env = ContextEnv({"ci": BOT})
        m = single_world_model()
        for text in ["(~a)^ci", "(K{i,1.1} a & ~a)^ci -> (a)^ci", "(a -> ~a)^ci"]:
            inner = parse_formula(text)
            assert satisfies(m, "w1", env, inner)

    def test_relativized_factivity_22_fails_within_three_worlds(self):
        f = parse_formula("(K{j,2.2} K{k,2.2} p -> K{k,2.2} p)^ci")
        found = find_countermodel(f, ContextEnv(), max_worlds=3)
        assert found is not None
        model, world = found
        assert not satisfies(
            model, world, ContextEnv().completed(["ci", "cj", "ck"]), f
        )

    def test_duality_on_enumerated_models(self):
        env = ContextEnv()
        body = parse_formula("a -> K{i,1.1} a")
        know = Know("i", "1.1", Not(body))
        poss = Poss("i", "1.1", body)
        for m in enumerate_models(2, ["i"], ["a"]):
            for w in m.worlds:
                assert satisfies(m, w, env, poss) == satisfies(
                    m, w, env, Not(know)
                )

    def test_s5_axioms_hold_on_all_enumerated_models(self):
        env = ContextEnv()
        phi = parse_formula("a -> b")
        k = Know("i", "1.1", phi)
        axioms = [
            Imp(k, phi),  # truth
            Imp(k, Know("i", "1.1", k)),  # positive introspection
            Imp(Not(k), Know("i", "1.1", Not(k))),  # negative introspection
        ]
        for m in enumerate_models(3, ["i"], ["a", "b"]):
            for w in m.worlds:
                for ax in axioms:
                    assert satisfies(m, w, env, ax)


class TestEnumeration:
    def test_counts_one_world(self):
        models = list(enumerate_models(1, ["i"], ["p"]))
        assert len(models) == 2

    def test_counts_two_worlds_stratum(self):
        # hand count: partitions of {w1,w2} are {{w1,w2}} and {{w1},{w2}};
        # valuations of one atom over two worlds: 4; stratum = 2*4 = 8
        models = list(enumerate_models(2, ["i"], ["p"]))
        stratum = [m for m in models if len(m.worlds) == 2]
        assert len(stratum) == 8
        assert len(models) == 10

    def test_counts_three_world_stratum_two_agents_two_atoms(self):
        assert bell_number(3) == 5
        models = list(enumerate_models(3, ["i", "j"], ["p", "q"]))
        stratum = [m for m in models if len(m.worlds) == 3]
        assert len(stratum) == 5 * 5 * 2**6
        assert len(models) == model_space_size(3, 2, 2) == 1668

    def test_no_duplicate_models(self):
        models = list(enumerate_models(2, ["i"], ["p"]))
        keys = {
            (m.worlds, tuple(m.relations["i"]), tuple(sorted(m.valuation.items())))
            for m in models
        }
        assert len(keys) == len(models)

    def test_partitions_cover_all(self):
        parts = list(set_partitions(("a", "b", "c")))
        assert len(parts) == 5
        for p in parts:
            assert set().union(*p) == {"a", "b", "c"}

    def test_ceiling_guard(self):
        with pytest.raises(EnumerationCeilingError):
            list(enumerate_models(4, ["i", "j"], ["p", "q", "r"], ceiling=1000))


class TestFindCountermodel:
    def test_tautology_has_none(self):
        assert find_countermodel(parse_formula("a -> a"), max_worlds=3) is None

    def test_contextual_factivity_12_fails_small(self):
        f = parse_formula("(K{j,1.2} K{k,1.2} p -> K{k,1.2} p)^ci")
        found = find_countermodel(f, ContextEnv(), max_worlds=3)
        assert found is not None
        assert len(found[0].worlds) <= 3

    def test_subjectivist_introspection_has_none_up_to_four_worlds(self):
        f = parse_formula("(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj")
        assert find_countermodel(f, ContextEnv(), max_worlds=4) is None

    def test_deterministic(self):
        f = parse_formula("a -> K{i,1.1} a")
        first = find_countermodel(f, max_worlds=3)
        second = find_countermodel(f, max_worlds=3)
        assert first == second
        assert len(first[0].worlds) == 2

    def test_concrete_context_bodies_enter_the_atom_set(self):
        f = parse_formula("(p)^ci")
        env = ContextEnv({"ci": parse_context("r")})
        model, world = find_countermodel(f, env, max_worlds=2)
        assert not satisfies(model, world, env, f)


def test_cross_semantics_spot_sample():
    """Reduced formulas evaluate identically (full sweep in acceptance)."""
    from celogic.reduction import reduce_full

    rng = random.Random(9)
    env = ContextEnv(
        {"ci": parse_context("p"), "cj": parse_context("q & ~p")}
    )
    models = list(enumerate_models(2, ["i", "j"], ["p", "q"]))
    for _ in range(25):
        f = random_formula(rng, 3)
        g = reduce_full(f).result
        for m in models:
            for w in m.worlds:
                assert satisfies(m, w, env, f) == satisfies(m, w, env, g)


# ---------------------------------------------------------------------------
# The frame scan against the model-by-model scan it replaced


def reference_models(max_worlds, agents, atoms):
    """enumerate_models as it was written before it shared _frame_model with
    the oracle: recursion over agents' partitions, then atoms' bitmasks."""
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        partitions = list(set_partitions(worlds))

        def rec_atoms(relations, i, val):
            if i == len(atoms):
                yield KripkeModel(worlds, relations, dict(val))
                return
            for mask in range(1 << n):
                ws = frozenset(w for j, w in enumerate(worlds) if mask >> j & 1)
                yield from rec_atoms(relations, i + 1, val + [(atoms[i], ws)])

        for chosen in itertools.product(partitions, repeat=len(agents)):
            yield from rec_atoms(dict(zip(agents, chosen)), 0, [])


def oracle_signature(f, env):
    """The agents and atoms find_countermodel scans by default: f's atoms
    that are not its context names, and the literals of those names' bodies."""
    info = formula_info(f)
    names = needed_context_names(f) | (env.bindings.keys() & info.atoms)
    atoms = set(info.atoms - names)
    for name in names:
        atoms |= {a for a, _ in env.resolve(name).literals}
    return sorted(info.agents), sorted(atoms)


def reference_find_countermodel(
    f, env=None, max_worlds=3, agents=None, atoms=None,
    ceiling=DEFAULT_ENUMERATION_CEILING,
):
    """The per-model scan: every model in order, the lowest failing world."""
    env = env or ContextEnv()
    default_agents, default_atoms = oracle_signature(f, env)
    agents = default_agents if agents is None else agents
    atoms = default_atoms if atoms is None else atoms
    fn = compile_formula(f, env.completed(needed_context_names(f)))
    for model in enumerate_models(max_worlds, agents, atoms, ceiling=ceiling):
        mask = fn(_ModelCtx(model))
        for i, w in enumerate(model.worlds):
            if not mask >> i & 1:
                return model, w
    return None


def outcome(search, f, **kwargs):
    try:
        found = search(f, **kwargs)
    except (ModelError, EnumerationCeilingError) as exc:
        return type(exc).__name__, str(exc)
    return None if found is None else (found[0].to_json(), found[1])


def assert_same_as_reference(f, **kwargs):
    expected = outcome(reference_find_countermodel, f, **kwargs)
    assert outcome(find_countermodel, f, **kwargs) == expected
    return expected


@pytest.mark.parametrize(
    "args",
    [
        (1, [], []),
        (2, [], ["p"]),
        (3, ["i"], []),
        (3, ["i", "j"], ["p", "q"]),
        (2, ["j", "i", "k"], ["b", "a"]),
        (2, ["i", "i"], ["p", "q", "p"]),
    ],
)
def test_enumerate_models_keeps_the_documented_order(args):
    assert [m.to_json() for m in enumerate_models(*args)] == [
        m.to_json() for m in reference_models(*args)
    ]


@pytest.mark.parametrize("max_worlds", [1, 2, 3])
def test_oracle_matches_the_model_scan_on_the_corpora(max_worlds):
    formulas = [parse_formula(r.formula) for r in SUITE_ROWS]
    formulas += cross_semantics_corpus()
    found = [assert_same_as_reference(f, max_worlds=max_worlds) for f in formulas]
    # both outcomes occur, so the comparison covers a scan to the end and a hit
    assert None in found
    assert any(isinstance(x, tuple) for x in found)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_oracle_matches_the_model_scan_property(seed):
    f = random_formula(random.Random(seed), 3)
    assert_same_as_reference(f, max_worlds=2)


def test_scanning_context_names_finds_the_same_model():
    """A context name is read as its body, never from the valuation, so
    scanning it too finds the same first counter-model, with one all-false
    entry more per name: a name's bits are 0 in the lowest failing
    valuation."""
    bound = ContextEnv({"ci": parse_context("p"), "cj": parse_context("q & ~p")})
    rng = random.Random(13)
    formulas = [random_formula(rng, 3, atoms=("p", "q", "ci", "cj")) for _ in range(300)]
    scanned = 0
    for f in formulas:
        for env in (ContextEnv(), bound):
            names = env.for_formula(f).bindings.keys() & formula_info(f).atoms
            found = find_countermodel(f, env, max_worlds=2)
            _, atoms = oracle_signature(f, env)
            wide = find_countermodel(
                f, env, max_worlds=2, atoms=sorted(set(atoms) | names)
            )
            if found is None:
                assert wide is None
                continue
            model = wide[0].to_json()
            dead = [model["valuation"].pop(name) for name in sorted(names)]
            assert dead == [[]] * len(names)
            assert (model, wide[1]) == (found[0].to_json(), found[1])
            scanned += bool(names)
    assert scanned > 50


class TestOracleEdges:
    def test_an_omitted_agent_is_a_model_error(self):
        f = parse_formula("K{i,1.1} p -> P{j,1.1} p")
        found = assert_same_as_reference(f, agents=["i"], max_worlds=2)
        assert found == ("ModelError", "model lacks agent 'j'")

    def test_the_outermost_missing_agent_is_named(self):
        f = parse_formula("K{i,1.1} K{j,1.1} p | P{k,1.1} P{j,1.1} p")
        cases = [([], "i"), (["j"], "i"), (["i"], "j"), (["i", "j"], "k")]
        for agents, missing in cases:
            found = assert_same_as_reference(f, agents=agents, max_worlds=2)
            assert found == ("ModelError", f"model lacks agent {missing!r}")
        with pytest.raises(ModelError, match="'i'"):
            satisfies(KripkeModel(["w1"], {}, {}), "w1", ContextEnv(), f)

    def test_an_omitted_atom_is_false_everywhere(self):
        for text in ["q -> K{i,1.1} p", "p | ~q", "K{i,1.1} (p -> q)"]:
            assert_same_as_reference(parse_formula(text), atoms=["p"])

    def test_zero_agents(self):
        assert assert_same_as_reference(parse_formula("p & q -> p")) is None
        model, world = assert_same_as_reference(parse_formula("p -> q | r"))
        assert world == "w1" and model["agents"] == {}

    def test_no_atoms(self):
        f = parse_formula("K{i,1.1} p -> p")
        assert assert_same_as_reference(f, atoms=[]) is None
        model, world = assert_same_as_reference(parse_formula("P{i,1.1} p"), atoms=())
        assert model["valuation"] == {}
        assert assert_same_as_reference(Atom("c"), env=ContextEnv({"c": TOP})) is None
        # a context name is read as its body, never from the valuation, so
        # it is not scanned
        model, _ = assert_same_as_reference(Atom("c"), env=ContextEnv({"c": BOT}))
        assert model["valuation"] == {}
        model, _ = assert_same_as_reference(parse_formula("ci -> (p)^ci"))
        assert model["valuation"] == {"_ctx_ci": ["w1"], "p": []}

    def test_the_ceiling_is_the_same(self):
        f = parse_formula("K{i,1.1} p & K{j,1.1} q -> p & q & (r | ~r)")
        size = model_space_size(3, 2, 3)
        assert assert_same_as_reference(f, ceiling=size) is None
        assert assert_same_as_reference(f, ceiling=size - 1) == (
            "EnumerationCeilingError",
            f"{size} models exceed the ceiling of {size - 1}",
        )


def test_frame_mask_layout():
    """Bit w*V + v of a frame's mask is bit w of the v-th model's mask."""
    f = parse_formula(
        "K{i,1.1} (p -> P{j,1.1} (q & K{i,1.1} ~p)) | P{j,1.1} K{i,1.1} q"
    )
    env = ContextEnv()
    fn = compile_formula(f, env)
    models = [
        m for m in enumerate_models(3, ["i", "j"], ["p", "q"]) if len(m.worlds) == 3
    ]
    V, val = _atom_masks(3, ["p", "q"])
    assert V == 64 and len(models) == 25 * V
    seen = set()
    for start in range(0, len(models), V):
        frame = models[start : start + V]
        assert all(m.relations == frame[0].relations for m in frame)
        mask = fn(_FrameCtx(frame[0].worlds, V, val, frame[0].relations))
        for v, model in enumerate(frame):
            expected = truth_mask(model, env, f)
            for w in range(3):
                bit = mask >> w * V + v & 1
                assert bit == expected >> w & 1
                seen.add(bit)
    assert seen == {0, 1}


def test_suite_rows_at_four_worlds():
    """Valid rows have no counter-model within four worlds and invalid rows
    get a falsifying one; a row over the ceiling must say so."""
    checked = over = 0
    for row in SUITE_ROWS:
        f = parse_formula(row.formula)
        env = ContextEnv()
        agents, atoms = oracle_signature(f, env)
        if model_space_size(4, len(agents), len(atoms)) > DEFAULT_ENUMERATION_CEILING:
            with pytest.raises(EnumerationCeilingError):
                find_countermodel(f, env, max_worlds=4)
            over += 1
            continue
        found = find_countermodel(f, env, max_worlds=4)
        if row.expected:
            assert found is None, row.formula
        else:
            full_env = env.completed(needed_context_names(f))
            assert not satisfies(*found[:2], full_env, f), row.formula
        checked += 1
    assert checked > over > 0
