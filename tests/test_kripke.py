import gc
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celogic.epistemology import SUITE_ROWS
from celogic.kripke import (
    DEFAULT_ENUMERATION_CEILING,
    LEAF_CAP,
    ContextEnv,
    EnumerationCeilingError,
    KripkeModel,
    ModelError,
    _KNOWLEDGE,
    _FrameCtx,
    _ModelCtx,
    _atom_masks,
    _frame_contexts,
    bell_number,
    check_model,
    compile_formula,
    enumerate_models,
    eval_context,
    find_countermodel,
    satisfies,
    set_partitions,
    truth_mask,
)
from celogic.reduction import needed_context_names
from celogic.syntax import (
    And,
    Atom,
    BOT,
    ContextFormula,
    Formula,
    Iff,
    Imp,
    Know,
    Not,
    Or,
    Poss,
    Rel,
    TOP,
    UntaggedOperatorError,
    agent_context,
    formula_info,
    parse_context,
    parse_formula,
    variant_contexts_names,
)

from corpus import cross_semantics_corpus, random_formula
import random
import re
from typing import Callable


def model_space_size(max_worlds: int, n_agents: int, n_atoms: int) -> int:
    """The number of models with 1 to max_worlds worlds: per world count n,
    a partition of the worlds per agent (the Bell number B(n) of them) and
    a set of worlds per atom."""
    return sum(
        bell_number(n) ** n_agents * 2 ** (n * n_atoms)
        for n in range(1, max_worlds + 1)
    )


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

    @pytest.mark.parametrize(
        "worlds, relations, violation",
        [
            ([], {}, "model has no worlds"),
            (["w1", "w1"], {"i": [["w1"]]}, "duplicate world ids"),
            (["w1"], {"i": [["w1"], []]}, "agent i: empty equivalence class"),
            (
                ["w1"],
                {"i": [["w1", "w9"]]},
                "agent i: classes mention unknown worlds ['w9']",
            ),
        ],
        ids=["no-worlds", "duplicate-ids", "empty-class", "unknown-world-in-class"],
    )
    def test_each_violation_is_named(self, worlds, relations, violation):
        assert check_model(KripkeModel(worlds, relations, {})) == [violation]

    def test_repr_names_the_worlds(self):
        m = KripkeModel(["w1", "w2"], {"i": [["w1", "w2"]]}, {"p": ["w1"]})
        assert repr(m) == "KripkeModel(worlds=('w1', 'w2'))"

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

    def test_unknown_world_is_a_model_error(self):
        env = ContextEnv({"ci": TOP})
        with pytest.raises(ModelError, match="unknown world"):
            eval_context(single_world_model(), "w9", env, "ci")


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
        # the empty set has one partition, the empty one
        assert [bell_number(n) for n in range(4)] == [1, 1, 2, 5]
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
# The generated kernel against the closure compiler it replaced


class ModelCtx(_ModelCtx):
    """A _ModelCtx that keeps its model, so the reference reads an agent's
    classes off the model, not off the kernel's knowledge tables."""

    def __init__(self, model: KripkeModel):
        super().__init__(model)
        self.model = model


def reference_context_mask_fn(env: ContextEnv, name: str) -> Callable[[_ModelCtx], int]:
    cf = env.resolve(name)
    if cf.is_top:
        return lambda ctx: ctx.full
    if cf.is_bot:
        return lambda ctx: 0

    lits = cf.literals

    def run(ctx: _ModelCtx) -> int:
        m = ctx.full
        for atom, positive in lits:
            vm = ctx.val.get(atom, 0)
            m &= vm if positive else (ctx.full & ~vm)
        return m

    return run


def reference_classes(ctx, agent: str) -> list[list[int]]:
    """The agent's classes, read off the model or the frame, not off the
    kernel's tables: over a model, as world indices; over a frame, as the
    offsets w*V of their worlds."""
    if isinstance(ctx, _ModelCtx):
        relations, place = ctx.model.relations, ctx.model.world_index
    else:
        relations, place = ctx.relations, lambda w: ctx.worlds.index(w) * ctx.V
    if agent not in relations:
        raise ModelError(f"model lacks agent {agent!r}")
    return [[place(w) for w in cl] for cl in relations[agent]]


def reference_know(ctx, classes: list[list[int]], bm: int) -> int:
    """Over a model, the union of the classes inside bm; over a frame, each
    class's V-bit slices ANDed and spread back to each of its worlds."""
    out = 0
    if isinstance(ctx, _ModelCtx):
        for cl in classes:
            cm = sum(1 << i for i in cl)
            if bm & cm == cm:
                out |= cm
        return out
    for offsets in classes:
        a = ctx.slice
        for o in offsets:
            a &= bm >> o
        for o in offsets:
            out |= a << o
    return out


def reference_poss(ctx, classes: list[list[int]], bm: int) -> int:
    """Over a model, the union of the classes meeting bm; over a frame, the
    dual of reference_know."""
    if isinstance(ctx, _ModelCtx):
        out = 0
        for cl in classes:
            cm = sum(1 << i for i in cl)
            if bm & cm:
                out |= cm
        return out
    return ctx.full & ~reference_know(ctx, classes, ctx.full & ~bm)


def reference_compile_formula(f: Formula, env: ContextEnv) -> Callable[[_ModelCtx], int]:
    """Compile a formula into a truth-mask function over evaluation contexts:
    a _ModelCtx (one model) or a _FrameCtx (one frame, every valuation).

    An atom whose name is bound in the environment denotes its context body
    (this is how context names surviving reduction keep their meaning); all
    other atoms, body literals included, read the valuation.
    """
    memo: dict[Formula, Callable[[_ModelCtx], int]] = {}

    def go(g: Formula) -> Callable[[_ModelCtx], int]:
        fn = memo.get(g)
        if fn is None:
            fn = build(g)
            memo[g] = fn
        return fn

    def build(g: Formula) -> Callable[[_ModelCtx], int]:
        match g:
            case Atom(name):
                if name in env.bindings:
                    return reference_context_mask_fn(env, name)
                return lambda ctx: ctx.val.get(name, 0)
            case Not(body):
                b = go(body)
                return lambda ctx: ctx.full & ~b(ctx)
            case And(l, r):
                a, b = go(l), go(r)
                return lambda ctx: a(ctx) & b(ctx)
            case Or(l, r):
                a, b = go(l), go(r)
                return lambda ctx: a(ctx) | b(ctx)
            case Imp(l, r):
                a, b = go(l), go(r)
                return lambda ctx: (ctx.full & ~a(ctx)) | b(ctx)
            case Iff(l, r):
                a, b = go(l), go(r)
                return lambda ctx: ctx.full & ~(a(ctx) ^ b(ctx))
            case Know(agent, _, body):
                b = go(body)
                # classes first: a missing agent is reported outermost first
                return lambda ctx: reference_know(
                    ctx, reference_classes(ctx, agent), b(ctx)
                )
            case Poss(agent, _, body):
                b = go(body)
                return lambda ctx: reference_poss(
                    ctx, reference_classes(ctx, agent), b(ctx)
                )
            case Rel(body, context):
                return build_rel(body, context)
        raise TypeError(f"not a formula: {g!r}")

    def build_rel(body: Formula, c: str) -> Callable[[_ModelCtx], int]:
        guard = reference_context_mask_fn(env, c)
        match body:
            case Atom(_):
                b = go(body)
                return lambda ctx: (ctx.full & ~guard(ctx)) | b(ctx)
            case Rel(_, _):
                b = go(body)
                return lambda ctx: (ctx.full & ~guard(ctx)) | b(ctx)
            case Not(inner):
                b = go(Rel(inner, c))
                return lambda ctx: (ctx.full & ~guard(ctx)) | (ctx.full & ~b(ctx))
            case And(l, r):
                # As in the satisfaction table: no guard on conjunction.
                a, b = go(Rel(l, c)), go(Rel(r, c))
                return lambda ctx: a(ctx) & b(ctx)
            case Or(l, r):
                a, b = go(Rel(l, c)), go(Rel(r, c))
                return lambda ctx: (ctx.full & ~guard(ctx)) | a(ctx) | b(ctx)
            case Imp(l, r):
                a, b = go(Rel(l, c)), go(Rel(r, c))
                return lambda ctx: (ctx.full & ~guard(ctx)) | (
                    (ctx.full & ~a(ctx)) | b(ctx)
                )
            case Iff(l, r):
                return go(Rel(And(Imp(l, r), Imp(r, l)), c))
            case Know(agent, variant, inner):
                cx, cy = variant_contexts_names(variant, c, agent)
                gx = reference_context_mask_fn(env, cx)
                k = go(Know(agent, variant, Rel(inner, cy)))
                return lambda ctx: (ctx.full & ~gx(ctx)) | k(ctx)
            case Poss(agent, variant, inner):
                return go(Rel(Not(Know(agent, variant, Not(inner))), c))
        raise TypeError(f"not a formula: {body!r}")

    return go(f)


ENVS = [
    ContextEnv(),
    *(ContextEnv({"ci": parse_context(b)}) for b in ("true", "false", "~p", "p & ~q")),
    ContextEnv({"ci": parse_context("~p"), "cj": parse_context("p & ~q")}),
]


def read_names(f, env):
    """The valuation names the compiled f reads under env: its unbound
    atoms, and the body literals of its bound atoms and of its guards (an
    unbound guard's body is its fresh stand-in)."""
    info = formula_info(f)
    atoms = set(info.atoms - env.bindings.keys())
    for name in needed_context_names(f) | (env.bindings.keys() & info.atoms):
        atoms |= {a for a, _ in env.resolve(name).literals}
    return sorted(atoms)


def assert_same_masks(f, env, agents, max_worlds, model_worlds=2):
    """The kernel, the reference and direct evaluation agree on every model
    up to model_worlds worlds, and the kernel and the reference on every
    frame up to max_worlds worlds."""
    fn, ref = compile_formula(f, env), reference_compile_formula(f, env)
    atoms = read_names(f, env)
    for model in enumerate_models(model_worlds, agents, atoms):
        ctx = ModelCtx(model)
        assert truth_mask(model, env, f) == fn(ctx) == ref(ctx)
    for ctx in _frame_contexts(max_worlds, agents, atoms):
        assert fn(ctx) == ref(ctx)
    return fn


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(ENVS),
    st.one_of(
        # (depth, atoms, frame worlds, model worlds); over one atom and ci,
        # x & ~x, x <-> x and double complements occur
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.sampled_from([("p", "q", "ci", "cj"), ("p", "ci")]),
            st.just(3),
            st.just(2),
        ),
        # about one in ten of these reaches past LEAF_CAP, where lines are
        # shared by their text alone
        st.just((4, tuple(f"a{n}" for n in range(10)), 2, 1)),
    ),
)
@settings(max_examples=200, deadline=None)
def test_the_kernel_matches_the_closure_compiler(seed, env, shape):
    depth, atoms, max_worlds, model_worlds = shape
    f = random_formula(random.Random(seed), depth, atoms=atoms)
    assert_same_masks(f, env, ["i", "j"], max_worlds, model_worlds)


@pytest.mark.parametrize(
    "text, body, local_names",
    [
        ("p | ~p", None, ("ctx", "full")),
        ("p <-> ~~p", None, ("ctx", "full")),
        ("q & (p & ~p)", None, ("ctx",)),
        ("~~p", None, ("ctx", "val", "m0")),
        ("K{i,1.1} (p | ~p)", None, ("ctx", "full", "k0")),
        ("(K{i,1.2} p)^ci", "false", ("ctx", "full", "k0")),
        ("(p)^ci", "true", ("ctx", "val", "m0")),
        # valid by their truth tables, which no textual identity sees
        ("(p -> q) | (q -> p)", None, ("ctx", "full")),
        ("K{i,1.1} (p & q) <-> K{i,1.1} (q & p)", None, ("ctx", "full", "k0")),
        ("P{i,1.1} (p & ~q) -> P{i,1.1} (~q & p)", None, ("ctx", "full", "k0")),
    ],
)
def test_the_kernel_folds_identities_and_drops_dead_lines(text, body, local_names):
    """An operation whose truth table is constant or an earlier line's emits
    no line, a line the root does not read is dropped, and full and the
    valuation are read only where a line left uses them; an agent's table is
    looked up all the same."""
    env = ContextEnv() if body is None else ContextEnv({"ci": parse_context(body)})
    fn = assert_same_masks(parse_formula(text), env, ["i"], 2)
    assert fn.__code__.co_varnames == local_names


def test_leaves_past_the_cap_share_lines_by_text():
    """A leaf past LEAF_CAP gets no truth table, so a line that reads it is
    shared by its text alone: ``~(a9 -> a1)`` and ``~(~a9 | a1)`` are two
    formulas of one text, so the second K adds only the ``|`` that joins
    it. The kernel agrees with the reference on ``a9 <-> ~a1``, and on a
    value that is not constant."""
    atoms = [f"a{n}" for n in range(1, LEAF_CAP + 2)]
    first, last = atoms[0], atoms[-1]
    once = (
        f"({' & '.join(atoms[:-1])}) | ({last} <-> ~{first})"
        f" | K{{i,1.1}} ~({last} -> {first})"
    )
    once, twice = (
        assert_same_masks(parse_formula(t), ContextEnv(), ["i"], 2, model_worlds=1)
        for t in (once, f"{once} | K{{i,1.1}} ~(~{last} | {first})")
    )
    assert len(twice.__code__.co_varnames) == len(once.__code__.co_varnames) + 1
    values = {once(ModelCtx(m)) for m in enumerate_models(1, ["i"], atoms)}
    assert values == {0, 1}


def test_names_are_bound_values_not_source():
    """Atom, agent and context names holding a quote, a newline, ')' or a
    backslash evaluate as plain names; the generated code holds only
    generated identifiers and the constant 0."""
    p, q, i, c = "p'\n", 'q")', "i\\'", "c')\\\n"
    f = Iff(
        Rel(Know(i, "1.2", Imp(Atom(p), Poss(i, "2.1", Not(Atom(q))))), c),
        Or(Atom(c), Rel(Atom(agent_context(i)), c)),
    )
    bodies = [ContextFormula(), ContextFormula(((p, True), (q, False)))]
    for env in [ContextEnv()] + [ContextEnv({c: body}) for body in bodies]:
        code = assert_same_masks(f, env, [i], 2).__code__
        identifiers = code.co_names + code.co_varnames
        assert all(re.fullmatch(r"[a-z]+[0-9]*", x) for x in identifiers)
        assert set(code.co_consts) <= {None, 0}
    model = KripkeModel(["w1"], {i: [["w1"]]}, {p: ["w1"]})
    assert satisfies(model, "w1", ContextEnv(), Know(i, "1.1", Atom(p)))
    assert not satisfies(model, "w1", ContextEnv(), Atom(q))


def test_a_long_context_body_compiles():
    """A body of thousands of literals is folded one literal per
    assignment, so no generated expression nests deeper than the compiler
    allows."""
    atoms = [f"a{n}" for n in range(5000)]
    body = ContextFormula(tuple((a, n % 2 == 0) for n, a in enumerate(atoms)))
    env = ContextEnv({"ci": body})
    f = And(Atom("ci"), Rel(Know("i", "1.1", Atom("p")), "ci"))
    valuation = {a: ["w1", "w2"] for a in atoms[::2]}
    model = KripkeModel(
        ["w1", "w2", "w3"],
        {"i": [["w1", "w2"], ["w3"]]},
        {**valuation, "a1": ["w2"], "p": ["w1", "w2"]},
    )
    ctx = ModelCtx(model)
    assert compile_formula(f, env)(ctx) == reference_compile_formula(f, env)(ctx) == 0b001


def test_kernels_of_one_shape_share_their_code():
    """Names reach a kernel through its namespace, never its source, so two
    formulas of one shape over other atoms and agents compile to one code
    object, and each kernel still reads its own names."""
    f = parse_formula("K{i,1.1} (p -> q) | P{j,1.1} ~p")
    g = parse_formula("K{j,1.1} (q -> r) | P{i,1.1} ~q")
    env = ContextEnv()
    kf, kg = compile_formula(f, env), compile_formula(g, env)
    assert kf is not kg and kf.__code__ is kg.__code__
    masks = set()
    for model in enumerate_models(2, ["i", "j"], ["p", "q", "r"]):
        ctx = _ModelCtx(model)
        assert kf(ctx) == truth_mask(model, env, f)
        assert kg(ctx) == truth_mask(model, env, g)
        masks.add((kf(ctx), kg(ctx)))
    assert len({a for a, _ in masks}) > 1 and any(a != b for a, b in masks)


# ---------------------------------------------------------------------------
# Direct evaluation: the same rules folded over one model's masks


@pytest.fixture(scope="module")
def models_up_to_three_worlds():
    """Every model up to three worlds over p and q, per tuple of agents."""
    by_agents = {}

    def models(agents):
        if agents not in by_agents:
            by_agents[agents] = [
                (m, ModelCtx(m)) for m in enumerate_models(3, agents, ["p", "q"])
            ]
        return by_agents[agents]

    return models


def test_truth_mask_matches_the_kernel_on_the_corpora(models_up_to_three_worlds):
    """truth_mask, the kernel and the reference agree on every model up to
    three worlds, each formula under one env of ENVS in turn, so every env
    meets both corpora."""
    formulas = [parse_formula(r.formula) for r in SUITE_ROWS]
    formulas += cross_semantics_corpus()
    for n, f in enumerate(formulas):
        env = ENVS[n % len(ENVS)]
        fn, ref = compile_formula(f, env), reference_compile_formula(f, env)
        for model, ctx in models_up_to_three_worlds(tuple(sorted(formula_info(f).agents))):
            assert truth_mask(model, env, f) == fn(ctx) == ref(ctx), (f, env)


def test_direct_evaluation_compiles_nothing(monkeypatch):
    """satisfies, eval_context and prove_cel's witness checks give the
    kernel's answers without reaching compile_formula or, in the module that
    generates kernels, compile()."""
    import celogic.kripke
    from celogic.prove import Invalid, prove_cel

    model = KripkeModel(
        ["w1", "w2", "w3"],
        {"i": [["w1", "w2"], ["w3"]], "j": [["w1"], ["w2", "w3"]], "k": [["w1", "w2", "w3"]]},
        {"p": ["w1"], "q": ["w2", "w3"], "a": ["w1", "w3"], "_ctx_ci": ["w1", "w2"]},
    )
    rows = [(parse_formula(r.formula), r.expected) for r in SUITE_ROWS]
    envs = [ContextEnv().for_formula(f) for f, _ in rows]
    kernel = [compile_formula(f, env)(_ModelCtx(model)) for (f, _), env in zip(rows, envs)]
    bound = ContextEnv({"ci": parse_context("p & ~q")})
    contexts = [eval_context(model, w, bound, "ci") for w in model.worlds]

    def refuse(*args, **kwargs):
        raise AssertionError("compiled a kernel")

    monkeypatch.setattr(celogic.kripke, "compile_formula", refuse)
    monkeypatch.setattr(celogic.kripke, "compile", refuse, raising=False)
    for (f, _), env, mask in zip(rows, envs, kernel):
        for n, w in enumerate(model.worlds):
            assert satisfies(model, w, env, f) == bool(mask >> n & 1)
    assert contexts == [True, False, False]
    assert [eval_context(model, w, bound, "ci") for w in model.worlds] == contexts
    invalid = [f for f, expected in rows if not expected]
    assert invalid and all(isinstance(prove_cel(f), Invalid) for f in invalid)


class TestDirectEvaluationErrors:
    """truth_mask raises what compiling and then running the kernel raises."""

    @staticmethod
    def kernel_outcome(model, env, f):
        try:
            return compile_formula(f, env)(_ModelCtx(model))
        except Exception as exc:
            return type(exc), str(exc)

    @staticmethod
    def direct_outcome(model, env, f):
        try:
            return truth_mask(model, env, f)
        except Exception as exc:
            return type(exc), str(exc)

    def test_a_missing_agent_is_named_as_the_kernel_names_it(self):
        texts = [
            "K{i,1.1} K{j,1.1} p | P{k,1.1} P{j,1.1} p",
            "K{i,1.1} (P{j,1.1} K{k,1.1} p | K{k,1.1} q)",
            "K{k,1.1} (p | ~p)",
            "P{k,1.1} (p & ~p) -> q",
            "(K{k,1.2} p)^ci",
            "(K{j,2.1} P{k,1.2} p)^ci -> K{i,1.1} q",
        ]
        models = [
            KripkeModel(["w1"], {}, {}),
            KripkeModel(["w1", "w2"], {"i": [["w1", "w2"]]}, {}),
            KripkeModel(["w1", "w2"], {"i": [["w1"], ["w2"]], "j": [["w1", "w2"]]}, {}),
        ]
        missing = 0
        for text in texts:
            f = parse_formula(text)
            for env in (ContextEnv(), ContextEnv({"ci": BOT})):
                env = env.completed(needed_context_names(f))
                for model in models:
                    expected = self.kernel_outcome(model, env, f)
                    assert self.direct_outcome(model, env, f) == expected
                    missing += isinstance(expected, tuple)
        assert missing > 20

    def test_an_untagged_operator_under_a_context_is_reported_first(self):
        f = Or(Know("i", "1.1", Atom("p")), Rel(Know("j", None, Atom("p")), "ci"))
        env = ContextEnv({"ci": TOP})
        for model in (single_world_model(), KripkeModel(["w1"], {}, {})):
            with pytest.raises(UntaggedOperatorError):
                compile_formula(f, env)
            with pytest.raises(UntaggedOperatorError):
                truth_mask(model, env, f)
            with pytest.raises(UntaggedOperatorError):
                satisfies(model, "w9", env, f)

    def test_an_unknown_world_is_a_model_error(self):
        with pytest.raises(ModelError, match="unknown world 'w9'"):
            satisfies(single_world_model(), "w9", ContextEnv(), parse_formula("a"))
        # the formula is evaluated first: its missing agent is reported
        with pytest.raises(ModelError, match="model lacks agent 'j'"):
            satisfies(single_world_model(), "w9", ContextEnv(), parse_formula("K{j,1.1} a"))


class TestKnowledgeTable:
    """The kernel's Know is a subscript of the agent's shared table, its
    Poss the dual subscript."""

    @staticmethod
    def models(n):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        for partition in set_partitions(worlds):
            yield KripkeModel(worlds, {"i": partition}, {})

    def test_the_table_is_the_class_loop_and_its_dual_the_meeting_classes(self):
        checked = 0
        for n in range(1, 5):
            for model in self.models(n):
                ctx = ModelCtx(model)
                classes = reference_classes(ctx, "i")
                table, full = ctx.classes["i"], ctx.full
                for m in range(full + 1):
                    assert table[m] == reference_know(ctx, classes, m)
                    meeting = reference_poss(ctx, classes, m)
                    assert full & ~table[full & ~m] == meeting
                    checked += 1
        # 1*2 + 2*4 + 5*8 + 15*16 masks over the 23 partitions
        assert checked == 290

    def test_models_over_one_partition_share_one_table(self):
        worlds = ["w1", "w2", "w3"]
        a = KripkeModel(worlds, {"i": [["w1", "w3"], ["w2"]]}, {"p": ["w1"]})
        b = KripkeModel(worlds, {"i": [["w2"], ["w3", "w1"]], "j": [worlds]}, {})
        c = KripkeModel(worlds, {"i": [["w1"], ["w2", "w3"]]}, {})
        tables = [_ModelCtx(m).classes["i"] for m in (a, b, c)]
        assert tables[0] is tables[1]
        assert tables[0] is not tables[2]

    def test_a_table_dies_with_its_last_context(self):
        # a partition no other test builds: eleven singleton classes
        worlds = [f"w{n}" for n in range(11)]
        key = tuple(1 << n for n in range(11))
        ctx = _ModelCtx(KripkeModel(worlds, {"i": [[w] for w in worlds]}, {}))
        assert _KNOWLEDGE[key] is ctx.classes["i"]
        other = _ModelCtx(KripkeModel(worlds, {"j": [[w] for w in worlds]}, {}))
        del ctx
        gc.collect()
        assert _KNOWLEDGE[key] is other.classes["j"]
        del other
        gc.collect()
        assert key not in _KNOWLEDGE


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
    """The agents and atoms find_countermodel scans: f's atoms
    that are not its context names, and the literals of those names' bodies."""
    info = formula_info(f)
    names = needed_context_names(f) | (env.bindings.keys() & info.atoms)
    atoms = set(info.atoms - names)
    for name in names:
        atoms |= {a for a, _ in env.resolve(name).literals}
    return sorted(info.agents), sorted(atoms)


def reference_find_countermodel(
    f, env=None, max_worlds=3, atoms=None, ceiling=DEFAULT_ENUMERATION_CEILING
):
    """The per-model scan: every model in order, the lowest failing world,
    over f's agents and over its signature's atoms or, if given, ``atoms``."""
    env = env or ContextEnv()
    agents, default_atoms = oracle_signature(f, env)
    atoms = default_atoms if atoms is None else atoms
    fn = reference_compile_formula(f, env.completed(needed_context_names(f)))
    for model in enumerate_models(max_worlds, agents, atoms, ceiling=ceiling):
        mask = fn(ModelCtx(model))
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
    """A context name is read as its body, never from the valuation, so a
    model scan over it too finds the oracle's first counter-model, with one
    all-false entry more per name: a name's bits are 0 in the lowest failing
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
            wide = reference_find_countermodel(
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
    @staticmethod
    def lacked(f, model, env=None):
        """The ModelError that the kernel, the reference kernel and
        truth_mask all raise on f over a model lacking one of its agents."""
        env = (env or ContextEnv()).for_formula(f)
        errors = set()
        for evaluate in (
            lambda: compile_formula(f, env)(ModelCtx(model)),
            lambda: reference_compile_formula(f, env)(ModelCtx(model)),
            lambda: truth_mask(model, env, f),
        ):
            with pytest.raises(ModelError) as exc:
                evaluate()
            errors.add(str(exc.value))
        (error,) = errors
        return error

    def test_an_omitted_agent_is_a_model_error(self):
        f = parse_formula("K{i,1.1} p -> P{j,1.1} p")
        for model in enumerate_models(2, ["i"], ["p"]):
            assert self.lacked(f, model) == "model lacks agent 'j'"

    def test_the_outermost_missing_agent_is_named(self):
        f = parse_formula("K{i,1.1} K{j,1.1} p | P{k,1.1} P{j,1.1} p")
        cases = [([], "i"), (["j"], "i"), (["i"], "j"), (["i", "j"], "k")]
        for agents, missing in cases:
            for model in enumerate_models(2, agents, ["p"]):
                assert self.lacked(f, model) == f"model lacks agent {missing!r}"
        with pytest.raises(ModelError, match="'i'"):
            satisfies(KripkeModel(["w1"], {}, {}), "w1", ContextEnv(), f)
        # a model with some of the agents: the outermost one it lacks
        model = KripkeModel(["w1", "w2"], {"i": [["w1", "w2"]]}, {})
        g = parse_formula("K{i,1.1} (P{j,1.1} K{k,1.1} p | K{k,1.1} q)")
        with pytest.raises(ModelError, match="model lacks agent 'j'"):
            truth_mask(model, ContextEnv(), g)
        # an operator that folds away still looks its agent's table up
        false_ci = ContextEnv({"ci": BOT})
        for text, env in [
            ("K{k,1.1} (p | ~p)", ContextEnv()),
            ("P{k,1.1} (p & ~p) -> q", ContextEnv()),
            ("(K{k,1.2} p)^ci", false_ci),
        ]:
            g = parse_formula(text)
            for bare in enumerate_models(2, [], ["p", "q"]):
                assert self.lacked(g, bare, env) == "model lacks agent 'k'"
            with pytest.raises(ModelError, match="model lacks agent 'k'"):
                truth_mask(model, env.completed(needed_context_names(g)), g)

    def test_an_omitted_atom_is_false_everywhere(self):
        for text in ["q -> K{i,1.1} p", "p | ~q", "K{i,1.1} (p -> q)"]:
            f = parse_formula(text)
            env = ContextEnv().for_formula(f)
            kernel, reference = compile_formula(f, env), reference_compile_formula(f, env)
            for model in enumerate_models(2, ["i"], ["p"]):
                padded = KripkeModel(
                    model.worlds, model.relations, {**model.valuation, "q": []}
                )
                mask = kernel(ModelCtx(padded))
                assert kernel(ModelCtx(model)) == mask
                assert reference(ModelCtx(model)) == mask
                assert truth_mask(model, env, f) == mask

    def test_zero_agents(self):
        assert assert_same_as_reference(parse_formula("p & q -> p")) is None
        model, world = assert_same_as_reference(parse_formula("p -> q | r"))
        assert world == "w1" and model["agents"] == {}

    def test_no_atoms(self):
        env = ContextEnv({"c": BOT})
        assert assert_same_as_reference(parse_formula("K{i,1.1} c -> c"), env=env) is None
        model, world = assert_same_as_reference(parse_formula("P{i,1.1} c"), env=env)
        assert model["valuation"] == {} and model["agents"] == {"i": [["w1"]]}
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


def test_the_ceiling_is_checked_before_compiling(monkeypatch):
    """An input over the ceiling stops before its kernel is compiled."""
    import celogic.kripke

    def refuse(f, env):
        raise AssertionError("compiled a formula over the ceiling")

    monkeypatch.setattr(celogic.kripke, "compile_formula", refuse)
    f = parse_formula("K{i,1.1} p & K{j,1.1} q & r -> s")
    with pytest.raises(EnumerationCeilingError):
        find_countermodel(f, max_worlds=5)


def test_the_ceiling_check_stops_once_the_count_passes_it(monkeypatch):
    """The count stops at the first world count that passes the ceiling,
    not at max_worlds: the exact count of 5,000 worlds is thousands of
    digits long."""
    import celogic.kripke

    calls = []

    def counted_bell_number(n):
        calls.append(n)
        if len(calls) == 40:
            raise AssertionError("counted the models of 40 world counts")
        return bell_number(n)

    monkeypatch.setattr(celogic.kripke, "bell_number", counted_bell_number)
    with pytest.raises(EnumerationCeilingError, match="^at least 15257700 models "):
        find_countermodel(parse_formula("K{i,1.1} p -> q"), max_worlds=5000)
    assert calls == [1, 2, 3, 4, 5, 6, 7]


def test_a_formula_without_agents_lists_no_partitions(monkeypatch):
    """With no agent a frame is its worlds alone: neither the ceiling check
    nor the scan asks for a partition or a Bell number."""
    import celogic.kripke

    wide = parse_formula("p -> q | r")
    expected = outcome(reference_find_countermodel, wide)

    def refuse(*args):
        raise AssertionError("partitioned the worlds of a formula without agents")

    monkeypatch.setattr(celogic.kripke, "set_partitions", refuse)
    monkeypatch.setattr(celogic.kripke, "bell_number", refuse)
    assert find_countermodel(parse_formula("p -> p"), max_worlds=12) is None
    assert outcome(find_countermodel, wide) == expected
    assert len(list(enumerate_models(3, [], ["p"]))) == 2 + 4 + 8


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
