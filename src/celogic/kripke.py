"""Kripke models over agent partitions, direct satisfaction, and the
bounded enumeration oracle.

Relations are stored as partitions (one equivalence class list per agent), so
reflexivity, symmetry and transitivity hold by construction. Satisfaction is
evaluated by compiling a formula once into a truth-mask function: each
subformula evaluates to an integer bitmask. Over one model (_ModelCtx) bit w
is world w. Over one frame (_FrameCtx: a world count and a partition per
agent) bit w*V + v is world w under the v-th of its V valuations, so the
oracle evaluates each frame once instead of each model (bit-slicing), through
the same compiled closures rather than a second semantics.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Iterator

from .reduction import needed_context_names
from .syntax import (
    And,
    Atom,
    ContextFormula,
    Formula,
    Iff,
    Imp,
    Know,
    Not,
    Or,
    Poss,
    Rel,
    formula_info,
    parse_context,
    render_context,
    variant_contexts_names,
)

FRESH_CONTEXT_PREFIX = "_ctx_"

DEFAULT_ENUMERATION_CEILING = 5_000_000


class ModelError(ValueError):
    """The model cannot support the requested evaluation."""


class EnumerationCeilingError(RuntimeError):
    """The requested model space exceeds the configured ceiling."""


class KripkeModel:
    """Finite model: world ids, per-agent partitions, atomic valuation.

    Immutable after construction; invariant violations are reported by
    check_model rather than raised, so defective models can be inspected.
    """

    def __init__(self, worlds, relations, valuation):
        self.worlds: tuple[str, ...] = tuple(worlds)
        self.relations: dict[str, tuple[frozenset[str], ...]] = {
            agent: tuple(frozenset(c) for c in classes)
            for agent, classes in relations.items()
        }
        self.valuation: dict[str, frozenset[str]] = {
            atom: frozenset(ws) for atom, ws in valuation.items()
        }
        self._index = {w: i for i, w in enumerate(self.worlds)}

    def world_index(self, world: str) -> int:
        try:
            return self._index[world]
        except KeyError:
            raise ModelError(f"unknown world {world!r}") from None

    def __repr__(self):
        return f"KripkeModel(worlds={self.worlds!r})"

    def __eq__(self, other):
        return (
            isinstance(other, KripkeModel)
            and self.worlds == other.worlds
            and self.relations == other.relations
            and self.valuation == other.valuation
        )

    def to_json(self) -> dict:
        return {
            "worlds": list(self.worlds),
            "agents": {
                agent: [sorted(c, key=self._index.get) for c in classes]
                for agent, classes in self.relations.items()
            },
            "valuation": {
                atom: sorted(ws, key=self._index.get)
                for atom, ws in self.valuation.items()
            },
        }

    @classmethod
    def from_json(cls, data) -> "KripkeModel":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(data["worlds"], data.get("agents", {}), data.get("valuation", {}))

    def to_dot(self, highlight: str | None = None) -> str:
        """Graphviz export: worlds as nodes listing their atoms, one labeled
        edge per pair inside an agent class."""
        lines = ["graph model {", "  node [shape=box];"]
        for w in self.worlds:
            atoms = sorted(a for a, ws in self.valuation.items() if w in ws)
            label = w + r"\n" + "{" + ", ".join(atoms) + "}"
            extra = ' color="red"' if w == highlight else ""
            lines.append(f'  "{w}" [label="{label}"{extra}];')
        for agent, classes in sorted(self.relations.items()):
            for cl in classes:
                members = sorted(cl, key=self._index.get)
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        lines.append(f'  "{a}" -- "{b}" [label="{agent}"];')
        lines.append("}")
        return "\n".join(lines)


def check_model(model: KripkeModel) -> list[str]:
    """Invariant audit; empty list means the model is well-formed."""
    violations = []
    if not model.worlds:
        violations.append("model has no worlds")
    if len(set(model.worlds)) != len(model.worlds):
        violations.append("duplicate world ids")
    worlds = set(model.worlds)
    for agent, classes in model.relations.items():
        seen: set[str] = set()
        for cl in classes:
            if not cl:
                violations.append(f"agent {agent}: empty equivalence class")
            if cl & seen:
                violations.append(
                    f"agent {agent}: worlds {sorted(cl & seen)} in two classes"
                )
            seen |= cl
        if seen - worlds:
            violations.append(
                f"agent {agent}: classes mention unknown worlds {sorted(seen - worlds)}"
            )
        if worlds - seen:
            violations.append(
                f"agent {agent}: worlds {sorted(worlds - seen)} not covered by any class"
            )
    for atom, ws in model.valuation.items():
        if ws - worlds:
            violations.append(
                f"valuation of {atom}: unknown worlds {sorted(ws - worlds)}"
            )
    return violations


class ContextEnv:
    """Binding of context names to context formulas.

    An unbound name always resolves to a reserved fresh atom
    (``_ctx_<name>``); there is no switch. Validity of normal modal logics
    is closed under uniform substitution, so schema verdicts computed with
    an atomic stand-in agree with verdicts quantified over all literal
    conjunction instances.
    """

    def __init__(self, bindings=None):
        self.bindings: dict[str, ContextFormula] = dict(bindings or {})

    def resolve(self, name: str) -> ContextFormula:
        if name in self.bindings:
            return self.bindings[name]
        return ContextFormula(((FRESH_CONTEXT_PREFIX + name, True),))

    def completed(self, names) -> "ContextEnv":
        """Explicit env binding every listed name (auto names get frozen in)."""
        bindings = dict(self.bindings)
        for name in names:
            bindings[name] = self.resolve(name)
        return ContextEnv(bindings)

    def for_formula(self, f: Formula) -> "ContextEnv":
        """The env every engine reads f under: it binds exactly f's context
        names, its guards (``needed_context_names``) and the bound names it
        uses as atoms, to their bodies or fresh stand-ins. Every other name,
        body literals included, is a plain atom. A body literal that is one
        of f's context names raises ValueError: the tableau and the game
        would expand it, ``compile_formula`` reads it from the valuation."""
        names = needed_context_names(f)
        if self.bindings:
            names = names | (self.bindings.keys() & formula_info(f).atoms)
        bindings = {name: self.resolve(name) for name in sorted(names)}
        for name, cf in bindings.items():
            for atom, _ in cf.literals:
                if atom in bindings:
                    raise ValueError(
                        f"context {name} has the context name {atom} in its body"
                    )
        return ContextEnv(bindings)

    def to_json(self) -> dict:
        return {name: render_context(cf) for name, cf in sorted(self.bindings.items())}

    @classmethod
    def from_json(cls, data) -> "ContextEnv":
        if isinstance(data, str):
            data = json.loads(data)
        return cls({name: parse_context(text) for name, text in data.items()})

    def __repr__(self):
        return f"ContextEnv({self.to_json()!r})"


def eval_context(model: KripkeModel, world: str, env: ContextEnv, name: str) -> bool:
    """Truth of the context body bound to ``name`` at ``world``."""
    cf = env.resolve(name)
    if cf.is_top:
        return True
    if cf.is_bot:
        return False
    return all(
        (world in model.valuation.get(atom, frozenset())) == positive
        for atom, positive in cf.literals
    )


# ---------------------------------------------------------------------------
# Mask-compiled satisfaction


class _Classes(dict):
    """Agent -> equivalence classes; asking for a missing agent is an error."""

    def __missing__(self, agent):
        raise ModelError(f"model lacks agent {agent!r}")


class _ModelCtx:
    """Per-model evaluation tables: valuation masks and class masks."""

    def __init__(self, model: KripkeModel):
        self.model = model
        index = model._index
        self.full = (1 << len(model.worlds)) - 1
        self.val = {
            atom: _mask_of(ws, index) for atom, ws in model.valuation.items()
        }
        self.classes = _Classes({
            agent: [_mask_of(cl, index) for cl in classes]
            for agent, classes in model.relations.items()
        })

    def know(self, classes: list[int], bm: int) -> int:
        out = 0
        for cm in classes:
            if bm & cm == cm:
                out |= cm
        return out

    def poss(self, classes: list[int], bm: int) -> int:
        out = 0
        for cm in classes:
            if bm & cm:
                out |= cm
        return out


class _FrameCtx:
    """One frame under all its V valuations at once: bit w*V + v is world w
    under valuation v. A class is held as the offsets w*V of its worlds; Know
    ANDs the class's V-bit slices and spreads the result back to each."""

    def __init__(self, worlds: tuple, V: int, val: dict[str, int], relations):
        self.slice = (1 << V) - 1
        self.full = (1 << len(worlds) * V) - 1
        self.val = val
        self.classes = _Classes({
            agent: [tuple(worlds.index(w) * V for w in cl) for cl in classes]
            for agent, classes in relations.items()
        })

    def know(self, classes: list[tuple[int, ...]], bm: int) -> int:
        out = 0
        for offsets in classes:
            a = self.slice
            for o in offsets:
                a &= bm >> o
            for o in offsets:
                out |= a << o
        return out

    def poss(self, classes: list[tuple[int, ...]], bm: int) -> int:
        return self.full & ~self.know(classes, self.full & ~bm)


def _mask_of(worlds, index) -> int:
    m = 0
    for w in worlds:
        m |= 1 << index[w]
    return m


def _context_mask_fn(env: ContextEnv, name: str) -> Callable[[_ModelCtx], int]:
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


def compile_formula(f: Formula, env: ContextEnv) -> Callable[[_ModelCtx], int]:
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
                    return _context_mask_fn(env, name)
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
                return lambda ctx: ctx.know(ctx.classes[agent], b(ctx))
            case Poss(agent, _, body):
                b = go(body)
                return lambda ctx: ctx.poss(ctx.classes[agent], b(ctx))
            case Rel(body, context):
                return build_rel(body, context)
        raise TypeError(f"not a formula: {g!r}")

    def build_rel(body: Formula, c: str) -> Callable[[_ModelCtx], int]:
        guard = _context_mask_fn(env, c)
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
                gx = _context_mask_fn(env, cx)
                k = go(Know(agent, variant, Rel(inner, cy)))
                return lambda ctx: (ctx.full & ~gx(ctx)) | k(ctx)
            case Poss(agent, variant, inner):
                return go(Rel(Not(Know(agent, variant, Not(inner))), c))
        raise TypeError(f"not a formula: {body!r}")

    return go(f)


def truth_mask(model: KripkeModel, env: ContextEnv, f: Formula) -> int:
    return compile_formula(f, env)(_ModelCtx(model))


def satisfies(model: KripkeModel, world: str, env: ContextEnv, f: Formula) -> bool:
    """Direct truth of ``f`` at ``world``.

    Preconditions: check_model(model) is empty and world is in the model.
    """
    return bool(truth_mask(model, env, f) >> model.world_index(world) & 1)


# ---------------------------------------------------------------------------
# Bounded enumeration


def bell_number(n: int) -> int:
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def model_space_size(max_worlds: int, n_agents: int, n_atoms: int) -> int:
    return sum(
        bell_number(n) ** n_agents * 2 ** (n * n_atoms)
        for n in range(1, max_worlds + 1)
    )


def set_partitions(items: tuple):
    """All partitions of items, in restricted-growth-string order."""
    n = len(items)
    rgs = [0] * n

    def rec(i: int, maxval: int):
        if i == n:
            k = maxval + 1
            classes = [[] for _ in range(k)]
            for j, v in enumerate(rgs):
                classes[v].append(items[j])
            yield tuple(frozenset(c) for c in classes)
            return
        for v in range(maxval + 2):
            rgs[i] = v
            yield from rec(i + 1, max(maxval, v))

    if n == 0:
        yield ()
        return
    yield from rec(1, 0)


def _check_space(max_worlds: int, agents: list, atoms: list, ceiling: int) -> None:
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    total = model_space_size(max_worlds, len(agents), len(atoms))
    if total > ceiling:
        raise EnumerationCeilingError(
            f"{total} models exceed the ceiling of {ceiling}"
        )


def _frames(worlds: tuple, agents: list):
    """Agent -> partition of worlds, each frame in the documented order."""
    partitions = list(set_partitions(worlds))
    for chosen in itertools.product(partitions, repeat=len(agents)):
        yield dict(zip(agents, chosen))


def _frame_model(worlds: tuple, relations: dict, atoms: list, v: int) -> KripkeModel:
    """Valuation v of a frame: atoms[i] holds at world w iff bit
    n*(k-1-i) + w of v is set, so atoms[0] varies slowest."""
    n, k = len(worlds), len(atoms)
    return KripkeModel(worlds, relations, {
        atom: [w for j, w in enumerate(worlds) if v >> n * (k - 1 - i) + j & 1]
        for i, atom in enumerate(atoms)
    })


def enumerate_models(
    max_worlds: int,
    agents,
    atoms,
    ceiling: int = DEFAULT_ENUMERATION_CEILING,
) -> Iterator[KripkeModel]:
    """Every model up to max_worlds worlds over the given agents and atoms.

    Deterministic order: world count ascending; per-agent partitions in
    restricted-growth-string order, agents cycling fastest on the right;
    valuations by bitmask, atoms cycling fastest on the right. No isomorphism
    reduction.
    """
    agents = list(agents)
    atoms = list(atoms)
    _check_space(max_worlds, agents, atoms, ceiling)
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        for relations in _frames(worlds, agents):
            for v in range(1 << n * len(atoms)):
                yield _frame_model(worlds, relations, atoms, v)


def _atom_masks(n: int, atoms: list) -> tuple[int, dict[str, int]]:
    """V = 2**(n*k) and each atom's _FrameCtx mask, in _frame_model's layout.

    Over v, bit b of v is runs of p = 2**b zeros then p ones: one period,
    doubled until it spans V bits.
    """
    V = 1 << n * len(atoms)
    val = {}
    for i, atom in enumerate(atoms):
        val[atom] = 0
        for w in range(n):
            p = 1 << n * (len(atoms) - 1 - i) + w
            m, width = ((1 << p) - 1) << p, 2 * p
            while width < V:
                m, width = m | m << width, 2 * width
            val[atom] |= m << w * V
    return V, val


def find_countermodel(
    f: Formula,
    env: ContextEnv | None = None,
    max_worlds: int = 3,
    agents=None,
    atoms=None,
    ceiling: int = DEFAULT_ENUMERATION_CEILING,
) -> tuple[KripkeModel, str] | None:
    """First (model, world) falsifying f in enumerate_models' order.

    Scans frames, not models: world count ascending, then one partition per
    agent (agents cycling fastest on the right), each frame evaluated once
    over all its V valuations, bit w*V + v for world w under valuation v.
    The answer is the first frame's lowest failing valuation, then the lowest
    failing world under it: the first hit a scan model by model would give.

    None means no counter-model within the bound; that does not certify
    validity. f is read under ``env.for_formula(f)``: its guards and the
    bound names it uses as atoms are its context names, a body literal that
    is one of them raises ValueError. Agents default to those of the
    formula; atoms to its atoms that are not context names (those are read
    as their bodies, never from the valuation), plus the literals of the
    context names' bodies.
    """
    env = (env or ContextEnv()).for_formula(f)
    info = formula_info(f)
    if agents is None:
        agents = sorted(info.agents)
    if atoms is None:
        atom_set = info.atoms - env.bindings.keys()
        for cf in env.bindings.values():
            atom_set |= {a for a, _ in cf.literals}
        atoms = sorted(atom_set)
    agents, atoms = list(agents), list(atoms)
    fn = compile_formula(f, env)
    _check_space(max_worlds, agents, atoms, ceiling)
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        V, val = _atom_masks(n, atoms)
        for relations in _frames(worlds, agents):
            ctx = _FrameCtx(worlds, V, val, relations)
            fail = ctx.full & ~fn(ctx)
            if fail:
                # lowest failing valuation, then the lowest world failing in it
                slices = [fail >> w * V & ctx.slice for w in range(n)]
                v = min((s & -s).bit_length() - 1 for s in slices if s)
                w = next(w for w, s in enumerate(slices) if s >> v & 1)
                return _frame_model(worlds, relations, atoms, v), worlds[w]
    return None
