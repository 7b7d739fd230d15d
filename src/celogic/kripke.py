"""Kripke models over agent partitions, direct satisfaction, and the
bounded enumeration oracle.

Relations are stored as partitions (one equivalence class list per agent), so
reflexivity, symmetry and transitivity hold by construction. Each subformula
evaluates to an integer bitmask. Over one model (_ModelCtx) bit w is world w.
Over one frame (_FrameCtx: a world count and a partition per agent) bit
w*V + v is world w under the v-th of its V valuations, so the oracle
evaluates each frame once instead of each model (bit-slicing).

The satisfaction table is stated once, as a ``fold`` step over an abstract
mask algebra (``_mask_rules``), and instantiated twice (the interpreter
stated once and both run and compiled, as in Carette, Kiselyov & Shan,
"Finally tagless, partially evaluated", 2009). ``truth_mask``, and so
``satisfies`` and ``eval_context``, folds it over the integer masks of one
model, with no code generated. ``compile_formula`` folds it over source
lines into one truth-mask function for a caller that evaluates a formula
many times, as the oracle does over every frame: the compiler folds, as it
emits, each operation that a Boolean identity decides (every mask is a
subset of the all-worlds mask, so constants, double complements,
``x & ~x``, ``x <-> x`` and knowledge of all or no worlds decide
themselves), and the function keeps only the lines its result depends on.

Both read atoms and knowledge by subscript: an atom from the context's
valuation, an agent's knowledge from its table. Over a model the table is a
memo from mask to the union of the classes inside it, shared by every model
over the same partition; over a frame it runs the slice-AND scan on each
lookup.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import weakref
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
    fold,
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

    def __hash__(self):
        return hash(self.worlds)

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
        """Read to_json's shape; any other shape raises ValueError, so that a
        string is never split into its characters."""
        if isinstance(data, str):
            data = json.loads(data)
        worlds = data["worlds"]
        agents, valuation = data.get("agents", {}), data.get("valuation", {})
        if not (isinstance(agents, dict) and isinstance(valuation, dict)):
            raise ValueError("agents and valuation must be objects")
        lists = [worlds, *valuation.values()]
        for classes in agents.values():
            lists += classes if isinstance(classes, list) else [classes]
        if not all(
            isinstance(ws, list) and all(isinstance(w, str) for w in ws)
            for ws in lists
        ):
            raise ValueError(
                "worlds, each class and each valuation entry must be lists of strings"
            )
        return cls(worlds, agents, valuation)

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


@functools.lru_cache(maxsize=1024)
def _stand_in(name: str) -> ContextFormula:
    """The fresh atom an unbound context name resolves to, built once per
    name and shared: a ContextFormula is frozen. The cache is bounded, so a
    process that meets ever new names does not grow with them."""
    return ContextFormula(((FRESH_CONTEXT_PREFIX + name, True),))


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
        return _stand_in(name)

    def completed(self, names) -> "ContextEnv":
        """Explicit env binding every listed name (auto names get frozen in)."""
        bindings = dict(self.bindings)
        for name in names:
            bindings[name] = self.resolve(name)
        return ContextEnv(bindings)

    def for_formula(self, f: Formula) -> "ContextEnv":
        """The env every engine reads f under: it binds exactly f's context
        names, its guards (``needed_context_names``, read off f's reduction
        as ``_rewrite_redex`` reports them and kept with the normal form on
        each node, so a formula that shares nodes with an earlier one is
        reduced only where it is new) and the bound names it uses as atoms,
        to their bodies or fresh stand-ins. Every other name, body literals
        included, is a plain atom. A body literal that is one
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
    """Truth of the context body bound to ``name`` at ``world``: ``name``
    read as an atom, through ``satisfies``. A world not in the model raises
    ModelError."""
    return satisfies(model, world, env.completed([name]), Atom(name))


# ---------------------------------------------------------------------------
# Mask-compiled satisfaction


class _Classes(dict):
    """Agent -> its knowledge table; asking for a missing agent is an error."""

    def __missing__(self, agent):
        raise ModelError(f"model lacks agent {agent!r}")


class _Valuation(dict):
    """Atom -> valuation mask; an atom the valuation omits is false everywhere."""

    def __missing__(self, atom):
        return 0


class _Knowledge(dict):
    """One agent's knowledge over one model: mask -> the union of the
    agent's classes inside it, computed on the first lookup and kept. Every
    model over the same classes shares one table (``_knowledge``)."""

    def __init__(self, classes: tuple[int, ...]):
        super().__init__()
        self.classes = classes

    def __missing__(self, bm):
        out = 0
        for cm in self.classes:
            if bm & cm == cm:
                out |= cm
        self[bm] = out
        return out


# sorted class masks -> the live table over those classes
_KNOWLEDGE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _knowledge(classes: list[int]) -> _Knowledge:
    """The shared table over these classes (a list the caller gives up, as
    it is sorted in place); the table dies with its last model."""
    classes.sort()
    key = tuple(classes)
    table = _KNOWLEDGE.get(key)
    if table is None:
        table = _KNOWLEDGE.setdefault(key, _Knowledge(key))
    return table


class _ModelCtx:
    """Per-model evaluation tables: valuation masks and knowledge tables.
    It does not hold the model, so a sweep keeps only the masks alive."""

    def __init__(self, model: KripkeModel):
        index = model._index
        self.full = (1 << len(model.worlds)) - 1
        self.val = _Valuation({
            atom: _mask_of(ws, index) for atom, ws in model.valuation.items()
        })
        self.classes = _Classes({
            agent: _knowledge([_mask_of(cl, index) for cl in classes])
            for agent, classes in model.relations.items()
        })


class _FrameKnowledge:
    """One agent's knowledge over one frame: each class is held as the
    offsets w*V of its worlds; a lookup ANDs the class's V-bit slices and
    spreads the result back to each. Nothing is kept: a frame is scanned
    once per formula."""

    def __init__(self, classes: list[tuple[int, ...]], slice_mask: int):
        self.classes, self.slice = classes, slice_mask

    def __getitem__(self, bm: int) -> int:
        out = 0
        for offsets in self.classes:
            a = self.slice
            for o in offsets:
                a &= bm >> o
            for o in offsets:
                out |= a << o
        return out


class _FrameCtx:
    """One frame under all its V valuations at once: bit w*V + v is world w
    under valuation v. Its atom masks come from ``_atom_masks``, and each
    agent's knowledge is a _FrameKnowledge."""

    def __init__(self, worlds: tuple, V: int, val: _Valuation, relations):
        self.worlds, self.V, self.relations = worlds, V, relations
        self.slice = (1 << V) - 1
        self.full = (1 << len(worlds) * V) - 1
        self.val = val
        self.classes = _Classes({
            agent: _FrameKnowledge(
                [tuple(worlds.index(w) * V for w in cl) for cl in classes],
                self.slice,
            )
            for agent, classes in relations.items()
        })


def _mask_of(worlds, index) -> int:
    m = 0
    for w in worlds:
        m |= 1 << index[w]
    return m


def _context_expr(env: ContextEnv, name: str, read, and_, not_, full, none):
    """The mask of the body bound to ``name``: ``none`` for false, otherwise
    the AND of its literals, which is ``full`` for true. ``read(atom)`` is
    that atom's valuation mask, and ``and_``/``not_`` are the algebra's. The
    AND is taken one literal at a time, so a long body never makes one
    deeply nested expression."""
    cf = env.resolve(name)
    if cf.is_bot:
        return none
    mask = full
    for atom, positive in cf.literals:
        mask = and_(mask, read(atom) if positive else not_(read(atom)))
    return mask


def _mask_rules(env: ContextEnv, read, table, not_, and_, or_, iff, know, full, none):
    """The satisfaction table as a ``fold`` step over one mask algebra.

    ``read(atom)`` is the atom's valuation mask, ``table(agent)`` the
    agent's knowledge table, ``know(table, x)`` the worlds where x is known,
    ``not_``/``and_``/``or_``/``iff`` the Boolean operations and ``full``
    and ``none`` the masks of all and of no worlds. An atom whose name is
    bound in the environment denotes its context body (this is how context
    names surviving reduction keep their meaning); all other atoms, body
    literals included, read the valuation. Each agent's table is asked for
    in the preorder of the agents' first occurrences."""

    def unguarded(c: str):
        """The mask where context c's body fails."""
        return not_(_context_expr(env, c, read, and_, not_, full, none))

    def step(g: Formula):
        match g:
            case Atom(atom):
                if atom in env.bindings:
                    return _context_expr(env, atom, read, and_, not_, full, none)
                return read(atom)
            case Not(body):
                return not_((yield body))
            case And(l, r):
                return and_((yield l), (yield r))
            case Or(l, r):
                return or_((yield l), (yield r))
            case Imp(l, r):
                return or_(not_((yield l)), (yield r))
            case Iff(l, r):
                return iff((yield l), (yield r))
            case Know(agent, _, body):
                return know(table(agent), (yield body))
            case Poss(agent, _, body):
                # S5 duality over a partition: possible is not known not
                k = table(agent)
                return not_(know(k, not_((yield body))))
            case Rel(Atom() | Rel() as body, c):
                return or_(unguarded(c), (yield body))
            case Rel(Not(inner), c):
                return or_(unguarded(c), not_((yield Rel(inner, c))))
            case Rel(And(l, r), c):
                # As in the satisfaction table: no guard on conjunction.
                return and_((yield Rel(l, c)), (yield Rel(r, c)))
            case Rel(Or(l, r), c):
                return or_(or_(unguarded(c), (yield Rel(l, c))), (yield Rel(r, c)))
            case Rel(Imp(l, r), c):
                guard = or_(unguarded(c), not_((yield Rel(l, c))))
                return or_(guard, (yield Rel(r, c)))
            case Rel(Iff(l, r), c):
                return (yield Rel(And(Imp(l, r), Imp(r, l)), c))
            case Rel(Know(agent, variant, inner), c):
                cx, cy = variant_contexts_names(variant, c, agent)
                k = yield Know(agent, variant, Rel(inner, cy))
                return or_(unguarded(cx), k)
            case Rel(Poss(agent, variant, inner), c):
                return (yield Rel(Not(Know(agent, variant, Not(inner))), c))
        raise TypeError(f"not a formula: {g!r}")

    return step


def compile_formula(f: Formula, env: ContextEnv) -> Callable[[_ModelCtx], int]:
    """Compile a formula into a truth-mask function over evaluation contexts:
    a _ModelCtx (one model) or a _FrameCtx (one frame, every valuation).

    The result is one generated function ``mask(ctx)``, the fold of
    ``_mask_rules`` over an algebra of source lines: each distinct
    subformula is one assignment, in dependency order (equal expressions
    share one), and the function returns the root's mask, so an evaluation
    is one Python call. No name is spliced into its source: atom, agent and
    context names reach it as values bound in the namespace it is compiled
    in, and the source holds only generated identifiers, operators and the
    constant 0. An atom is read as ``val[n]``, a subscript of the
    context's valuation, which is 0 for an atom it omits. ``Know`` is
    ``k[m]``, a subscript of the agent's knowledge table, and ``Poss`` its
    dual ``full ^ k[full ^ m]``, so the function makes no call of its own.

    Every operation is emitted through a helper that first applies the
    Boolean identities that hold because every mask is a subset of ``full``:
    ``full`` and ``0`` absorb or drop out of ``&``, ``|`` and ``<->``, a
    complement of a complement is its operand, ``x & x`` and ``x | x`` are
    ``x``, ``x & ~x`` is ``0``, ``x | ~x`` and ``x <-> x`` are ``full``, and
    knowledge of ``full`` or ``0`` is itself (every world is in a class), so
    possibility is too. Every complement is ``full ^ x``, made in one
    helper. Only the lines the root depends on are emitted, and ``full`` and
    the valuation are read only if one of them does. Each agent's table is
    still looked up first, in the preorder of the agents' first
    occurrences, even where its operator folds away, so a missing agent
    raises ModelError naming the outermost one. Compiling pays off only
    where one function is evaluated many times, as over every frame in
    ``find_countermodel``; ``truth_mask`` evaluates once without it.
    """
    names: dict[str, str] = {}  # name -> the identifier bound to it
    classes: dict[str, str] = {}  # agent -> the local holding its table
    exprs: dict[str, str] = {}  # expression -> its local, in dependency order
    reads: dict[str, tuple[str, ...]] = {}  # local -> what its line reads
    complement: dict[str, str] = {}  # local -> its complement, both ways

    def name(value: str) -> str:
        return names.setdefault(value, f"n{len(names)}")

    def emit(expr: str, *operands: str) -> str:
        local = exprs.setdefault(expr, f"m{len(exprs)}")
        reads[local] = operands
        return local

    def read(atom: str) -> str:
        return emit(f"val[{name(atom)}]", "val")

    def table(agent: str) -> str:
        return classes.setdefault(agent, f"k{len(classes)}")

    def not_(x: str) -> str:
        if x in ("full", "0"):
            return "0" if x == "full" else "full"
        if x not in complement:
            m = emit(f"full ^ {x}", "full", x)
            complement[x], complement[m] = m, x
        return complement[x]

    def and_(a: str, b: str) -> str:
        if a == "0" or b == "0" or complement.get(a) == b:
            return "0"
        if a == "full" or a == b:
            return b
        return a if b == "full" else emit(f"{a} & {b}", a, b)

    def or_(a: str, b: str) -> str:
        if a == "full" or b == "full" or complement.get(a) == b:
            return "full"
        if a == "0" or a == b:
            return b
        return a if b == "0" else emit(f"{a} | {b}", a, b)

    def iff(a: str, b: str) -> str:
        if a == b:
            return "full"
        if a in ("full", "0"):
            a, b = b, a
        if b in ("full", "0"):
            return a if b == "full" else not_(a)
        if complement.get(a) == b:
            return "0"
        return not_(emit(f"{a} ^ {b}", a, b))

    def know(k: str, x: str) -> str:
        return x if x in ("full", "0") else emit(f"{k}[{x}]", x)

    step = _mask_rules(env, read, table, not_, and_, or_, iff, know, "full", "0")
    root = fold(f, step)
    live = {root}  # the root and, line by line back, what the live lines read
    for m in reversed(exprs.values()):
        if m in live:
            live.update(reads[m])
    source = "".join([
        "def mask(ctx):\n",
        "    full = ctx.full\n" if "full" in live else "",
        "    val = ctx.val\n" if "val" in live else "",
        *(f"    {k} = ctx.classes[{name(a)}]\n" for a, k in classes.items()),
        *(f"    {m} = {expr}\n" for expr, m in exprs.items() if m in live),
        f"    return {root}\n",
    ])
    ns = {ident: value for value, ident in names.items()}
    exec(compile(source, "<compile_formula>", "exec"), ns)
    return ns["mask"]


def truth_mask(model: KripkeModel, env: ContextEnv, f: Formula) -> int:
    """The mask of the worlds of ``model`` where ``f`` holds, bit w for
    world w: one fold of ``_mask_rules`` over integers, with no kernel
    compiled. Errors are the kernel's: the walk raises what compiling
    raises, and only then is a missing agent reported, the outermost one,
    as the kernel's first lookup reports it."""
    ctx = _ModelCtx(model)
    full, tables = ctx.full, ctx.classes
    lacking: list[str] = []  # agents the model lacks, in lookup order

    def table(agent: str):
        if agent not in tables:
            lacking.append(agent)
            return _Valuation()  # any mask it gives is thrown away below
        return tables[agent]

    step = _mask_rules(
        env, ctx.val.__getitem__, table, full.__xor__, operator.and_,
        operator.or_, lambda a, b: full ^ a ^ b, operator.getitem, full, 0,
    )
    mask = fold(f, step)
    if lacking:
        tables[lacking[0]]  # raises ModelError
    return mask


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


def _model_counts(max_worlds: int, n_agents: int, n_atoms: int):
    """The number of models of each world count, from 1 to max_worlds."""
    return (
        bell_number(n) ** n_agents * 2 ** (n * n_atoms)
        for n in range(1, max_worlds + 1)
    )


def model_space_size(max_worlds: int, n_agents: int, n_atoms: int) -> int:
    return sum(_model_counts(max_worlds, n_agents, n_atoms))


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
    # stop at the first partial sum over the ceiling: the exact count can be
    # thousands of digits long and take cubic time to work out
    counts = _model_counts(max_worlds, len(agents), len(atoms))
    for n, total in enumerate(itertools.accumulate(counts), start=1):
        if total > ceiling:
            bound = "" if n == max_worlds else "at least "
            raise EnumerationCeilingError(
                f"{bound}{total} models exceed the ceiling of {ceiling}"
            )


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
    for ctx in _frame_contexts(max_worlds, agents, atoms):
        for v in range(ctx.V):
            yield _frame_model(ctx.worlds, ctx.relations, atoms, v)


def _atom_masks(n: int, atoms: list) -> tuple[int, _Valuation]:
    """V = 2**(n*k) and each atom's _FrameCtx mask, in _frame_model's layout.

    Over v, bit b of v is runs of p = 2**b zeros then p ones: one period,
    doubled until it spans V bits.
    """
    V = 1 << n * len(atoms)
    val = _Valuation()
    for i, atom in enumerate(atoms):
        val[atom] = 0
        for w in range(n):
            p = 1 << n * (len(atoms) - 1 - i) + w
            m, width = ((1 << p) - 1) << p, 2 * p
            while width < V:
                m, width = m | m << width, 2 * width
            val[atom] |= m << w * V
    return V, val


def _frame_contexts(max_worlds: int, agents: list, atoms: list) -> Iterator[_FrameCtx]:
    """Every frame up to max_worlds worlds, in enumerate_models' order, each
    over all the valuations of atoms in _frame_model's layout."""
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        V, val = _atom_masks(n, atoms)
        partitions = list(set_partitions(worlds))
        for chosen in itertools.product(partitions, repeat=len(agents)):
            yield _FrameCtx(worlds, V, val, dict(zip(agents, chosen)))


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
    _check_space(max_worlds, agents, atoms, ceiling)
    fn = compile_formula(f, env)
    for ctx in _frame_contexts(max_worlds, agents, atoms):
        fail = ctx.full ^ fn(ctx)
        if fail:
            # lowest failing valuation, then the lowest world failing in it
            worlds = ctx.worlds
            slices = [fail >> w * ctx.V & ctx.slice for w in range(len(worlds))]
            v = min((s & -s).bit_length() - 1 for s in slices if s)
            w = next(w for w, s in enumerate(slices) if s >> v & 1)
            return _frame_model(worlds, ctx.relations, atoms, v), worlds[w]
    return None
