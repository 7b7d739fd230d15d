"""Compilation of relativized formulas down to the plain epistemic fragment.

Each rewrite step eliminates or pushes inward one relativization, recorded as
an inspectable trace step naming the schema applied. Strategy is fixed to
leftmost-outermost, which makes traces canonical. Guards are emitted as atoms
carrying the context's name; the environment decides later what those names
mean (explicit bodies or fresh stand-in atoms).

Disjunction, implication, equivalence and the possibility dual have no named
rewrite schema of their own; their derived forms are tagged "derived-*" in
traces. The three binary connectives share one form, ``c -> ((l)^c op
(r)^c)``; for ``<->`` it is what ``compile_formula``'s expansion into both
implications works out to. The possibility operator becomes its knowledge
dual (``primitive_form``).

No schema copies a subformula: each node is swept by at most one
relativization, and a possibility operator costs at most four rewrites, so
a reduction takes at most ``4 * node_count(f)`` rewrites and needs no
budget. ``reduce_full`` still takes an explicit ``step_budget``.

The schemata are stated once, in ``_rewrite_redex``, and applied in one
top-down, leftmost-outermost order by two walks: ``_steps`` yields the
canonical step trace one step at a time, which ``reduce_full`` collects and
``reduce_once`` stops after the first of, and ``reduce_result`` gives only
the normal form (used by ``prove_cel``). No redex is searched for from the
root, so a recorded step costs time in the depth of the formula, not its
size.

``_rewrite_redex`` also reports the context names each step needs, so a
formula's context names are read off its reduction. ``reduce_result`` keeps
on each node it reduces that node's normal form with its context names, so
a later call on a tree that shares the node (the next step of a trace, a
biconditional of two steps) returns them at once; ``needed_context_names``
reads the names from there. The result and every error, message included,
are exactly those of a call on a fresh tree. ``reduce_full`` and
``reduce_once`` never read these pairs, so a trace is never cached; but a
finished trace knows the pair of every tree it built, so ``reduce_full``
leaves it on each step's ``before``, and ``_REL_FREE`` on the result
(Filliâtre & Conchon's pattern for hash-consed nodes: a value computed
once per node is kept on the node). Proving a step's biconditional then
walks one node.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .syntax import (
    And,
    Atom,
    Formula,
    Iff,
    Imp,
    Know,
    Not,
    Or,
    Poss,
    Rel,
    formula_info,
    render_formula,
    variant_contexts_names,
)

AXIOM_ATOMS = "Atoms"
AXIOM_ITERATION = "Context iteration"
AXIOM_NEGATION = "Contextual negation"
AXIOM_CONJUNCTION = "Contextual conjunction"


def knowledge_axiom_name(variant: str) -> str:
    return f"{variant}-Contextual Knowledge"


class ReductionBudgetError(RuntimeError):
    """The rewrite loop exceeded its step budget: a resource limit."""


class ReductionStep(NamedTuple):
    before: Formula
    axiom: str
    path: tuple[int, ...]
    after: Formula

    def to_json(self) -> dict:
        return {
            "before": render_formula(self.before),
            "axiom": self.axiom,
            "path": list(self.path),
            "after": render_formula(self.after),
        }


class ReductionTrace(NamedTuple):
    steps: tuple[ReductionStep, ...]
    result: Formula

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.steps]


def _replace(f: Formula, path: tuple[int, ...], replacement: Formula) -> Formula:
    spine = []
    for i in path:
        spine.append((f, i))
        f = f.children()[i]
    for g, i in reversed(spine):
        kids = list(g.children())
        kids[i] = replacement
        replacement = g.rebuild(*kids)
    return replacement


def _rewrite_redex(body: Formula, c: str) -> tuple[Formula, str, tuple[str, ...]]:
    """One rewrite of Rel(body, c), with the schema name and the context
    names the step needs: c itself and, for knowledge, the guard its variant
    picks. The continuation name needs no report: it is the name of the new
    inner Rel, which reports it when rewritten."""
    match body:
        case Atom(_):
            return Imp(Atom(c), body), AXIOM_ATOMS, (c,)
        case Rel(_, _):
            return Imp(Atom(c), body), AXIOM_ITERATION, (c,)
        case Not(inner):
            return Imp(Atom(c), Not(Rel(inner, c))), AXIOM_NEGATION, (c,)
        case And(l, r):
            return And(Rel(l, c), Rel(r, c)), AXIOM_CONJUNCTION, (c,)
        case Know(agent, variant, inner):
            cx, cy = variant_contexts_names(variant, c, agent)
            return (
                Imp(Atom(cx), Know(agent, variant, Rel(inner, cy))),
                knowledge_axiom_name(variant),
                (c, cx),
            )
        case Or(l, r) | Imp(l, r) | Iff(l, r):
            derived = f"derived-{type(body).__name__.lower()}"
            return Imp(Atom(c), body.rebuild(Rel(l, c), Rel(r, c))), derived, (c,)
        case Poss():
            return Rel(primitive_form(body), c), "derived-poss", (c,)
    raise TypeError(f"not a formula: {body!r}")


def primitive_form(f: Formula) -> Formula:
    """An equivalence as both implications, a possibility operator as its
    knowledge dual ``~K~``; any other node as it is. The reduction uses only
    the second (derived-poss); the dialogue game plays both."""
    match f:
        case Iff(l, r):
            return And(Imp(l, r), Imp(r, l))
        case Poss(agent, variant, body):
            return Not(Know(agent, variant, Not(body)))
    return f


# kept by a Rel-free node: its normal form is itself, and it needs no names
_REL_FREE = object()
_NO_NAMES: frozenset[str] = frozenset()


def _steps(f: Formula) -> Iterator[tuple[ReductionStep, tuple[str, ...]]]:
    """The steps of f's reduction, one at a time, in the order
    ``reduce_result`` rewrites, each with the context names its rewrite
    reports: each step's ``after`` is the next one's ``before``. Each node
    goes on the stack with its path from the root. The walk neither reads nor keeps normal forms."""
    before = f
    stack = [(f, ())]
    while stack:
        g, at = stack.pop()
        while isinstance(g, Rel):
            g, axiom, needs = _rewrite_redex(g.body, g.context)
            after = _replace(before, at, g)
            yield ReductionStep(before, axiom, at, after), needs
            before = after
        kids = g.children()
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], (*at, i)))


def reduce_full(f: Formula, step_budget: int | None = None) -> ReductionTrace:
    """The relativization-free normal form of f, with its step trace; more
    than ``step_budget`` steps, if given, raise ReductionBudgetError.

    The trace is recorded in full, reading no kept pair. Once it is, each
    step's ``before`` that keeps nothing yet keeps the pair
    ``reduce_result`` would give it: the trace's result, and the names
    reported by that step and every later one (the steps from a ``before``
    on are its own reduction). The result keeps ``_REL_FREE``. So proving a step's
    biconditional finds both sides reduced. A trace that raises keeps
    nothing."""
    steps: list[ReductionStep] = []
    reported: list[tuple[str, ...]] = []
    for step, needs in _steps(f):
        if len(steps) == step_budget:
            raise ReductionBudgetError(f"no fixpoint within {step_budget} steps")
        steps.append(step)
        reported.append(needs)
    result = steps[-1].after if steps else f
    names = _NO_NAMES
    for step, needs in zip(reversed(steps), reversed(reported)):
        if not names.issuperset(needs):
            names = names.union(needs)
        if getattr(step.before, "_normal", None) is None:
            object.__setattr__(step.before, "_normal", (result, names))
    object.__setattr__(result, "_normal", _REL_FREE)
    return ReductionTrace(tuple(steps), result)


def reduce_result(f: Formula) -> Formula:
    """The normal form ``reduce_full(f).result``, without the trace, in one
    leftmost-outermost pass on an explicit stack; it raises the same errors.

    A Rel node is rewritten until it is not a Rel, then its children are
    reduced left to right; all that precedes a node in preorder is then
    Rel-free, so each rewrite is at the leftmost-outermost redex. The pass
    runs to the normal form, which takes at most ``4 * node_count(f)``
    rewrites. Rel-free subtrees are shared, not copied.

    Each node the walk finishes keeps in its ``_normal`` slot the pair of
    its normal form and its context names: the names its own rewrites
    report and those its children kept (a child's frozenset is reused when
    the rest is empty). A Rel-free node, each normal form included, keeps
    ``_REL_FREE`` instead and so allocates nothing. A kept node answers at
    once. Both depend on the subtree alone, so the result is that of a walk
    that kept nothing; a rewrite that raises keeps nothing on its Rel or
    the Rel's ancestors, so every call raises the same error.
    """
    stack: list = [f]  # nodes to reduce, and (g, h, names, kids) to finish
    while stack:
        g = stack.pop()
        if type(g) is tuple:  # each child of h keeps its pair now
            g, h, names, children = g
            kids = []
            for child in children:
                kept = child._normal
                normal, more = (child, _NO_NAMES) if kept is _REL_FREE else kept
                kids.append(normal)
                if more and more is not names:
                    names = names | more if names else more
            out = h.rebuild(*kids)
            if out is not g:
                object.__setattr__(g, "_normal", (out, names))
            object.__setattr__(out, "_normal", _REL_FREE)
        elif getattr(g, "_normal", None) is None:
            h, names = g, _NO_NAMES
            while isinstance(h, Rel):
                h, _, needs = _rewrite_redex(h.body, h.context)
                names = names.union(needs)
            kids = h.children()
            stack.append((g, h, names, kids))
            stack.extend(reversed(kids))
    kept = f._normal
    return f if kept is _REL_FREE else kept[0]


def is_relativization_free(f: Formula) -> bool:
    """Whether f has no Rel node: read off the form kept on f if
    ``reduce_result`` or ``reduce_full`` has finished f (a normal form
    keeps itself), else ``formula_info``'s walk over f's DAG."""
    kept = getattr(f, "_normal", None)
    if kept is not None:
        return kept is _REL_FREE
    return formula_info(f).is_el


def reduce_once(f: Formula) -> tuple[Formula, str, tuple[int, ...]] | None:
    """Rewrite the leftmost-outermost relativization; None if f has none."""
    for step, _ in _steps(f):
        return step.after, step.axiom, step.path
    return None


def needed_context_names(f: Formula) -> frozenset[str]:
    """Context names that appear as guards somewhere along f's reduction:
    every Rel's name, and each knowledge guard a variant tag picks, as
    ``_rewrite_redex`` reports them. Read off the pair ``reduce_result``
    keeps on f, so a formula it has reduced answers at once; equal subtrees,
    being one node, share one set. An untagged operator under a Rel raises
    UntaggedOperatorError, the same error on every call."""
    reduce_result(f)
    kept = f._normal
    return _NO_NAMES if kept is _REL_FREE else kept[1]
