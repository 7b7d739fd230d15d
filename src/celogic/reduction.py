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

The schemata are stated once, in ``_rewrite_redex``. One top-down pass,
``_reduce``, applies them for every entry point: ``reduce_full`` records the
canonical step trace, ``reduce_result`` (used by ``prove_cel``) gives only
the normal form, and ``reduce_once`` stops after one step. No redex is
searched for from the root, so a recorded step costs time in the depth of
the formula, not its size.

``reduce_result`` keeps on each node it reduces that node's normal form, so
a later call on a tree that shares the node (the next step of a trace, a
biconditional of two steps) returns it at once. The result and every error,
message included, are exactly those of a call on a fresh tree.
``reduce_full`` and ``reduce_once`` never read or keep these forms: a trace
is never cached.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    UntaggedOperatorError,
    render_formula,
    subformulas,
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


@dataclass(frozen=True)
class ReductionStep:
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


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    result: Formula

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.steps]


def _replace(f: Formula, path: tuple[int, ...], replacement: Formula) -> Formula:
    if not path:
        return replacement
    kids = list(f.children())
    kids[path[0]] = _replace(kids[path[0]], path[1:], replacement)
    return f.rebuild(*kids)


def _rewrite_redex(body: Formula, c: str) -> tuple[Formula, str]:
    """One rewrite of Rel(body, c), with the schema name."""
    match body:
        case Atom(_):
            return Imp(Atom(c), body), AXIOM_ATOMS
        case Rel(_, _):
            return Imp(Atom(c), body), AXIOM_ITERATION
        case Not(inner):
            return Imp(Atom(c), Not(Rel(inner, c))), AXIOM_NEGATION
        case And(l, r):
            return And(Rel(l, c), Rel(r, c)), AXIOM_CONJUNCTION
        case Know(agent, variant, inner):
            cx, cy = variant_contexts_names(variant, c, agent)
            return (
                Imp(Atom(cx), Know(agent, variant, Rel(inner, cy))),
                knowledge_axiom_name(variant),
            )
        case Or(l, r) | Imp(l, r) | Iff(l, r):
            derived = f"derived-{type(body).__name__.lower()}"
            return Imp(Atom(c), body.rebuild(Rel(l, c), Rel(r, c))), derived
        case Poss():
            return Rel(primitive_form(body), c), "derived-poss"
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


# kept by a Rel-free node: its normal form is itself
_REL_FREE = object()


def _reduce(
    f: Formula, step_budget: int | None, trace: list[ReductionStep] | None
) -> Formula:
    """The normal form of f, in one leftmost-outermost pass.

    A Rel node is rewritten until it is not a Rel, then its children are
    reduced left to right; all that precedes a node in preorder is then
    Rel-free, so each rewrite is at the leftmost-outermost redex. Steps are
    appended to ``trace`` if given, and more than ``step_budget`` of them
    raise ReductionBudgetError; with no budget the pass runs to the normal
    form, which takes at most ``4 * node_count(f)`` rewrites. Rel-free
    subtrees are shared, not copied.

    Without a trace, each node the walk finishes keeps its normal form in
    its ``_normal`` slot; a Rel-free node, each normal form included, keeps
    ``_REL_FREE`` instead and so allocates nothing. A kept node is returned
    at once. A normal form depends on the subtree alone, so the result is
    that of a walk that kept nothing. Traces are never cached: the walk
    with a trace records every step, so it neither reads nor keeps forms.
    """
    if trace is None:

        def go(g: Formula) -> Formula:
            kept = getattr(g, "_normal", None)
            if kept is not None:
                return g if kept is _REL_FREE else kept
            h = g
            while isinstance(h, Rel):
                h, _ = _rewrite_redex(h.body, h.context)
            out = h.rebuild(*map(go, h.children()))
            if out is not g:
                object.__setattr__(g, "_normal", out)
            object.__setattr__(out, "_normal", _REL_FREE)
            return out

        return go(f)

    path: list[int] = []

    def record(g: Formula) -> None:
        while isinstance(g, Rel):
            g, axiom = _rewrite_redex(g.body, g.context)
            if len(trace) == step_budget:
                raise ReductionBudgetError(f"no fixpoint within {step_budget} steps")
            before = trace[-1].after if trace else f
            at = tuple(path)
            trace.append(ReductionStep(before, axiom, at, _replace(before, at, g)))
        for i, child in enumerate(g.children()):
            path.append(i)
            record(child)
            path.pop()

    record(f)
    return trace[-1].after if trace else f


def reduce_full(f: Formula, step_budget: int | None = None) -> ReductionTrace:
    """The relativization-free normal form of f, with its step trace; more
    than ``step_budget`` steps, if given, raise ReductionBudgetError."""
    steps: list[ReductionStep] = []
    result = _reduce(f, step_budget, steps)
    return ReductionTrace(tuple(steps), result)


def reduce_result(f: Formula) -> Formula:
    """The normal form ``reduce_full(f).result``, without the trace; it
    raises the same errors."""
    return _reduce(f, None, None)


def is_relativization_free(f: Formula) -> bool:
    """Whether f has no Rel node: read off the form ``reduce_result`` keeps
    on f if it has finished f (a normal form keeps itself), else one walk."""
    kept = getattr(f, "_normal", None)
    if kept is not None:
        return kept is _REL_FREE
    return not any(isinstance(g, Rel) for g in subformulas(f))


def reduce_once(f: Formula) -> tuple[Formula, str, tuple[int, ...]] | None:
    """Rewrite the leftmost-outermost relativization; None if f has none."""
    steps: list[ReductionStep] = []
    try:
        _reduce(f, 1, steps)
    except (ReductionBudgetError, UntaggedOperatorError):
        if not steps:  # an error at the second redex is the next step's
            raise
    return (steps[0].after, steps[0].axiom, steps[0].path) if steps else None


def reduction_measure(f: Formula) -> int:
    """Termination measure: strictly decreases at every rewrite step.

    Relativization multiplies its body's weight; the possibility operator
    is weighted for its pre-expansion step.
    """
    match f:
        case Atom(_):
            return 1
        case Not(body) | Know(_, _, body):
            return 1 + reduction_measure(body)
        case Poss(_, _, body):
            return 4 + reduction_measure(body)
        case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
            return 1 + reduction_measure(l) + reduction_measure(r)
        case Rel(body, _):
            return 5 * reduction_measure(body)
    raise TypeError(f"not a formula: {f!r}")


def needed_context_names(f: Formula) -> frozenset[str]:
    """Context names that appear as guards somewhere along f's reduction.

    Found in one walk that carries the relativizing context, without running
    the reduction: every Rel's name, and under a Rel both context names a
    knowledge or possibility operator's variant tag picks.
    """
    out: set[str] = set()

    def go(g: Formula, current: str | None) -> None:
        if isinstance(g, Rel):
            out.add(g.context)
            go(g.body, g.context)
        elif current is not None and isinstance(g, (Know, Poss)):
            cx, cy = variant_contexts_names(g.variant, current, g.agent)
            out.add(cx)
            out.add(cy)
            go(g.body, cy)
        else:
            for child in g.children():
                go(child, current)

    go(f, None)
    return frozenset(out)
