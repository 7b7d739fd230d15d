"""Compilation of relativized formulas down to the plain epistemic fragment.

Each rewrite step eliminates or pushes inward one relativization, recorded as
an inspectable trace step naming the schema applied. Strategy is fixed to
leftmost-outermost, which makes traces canonical. Guards are emitted as atoms
carrying the context's name; the environment decides later what those names
mean (explicit bodies or fresh stand-in atoms).

Disjunction, implication, equivalence and the possibility dual have no named
rewrite schema of their own; their forms are derived from the game rules for
relativized formulas and are tagged "derived-*" in traces.

Two entry points share the one rewrite table, ``_rewrite_redex``.
``reduce_full`` gives the canonical step trace; it searches for each redex
from the root again and so takes time quadratic in the number of steps.
``reduce_result`` gives only the normal form, in one top-down pass, and is
the path ``prove_cel`` uses.
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
    node_count,
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
        case Or(l, r):
            return Imp(Atom(c), Or(Rel(l, c), Rel(r, c))), "derived-or"
        case Imp(l, r):
            return Imp(Atom(c), Imp(Rel(l, c), Rel(r, c))), "derived-imp"
        case Iff(l, r):
            return Rel(And(Imp(l, r), Imp(r, l)), c), "derived-iff"
        case Poss(agent, variant, inner):
            return Rel(Not(Know(agent, variant, Not(inner))), c), "derived-poss"
    raise TypeError(f"not a formula: {body!r}")


def _find_redex(f: Formula, path: tuple[int, ...]):
    """Leftmost-outermost Rel node: preorder, node before children."""
    if isinstance(f, Rel):
        return f, path
    for i, child in enumerate(f.children()):
        found = _find_redex(child, path + (i,))
        if found is not None:
            return found
    return None


def reduce_once(f: Formula) -> tuple[Formula, str, tuple[int, ...]] | None:
    """Rewrite the leftmost-outermost relativization; None if f has none."""
    found = _find_redex(f, ())
    if found is None:
        return None
    redex, path = found
    rewritten, axiom = _rewrite_redex(redex.body, redex.context)
    return _replace(f, path, rewritten), axiom, path


def _default_step_budget(f: Formula) -> int:
    return 4 * node_count(f) ** 2


def _budget_error(step_budget: int) -> ReductionBudgetError:
    return ReductionBudgetError(
        f"no fixpoint within {step_budget} steps; derived-iff doubles both"
        " operands, so equivalences nested under one relativization grow"
        " exponentially"
    )


def reduce_full(f: Formula, step_budget: int | None = None) -> ReductionTrace:
    """Iterate reduce_once to the relativization-free fixpoint, with trace."""
    if step_budget is None:
        step_budget = _default_step_budget(f)
    steps: list[ReductionStep] = []
    current = f
    for _ in range(step_budget + 1):
        result = reduce_once(current)
        if result is None:
            return ReductionTrace(tuple(steps), current)
        after, axiom, path = result
        steps.append(ReductionStep(current, axiom, path, after))
        current = after
    raise _budget_error(step_budget)


def reduce_result(f: Formula) -> Formula:
    """The normal form ``reduce_full(f).result``, in one top-down pass.

    A Rel node is rewritten until it is not a Rel, then its children are
    reduced left to right. Rewrites at disjoint positions commute, so this
    applies the same rewrites as the leftmost-outermost trace and reaches
    the same formula; it also raises the same errors, including
    ReductionBudgetError after the default step budget. Subtrees free of
    relativization are returned as they are, not copied.
    """
    step_budget = 0  # worked out at the first rewrite; Rel-free input needs none
    steps = 0

    def go(g: Formula) -> Formula:
        nonlocal steps, step_budget
        while isinstance(g, Rel):
            if not steps:
                step_budget = _default_step_budget(f)
            g, _ = _rewrite_redex(g.body, g.context)
            steps += 1
            if steps > step_budget:
                raise _budget_error(step_budget)
        return g.rebuild(*map(go, g.children()))

    return go(f)


def reduction_measure(f: Formula) -> int:
    """Termination measure: strictly decreases at every rewrite step.

    Relativization multiplies its body's weight; equivalence and the
    possibility operator are weighted for their pre-expansion steps.
    """
    match f:
        case Atom(_):
            return 1
        case Not(body) | Know(_, _, body):
            return 1 + reduction_measure(body)
        case Poss(_, _, body):
            return 4 + reduction_measure(body)
        case And(l, r) | Or(l, r) | Imp(l, r):
            return 1 + reduction_measure(l) + reduction_measure(r)
        case Iff(l, r):
            return 4 + 2 * (reduction_measure(l) + reduction_measure(r))
        case Rel(body, _):
            return 5 * reduction_measure(body)
    raise TypeError(f"not a formula: {f!r}")


def needed_context_names(f: Formula) -> frozenset[str]:
    """Context names that appear as guards somewhere along f's reduction.

    Computed structurally (mirroring the rewrite rules) so it works without
    running the reduction; includes the agent contexts implied by variant
    tags under relativization.
    """
    out: set[str] = set()

    def go(g: Formula):
        match g:
            case Rel(body, c):
                under(body, c)
            case _:
                for child in g.children():
                    go(child)

    def under(body: Formula, c: str):
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
