"""Validity decisions: labeled tableau for the plain epistemic fragment, and
reduce-then-prove for relativized formulas.

The tableau works over signed, world-labeled formulas. Per agent, labels are
grouped into clusters that stand for equivalence classes, so the counter-model
read off an open saturated branch is a partition model directly. A signed
box/diamond needing a witness gets exactly one per (cluster, formula), which
keeps saturation finite without an explicit duplicate-label merge.

Each signed formula's rule is stated once, in ``_rule``: its band and, for
a propositional or context rule, its cases. The band follows from the
cases: one case (or none, which closes the branch) is alpha, several are
beta. Scheduling is deterministic: oldest item first within a band, and
alpha before beta before the modal bands (universal, then witness).
Branches are explored depth first on an explicit stack, so the number of
splits in a row is bounded by memory, not by the recursion limit.

The search records its proof log as raw data, one node per branch segment
in the depth-first order it explores them: the index of the branch point
it is a case of, its steps as (sign, label, formula, rule), and the fact
it ends on, a closure (label, formula) or a branch point's signed formula.
A branch point's cases are the later nodes that name it. Nothing is
rendered while it runs; a Valid verdict renders the log to strings each
time its ``proof`` is read, not cached, each distinct formula once per
read, so a caller that only wants the verdict never pays for the log.

``prove_el`` keeps the raw outcome of its last ``MEMO_SIZE`` distinct
(goal, context bodies) pairs in a bounded LRU memo: the closed tableau's
log, or the counter-model and its world. Every step biconditional of one
reduction trace reduces to the same goal, so the steps of a trace share
their tableaux. The relativization check runs before the memo is read, a
ProverError is never kept, and each call still builds a new verdict (a
named tuple, like ``Invalid``) around the shared, immutable log or
counter-model.
"""

from __future__ import annotations

import functools
import heapq
from typing import NamedTuple

from .kripke import ContextEnv, KripkeModel, satisfies
# reduce_full is not called here; it stays a module attribute because
# perfbench/tracing.py wraps prove.reduce_full by name.
from .reduction import (  # noqa: F401
    is_relativization_free,
    reduce_full,
    reduce_result,
)
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
    formula_info,
    render_formula,
)


class NonEpistemicFragmentError(ValueError):
    """prove_el only accepts relativization-free formulas."""


class ProverError(RuntimeError):
    """Internal invariant failed (e.g. an unverifiable counter-model)."""


class Valid(NamedTuple):
    """A closed tableau for ``goal``, kept as the search recorded it: its
    raw log nodes in preorder."""

    goal: Formula
    tableau: tuple

    def __repr__(self) -> str:
        # the tableau of a long proof runs to megabytes
        return f"Valid(goal={self.goal!r})"

    @property
    def is_valid(self) -> bool:
        return True

    @property
    def proof(self) -> dict:
        """The tableau log as JSON-ready data, rendered anew on each read."""
        memo: dict = {}
        return {
            "goal": render_formula(self.goal, memo),
            "tableau": _log_json(self.tableau, memo),
        }


class Invalid(NamedTuple):
    model: KripkeModel
    world: str

    @property
    def is_valid(self) -> bool:
        return False


Verdict = Valid | Invalid


def verdict_to_json(v: Verdict) -> dict:
    if isinstance(v, Valid):
        return {"valid": True, "proof": v.proof}
    return {"valid": False, "model": v.model.to_json(), "world": v.world}


_ALPHA, _BETA, _UNIVERSAL, _WITNESS = range(4)


def _rule(ctx: dict[str, ContextFormula], sign: bool, f: Formula):
    """The one tableau rule for a signed formula: None for a plain atom,
    (band, None, None) for Know/Poss, whose conclusions depend on the
    cluster when the rule is applied, and (band, name, cases) otherwise.
    Each case is the signed formulas the rule adds at the same label: one
    case extends the branch, several split it, none closes it. The band is
    beta exactly when there are several cases."""
    match f:
        case Atom(name):
            body = ctx.get(name)
            if body is None:
                return None
            name = f"context {name}"
            lits = tuple((positive == sign, Atom(a)) for a, positive in body.literals)
            if (body.is_bot if sign else body.is_top):
                cases = ()
            elif sign or len(lits) < 2:
                cases = (lits,)
            else:
                cases = tuple((lit,) for lit in lits)
        case Not(body):
            name, cases = "negation", (((not sign, body),),)
        case And(l, r):
            name = "conjunction"
            cases = (((True, l), (True, r)),) if sign else (((False, l),), ((False, r),))
        case Or(l, r):
            name = "disjunction"
            cases = (((True, l),), ((True, r),)) if sign else (((False, l), (False, r)),)
        case Imp(l, r):
            name = "implication"
            cases = (((False, l),), ((True, r),)) if sign else (((True, l), (False, r)),)
        case Iff(l, r):
            name = "equivalence"
            cases = (
                (((True, l), (True, r)), ((False, l), (False, r)))
                if sign
                else (((True, l), (False, r)), ((False, l), (True, r)))
            )
        case Know(_, _, _):
            return (_UNIVERSAL if sign else _WITNESS), None, None
        case Poss(_, _, _):
            return (_WITNESS if sign else _UNIVERSAL), None, None
        case _:
            raise TypeError(f"not a formula: {f!r}")
    return (_BETA if len(cases) > 1 else _ALPHA), name, cases


def _signed(sign: bool, label: int, f: Formula, memo: dict) -> str:
    return f"{'T' if sign else 'F'} w{label + 1}: {render_formula(f, memo)}"


def _log_json(log: tuple, memo: dict) -> list[dict]:
    """Render the raw log nodes, in order: (parent, steps, (label, formula))
    closes on that fact, (parent, steps, (sign, label, formula)) branches on
    that signed formula. Each formula is rendered once per ``memo``."""
    nodes = []
    for parent, steps, fact in log:
        rendered = [
            f"{_signed(sg, lab, g, memo)}  [{rule}]" for sg, lab, g, rule in steps
        ]
        node: dict = {"parent": parent, "steps": rendered}
        if len(fact) == 2:
            label, f = fact
            node["closed"] = {"world": f"w{label + 1}", "on": render_formula(f, memo)}
        else:
            node["branch"] = {"on": _signed(*fact, memo)}
        nodes.append(node)
    return nodes


class _Branch:
    def __init__(self, ctx: dict[str, ContextFormula]):
        self.ctx = ctx
        self.facts: dict[tuple[int, Formula], bool] = {}
        # (band, seq, label, sign, formula, _rule's result); seq is unique
        self.queue: list[tuple] = []
        self.seq = 0
        self.nlabels = 1
        self.cluster: dict[tuple[str, int], int] = {}
        # indexed by cluster id: (agent, labels, signed universals)
        self.clusters: list[tuple[str, list[int], list[tuple[bool, Formula]]]] = []
        self.witnesses: set[tuple[int, bool, Formula]] = set()

    def copy(self) -> "_Branch":
        b = _Branch.__new__(_Branch)
        b.ctx = self.ctx
        b.facts = dict(self.facts)
        b.queue = list(self.queue)
        b.seq = self.seq
        b.nlabels = self.nlabels
        b.cluster = dict(self.cluster)
        b.clusters = [(a, list(ls), list(us)) for a, ls, us in self.clusters]
        b.witnesses = set(self.witnesses)
        return b

    def add(self, facts):
        """Record signed facts (label, sign, formula) in order; returns the
        first closing fact key on contradiction, None otherwise. The rules
        of the batch's new facts are queued, in order, only once the whole
        batch is in and the branch stays open: a closed branch is never
        expanded, and ``_rule`` never sees a fact of a closing batch.
        ``_rule`` has no rule for a relativization: ``prove_el`` rejects
        every relativized formula before it builds the tableau."""
        new = []
        for label, sign, f in facts:
            key = (label, f)
            prior = self.facts.get(key)
            if prior is None:
                self.facts[key] = sign
                new.append((label, sign, f))
            elif prior != sign:
                return key
        for label, sign, f in new:
            rule = _rule(self.ctx, sign, f)
            if rule is not None:
                heapq.heappush(self.queue, (rule[0], self.seq, label, sign, f, rule))
                self.seq += 1
        return None


def _explore(branch: _Branch, facts):
    """Expand depth first from ``facts``: the first open saturated branch,
    or the raw log of the closed tableau, its nodes in preorder. Each stack
    entry is a branch, the index of the branch point it is a case of (None
    at the root) and the signed facts it opens with. A split pushes its
    cases last-first: the first goes on with the branch itself, each later
    one with a copy made at the split. A node joins the log when its branch
    closes or splits, before any case of it is explored."""
    log: list = []
    stack = [(branch, None, facts)]
    while stack:
        branch, parent, facts = stack.pop()
        closed, steps = branch.add(facts), []
        while closed is None:
            if not branch.queue:
                return branch
            _, _, label, sign, f, (band, name, cases) = heapq.heappop(branch.queue)
            if cases is None:
                agent, body = f.agent, f.body
                cid = branch.cluster.setdefault((agent, label), len(branch.clusters))
                if cid == len(branch.clusters):
                    branch.clusters.append((agent, [label], []))
                _, labels, universals = branch.clusters[cid]
                if band == _UNIVERSAL:
                    name = f"{agent}-cluster universal"
                    universals.append((sign, body))
                    additions = [(m, sign, body) for m in labels]
                else:
                    wkey = (cid, sign, body)
                    if wkey in branch.witnesses:
                        continue
                    branch.witnesses.add(wkey)
                    name = f"{agent}-cluster witness"
                    new = branch.nlabels
                    branch.nlabels += 1
                    branch.cluster[(agent, new)] = cid
                    labels.append(new)
                    additions = [(new, usign, uf) for usign, uf in universals]
                    additions.append((new, sign, body))
            steps.append((sign, label, f, name))
            if cases is None:
                closed = branch.add(additions)
            elif len(cases) == 1:
                closed = branch.add([(label, sg, g) for sg, g in cases[0]])
            elif not cases:
                closed = (label, f)
            else:
                split = len(log)
                log.append((parent, tuple(steps), (sign, label, f)))
                for i in range(len(cases) - 1, -1, -1):
                    case = [(label, sg, g) for sg, g in cases[i]]
                    stack.append((branch.copy() if i else branch, split, case))
                break
        else:  # the branch closed; a split breaks out above
            log.append((parent, tuple(steps), closed))
    return tuple(log)


def _extract_model(branch: _Branch, agents) -> KripkeModel:
    worlds = tuple(f"w{i + 1}" for i in range(branch.nlabels))
    relations = {}
    for agent in sorted(agents):
        classes = [
            frozenset(worlds[m] for m in labels)
            for a, labels, _ in branch.clusters
            if a == agent
        ]
        classes += [
            frozenset([w]) for i, w in enumerate(worlds)
            if (agent, i) not in branch.cluster
        ]
        relations[agent] = classes
    valuation: dict[str, set[str]] = {}
    for (label, f), sign in branch.facts.items():
        if sign and isinstance(f, Atom) and f.name not in branch.ctx:
            valuation.setdefault(f.name, set()).add(worlds[label])
    return KripkeModel(worlds, relations, valuation)


# How many (goal, context bodies) pairs prove_el keeps the outcome of.
MEMO_SIZE = 256


@functools.lru_cache(maxsize=MEMO_SIZE)
def _decide(f: Formula, bodies: tuple) -> tuple:
    """The raw outcome of the tableau for ``f`` with the context bodies
    ``bodies``, its (name, body) pairs in name order: (log, None) for a
    closed tableau, (None, (model, world)) for a counter-model, checked to
    falsify ``f`` at that world. A ProverError is raised, not kept."""
    ctx = dict(bodies)
    result = _explore(_Branch(ctx), [(0, False, f)])
    if not isinstance(result, _Branch):
        return result, None
    model = _extract_model(result, formula_info(f).agents)
    world = "w1"
    if satisfies(model, world, ContextEnv(ctx), f):
        raise ProverError("open branch produced a non-falsifying model")
    return None, (model, world)


def prove_el(
    f: Formula, context_bodies: dict[str, ContextFormula] | None = None
) -> Verdict:
    """Decide multi-agent S5 validity of a relativization-free formula.

    ``context_bodies`` lets atoms standing for contexts expand to their
    literal conjunctions inside the tableau (the reduce-then-prove pipeline
    uses this; plain callers can ignore it). The outcome is kept in a memo
    of the last ``MEMO_SIZE`` distinct (goal, bodies) pairs; each call gets
    a verdict object of its own.
    """
    if not is_relativization_free(f):
        raise NonEpistemicFragmentError(
            "prove_el needs a relativization-free formula; reduce it first"
        )
    tableau, counter = _decide(f, tuple(sorted((context_bodies or {}).items())))
    if counter is None:
        return Valid(goal=f, tableau=tableau)
    return Invalid(*counter)


def prove_cel(f: Formula, env: ContextEnv | None = None) -> Verdict:
    """Decide validity of a relativized formula: compile away relativization,
    then run the tableau, which expands f's context names (its guards and
    the bound names it uses as atoms, ``ContextEnv.for_formula``; a body
    literal that is one of them raises ValueError) to their bodies. Invalid
    witnesses are re-checked against the original formula."""
    env = (env or ContextEnv()).for_formula(f)
    # a normal form keeps that it is Rel-free, so prove_el's check is free
    verdict = prove_el(reduce_result(f), env.bindings)
    if isinstance(verdict, Invalid):
        if satisfies(verdict.model, verdict.world, env, f):
            raise ProverError(
                "counter-model does not falsify the original formula"
            )
    return verdict
