"""Validity decisions: labeled tableau for the plain epistemic fragment, and
reduce-then-prove for relativized formulas.

The tableau works over signed, world-labeled formulas. Per agent, labels are
grouped into clusters that stand for equivalence classes, so the counter-model
read off an open saturated branch is a partition model directly. A signed
box/diamond needing a witness gets exactly one per (cluster, formula), which
keeps saturation finite without an explicit duplicate-label merge.

Scheduling is deterministic: oldest item first within a priority band, and
non-branching rules before branching rules before modal rules.

The search records its proof log as raw data: each step as (sign, label,
formula, rule), each closure as (label, formula), each branch point as its
signed formula and its cases. Nothing is rendered while it runs; a Valid
verdict renders the log to strings the first time its ``proof`` is read,
so a caller that only wants the verdict never pays for the log.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

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
    Rel,
    formula_info,
    render_formula,
)


class NonEpistemicFragmentError(ValueError):
    """prove_el only accepts relativization-free formulas."""


class ProverError(RuntimeError):
    """Internal invariant failed (e.g. an unverifiable counter-model)."""


@dataclass(frozen=True)
class Valid:
    """A closed tableau for ``goal``, kept as the search recorded it."""

    goal: Formula
    tableau: tuple = field(repr=False)

    @property
    def is_valid(self) -> bool:
        return True

    @cached_property
    def proof(self) -> dict:
        """The tableau log as JSON-ready data, rendered on first read."""
        return {"goal": render_formula(self.goal), "tableau": _log_json(self.tableau)}


@dataclass(frozen=True)
class Invalid:
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


_PRIO_ALPHA, _PRIO_BETA, _PRIO_UNIVERSAL, _PRIO_WITNESS = range(4)


def _signed(sign: bool, label: int, f: Formula) -> str:
    return f"{'T' if sign else 'F'} w{label + 1}: {render_formula(f)}"


def _log_json(node: tuple) -> dict:
    """Render a raw log node: (steps, (label, formula)) closes on that fact,
    (steps, (sign, label, formula), cases) branches on that signed formula."""
    steps, *rest = node
    out = {"steps": [f"{_signed(sg, lab, g)}  [{rule}]" for sg, lab, g, rule in steps]}
    if len(rest) == 1:
        label, f = rest[0]
        out["closed"] = {"world": f"w{label + 1}", "on": render_formula(f)}
    else:
        (sign, label, f), cases = rest
        out["branch"] = {
            "on": _signed(sign, label, f),
            "cases": [_log_json(case) for case in cases],
        }
    return out


class _Branch:
    def __init__(self, ctx: dict[str, ContextFormula]):
        self.ctx = ctx
        self.facts: dict[tuple[int, Formula], bool] = {}
        self.queue: list[tuple[int, int, int, bool, Formula]] = []
        self.seq = 0
        self.nlabels = 1
        self.ncid = 0
        self.cluster: dict[tuple[str, int], int] = {}
        self.members: dict[int, list[int]] = {}
        self.universals: dict[int, list[tuple[bool, Formula]]] = {}
        self.witnesses: set[tuple[int, bool, Formula]] = set()

    def copy(self) -> "_Branch":
        b = _Branch.__new__(_Branch)
        b.ctx = self.ctx
        b.facts = dict(self.facts)
        b.queue = list(self.queue)
        b.seq = self.seq
        b.nlabels = self.nlabels
        b.ncid = self.ncid
        b.cluster = dict(self.cluster)
        b.members = {k: list(v) for k, v in self.members.items()}
        b.universals = {k: list(v) for k, v in self.universals.items()}
        b.witnesses = set(self.witnesses)
        return b

    def priority(self, sign: bool, f: Formula) -> int | None:
        match f:
            case Atom(name):
                if name not in self.ctx:
                    return None
                body = self.ctx[name]
                if not sign and len(body.literals) > 1:
                    return _PRIO_BETA
                return _PRIO_ALPHA
            case Not(_):
                return _PRIO_ALPHA
            case And(_, _):
                return _PRIO_ALPHA if sign else _PRIO_BETA
            case Or(_, _) | Imp(_, _):
                return _PRIO_BETA if sign else _PRIO_ALPHA
            case Iff(_, _):
                return _PRIO_BETA
            case Know(_, _, _):
                return _PRIO_UNIVERSAL if sign else _PRIO_WITNESS
            case Poss(_, _, _):
                return _PRIO_WITNESS if sign else _PRIO_UNIVERSAL
            case Rel(_, _):
                raise NonEpistemicFragmentError(
                    f"relativized subformula {render_formula(f)!r}"
                )
        raise TypeError(f"not a formula: {f!r}")

    def add(self, label: int, sign: bool, f: Formula):
        """Record a signed fact; returns the closing fact key on contradiction,
        None otherwise."""
        key = (label, f)
        prior = self.facts.get(key)
        if prior is not None:
            return key if prior != sign else None
        self.facts[key] = sign
        prio = self.priority(sign, f)
        if prio is not None:
            heapq.heappush(self.queue, (prio, self.seq, label, sign, f))
            self.seq += 1
        return None

    def cluster_of(self, agent: str, label: int) -> int:
        cid = self.cluster.get((agent, label))
        if cid is None:
            cid = self.ncid
            self.ncid += 1
            self.cluster[(agent, label)] = cid
            self.members[cid] = [label]
            self.universals[cid] = []
        return cid

    def new_label(self, agent: str, cid: int) -> int:
        label = self.nlabels
        self.nlabels += 1
        self.cluster[(agent, label)] = cid
        self.members[cid].append(label)
        return label


def _explore(branch: _Branch):
    """Expand to saturation; ('closed', raw log node) or ('open', branch)."""
    steps: list[tuple[bool, int, Formula, str]] = []
    while branch.queue:
        _, _, label, sign, f = heapq.heappop(branch.queue)
        additions: list[tuple[int, bool, Formula]] = []
        alternatives: list[list[tuple[int, bool, Formula]]] | None = None
        rule = ""
        match f:
            case Atom(name):
                body = branch.ctx[name]
                rule = f"context {name}"
                if sign:
                    if body.is_bot:
                        steps.append((sign, label, f, rule))
                        return "closed", (steps, (label, f))
                    additions = [
                        (label, positive, Atom(a)) for a, positive in body.literals
                    ]
                else:
                    if body.is_top:
                        steps.append((sign, label, f, rule))
                        return "closed", (steps, (label, f))
                    lits = [
                        (label, not positive, Atom(a)) for a, positive in body.literals
                    ]
                    if len(lits) <= 1:
                        additions = lits
                    else:
                        alternatives = [[lit] for lit in lits]
            case Not(body):
                rule = "negation"
                additions = [(label, not sign, body)]
            case And(l, r):
                rule = "conjunction"
                if sign:
                    additions = [(label, True, l), (label, True, r)]
                else:
                    alternatives = [[(label, False, l)], [(label, False, r)]]
            case Or(l, r):
                rule = "disjunction"
                if sign:
                    alternatives = [[(label, True, l)], [(label, True, r)]]
                else:
                    additions = [(label, False, l), (label, False, r)]
            case Imp(l, r):
                rule = "implication"
                if sign:
                    alternatives = [[(label, False, l)], [(label, True, r)]]
                else:
                    additions = [(label, True, l), (label, False, r)]
            case Iff(l, r):
                rule = "equivalence"
                if sign:
                    alternatives = [
                        [(label, True, l), (label, True, r)],
                        [(label, False, l), (label, False, r)],
                    ]
                else:
                    alternatives = [
                        [(label, True, l), (label, False, r)],
                        [(label, False, l), (label, True, r)],
                    ]
            case Know(agent, _, body) | Poss(agent, _, body):
                universal = sign if isinstance(f, Know) else not sign
                body_sign = sign
                cid = branch.cluster_of(agent, label)
                if universal:
                    rule = f"{agent}-cluster universal"
                    branch.universals[cid].append((body_sign, body))
                    additions = [(m, body_sign, body) for m in branch.members[cid]]
                else:
                    rule = f"{agent}-cluster witness"
                    wkey = (cid, body_sign, body)
                    if wkey in branch.witnesses:
                        continue
                    branch.witnesses.add(wkey)
                    new = branch.new_label(agent, cid)
                    additions = [
                        (new, usign, uf) for usign, uf in branch.universals[cid]
                    ]
                    additions.append((new, body_sign, body))
        steps.append((sign, label, f, rule))
        if alternatives is None:
            for lab, sg, g in additions:
                closed = branch.add(lab, sg, g)
                if closed is not None:
                    return "closed", (steps, closed)
        else:
            cases = []
            for alt in alternatives:
                child = branch.copy()
                closed = None
                for lab, sg, g in alt:
                    closed = child.add(lab, sg, g)
                    if closed is not None:
                        cases.append(([], closed))
                        break
                if closed is not None:
                    continue
                status, payload = _explore(child)
                if status == "open":
                    return "open", payload
                cases.append(payload)
            return "closed", (steps, (sign, label, f), cases)
    return "open", branch


def _extract_model(branch: _Branch, agents) -> KripkeModel:
    worlds = tuple(f"w{i + 1}" for i in range(branch.nlabels))
    relations = {}
    for agent in sorted(agents):
        by_cid: dict[int, list[str]] = {}
        loose = []
        for i in range(branch.nlabels):
            cid = branch.cluster.get((agent, i))
            if cid is None:
                loose.append(worlds[i])
            else:
                by_cid.setdefault(cid, []).append(worlds[i])
        classes = [frozenset(v) for _, v in sorted(by_cid.items())]
        classes += [frozenset([w]) for w in loose]
        relations[agent] = classes
    valuation: dict[str, set[str]] = {}
    for (label, f), sign in branch.facts.items():
        if sign and isinstance(f, Atom) and f.name not in branch.ctx:
            valuation.setdefault(f.name, set()).add(worlds[label])
    return KripkeModel(worlds, relations, valuation)


def prove_el(
    f: Formula, context_bodies: dict[str, ContextFormula] | None = None
) -> Verdict:
    """Decide multi-agent S5 validity of a relativization-free formula.

    ``context_bodies`` lets atoms standing for contexts expand to their
    literal conjunctions inside the tableau (the reduce-then-prove pipeline
    uses this; plain callers can ignore it).
    """
    if not is_relativization_free(f):
        raise NonEpistemicFragmentError(
            "prove_el needs a relativization-free formula; reduce it first"
        )
    ctx = dict(context_bodies or {})
    branch = _Branch(ctx)
    branch.add(0, False, f)
    status, payload = _explore(branch)
    if status == "closed":
        return Valid(goal=f, tableau=payload)
    model = _extract_model(payload, formula_info(f).agents)
    world = "w1"
    env = ContextEnv(ctx)
    if satisfies(model, world, env, f):
        raise ProverError("open branch produced a non-falsifying model")
    return Invalid(model=model, world=world)


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
