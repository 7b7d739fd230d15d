"""Position presets mapping epistemological stances onto operator variants
and context policies, plus the executable suite of headline verdicts.

The stances: the two absolutist readings (sceptic, anti-sceptic) share the
1.1 operator and differ only in what their constant context contains (for the
sceptic it is trivial, so relativization collapses); the contextualist keys
knowledge to the attributor's context (1.2) and the subjectivist to the
knowing subject's own (2.2). The remaining 2.1 operator is exposed by the
machinery but carries no named preset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dialogue import DEFAULT_SEARCH_BUDGET, has_winning_strategy
from .kripke import ContextEnv
from .prove import Valid, prove_cel
from .reduction import needed_context_names
from .syntax import (
    ContextFormula,
    Formula,
    Know,
    Poss,
    TOP,
    fold,
    parse_formula,
    render_formula,
)


class PresetConstraintError(ValueError):
    """A preset's context bindings violate its defining constraint."""


@dataclass(frozen=True)
class PositionPreset:
    name: str
    variant: str
    context_policy: str  # "top" | "anti" | "fresh"


SCEPTIC = PositionPreset("sceptic", "1.1", "top")
ANTI_SCEPTIC = PositionPreset("anti-sceptic", "1.1", "anti")
CONTEXTUALIST = PositionPreset("contextualist", "1.2", "fresh")
SUBJECTIVIST = PositionPreset("subjectivist", "2.2", "fresh")

PRESETS = {
    p.name: p for p in (SCEPTIC, ANTI_SCEPTIC, CONTEXTUALIST, SUBJECTIVIST)
}

DEFAULT_ANTI_BINDING = ContextFormula((("_anti", True),))


def _retag(f: Formula, variant: str) -> Formula:
    def step(f: Formula):
        f = f.rebuild(*(yield f.children()))
        if isinstance(f, (Know, Poss)) and f.variant is None:
            return type(f)(f.agent, variant, f.body)
        return f

    return fold(f, step)


def context_implies(premise: ContextFormula, conclusion: ContextFormula) -> bool:
    """Whether every assignment satisfying the premise body satisfies the
    conclusion body. Both are canonical conjunctions of literals, so that
    holds exactly when the premise is bottom or the conclusion's literals
    are among the premise's."""
    return premise.is_bot or (
        not conclusion.is_bot and set(conclusion.literals) <= set(premise.literals)
    )


def apply_preset(
    f: Formula,
    preset: PositionPreset,
    anti_binding: ContextFormula | None = None,
    scep_binding: ContextFormula | None = None,
) -> tuple[Formula, ContextEnv]:
    """Retag untagged operators with the preset's variant and produce the
    context environment its policy prescribes."""
    tagged = _retag(f, preset.variant)
    if preset.context_policy == "fresh":
        return tagged, ContextEnv()
    names = set(needed_context_names(tagged))
    if preset.context_policy == "top":
        return tagged, ContextEnv({name: TOP for name in names})
    # anti-sceptic: a fixed nonempty presupposition set, strictly laxer than
    # the sceptic's trivial context (the implication must not reverse unless
    # the bindings coincide).
    anti = anti_binding if anti_binding is not None else DEFAULT_ANTI_BINDING
    scep = scep_binding if scep_binding is not None else TOP
    if anti.is_top:
        raise PresetConstraintError("the anti-sceptic context must be nonempty")
    if not context_implies(anti, scep):
        raise PresetConstraintError(
            "the anti-sceptic context must imply the sceptic one"
        )
    if context_implies(scep, anti) and scep != anti:
        raise PresetConstraintError(
            "the sceptic context must not imply the anti-sceptic one"
        )
    env = ContextEnv({name: anti for name in names})
    env.bindings["cscep"] = scep
    return tagged, env


# ---------------------------------------------------------------------------
# Verdict suite


@dataclass(frozen=True)
class SuiteRow:
    anchor: str
    formula: str
    expected: bool


def _normality(variant: str) -> str:
    k = f"K{{j,{variant}}}"
    return f"(({k} p & {k} (p -> q)) -> {k} q)^ci"


SUITE_ROWS: tuple[SuiteRow, ...] = (
    SuiteRow("positive introspection, absolute", "K{i,1.1} a -> K{i,1.1} K{i,1.1} a", True),
    SuiteRow(
        "knowledge distribution over two agents",
        "K{i,1.1} K{j,1.1} a -> (K{i,1.1} a & K{j,1.1} a)",
        True,
    ),
    SuiteRow(
        "cross-context introspection, contextualist",
        "(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj",
        False,
    ),
    SuiteRow(
        "cross-context introspection, subjectivist",
        "(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj",
        True,
    ),
    SuiteRow("closure under known implication, 1.1", _normality("1.1"), True),
    SuiteRow("closure under known implication, 1.2", _normality("1.2"), True),
    SuiteRow("closure under known implication, 2.1", _normality("2.1"), True),
    SuiteRow("closure under known implication, 2.2", _normality("2.2"), True),
    SuiteRow(
        "factivity on epistemic content, 1.1",
        "(K{j,1.1} K{k,1.1} p -> K{k,1.1} p)^ci",
        True,
    ),
    SuiteRow(
        "factivity on epistemic content, 1.2",
        "(K{j,1.2} K{k,1.2} p -> K{k,1.2} p)^ci",
        False,
    ),
    SuiteRow(
        "factivity on epistemic content, 2.2",
        "(K{j,2.2} K{k,2.2} p -> K{k,2.2} p)^ci",
        False,
    ),
    SuiteRow(
        "mixed agents: absolutist over subjectivist",
        "(K{j,1.1} K{k,2.2} p)^ci -> (K{k,2.2} p)^ci",
        False,
    ),
    SuiteRow(
        "mixed variants on a single agent",
        "(K{j,1.1} K{j,2.2} p)^ci -> (K{j,2.2} p)^ci",
        False,
    ),
    SuiteRow("negation rewrite, forward", "(~p)^ci -> (ci -> ~(p)^ci)", True),
    SuiteRow("negation rewrite, backward", "(ci -> ~(p)^ci) -> (~p)^ci", True),
    SuiteRow("rewrite schema: atoms", "(p)^ci <-> (ci -> p)", True),
    SuiteRow("rewrite schema: negation", "(~p)^ci <-> (ci -> ~(p)^ci)", True),
    SuiteRow(
        "rewrite schema: conjunction", "(p & q)^ci <-> ((p)^ci & (q)^ci)", True
    ),
    SuiteRow(
        "rewrite schema: iteration", "((p)^cj)^ci <-> (ci -> (p)^cj)", True
    ),
    SuiteRow(
        "rewrite schema: knowledge 1.1",
        "(K{j,1.1} p)^ci <-> (ci -> K{j,1.1} (p)^ci)",
        True,
    ),
    SuiteRow(
        "rewrite schema: knowledge 1.2",
        "(K{j,1.2} p)^ci <-> (ci -> K{j,1.2} (p)^cj)",
        True,
    ),
    SuiteRow(
        "rewrite schema: knowledge 2.1",
        "(K{j,2.1} p)^ci <-> (cj -> K{j,2.1} (p)^ci)",
        True,
    ),
    SuiteRow(
        "rewrite schema: knowledge 2.2",
        "(K{j,2.2} p)^ci <-> (cj -> K{j,2.2} (p)^cj)",
        True,
    ),
)


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return all(r["agree"] for r in self.rows)

    def to_json(self) -> list[dict]:
        return [dict(r) for r in self.rows]

    def to_text(self) -> str:
        width = max(len(r["anchor"]) for r in self.rows)
        lines = []
        for r in self.rows:
            flag = "ok" if r["agree"] else "MISMATCH"
            lines.append(
                f"{r['anchor']:<{width}}  expected={_v(r['expected'])}"
                f"  tableau={_v(r['tableau'])}  dialogue={_v(r['dialogue'])}  {flag}"
            )
        lines.append(
            f"{len(self.rows)} rows, "
            + ("all verdicts agree" if self.ok else "DISAGREEMENT FOUND")
        )
        return "\n".join(lines)


def _v(b: bool) -> str:
    return "valid" if b else "invalid"


def run_suite(budget: int | None = None) -> SuiteReport:
    """Evaluate the fixed corpus through both decision procedures.

    Every row runs under the fresh-atom context policy, so each verdict is a
    schema verdict. Mismatches are reported, not raised.
    """
    budget = budget or DEFAULT_SEARCH_BUDGET
    rows = []
    for row in SUITE_ROWS:
        f = parse_formula(row.formula)
        tableau = isinstance(prove_cel(f, ContextEnv()), Valid)
        dialogue = has_winning_strategy(f, ContextEnv(), budget=budget).verdict
        rows.append(
            {
                "anchor": row.anchor,
                "formula": render_formula(f),
                "expected": row.expected,
                "tableau": tableau,
                "dialogue": dialogue,
                "agree": tableau == dialogue == row.expected,
            }
        )
    return SuiteReport(tuple(rows))
