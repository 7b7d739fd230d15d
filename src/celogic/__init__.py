"""Multi-agent S5 epistemic logic with context relativization.

Formulas may relativize any subformula to a named context (a conjunction of
literals); four variant tags on each knowledge operator fix how the operator
interacts with the current and the agent's own context. The package parses
and prints such formulas, evaluates them in Kripke partition models, compiles
them down to plain epistemic logic with an inspectable rewrite trace, decides
validity both by labeled tableau and by dialogical game search, and ships a
suite of headline verdicts tying the four operator variants to
epistemological stances.
"""

from .dialogue import (
    BudgetExhaustedError,
    GameState,
    IllegalMoveError,
    Move,
    StrategyResult,
    apply_move,
    has_winning_strategy,
    initial_state,
    legal_moves,
    render_transcript,
    replay_script,
)
from .kripke import (
    ContextEnv,
    KripkeModel,
    check_model,
    enumerate_models,
    eval_context,
    find_countermodel,
    satisfies,
)
from .prove import Invalid, Valid, Verdict, prove_cel, prove_el
from .reduction import ReductionTrace, reduce_full, reduce_once, reduce_result
from .epistemology import (
    ANTI_SCEPTIC,
    CONTEXTUALIST,
    PRESETS,
    SCEPTIC,
    SUBJECTIVIST,
    apply_preset,
    run_suite,
)
from .syntax import (
    And,
    Atom,
    ContextFormula,
    Formula,
    FormulaSyntaxError,
    Iff,
    Imp,
    Know,
    Not,
    Or,
    Poss,
    Rel,
    UntaggedOperatorError,
    formula_info,
    parse_context,
    parse_formula,
    render_context,
    render_formula,
)

__version__ = "0.1.0"

__all__ = [
    "And",
    "ANTI_SCEPTIC",
    "apply_move",
    "apply_preset",
    "Atom",
    "BudgetExhaustedError",
    "check_model",
    "ContextEnv",
    "ContextFormula",
    "CONTEXTUALIST",
    "enumerate_models",
    "eval_context",
    "find_countermodel",
    "Formula",
    "FormulaSyntaxError",
    "formula_info",
    "GameState",
    "has_winning_strategy",
    "Iff",
    "IllegalMoveError",
    "Imp",
    "initial_state",
    "Invalid",
    "Know",
    "KripkeModel",
    "legal_moves",
    "Move",
    "Not",
    "Or",
    "parse_context",
    "parse_formula",
    "Poss",
    "PRESETS",
    "prove_cel",
    "prove_el",
    "reduce_full",
    "reduce_once",
    "reduce_result",
    "ReductionTrace",
    "Rel",
    "render_context",
    "render_formula",
    "render_transcript",
    "replay_script",
    "run_suite",
    "satisfies",
    "SCEPTIC",
    "StrategyResult",
    "SUBJECTIVIST",
    "UntaggedOperatorError",
    "Valid",
    "Verdict",
]
