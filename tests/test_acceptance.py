"""Acceptance gate: one test per criterion, each printing its own pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import itertools
import json
import pathlib
import random

import pytest

from celogic.dialogue import (
    game_form,
    has_winning_strategy,
    legal_moves,
    move_from_json,
    apply_move,
    initial_state,
)
from celogic.epistemology import SCEPTIC, apply_preset
from celogic.kripke import (
    ContextEnv,
    _frame_contexts,
    compile_formula,
    find_countermodel,
    satisfies,
)
from celogic.prove import Invalid, Valid, prove_cel
from celogic.reduction import needed_context_names, reduce_full
from celogic.syntax import (
    Iff,
    Rel,
    formula_info,
    node_count,
    parse_context,
    parse_formula,
    render_formula,
)

from corpus import cross_semantics_corpus, hygiene_corpus

PLAYS_DIR = pathlib.Path(__file__).parent / "data" / "plays"


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _verdict_rows():
    rows = [
        ("K{i,1.1} a -> K{i,1.1} K{i,1.1} a", True),
        ("K{i,1.1} K{j,1.1} a -> (K{i,1.1} a & K{j,1.1} a)", True),
        ("(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj", False),
        ("(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj", True),
        ("(K{j,1.1} K{k,1.1} p -> K{k,1.1} p)^ci", True),
        ("(K{j,1.2} K{k,1.2} p -> K{k,1.2} p)^ci", False),
        ("(K{j,2.2} K{k,2.2} p -> K{k,2.2} p)^ci", False),
        ("(K{j,1.1} K{k,2.2} p)^ci -> (K{k,2.2} p)^ci", False),
        ("(K{j,1.1} K{j,2.2} p)^ci -> (K{j,2.2} p)^ci", False),
        ("(~p)^ci -> (ci -> ~(p)^ci)", True),
        ("(ci -> ~(p)^ci) -> (~p)^ci", True),
    ]
    for variant in ("1.1", "1.2", "2.1", "2.2"):
        k = f"K{{j,{variant}}}"
        rows.append((f"(({k} p & {k} (p -> q)) -> {k} q)^ci", True))
    # every rewrite schema as a biconditional over p/q, contexts ci/cj,
    # agents i/j, all four variants
    for c in ("ci", "cj"):
        rows.append((f"(p)^{c} <-> ({c} -> p)", True))
        rows.append((f"(~p)^{c} <-> ({c} -> ~(p)^{c})", True))
        rows.append((f"(p & q)^{c} <-> ((p)^{c} & (q)^{c})", True))
    rows.append(("((p)^cj)^ci <-> (ci -> (p)^cj)", True))
    rows.append(("((p)^ci)^cj <-> (cj -> (p)^ci)", True))
    for agent, variant in itertools.product(("i", "j"), ("1.1", "1.2", "2.1", "2.2")):
        cond, cont = {
            "1.1": ("ci", "ci"),
            "1.2": ("ci", f"c{agent}"),
            "2.1": (f"c{agent}", "ci"),
            "2.2": (f"c{agent}", f"c{agent}"),
        }[variant]
        rows.append(
            (
                f"(K{{{agent},{variant}}} p)^ci <-> ({cond} -> K{{{agent},{variant}}} (p)^{cont})",
                True,
            )
        )
    return rows


def test_criterion_1_verdict_corpus():
    """Both engines return exactly the expected verdict on every row."""
    mismatches = []
    rows = _verdict_rows()
    for text, expected in rows:
        f = parse_formula(text)
        tableau = isinstance(prove_cel(f, ContextEnv()), Valid)
        dialogue = has_winning_strategy(f, ContextEnv()).verdict
        if not (tableau == dialogue == expected):
            mismatches.append((text, expected, tableau, dialogue))
    report(
        "criterion 1: verdict corpus, tableau and dialogue",
        not mismatches,
        f"{len(rows)} rows" if not mismatches else repr(mismatches),
    )


def test_criterion_2_transcript_replay():
    """Every recorded play replays move-for-move; verdicts match winners."""
    paths = sorted(PLAYS_DIR.glob("*.json"))
    problems = []
    for path in paths:
        data = json.loads(path.read_text())
        thesis = parse_formula(data["thesis"])
        agents = formula_info(game_form(thesis)).agents
        state = initial_state(thesis)
        try:
            for move_data in data["moves"]:
                state = apply_move(state, move_from_json(move_data, agents))
        except Exception as exc:
            problems.append(f"{path.stem}: rejected ({exc})")
            continue
        winner = "P" if has_winning_strategy(thesis).verdict else "O"
        if winner != data["winner"]:
            problems.append(f"{path.stem}: winner {winner} != {data['winner']}")
        # the recorded losing positions really are terminal for the loser
        if data["winner"] == "O" and legal_moves(state):
            problems.append(f"{path.stem}: loser still has moves")
    report(
        "criterion 2: transcript replay and winners",
        len(paths) == 11 and not problems,
        f"{len(paths)} plays" if not problems else "; ".join(problems),
    )


def test_criterion_3_cross_semantics():
    """Direct satisfaction equals satisfaction of the compiled form on every
    model with up to 4 worlds over 2 agents and 2 atoms, on 200 formulas:
    each of the 255 frames is evaluated once over all its valuations."""
    env = ContextEnv(
        {
            "ci": parse_context("p"),
            "cj": parse_context("q & ~p"),
            "ck": parse_context("true"),
        }
    )
    contexts = list(_frame_contexts(4, ["i", "j"], ["p", "q"]))
    corpus = cross_semantics_corpus()
    discrepancies = 0
    for f in corpus:
        direct = compile_formula(f, env)
        compiled = compile_formula(reduce_full(f).result, env)
        for ctx in contexts:
            if direct(ctx) != compiled(ctx):
                discrepancies += 1
                break
    report(
        "criterion 3: cross-semantics equivalence",
        discrepancies == 0 and len(contexts) == 255,
        f"{len(corpus)} formulas x {len(contexts)} frames",
    )


def test_criterion_4_reduction_hygiene():
    """1000 reductions terminate within the documented 4 * node_count(f)
    rewrites, land in the plain fragment, and every single step is sound.

    Each step's redex, the subformula at its path, has no Rel above it, and
    the biconditional of the redex with its rewrite holds on every model
    with up to 3 worlds under the direct semantics (``compile_formula``).
    Above the redex there are only connectives and modal operators, which
    are congruent in S5, so this checks the whole step. ``prove_cel`` on
    each step's whole biconditional shows only that the tableau closes on
    it: the prover reduces both sides with the same rewrite table, so a
    wrong schema would pass that check alone."""
    env = ContextEnv().completed(["ci", "cj"])
    contexts = list(_frame_contexts(3, ["i", "j"], ["p", "q", "_ctx_ci", "_ctx_cj"]))
    sound: dict = {}  # redex biconditional -> whether it holds on every model
    corpus = hygiene_corpus()
    failures = []
    steps_checked = 0
    for f in corpus:
        budget = 4 * node_count(f)
        trace = reduce_full(f, step_budget=budget)
        if not formula_info(trace.result).is_el:
            failures.append(f"not reduced: {render_formula(f)}")
            continue
        for step in trace.steps:
            steps_checked += 1
            redex, rewrite = step.before, step.after
            for i in step.path:
                if isinstance(redex, Rel):
                    failures.append(f"redex under a Rel: {render_formula(step.before)}")
                redex, rewrite = redex.children()[i], rewrite.children()[i]
            biconditional = Iff(redex, rewrite)
            if biconditional not in sound:
                mask = compile_formula(biconditional, env)
                sound[biconditional] = all(mask(c) == c.full for c in contexts)
            if not isinstance(redex, Rel) or not sound[biconditional]:
                failures.append(
                    f"unsound step [{step.axiom}]: {render_formula(biconditional)}"
                )
            verdict = prove_cel(Iff(step.before, step.after), ContextEnv())
            if not isinstance(verdict, Valid):
                failures.append(
                    f"invalid step [{step.axiom}] on {render_formula(step.before)}"
                )
    report(
        "criterion 4: reduction hygiene",
        not failures,
        f"{len(corpus)} formulas, {steps_checked} steps, "
        f"{len(sound)} redex biconditionals"
        if not failures
        else f"{len(failures)} failures, the first: {failures[0]}",
    )


def test_criterion_5_oracle_consistency():
    """Valid rows have no small counter-model; invalid witnesses falsify."""
    problems = []
    for text, expected in _verdict_rows():
        f = parse_formula(text)
        verdict = prove_cel(f, ContextEnv())
        if isinstance(verdict, Valid):
            if find_countermodel(f, ContextEnv(), max_worlds=3) is not None:
                problems.append(f"counter-model for proved formula: {text}")
        else:
            env = ContextEnv().completed(needed_context_names(f))
            if satisfies(verdict.model, verdict.world, env, f):
                problems.append(f"witness does not falsify: {text}")
        if isinstance(verdict, Valid) != expected:
            problems.append(f"verdict drift: {text}")
    report(
        "criterion 5: oracle consistency",
        not problems,
        f"{len(_verdict_rows())} rows" if not problems else "; ".join(problems),
    )


def test_criterion_6_sceptic_collapse():
    """Under the trivial-context stance, relativization changes nothing."""
    corpus = cross_semantics_corpus()
    failures = 0
    for f in corpus:
        collapse = Iff(Rel(f, "c"), f)
        tagged, env = apply_preset(collapse, SCEPTIC)
        if not isinstance(prove_cel(tagged, env), Valid):
            failures += 1
    report(
        "criterion 6: sceptic collapse",
        failures == 0,
        f"{len(corpus)} formulas",
    )
