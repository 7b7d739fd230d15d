"""Command-line front end.

Exit codes: 0 valid/true/agreement, 1 invalid/false/mismatch, 2 usage or
input error, 3 search budget exhausted or formula nested too deeply. Errors
go to stderr prefixed with ``error:``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dialogue as dlg
from .kripke import (
    ContextEnv,
    KripkeModel,
    check_model,
    find_countermodel,
    satisfies,
)
from .prove import Invalid, Valid, prove_cel, verdict_to_json
from .reduction import reduce_full
from .epistemology import run_suite
from .syntax import (
    And,
    Atom,
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
    parse_formula,
    render_formula,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class CliError(Exception):
    pass


def _load_env(path: str | None) -> ContextEnv:
    if path is None:
        return ContextEnv()
    try:
        with open(path) as fh:
            return ContextEnv.from_json(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot read context file {path}: {exc}") from exc


def _load_model(path: str) -> KripkeModel:
    try:
        with open(path) as fh:
            model = KripkeModel.from_json(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot read model file {path}: {exc}") from exc
    violations = check_model(model)
    if violations:
        raise CliError("model is not well-formed: " + "; ".join(violations))
    return model


def _parse(text: str, default_variant: str) -> Formula:
    return parse_formula(text, default_variant)


def _ast_dump(f: Formula, indent: int = 0) -> str:
    pad = "  " * indent
    match f:
        case Atom(name):
            return f"{pad}Atom {name}"
        case Not(body):
            return f"{pad}Not\n" + _ast_dump(body, indent + 1)
        case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
            kind = type(f).__name__
            return (
                f"{pad}{kind}\n"
                + _ast_dump(l, indent + 1)
                + "\n"
                + _ast_dump(r, indent + 1)
            )
        case Know(agent, variant, body) | Poss(agent, variant, body):
            kind = type(f).__name__
            tag = variant or "untagged"
            return f"{pad}{kind} {agent} {tag}\n" + _ast_dump(body, indent + 1)
        case Rel(body, context):
            return f"{pad}Rel ^{context}\n" + _ast_dump(body, indent + 1)
    raise TypeError(f"not a formula: {f!r}")


def _ast_json(f: Formula) -> dict:
    match f:
        case Atom(name):
            return {"atom": name}
        case Not(body):
            return {"not": _ast_json(body)}
        case And(l, r):
            return {"and": [_ast_json(l), _ast_json(r)]}
        case Or(l, r):
            return {"or": [_ast_json(l), _ast_json(r)]}
        case Imp(l, r):
            return {"imp": [_ast_json(l), _ast_json(r)]}
        case Iff(l, r):
            return {"iff": [_ast_json(l), _ast_json(r)]}
        case Know(agent, variant, body):
            return {"know": {"agent": agent, "variant": variant, "body": _ast_json(body)}}
        case Poss(agent, variant, body):
            return {"poss": {"agent": agent, "variant": variant, "body": _ast_json(body)}}
        case Rel(body, context):
            return {"rel": {"context": context, "body": _ast_json(body)}}
    raise TypeError(f"not a formula: {f!r}")


def _cmd_parse(args) -> int:
    f = _parse(args.formula, args.default_variant)
    if args.format == "json":
        print(json.dumps(_ast_json(f), indent=2))
    else:
        print(_ast_dump(f))
    return EXIT_OK


def _cmd_eval(args) -> int:
    f = _parse(args.formula, args.default_variant)
    model = _load_model(args.model)
    env = _load_env(args.env)
    from .reduction import needed_context_names

    value = satisfies(model, args.world, env.completed(needed_context_names(f)), f)
    if args.format == "json":
        print(json.dumps({"world": args.world, "value": value}))
    else:
        print("true" if value else "false")
    return EXIT_OK if value else EXIT_NEGATIVE


def _cmd_reduce(args) -> int:
    f = _parse(args.formula, args.default_variant)
    trace = reduce_full(f)
    if args.format == "json":
        print(json.dumps({"steps": trace.to_json(), "result": render_formula(trace.result)}, indent=2))
    else:
        for i, step in enumerate(trace.steps):
            print(f"{i + 1}. [{step.axiom}] at {list(step.path)}")
            print(f"   {render_formula(step.before)}")
            print(f"   => {render_formula(step.after)}")
        print(f"result: {render_formula(trace.result)}")
    return EXIT_OK


def _cmd_prove(args) -> int:
    f = _parse(args.formula, args.default_variant)
    env = _load_env(args.env)
    verdict = prove_cel(f, env)
    if args.format == "json":
        print(json.dumps(verdict_to_json(verdict), indent=2))
    elif args.format == "dot":
        if isinstance(verdict, Invalid):
            print(verdict.model.to_dot(highlight=verdict.world))
        else:
            print("// valid: no counter-model to draw")
    else:
        if isinstance(verdict, Valid):
            print("valid")
        else:
            print(f"invalid at {verdict.world}")
            print(json.dumps(verdict.model.to_json(), indent=2))
    return EXIT_OK if isinstance(verdict, Valid) else EXIT_NEGATIVE


def _cmd_dialogue(args) -> int:
    f = _parse(args.formula, args.default_variant)
    env = _load_env(args.env)
    budget = args.budget or dlg.DEFAULT_SEARCH_BUDGET
    result = dlg.has_winning_strategy(f, env, budget=budget)
    if result.verdict:
        print("P has a winning strategy")
        if args.format == "json":
            print(json.dumps(result.strategy, indent=2))
        return EXIT_OK
    print("O wins: no winning strategy for P")
    if args.format == "json":
        print(json.dumps([dlg.move_to_json(m) for m in result.refutation], indent=2))
    else:
        print(dlg.render_transcript(result.refutation, winner="O"))
    return EXIT_NEGATIVE


def _cmd_oracle(args) -> int:
    f = _parse(args.formula, args.default_variant)
    env = _load_env(args.env)
    found = find_countermodel(f, env, max_worlds=args.max_worlds)
    if found is None:
        print(f"no counter-model with up to {args.max_worlds} worlds")
        return EXIT_OK
    model, world = found
    if args.format == "dot":
        print(model.to_dot(highlight=world))
    else:
        print(json.dumps({"world": world, "model": model.to_json()}, indent=2))
    return EXIT_NEGATIVE


def _cmd_suite(args) -> int:
    report = run_suite(budget=args.budget)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.to_text())
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celogic",
        description="Epistemic logic with context relativization: evaluate, "
        "compile, prove, and play.",
    )
    parser.add_argument(
        "--default-variant",
        default="1.1",
        choices=["1.1", "1.2", "2.1", "2.2"],
        help="variant filled in for untagged K/P operators (default 1.1)",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json", "dot"]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="dump the AST of a formula")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("eval", help="truth value at a world of a model")
    p.add_argument("formula")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--world", required=True)
    p.add_argument("--env", help="context bindings JSON file")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("reduce", help="compile away relativization, with trace")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("prove", help="decide validity by tableau")
    p.add_argument("formula")
    p.add_argument("--env", help="context bindings JSON file")
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("dialogue", help="decide validity by game search")
    p.add_argument("formula")
    p.add_argument("--env", help="context bindings JSON file")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_dialogue)

    p = sub.add_parser("oracle", help="bounded counter-model search")
    p.add_argument("formula")
    p.add_argument("--env", help="context bindings JSON file")
    p.add_argument("--max-worlds", type=int, default=3)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("suite", help="run the fixed verdict corpus")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "budget", None) is None and hasattr(args, "budget"):
        env_budget = os.environ.get("CEL_BUDGET")
        if env_budget is not None:
            try:
                args.budget = int(env_budget)
            except ValueError:
                print("error: CEL_BUDGET must be an integer", file=sys.stderr)
                return EXIT_USAGE
    try:
        return args.fn(args)
    except dlg.BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        # the recursive walkers ran out of stack: a resource limit, which
        # must not surface as exit 1 ("invalid")
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_BUDGET
    except (FormulaSyntaxError, UntaggedOperatorError, CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
