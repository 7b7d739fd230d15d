"""Command-line front end.

Exit codes: 0 valid/true/agreement, 1 invalid/false/mismatch, 2 usage or
input error, 3 search budget exhausted, oracle model space over its
ceiling, formula nested too deeply, or a failed internal check. Errors
go to stderr prefixed with ``error:``.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from . import dialogue as dlg
from .kripke import (
    ContextEnv,
    EnumerationCeilingError,
    KripkeModel,
    check_model,
    find_countermodel,
    satisfies,
)
from .prove import Invalid, ProverError, Valid, prove_cel, verdict_to_json
from .reduction import reduce_full
from .epistemology import run_suite
from .syntax import (
    Atom,
    Formula,
    FormulaSyntaxError,
    Know,
    Not,
    Poss,
    Rel,
    VARIANTS,
    UntaggedOperatorError,
    fold,
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
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"cannot read context file {path}: {exc}") from exc


def _load_model(path: str) -> KripkeModel:
    try:
        with open(path) as fh:
            model = KripkeModel.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"cannot read model file {path}: {exc}") from exc
    violations = check_model(model)
    if violations:
        raise CliError("model is not well-formed: " + "; ".join(violations))
    return model


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for a document whose
    keys are strings, written from an explicit stack: the standard encoder
    recurses once per level, so it cannot write a document nested about a
    thousand levels deep. The stack holds values still to write, each with
    the indent of its line, and the text between them."""
    parts: list[str] = []
    stack: list = [(doc, "")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        value, indent = item
        if isinstance(value, str):
            parts.append(encode_basestring_ascii(value))
        elif not isinstance(value, (dict, list, tuple)):
            parts.append(json.dumps(value))  # a number, a bool or None
        elif not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
        else:
            inner = indent + "  "
            if isinstance(value, dict):
                entries = [
                    (f"\n{inner}{encode_basestring_ascii(key)}: ", v)
                    for key, v in value.items()
                ]
                parts.append("{")
                stack.append(f"\n{indent}}}")
            else:
                entries = [(f"\n{inner}", v) for v in value]
                parts.append("[")
                stack.append(f"\n{indent}]")
            for n in range(len(entries) - 1, -1, -1):
                prefix, v = entries[n]
                stack.append((v, inner))
                stack.append("," + prefix if n else prefix)
    return "".join(parts)


def _ast_dump(f: Formula) -> str:
    lines, stack = [], [(f, 0)]
    while stack:
        g, depth = stack.pop()
        match g:
            case Atom(name):
                head = f"Atom {name}"
            case Know(agent, variant, _) | Poss(agent, variant, _):
                head = f"{type(g).__name__} {agent} {variant or 'untagged'}"
            case Rel(_, context):
                head = f"Rel ^{context}"
            case _:
                head = type(g).__name__
        lines.append("  " * depth + head)
        stack.extend((k, depth + 1) for k in reversed(g.children()))
    return "\n".join(lines)


def _ast_json(f: Formula) -> dict:
    def step(f: Formula):
        kids = list((yield f.children()))
        match f:
            case Atom(name):
                value = name
            case Not():
                value = kids[0]
            case Know(agent, variant, _) | Poss(agent, variant, _):
                value = {"agent": agent, "variant": variant, "body": kids[0]}
            case Rel(_, context):
                value = {"context": context, "body": kids[0]}
            case _:
                value = kids
        return {type(f).__name__.lower(): value}

    return fold(f, step)


def _cmd_parse(args) -> int:
    f = parse_formula(args.formula, args.default_variant)
    if args.format == "json":
        print(_json_text(_ast_json(f)))
    else:
        print(_ast_dump(f))
    return EXIT_OK


def _cmd_eval(args) -> int:
    f = parse_formula(args.formula, args.default_variant)
    model = _load_model(args.model)
    env = _load_env(args.env)
    value = satisfies(model, args.world, env.for_formula(f), f)
    if args.format == "json":
        print(json.dumps({"world": args.world, "value": value}))
    else:
        print("true" if value else "false")
    return EXIT_OK if value else EXIT_NEGATIVE


def _cmd_reduce(args) -> int:
    f = parse_formula(args.formula, args.default_variant)
    trace = reduce_full(f)
    if args.format == "json":
        print(_json_text({"steps": trace.to_json(), "result": render_formula(trace.result)}))
    else:
        for i, step in enumerate(trace.steps):
            print(f"{i + 1}. [{step.axiom}] at {list(step.path)}")
            print(f"   {render_formula(step.before)}")
            print(f"   => {render_formula(step.after)}")
        print(f"result: {render_formula(trace.result)}")
    return EXIT_OK


def _cmd_prove(args) -> int:
    f = parse_formula(args.formula, args.default_variant)
    env = _load_env(args.env)
    verdict = prove_cel(f, env)
    if args.format == "json":
        print(_json_text(verdict_to_json(verdict)))
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
            print(_json_text(verdict.model.to_json()))
    return EXIT_OK if isinstance(verdict, Valid) else EXIT_NEGATIVE


def _cmd_dialogue(args) -> int:
    f = parse_formula(args.formula, args.default_variant)
    env = _load_env(args.env)
    budget = args.budget or dlg.DEFAULT_SEARCH_BUDGET
    result = dlg.has_winning_strategy(f, env, budget=budget)
    if args.format == "json":
        # one document, shaped like prove's: the verdict, then its witness.
        # The tree is built on this read, which can still stop on the
        # budget, so it is built before anything is printed.
        if result.verdict:
            doc = {"valid": True, "strategy": result.strategy}
        else:
            doc = {
                "valid": False,
                "refutation": [dlg.move_to_json(m) for m in result.refutation],
            }
        print(_json_text(doc))
    elif result.verdict:
        print("P has a winning strategy")
    else:
        print("O wins: no winning strategy for P")
        print(dlg.render_transcript(result.refutation, winner="O"))
    return EXIT_OK if result.verdict else EXIT_NEGATIVE


def _cmd_oracle(args) -> int:
    f = parse_formula(args.formula, args.default_variant)
    env = _load_env(args.env)
    found = find_countermodel(f, env, max_worlds=args.max_worlds)
    if found is None:
        # the found case's keys in JSON, a comment in dot, as prove prints
        if args.format == "json":
            print(_json_text({"world": None, "model": None}))
        else:
            prefix = "// " if args.format == "dot" else ""
            print(f"{prefix}no counter-model with up to {args.max_worlds} worlds")
        return EXIT_OK
    model, world = found
    if args.format == "dot":
        print(model.to_dot(highlight=world))
    else:
        print(_json_text({"world": world, "model": model.to_json()}))
    return EXIT_NEGATIVE


def _cmd_suite(args) -> int:
    report = run_suite(budget=args.budget)
    if args.format == "json":
        print(_json_text(report.to_json()))
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
        choices=VARIANTS,
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
    if getattr(args, "budget", None) is not None and args.budget < 1:
        print("error: --budget must be a positive integer", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (
        dlg.BudgetExhaustedError, EnumerationCeilingError, ProverError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        # the JSON decoder, reading a deeply nested --env or --model file,
        # ran out of stack: a resource limit, not exit 1 ("invalid")
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_BUDGET
    except (FormulaSyntaxError, UntaggedOperatorError, CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
