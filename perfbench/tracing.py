"""Tracing from outside the program: wrap the public functions at each layer
boundary, keep spans in memory, and turn them into per-layer metrics.

The callers look these functions up through module globals, so replacing
the module attribute is enough; nothing in ``celogic`` is edited. A call
that runs once per item or per proof step is recorded as a span (name,
item, parent span, start, end). A call that runs once per game position or
per model (``legal_moves``, ``apply_move``, mask evaluation, model
enumeration) is only counted and timed, so memory stays small; its time is
still charged to the enclosing span as child time.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import Counter, defaultdict

from celogic import dialogue, kripke, prove, reduction, syntax

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "syntax.parse_s": "s",
    "syntax.parse_nodes_per_s": "1/s",
    "reduction.reduce_full_s": "s",
    "reduction.steps": "count",
    "reduction.steps_per_s": "1/s",
    "reduction.result_nodes": "count",
    "prove.prove_cel_self_s": "s",
    "prove.prove_el_s": "s",
    "prove.prove_el_calls": "count",
    "prove.witness_check_s": "s",
    "dialogue.search_s": "s",
    "dialogue.positions": "count",
    "dialogue.positions_per_s": "1/s",
    "dialogue.legal_moves_s": "s",
    "dialogue.legal_moves_calls": "count",
    "dialogue.apply_move_s": "s",
    "dialogue.apply_move_calls": "count",
    "dialogue.positions_per_apply": "ratio",
    "dialogue.budget_stops": "count",
    "kripke.find_countermodel_s": "s",
    "kripke.models_scanned": "count",
    "kripke.models_per_s": "1/s",
    "kripke.compile_formula_s": "s",
    "kripke.compile_calls": "count",
    "kripke.mask_evals": "count",
    "kripke.mask_eval_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.item: int | None = None
        # [name, item, parent span, child time, start, end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _charge_parent(self, elapsed: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][3] += elapsed

    def span(self, name: str, fn, on_result=None, on_error=None):
        """Wrap fn so each call records a span; the hooks count work done."""

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            self.stack.append(len(self.spans))
            start = time.perf_counter()
            span = [name, self.item, parent, 0.0, start, start]
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = time.perf_counter()
                if on_error is not None:
                    on_error(exc)
                raise
            else:
                span[5] = time.perf_counter()
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                # the hooks' cost is charged to the parent, not to this span
                self.stack.pop()
                self._charge_parent(time.perf_counter() - start)

        return wrapper

    def hot(self, name: str, fn):
        """Wrap fn so each call is counted and timed, without a span."""

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.counts[name] += 1
                self.times[name] += elapsed
                self._charge_parent(elapsed)

        return wrapper

    def install_syntax(self) -> None:
        def parsed(f):
            self.counts["syntax.nodes"] += syntax.node_count(f)

        self._patch(
            syntax, "parse_formula",
            self.span("syntax.parse", syntax.parse_formula, parsed),
        )

    def install_engines(self) -> None:
        def reduced(trace):
            self.counts["reduction.steps"] += len(trace.steps)
            self.counts["reduction.result_nodes"] += syntax.node_count(trace.result)

        reduce_full = self.span("reduction.reduce_full", reduction.reduce_full, reduced)
        self._patch(reduction, "reduce_full", reduce_full)
        self._patch(prove, "reduce_full", reduce_full)

        self._patch(prove, "prove_cel", self.span("prove.prove_cel", prove.prove_cel))
        self._patch(prove, "prove_el", self.span("prove.prove_el", prove.prove_el))
        self._patch(
            prove, "satisfies", self.span("prove.witness_check", prove.satisfies)
        )

        def searched(result):
            self.counts["dialogue.positions"] += result.positions

        def stopped(exc):
            if isinstance(exc, dialogue.BudgetExhaustedError):
                self.counts["dialogue.positions"] += exc.nodes
                self.counts["dialogue.budget_stops"] += 1

        self._patch(
            dialogue, "has_winning_strategy",
            self.span(
                "dialogue.search", dialogue.has_winning_strategy, searched, stopped
            ),
        )
        self._patch(
            dialogue, "legal_moves", self.hot("dialogue.legal_moves", dialogue.legal_moves)
        )
        self._patch(
            dialogue, "apply_move", self.hot("dialogue.apply_move", dialogue.apply_move)
        )

        self._patch(
            kripke, "find_countermodel",
            self.span("kripke.find_countermodel", kripke.find_countermodel),
        )
        compile_formula = self.span("kripke.compile_formula", kripke.compile_formula)

        def compiled(*args, **kwargs):
            return self.hot("kripke.mask_eval", compile_formula(*args, **kwargs))

        self._patch(kripke, "compile_formula", compiled)
        enumerate_models = kripke.enumerate_models

        def counted_models(*args, **kwargs):
            for model in enumerate_models(*args, **kwargs):
                self.counts["kripke.models_scanned"] += 1
                yield model

        self._patch(kripke, "enumerate_models", counted_models)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict:
        total = Counter()
        self_time = Counter()
        calls = Counter()
        for name, _, _, child, start, end in self.spans:
            total[name] += end - start
            self_time[name] += end - start - child
            calls[name] += 1
        c, t = self.counts, self.times

        def rate(num, den):
            return num / den if den else 0.0

        values = {
            "syntax.parse_s": total["syntax.parse"],
            "syntax.parse_nodes_per_s": rate(c["syntax.nodes"], total["syntax.parse"]),
            "reduction.reduce_full_s": total["reduction.reduce_full"],
            "reduction.steps": c["reduction.steps"],
            "reduction.steps_per_s": rate(
                c["reduction.steps"], total["reduction.reduce_full"]
            ),
            "reduction.result_nodes": c["reduction.result_nodes"],
            "prove.prove_cel_self_s": self_time["prove.prove_cel"],
            "prove.prove_el_s": total["prove.prove_el"],
            "prove.prove_el_calls": calls["prove.prove_el"],
            "prove.witness_check_s": total["prove.witness_check"],
            "dialogue.search_s": total["dialogue.search"],
            "dialogue.positions": c["dialogue.positions"],
            "dialogue.positions_per_s": rate(
                c["dialogue.positions"], total["dialogue.search"]
            ),
            "dialogue.legal_moves_s": t["dialogue.legal_moves"],
            "dialogue.legal_moves_calls": c["dialogue.legal_moves"],
            "dialogue.apply_move_s": t["dialogue.apply_move"],
            "dialogue.apply_move_calls": c["dialogue.apply_move"],
            "dialogue.positions_per_apply": rate(
                c["dialogue.positions"], c["dialogue.apply_move"]
            ),
            "dialogue.budget_stops": c["dialogue.budget_stops"],
            "kripke.find_countermodel_s": total["kripke.find_countermodel"],
            "kripke.models_scanned": c["kripke.models_scanned"],
            "kripke.models_per_s": rate(
                c["kripke.models_scanned"], total["kripke.find_countermodel"]
            ),
            "kripke.compile_formula_s": total["kripke.compile_formula"],
            "kripke.compile_calls": calls["kripke.compile_formula"],
            "kripke.mask_evals": c["kripke.mask_eval"],
            "kripke.mask_eval_s": t["kripke.mask_eval"],
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_share": rate(traced_s - untraced_s, untraced_s),
        }
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }

    def write(self, path: pathlib.Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            [sid, parent, item, name, start - self.origin, end - self.origin]
            for sid, (name, item, parent, _, start, end) in enumerate(self.spans)
        ]
        data = dict(
            header,
            span_fields=["id", "parent", "item", "name", "start_s", "end_s"],
            spans=spans,
            counts=dict(self.counts),
            hot_seconds=dict(self.times),
        )
        path.write_text(json.dumps(data) + "\n")
