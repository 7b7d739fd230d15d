"""Checks on the failure accounting, the tail percentile and the tracer.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from celogic import dialogue, prove, reduction
from celogic.kripke import ContextEnv
from celogic.syntax import parse_formula

import calibrate
import run
import tracing
import worker


class _Failing:
    def __init__(self):
        self.items = ["ok", "stop", "deep", "prover", "bug"]

    def run(self, index):
        kind = self.items[index]
        if kind == "stop":
            raise dialogue.BudgetExhaustedError(7)
        if kind == "deep":
            raise RecursionError("too deep")
        if kind == "prover":
            raise prove.ProverError("bad model")
        if kind == "bug":
            raise KeyError("x")
        return None


def test_failed_items_are_counted_and_the_run_goes_on():
    outcome = worker.run_passes(_Failing(), 2)
    assert len(outcome.latencies) == 10
    problems = [problem for _, problem in outcome.failures]
    assert len(problems) == 8
    assert "budget stop after 7 positions" in problems
    assert "RecursionError" in problems
    assert any(p.startswith("ProverError") for p in problems)
    assert any(p.startswith("uncaught KeyError") for p in problems)


def test_item_times_are_scaled_by_the_reference_work_around_them(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(worker.time, "process_time", lambda: float(next(clock)))
    # the machine runs at half the reference speed: every reading halves
    monkeypatch.setattr(worker.calibrate, "measure", lambda: 2 * calibrate.REFERENCE_S)
    out = worker.Outcome()
    total = worker.run_pass(_Failing(), out)
    assert out.latencies == [0.5] * 5
    assert total == 2.5
    # one chunk per item, as each took more than CHUNK_S
    assert len(out.calibrations) == 6


def test_tail_keeps_ten_samples_beyond_the_percentile():
    assert run.tail([float(v) for v in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(v) for v in range(1, 1001)]) == (99, 990.0)


def test_tracer_counts_layers_and_restores_the_program():
    originals = (reduction.reduce_full, prove.reduce_full, dialogue.legal_moves)
    tracer = tracing.Tracer()
    tracer.install_engines()
    f = parse_formula("(K{i,1.1} p)^ci -> (ci -> K{i,1.1} (p)^ci)")
    assert isinstance(prove.prove_cel(f, ContextEnv()), prove.Valid)
    assert dialogue.has_winning_strategy(f, ContextEnv()).verdict
    tracer.uninstall()
    assert (reduction.reduce_full, prove.reduce_full, dialogue.legal_moves) == originals
    metrics = tracer.metrics(1.0, 1.0)
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    assert metrics["reduction.steps"]["value"] > 0
    assert metrics["prove.prove_el_calls"]["value"] == 1
    assert metrics["dialogue.positions"]["value"] > 0
    assert metrics["dialogue.apply_move_calls"]["value"] > 0
    assert 0 <= metrics["prove.prove_cel_self_s"]["value"] <= tracer.spans[0][5] - tracer.spans[0][4]
