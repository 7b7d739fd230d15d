"""One workload in a fresh interpreter: set up, run the timed passes, check
every item, and print the samples as JSON on the last line. Started by
run.py, which puts ``src`` on PYTHONPATH and turns the samples of several
workers into metrics.

The pass count is fixed by --seconds and the workload's nominal pass time,
not by the clock, so every run of a workload does the same work. Times are
process CPU time, scaled to the reference machine's speed by the reference
work in calibrate.py.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

from celogic import dialogue, prove

import calibrate
import tracing
import workloads

# CPU time of a chunk of items between two runs of the reference work
CHUNK_S = 0.3
# runs of the reference work that scale the set-up time
SETUP_CALIBRATIONS = 3


class Outcome:
    def __init__(self):
        # pass by pass, item by item: CPU time scaled to the reference speed
        self.latencies: list[float] = []
        self.failures: list[tuple[int, str]] = []
        # CPU time of each run of the reference work
        self.calibrations: list[float] = []


def attempt(workload, index: int) -> str | None:
    """Run one item; a stop or an exception is a failed item, not the end
    of the run."""
    try:
        return workload.run(index)
    except dialogue.BudgetExhaustedError as exc:
        return f"budget stop after {exc.nodes} positions"
    except RecursionError:
        return "RecursionError"
    except prove.ProverError as exc:
        return f"ProverError: {exc}"
    except Exception as exc:
        traceback.print_exc()
        return f"uncaught {type(exc).__name__}: {exc}"


def run_pass(workload, out: Outcome, tracer=None) -> float:
    """One pass over every item, recorded in out; returns the scaled CPU
    time its items took.

    Items run in chunks of about CHUNK_S of CPU time, with the reference
    work timed before and after each chunk. Each item's time is scaled by
    the reference time over the mean of the two around its chunk, so that
    a change in the machine's speed during the run cancels out.
    """
    items = len(workload.items)
    before = calibrate.measure()
    out.calibrations.append(before)
    chunk: list[float] = []
    total = 0.0
    for index in range(items):
        if tracer is not None:
            tracer.item = index
        t = time.process_time()
        problem = attempt(workload, index)
        chunk.append(time.process_time() - t)
        if problem is not None:
            out.failures.append((index, problem))
        if sum(chunk) >= CHUNK_S or index == items - 1:
            after = calibrate.measure()
            out.calibrations.append(after)
            scale = calibrate.REFERENCE_S / ((before + after) / 2)
            out.latencies.extend(dt * scale for dt in chunk)
            total += sum(chunk) * scale
            before, chunk = after, []
    return total


def run_passes(workload, passes: int) -> Outcome:
    out = Outcome()
    for _ in range(passes):
        run_pass(workload, out)
    return out


def report_failures(outcome: Outcome) -> list[str]:
    by_item: dict[int, list[str]] = {}
    for index, problem in outcome.failures:
        by_item.setdefault(index, []).append(problem)
    return [
        f"  failed item {index} x{len(problems)}: {problems[0]}"
        for index, problems in sorted(by_item.items())
    ]


def speed_note(calibrations: list[float]) -> str:
    cal = sorted(calibrations)
    return (
        f"reference work: {len(cal)} runs, median {statistics.median(cal) * 1e3:.2f} ms"
        f" (min {cal[0] * 1e3:.2f}, max {cal[-1] * 1e3:.2f}) against"
        f" {calibrate.REFERENCE_S * 1e3:.2f} ms on the reference machine"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=pathlib.Path)
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install_syntax()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.part)
    # CPU time since the interpreter started, scaled like an item's time
    setup_cpu = time.process_time()
    speed = statistics.median(calibrate.measure() for _ in range(SETUP_CALIBRATIONS))
    setup_s = setup_cpu * calibrate.REFERENCE_S / speed
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = max(1, round(args.seconds / workload.nominal_pass_s))
    items = len(workload.items)
    lines = [f"workload {args.workload} seed {args.seed}: {passes} passes of {items} items"]
    result = {"setup_s": setup_s}
    if tracer is None:
        outcome = run_passes(workload, passes)
        result["latencies"] = outcome.latencies
    else:
        # Traced and untraced passes alternate, so that a change in the
        # machine's speed during the run falls on both sides of the overhead.
        passes = max(1, round(passes / 2))
        outcome = Outcome()
        traced_s = untraced_s = 0.0
        for _ in range(passes):
            tracer.install_engines()
            traced_s += run_pass(workload, outcome, tracer)
            tracer.uninstall()
            untraced_s += run_pass(workload, outcome)
        result["metrics"] = tracer.metrics(traced_s, untraced_s)
        lines.append(
            f"traced {passes} passes in {traced_s:.3f} s, untraced in"
            f" {untraced_s:.3f} s (scaled CPU time)"
        )
        if args.spans is not None:
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
            lines.append(f"{len(tracer.spans)} spans written to {args.spans}")
    lines.append(speed_note(outcome.calibrations))
    lines += report_failures(outcome)
    for line in lines:
        print(line)
    result.update(
        attempted=len(outcome.latencies),
        failed=len(outcome.failures),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
