"""celogic benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` it splits the timed passes over a few fresh interpreters,
each with its own seed drawn from ``--seed``, and prints the end-to-end
metrics of all their items together; ``setup_s`` is the median over more
fresh interpreters of the CPU time from process start to the first timed
item. With ``--trace 1`` it prints the per-layer metrics of one traced
interpreter, and writes its spans under ``.bench_out``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# interpreters that share the timed passes of one run: each has its own
# renaming, item order and string hash order, so that no single draw of
# them sets the run's figures (and hygiene its own slice of the corpus)
TIMED_WORKERS = 6
# set-up samples per run, the timed workers' included
SETUP_SAMPLES = 16
# every process this benchmark starts must finish well inside 180 s
PROCESS_TIMEOUT_S = 150
# a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99)


def worker_seed(seed: int, part: int) -> int:
    return seed * TIMED_WORKERS + part


def launch(
    workload: str, seed: int, part: int, extra: list[str], deadline: float
) -> tuple[list[str], dict]:
    """Start a worker, wait for it, return its output lines and its last
    line parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # set and string iteration order, and with it the search order, follows
    # the seed: a run with the same seed does the same work
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--part", str(part),
    ] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: worker still running after {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    lines = out.splitlines()
    return lines[:-1], json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least
    TAIL_SAMPLES samples above its nearest-rank position."""
    ordered = sorted(samples)
    best = (100, ordered[-1])
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= TAIL_SAMPLES:
            best = (p, ordered[rank - 1])
    return best


def end_to_end(latencies: list[float], peak_rss_mb: float) -> tuple[dict, list[str]]:
    p, tail_s = tail(latencies)
    metrics = {
        "formulas_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    notes = [f"latency_tail_ms is p{p:g} of {len(latencies)} samples"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "celogic" / "__init__.py").is_file():
        print(f"error: no celogic sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    trace = ["--trace", str(args.trace)]
    lines: list[str] = []
    results: list[dict] = []
    if args.trace:
        seed = worker_seed(args.seed, 0)
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
        extra = ["--seconds", str(args.seconds), "--spans", str(spans)] + trace
        out, result = launch(args.workload, seed, 0, extra, deadline)
        lines += out
        results.append(result)
        metrics = result["metrics"]
    else:
        setups = []
        for k in range(SETUP_SAMPLES - TIMED_WORKERS):
            part = k % TIMED_WORKERS
            extra = ["--seconds", "0", "--setup-only"]
            _, result = launch(
                args.workload, worker_seed(args.seed, part), part, extra, deadline
            )
            setups.append(result["setup_s"])
        share = str(args.seconds / TIMED_WORKERS)
        for part in range(TIMED_WORKERS):
            seed = worker_seed(args.seed, part)
            out, result = launch(
                args.workload, seed, part, ["--seconds", share] + trace, deadline
            )
            lines += out
            results.append(result)
            setups.append(result["setup_s"])
        latencies = [t for result in results for t in result["latencies"]]
        peak = max(result["peak_rss_mb"] for result in results)
        metrics, notes = end_to_end(latencies, peak)
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        lines += notes
        lines.append(
            "setup_s is the median of " + ", ".join(f"{s:.4f}" for s in sorted(setups))
        )
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    lines.append(f"fail_share {failed / attempted:.4f} ({failed} of {attempted} attempted)")

    for line in lines:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
