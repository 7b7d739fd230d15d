"""Run the benchmark on a commit and on the working tree, in alternating pairs.

    python3 tools/ab.py --against REV --workload W [--pairs 10] [--seed 1] [--seconds 20]

REV is checked out in a temporary detached ``git worktree``, removed on exit.
Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
in that tree (the parent) and in the working tree (the change), the parent
first in odd pairs and the change first in even ones, so that a drift in the
machine's speed does not favour one side. Each run's last line of output is
its JSON result. The script exits 2 as soon as a run fails or is not
``correct``.

For each ``end_to_end`` metric of ``BENCHMARK.json`` it then prints both
sides' medians and quartiles, the pairs the change wins (the direction from
the metric's ``better``; a tie counts for neither side), whether the medians
are further apart than the parent's quartiles, and whether the change's
median is within the metric's ``bound``, a fraction of the parent's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Summary(NamedTuple):
    """One end-to-end metric over the pairs: each side's (q1, median, q3)."""

    name: str
    unit: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int  # pairs in which the change reads better
    pairs: int
    apart: bool  # the medians differ by more than the parent's q3 - q1
    in_bound: bool  # the change's median is no worse than the bound allows


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(end_to_end: list[dict], parent: list[str], change: list[str]) -> list[Summary]:
    """Each metric of ``end_to_end`` (``BENCHMARK.json``'s entries) over the
    runs' last lines, ``parent[i]`` and ``change[i]`` being pair i's."""
    before = [json.loads(line)["metrics"] for line in parent]
    after = [json.loads(line)["metrics"] for line in change]
    summaries = []
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        old = [m[name]["value"] for m in before]
        new = [m[name]["value"] for m in after]
        wins = sum(b > a if higher else b < a for a, b in zip(old, new))
        p, c = _quartiles(old), _quartiles(new)
        allowed = p[1] * (1 - metric["bound"] if higher else 1 + metric["bound"])
        summaries.append(Summary(
            name=name,
            unit=metric["unit"],
            parent=p,
            change=c,
            wins=wins,
            pairs=len(old),
            apart=abs(c[1] - p[1]) > p[2] - p[0],
            in_bound=c[1] >= allowed if higher else c[1] <= allowed,
        ))
    return summaries


def render(summaries: list[Summary]) -> str:
    def side(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    rows = [("metric", "parent median [q1, q3]", "change median [q1, q3]",
             "wins", "apart", "in bound")]
    for s in summaries:
        rows.append((
            f"{s.name} ({s.unit})", side(s.parent), side(s.change),
            f"{s.wins}/{s.pairs}", "yes" if s.apart else "no",
            "yes" if s.in_bound else "no",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def run_once(tree: Path, args: argparse.Namespace) -> str | None:
    """One benchmark run in ``tree``: its last line of output if the run
    exited 0 and is ``correct``, else None after printing why."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        try:
            if json.loads(lines[-1]).get("correct") is True:
                return lines[-1]
        except json.JSONDecodeError:
            pass
    print(f"error: run in {tree} exited {done.returncode}, not correct", file=sys.stderr)
    print("\n".join(lines[-5:]), done.stderr[-2000:], sep="\n", file=sys.stderr)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        parent_tree = Path(scratch) / "tree"
        git = ["git", "-C", str(ROOT)]
        add = ["worktree", "add", "--quiet", "--detach", str(parent_tree), args.against]
        if subprocess.run(git + add).returncode:
            print(f"error: cannot check out {args.against}", file=sys.stderr)
            return 2
        try:
            runs: dict[str, list[str]] = {"parent": [], "change": []}
            trees = {"parent": parent_tree, "change": ROOT}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    line = run_once(trees[side], args)
                    if line is None:
                        return 2
                    runs[side].append(line)
                    print(f"pair {pair + 1} {side}: {line}", flush=True)
        finally:
            subprocess.run(git + ["worktree", "remove", "--force", str(parent_tree)])
            subprocess.run(git + ["worktree", "prune"])

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s a run, "
          f"{args.against} (parent) against the working tree (change)")
    print(render(summarize(end_to_end, runs["parent"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
