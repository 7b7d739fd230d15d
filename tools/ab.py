"""Run the benchmark on a commit and on the working tree, in alternating pairs.

    python3 tools/ab.py --against REV --workload W [--pairs 10] [--seed 1] [--seconds 20]
                        [--record N]

REV's committed files are unpacked (``git archive``) into one temporary
directory and the working tree's files (``git ls-files -co
--exclude-standard``: tracked and untracked, not ignored) are copied into
another, so that both sides run from fresh copies alike; both are removed on
exit. Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in the
first (the parent) and in the second (the change), the parent
first in odd pairs and the change first in even ones, so that a drift in the
machine's speed does not favour one side. Each run's last line of output is
its JSON result. The script exits 2 as soon as a run fails or is not
``correct``.

For each ``end_to_end`` metric of ``BENCHMARK.json`` it then prints both
sides' medians and quartiles, the pairs the change wins (the direction from
the metric's ``better``; a tie counts for neither side), whether the medians
are further apart than the parent's quartiles, and whether the change's
median is within the metric's ``bound``, a fraction of the parent's median.

With ``--record N`` it also writes the workload's record into
``BENCH_<N>.json`` at the repo root, a JSON object keyed by workload, so
that one file holds every workload a change measured: the seed, seconds and
pair count, both commits (REV resolved, and HEAD with whether the working
tree differs from it), the Python version, ``perfbench/calibrate.py``'s
``REFERENCE_S``, every run's pair, side and last line, and the summary.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
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


def _reference_s() -> float:
    """``REFERENCE_S`` of the working tree's ``perfbench/calibrate.py``."""
    spec = importlib.util.spec_from_file_location(
        "calibrate", ROOT / "perfbench" / "calibrate.py"
    )
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    return calibrate.REFERENCE_S


def build_record(
    args: argparse.Namespace,
    parent_sha: str,
    head: tuple[str, bool],
    runs: list[tuple[int, str, str]],
    summaries: list[Summary],
) -> dict:
    """One workload's record: ``head`` is HEAD's SHA and whether the working
    tree differs from it, ``runs`` each run's (pair, side, last line) in the
    order they ran."""
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "parent": {"rev": args.against, "sha": parent_sha},
        "change": {"sha": head[0], "dirty": head[1]},
        "python": sys.version,
        "reference_s": _reference_s(),
        "runs": [
            {"pair": pair, "side": side, "result": json.loads(line)}
            for pair, side, line in runs
        ],
        "summary": [s._asdict() for s in summaries],
    }


def save_record(path: Path, workload: str, record: dict) -> None:
    """Enter ``record`` under ``workload`` in the JSON object at ``path``,
    keeping the other workloads' records."""
    records = json.loads(path.read_text()) if path.exists() else {}
    records[workload] = record
    path.write_text(json.dumps(records, indent=2) + "\n")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def copy_working_tree(root: Path, dest: Path) -> None:
    """Copy the working tree of the git repo at ``root`` into ``dest``: its
    tracked and untracked files that are not ignored, as they are on disk.
    A tracked file deleted from the disk is skipped."""
    listed = subprocess.run(
        ["git", "-C", str(root), "ls-files", "-co", "--exclude-standard", "-z"],
        capture_output=True, text=True, check=True,
    ).stdout.split("\0")
    for name in filter(None, listed):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


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
    parser.add_argument("--record", type=int, metavar="N")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        parent_sha = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"error: cannot resolve {args.against}", file=sys.stderr)
        return 2

    runs: list[tuple[int, str, str]] = []  # (pair, side, last line)
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {"parent": Path(scratch, "parent"), "change": Path(scratch, "change")}
        trees["parent"].mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", parent_sha], capture_output=True
        )
        untar = subprocess.run(
            ["tar", "-x", "-C", str(trees["parent"])], input=archive.stdout
        )
        if archive.returncode or untar.returncode:
            print(f"error: cannot unpack {args.against}", file=sys.stderr)
            return 2
        copy_working_tree(ROOT, trees["change"])
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                line = run_once(trees[side], args)
                if line is None:
                    return 2
                runs.append((pair, side, line))
                print(f"pair {pair} {side}: {line}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s a run, "
          f"{args.against} (parent) against the working tree (change)")
    lines = {side: [line for _, s, line in runs if s == side] for side in trees}
    summaries = summarize(end_to_end, lines["parent"], lines["change"])
    print(render(summaries))
    if args.record is not None:
        head = (_git("rev-parse", "HEAD"), bool(_git("status", "--porcelain")))
        path = ROOT / f"BENCH_{args.record}.json"
        save_record(path, args.workload, build_record(args, parent_sha, head, runs, summaries))
        print(f"recorded in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
