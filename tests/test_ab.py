"""tools/ab.py's summary of A/B runs, fed canned last lines of
``perfbench/run.py``: no benchmark runs and no git."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

_METRICS = [
    {"name": "formulas_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _line(per_s, p50):
    return json.dumps({
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "metrics": {
            "formulas_per_s": {"value": per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
        },
    })


def test_wins_follow_the_direction_and_a_tie_counts_for_neither_side():
    parent = [_line(1000, 0.60), _line(1000, 0.60), _line(1000, 0.60), _line(1000, 0.60)]
    change = [_line(1100, 0.70), _line(900, 0.50), _line(1000, 0.60), _line(1001, 0.59)]
    per_s, p50 = ab.summarize(_METRICS, parent, change)
    assert (per_s.name, per_s.wins, per_s.pairs) == ("formulas_per_s", 2, 4)
    assert (p50.name, p50.wins, p50.pairs) == ("latency_p50_ms", 2, 4)


def test_medians_and_quartiles_of_each_side():
    parent = [_line(v, 1.0) for v in (100, 110, 120, 130, 140)]
    change = [_line(v, 1.0) for v in (200, 210, 220, 230, 240)]
    per_s, _ = ab.summarize(_METRICS, parent, change)
    assert per_s.parent == (110, 120, 130)
    assert per_s.change == (210, 220, 230)
    assert per_s.wins == 5 and per_s.apart


def test_medians_apart_only_beyond_the_parents_quartiles():
    parent = [_line(1000, v) for v in (0.60, 0.62, 0.64, 0.66, 0.68)]
    near = [_line(1000, v) for v in (0.58, 0.60, 0.62, 0.64, 0.66)]
    far = [_line(1000, v) for v in (0.50, 0.55, 0.56, 0.57, 0.60)]
    assert not ab.summarize(_METRICS, parent, near)[1].apart  # 0.02 < 0.04
    assert ab.summarize(_METRICS, parent, far)[1].apart  # 0.08 > 0.04


@pytest.mark.parametrize(
    "per_s, p50, expected",
    [
        (1000, 0.60, (True, True)),
        (801, 0.749, (True, True)),  # worse, inside both bounds
        (799, 0.751, (False, False)),  # worse by more than 20% and 25%
        (5000, 0.01, (True, True)),  # better by any amount
    ],
)
def test_the_bound_is_a_share_of_the_parents_median(per_s, p50, expected):
    summaries = ab.summarize(_METRICS, [_line(1000, 0.60)], [_line(per_s, p50)])
    assert tuple(s.in_bound for s in summaries) == expected


def test_one_pair_gives_each_side_its_one_value():
    per_s, p50 = ab.summarize(_METRICS, [_line(1000, 0.6)], [_line(1200, 0.5)])
    assert per_s.parent == (1000, 1000, 1000) and per_s.change == (1200, 1200, 1200)
    assert (per_s.wins, p50.wins, per_s.pairs) == (1, 1, 1)
    assert per_s.apart and p50.apart  # the parent's quartiles are 0 apart


def test_the_table_has_a_row_per_metric():
    parent = [_line(1000, 0.652), _line(1010, 0.641)]
    change = [_line(1100, 0.617), _line(1090, 0.620)]
    text = ab.render(ab.summarize(_METRICS, parent, change))
    header, *rows = text.splitlines()
    assert header.split()[:2] == ["metric", "parent"]
    assert [row.split()[0] for row in rows] == ["formulas_per_s", "latency_p50_ms"]
    assert rows[0].split()[-3:] == ["2/2", "yes", "yes"]


def test_the_benchmarks_own_metrics_are_summarized():
    # the end_to_end entries of BENCHMARK.json carry what summarize reads
    spec = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    line = json.dumps({"correct": True, "metrics": {
        m["name"]: {"value": 1.0, "unit": m["unit"]} for m in metrics
    }})
    summaries = ab.summarize(metrics, [line], [line])
    assert [s.name for s in summaries] == [m["name"] for m in metrics]
    assert all(s.in_bound and s.wins == 0 for s in summaries)


def test_a_record_holds_the_runs_and_the_summary(tmp_path):
    args = ab.argparse.Namespace(
        against="HEAD~1", workload="suite", pairs=2, seed=3, seconds=20.0, record=45
    )
    runs = [
        (1, "parent", _line(1000, 0.60)),
        (1, "change", _line(1100, 0.55)),
        (2, "change", _line(1090, 0.56)),
        (2, "parent", _line(1010, 0.61)),
    ]
    summaries = ab.summarize(_METRICS, [runs[0][2], runs[3][2]], [runs[1][2], runs[2][2]])
    record = ab.build_record(args, "a" * 40, ("b" * 40, True), runs, summaries)
    assert (record["seed"], record["seconds"], record["pairs"]) == (3, 20.0, 2)
    assert record["parent"] == {"rev": "HEAD~1", "sha": "a" * 40}
    assert record["change"] == {"sha": "b" * 40, "dirty": True}
    assert record["python"] == ab.sys.version
    assert record["reference_s"] > 0
    assert [(r["pair"], r["side"]) for r in record["runs"]] == [p[:2] for p in runs]
    assert record["runs"][1]["result"]["metrics"]["formulas_per_s"]["value"] == 1100
    assert [s["name"] for s in record["summary"]] == ["formulas_per_s", "latency_p50_ms"]
    assert record["summary"][0]["parent"] == (1002.5, 1005, 1007.5)

    # one file keyed by workload: a second workload joins the first
    path = tmp_path / "BENCH_45.json"
    ab.save_record(path, "suite", record)
    ab.save_record(path, "models", record)
    ab.save_record(path, "suite", record)
    saved = json.loads(path.read_text())
    assert list(saved) == ["suite", "models"]
    assert saved["suite"]["summary"][0]["parent"] == [1002.5, 1005, 1007.5]
    assert saved["models"]["runs"] == json.loads(json.dumps(record["runs"]))


def test_the_change_side_is_a_copy_of_the_working_trees_files(tmp_path):
    # tracked and untracked files as they are on disk; ignored files and a
    # tracked file deleted from the disk stay behind
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("build/\n*.pyc\n")
    (repo / "src" / "pkg" / "kept.py").write_text("committed\n")
    (repo / "src" / "pkg" / "gone.py").write_text("deleted later\n")
    ab.subprocess.run(["git", "init", "-q", str(repo)], check=True)
    ab.subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
    (repo / "src" / "pkg" / "kept.py").write_text("edited, not staged\n")
    (repo / "src" / "pkg" / "gone.py").unlink()
    (repo / "src" / "pkg" / "new.py").write_text("untracked\n")
    (repo / "src" / "pkg" / "cached.pyc").write_text("ignored\n")
    (repo / "build").mkdir()
    (repo / "build" / "out.txt").write_text("ignored\n")

    ab.copy_working_tree(repo, dest)
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/pkg/kept.py", "src/pkg/new.py"]
    assert (dest / "src" / "pkg" / "kept.py").read_text() == "edited, not staged\n"
