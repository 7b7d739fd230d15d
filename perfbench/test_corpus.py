"""Checks on the benchmark's corpus generator.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib.util
import pathlib
import random

from celogic.kripke import ContextEnv
from celogic.prove import Valid, prove_cel
from celogic.syntax import parse_formula, render_formula

import corpus as bench_corpus

# the test suite's generator, loaded under another name than this directory's
_spec = importlib.util.spec_from_file_location(
    "tests_corpus", pathlib.Path(__file__).resolve().parents[1] / "tests" / "corpus.py"
)
tests_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tests_corpus)


def _rendered(texts):
    return [render_formula(parse_formula(t)) for t in texts]


def test_reference_seeds_reproduce_the_test_corpora():
    assert _rendered(bench_corpus.cross_corpus()) == [
        render_formula(f) for f in tests_corpus.cross_semantics_corpus()
    ]
    assert _rendered(bench_corpus.hygiene_corpus()) == [
        render_formula(f) for f in tests_corpus.hygiene_corpus()
    ]


def test_deep_corpus_matches_the_test_generator():
    rng = random.Random(1)
    expected = [render_formula(tests_corpus.random_formula(rng, 4)) for _ in range(50)]
    assert _rendered(bench_corpus.deep_corpus(1, 50)) == expected


def test_another_seed_gives_another_corpus():
    assert bench_corpus.cross_corpus(1) != bench_corpus.cross_corpus()
    assert bench_corpus.hygiene_corpus(1, 50) != bench_corpus.hygiene_corpus(n=50)
    texts = bench_corpus.cross_corpus(n=50)
    renamed = {
        tuple(bench_corpus.rename(t, bench_corpus.renaming(random.Random(s))) for t in texts)
        for s in range(8)
    }
    assert len(renamed) > 1


def test_renaming_keeps_verdicts():
    rows = [
        ("(K{i,2.2} a)^ci -> (K{i,2.2} K{i,2.2} a)^cj", True),
        ("(K{i,1.2} a)^ci -> (K{i,1.2} K{i,1.2} a)^cj", False),
        ("(K{j,1.1} K{k,2.2} p)^ci -> (K{k,2.2} p)^ci", False),
        ("(~p)^ci -> (ci -> ~(p)^ci)", True),
    ]
    for seed in range(6):
        mapping = bench_corpus.renaming(random.Random(seed))
        for text, expected in rows:
            f = parse_formula(bench_corpus.rename(text, mapping))
            assert isinstance(prove_cel(f, ContextEnv()), Valid) == expected, text
