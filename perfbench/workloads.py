"""The benchmark's workloads: set-up, one item, and the check of its output.

A workload is built from a worker's seed and part (which of the run's
timed workers it is). Its set-up parses the formulas and
computes every reference outside the timed region. ``run(index)`` does one
item and returns None when the program's output is right, or a line saying
what was wrong. The program is always called through its module
attributes (``prove.prove_cel``), so the traced run can wrap them.
"""

from __future__ import annotations

import random

from celogic import dialogue, kripke, prove, reduction, syntax
from celogic.epistemology import SUITE_ROWS

import corpus

# the acceptance test's environment for the cross-semantics sweep
CROSS_ENV = {"ci": "p", "cj": "q & ~p", "ck": "true"}
# formulas per worker: part k takes the k-th slice of the corpus
HYGIENE_SLICE = 100
DEEP_SEED = 1
DEEP_ITEMS = 100
DEEP_BUDGET = 5_000
MODEL_WORLDS = 3
DEEP_MODEL_WORLDS = 2


class Workload:
    name = ""
    # wall time of one pass on the reference machine; sets the pass count
    nominal_pass_s = 1.0

    def __init__(self, seed: int, part: int = 0):
        self.part = part
        self.rng = random.Random(seed)
        self.names = corpus.renaming(self.rng)
        self.items: list = []

    def parse(self, texts: list[str]) -> list:
        return [syntax.parse_formula(corpus.rename(t, self.names)) for t in texts]

    def shuffled(self, items: list) -> list:
        self.rng.shuffle(items)
        return items

    def run(self, index: int) -> str | None:
        raise NotImplementedError


def _valid(verdict) -> bool:
    return isinstance(verdict, prove.Valid)


def _word(valid: bool) -> str:
    return "valid" if valid else "invalid"


class Suite(Workload):
    """Every SUITE_ROWS row through the tableau and the game, as
    ``celogic suite`` runs it."""

    name = "suite"
    nominal_pass_s = 1.0

    def __init__(self, seed: int, part: int = 0):
        super().__init__(seed, part)
        # The game orders its moves by their printed form, so renaming would
        # change how much of the tree it searches: the suite keeps its names.
        formulas = [syntax.parse_formula(row.formula) for row in SUITE_ROWS]
        self.items = self.shuffled(
            [(f, row.expected) for f, row in zip(formulas, SUITE_ROWS)]
        )

    def run(self, index: int) -> str | None:
        f, expected = self.items[index]
        env = kripke.ContextEnv()
        tableau = _valid(prove.prove_cel(f, env))
        game = dialogue.has_winning_strategy(
            f, env, budget=dialogue.DEFAULT_SEARCH_BUDGET
        ).verdict
        if tableau == game == expected:
            return None
        return (
            f"expected {_word(expected)}, tableau {_word(tableau)},"
            f" game {_word(game)}"
        )


class Hygiene(Workload):
    """Acceptance criterion 4 on a fixed slice of the hygiene corpus, one
    slice per part: every reduction ends in the plain fragment and every
    step is a valid biconditional."""

    name = "hygiene"
    nominal_pass_s = 4.0

    def __init__(self, seed: int, part: int = 0):
        super().__init__(seed, part)
        self.items = self.shuffled(
            self.parse(
                corpus.hygiene_corpus()[
                    self.part * HYGIENE_SLICE : (self.part + 1) * HYGIENE_SLICE
                ]
            )
        )

    def run(self, index: int) -> str | None:
        f = self.items[index]
        budget = 4 * syntax.node_count(f) ** 2
        trace = reduction.reduce_full(f, step_budget=budget)
        if not syntax.formula_info(trace.result).is_el:
            return "reduction left a relativization"
        for number, step in enumerate(trace.steps):
            verdict = prove.prove_cel(
                syntax.Iff(step.before, step.after), kripke.ContextEnv()
            )
            if not _valid(verdict):
                return f"step {number} [{step.axiom}] is not a valid biconditional"
        return None


class GamesDeep(Workload):
    """Random depth-4 formulas through the game at a fixed position budget,
    against the tableau's verdict."""

    name = "games-deep"
    nominal_pass_s = 7.0

    def __init__(self, seed: int, part: int = 0):
        super().__init__(seed, part)
        formulas = self.parse(corpus.deep_corpus(DEEP_SEED, DEEP_ITEMS))
        items = []
        for f in formulas:
            valid = _valid(prove.prove_cel(f, kripke.ContextEnv()))
            # a tableau proof must leave no small counter-model
            agrees = not valid or (
                kripke.find_countermodel(
                    f, kripke.ContextEnv(), max_worlds=DEEP_MODEL_WORLDS
                )
                is None
            )
            items.append((f, valid, agrees))
        self.items = self.shuffled(items)

    def run(self, index: int) -> str | None:
        f, valid, agrees = self.items[index]
        if not agrees:
            return "the tableau proves it but a counter-model exists"
        game = dialogue.has_winning_strategy(
            f, kripke.ContextEnv(), budget=DEEP_BUDGET
        ).verdict
        if game != valid:
            return f"tableau {_word(valid)}, game {_word(game)}"
        return None


class Models(Workload):
    """The Kripke layer two ways: the bounded oracle on every SUITE_ROWS row,
    and the criterion-3 sweep of direct against reduced satisfaction over
    every model with up to three worlds."""

    name = "models"
    nominal_pass_s = 3.2

    def __init__(self, seed: int, part: int = 0):
        super().__init__(seed, part)
        self.cross_env = kripke.ContextEnv(
            {
                corpus.rename(name, self.names): syntax.parse_context(
                    corpus.rename(body, self.names)
                )
                for name, body in CROSS_ENV.items()
            }
        )
        agents = [self.names[a] for a in ("i", "j")]
        atoms = [self.names[a] for a in ("p", "q")]
        self.contexts = [
            kripke._ModelCtx(m)
            for m in kripke.enumerate_models(MODEL_WORLDS, agents, atoms)
        ]
        oracle_rows = [
            ("oracle", f, row.expected)
            for f, row in zip(self.parse([r.formula for r in SUITE_ROWS]), SUITE_ROWS)
        ]
        sweep_rows = [("sweep", f, None) for f in self.parse(corpus.cross_corpus())]
        self.items = self.shuffled(oracle_rows + sweep_rows)

    def run(self, index: int) -> str | None:
        kind, f, expected = self.items[index]
        if kind == "oracle":
            return self._oracle(f, expected)
        direct = kripke.compile_formula(f, self.cross_env)
        reduced = kripke.compile_formula(
            reduction.reduce_full(f).result, self.cross_env
        )
        for ctx in self.contexts:
            if direct(ctx) != reduced(ctx):
                return "direct and reduced satisfaction differ"
        return None

    def _oracle(self, f, expected: bool) -> str | None:
        env = kripke.ContextEnv()
        found = kripke.find_countermodel(f, env, max_worlds=MODEL_WORLDS)
        if expected:
            return None if found is None else "counter-model to a valid row"
        if found is None:
            return f"no counter-model within {MODEL_WORLDS} worlds"
        model, world = found
        full_env = env.completed(reduction.needed_context_names(f))
        if kripke.satisfies(model, world, full_env, f):
            return "counter-model does not falsify the row"
        return None


WORKLOADS = {w.name: w for w in (Suite, Hygiene, GamesDeep, Models)}
