"""Seeded formula corpora for the benchmark, as text in celogic's syntax.

The generator makes the same random choices in the same order as the
one the test suite uses, so at the reference seeds it yields the same
formulas: the 200-formula cross corpus and the 1000-formula hygiene
corpus. It emits fully parenthesized text, which the program parses.

A benchmark run then takes a seeded variant of a reference corpus: a
consistent renaming of atoms and agents (an agent's own context follows
its agent) and a shuffled item order. Validity is invariant under such a
renaming, so the reference verdicts carry over, and the formulas keep
their shapes. That is all renaming preserves: the program breaks ties by
name in places (``find_countermodel`` sorts the atoms and agents it
enumerates, including the ``_ctx_<name>`` stand-ins), so the order in
which it searches, and with it the cost of an item, still varies with the
seed. A second seed is therefore the same formulas under other names, not
a held-out draw; the generators take their own seed for that. Fresh
random corpora were not used for runs because a formula's cost is
heavy-tailed, and a few hundred of them differ in total cost by a factor
of two or more between seeds.
"""

from __future__ import annotations

import random
import re

VARIANTS = ("1.1", "1.2", "2.1", "2.2")

CROSS_SEED = 20260810
HYGIENE_SEED = 77

_BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}
_MODAL = {"know": "K", "poss": "P"}

RENAMED_ATOMS = ("a", "p", "q")
RENAMED_AGENTS = ("i", "j", "k")

_IDENT = re.compile(r"[a-z][a-zA-Z0-9_]*")


def random_formula(
    rng: random.Random,
    depth: int,
    atoms=("p", "q"),
    agents=("i", "j"),
    contexts=("ci", "cj"),
    allow_rel: bool = True,
) -> str:
    kinds = ["atom"]
    if depth > 0:
        kinds = ["atom", "not", "and", "or", "imp", "iff", "know", "poss"]
        if allow_rel:
            kinds += ["rel", "rel"]
    kind = rng.choice(kinds)

    def sub() -> str:
        return f"({random_formula(rng, depth - 1, atoms, agents, contexts, allow_rel)})"

    if kind == "atom":
        return rng.choice(atoms)
    if kind == "not":
        return "~" + sub()
    if kind in _BINARY:
        left = sub()
        return f"{left} {_BINARY[kind]} {sub()}"
    if kind in _MODAL:
        agent = rng.choice(agents)
        variant = rng.choice(VARIANTS)
        return f"{_MODAL[kind]}{{{agent},{variant}}} {sub()}"
    body = sub()
    return f"{body}^{rng.choice(contexts)}"


def cross_corpus(seed: int = CROSS_SEED, n: int = 200) -> list[str]:
    """Depth up to 3, over p/q, agents i/j, contexts ci/cj/ck."""
    rng = random.Random(seed)
    return [random_formula(rng, 3, contexts=("ci", "cj", "ck")) for _ in range(n)]


def hygiene_corpus(seed: int = HYGIENE_SEED, n: int = 1000) -> list[str]:
    """Depth up to 5, over p/q, agents i/j, contexts ci/cj."""
    rng = random.Random(seed)
    return [random_formula(rng, 5) for _ in range(n)]


def deep_corpus(seed: int, n: int) -> list[str]:
    """Depth up to 4, over p/q, agents i/j, contexts ci/cj."""
    rng = random.Random(seed)
    return [random_formula(rng, 4) for _ in range(n)]


def renaming(rng: random.Random) -> dict[str, str]:
    """A random permutation of the atoms a/p/q and of the agents i/j/k.

    An agent's own context ``c<agent>`` is renamed with its agent, wherever
    it occurs: as a relativization target or as a guard atom.
    """
    out = dict(zip(RENAMED_ATOMS, rng.sample(RENAMED_ATOMS, len(RENAMED_ATOMS))))
    agents = rng.sample(RENAMED_AGENTS, len(RENAMED_AGENTS))
    for old, new in zip(RENAMED_AGENTS, agents):
        out[old] = new
        out["c" + old] = "c" + new
    return out


def rename(text: str, mapping: dict[str, str]) -> str:
    """Apply a name mapping to every identifier in formula or context text."""
    return _IDENT.sub(lambda m: mapping.get(m[0], m[0]), text)
