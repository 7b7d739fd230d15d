"""Seeded random formula corpora shared across test modules, and the
census of every small formula.

The fixed seeds freeze the corpora: the cross-semantics sweep and the
collapse check use the same 200 formulas, and the rewrite-hygiene check its
own 1000. Regenerating with the same seed yields byte-identical formulas.
"""

from __future__ import annotations

import random
from typing import Iterator

from celogic.syntax import (
    And,
    Atom,
    Formula,
    Iff,
    Imp,
    Know,
    Not,
    Or,
    Poss,
    Rel,
)

VARIANTS = ("1.1", "1.2", "2.1", "2.2")

CROSS_SEED = 20260810
HYGIENE_SEED = 77


def random_formula(
    rng: random.Random,
    depth: int,
    atoms=("p", "q"),
    agents=("i", "j"),
    contexts=("ci", "cj"),
    allow_rel: bool = True,
) -> Formula:
    kinds = ["atom"]
    if depth > 0:
        kinds = ["atom", "not", "and", "or", "imp", "iff", "know", "poss"]
        if allow_rel:
            kinds += ["rel", "rel"]
    kind = rng.choice(kinds)
    sub = lambda: random_formula(rng, depth - 1, atoms, agents, contexts, allow_rel)
    if kind == "atom":
        return Atom(rng.choice(atoms))
    if kind == "not":
        return Not(sub())
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "imp":
        return Imp(sub(), sub())
    if kind == "iff":
        return Iff(sub(), sub())
    if kind == "know":
        return Know(rng.choice(agents), rng.choice(VARIANTS), sub())
    if kind == "poss":
        return Poss(rng.choice(agents), rng.choice(VARIANTS), sub())
    return Rel(sub(), rng.choice(contexts))


def cross_semantics_corpus() -> list[Formula]:
    """200 formulas, depth up to 3, over p/q, agents i/j, contexts ci/cj/ck."""
    rng = random.Random(CROSS_SEED)
    return [
        random_formula(rng, 3, contexts=("ci", "cj", "ck")) for _ in range(200)
    ]


def hygiene_corpus() -> list[Formula]:
    """1000 formulas, depth up to 5, over p/q, agents i/j, contexts ci/cj."""
    rng = random.Random(HYGIENE_SEED)
    return [random_formula(rng, 5) for _ in range(1000)]


def all_formulas(
    max_nodes: int,
    atoms=("p", "q", "ci"),
    agents=("i",),
    variants=VARIANTS,
    contexts=("ci",),
) -> Iterator[Formula]:
    """Every formula of up to ``max_nodes`` nodes over the signature, each
    once, by node count (SmallCheck's enumeration: Runciman, Naylor &
    Lindblad, "SmallCheck and Lazy SmallCheck", 2008). The connectives are
    ``~ & | -> <->``, ``K`` of each agent in each variant, and ``Rel`` to
    each context; ``P`` is left out. With the defaults there are 3, 18, 144
    and 1,296 formulas of 1 to 4 nodes."""
    unary = [Not]
    unary += [
        lambda f, a=a, v=v: Know(a, v, f) for a in agents for v in variants
    ]
    unary += [lambda f, c=c: Rel(f, c) for c in contexts]
    binary = (And, Or, Imp, Iff)
    by_size: list[list[Formula]] = [[], [Atom(a) for a in atoms]]
    for n in range(2, max_nodes + 1):
        formulas = [op(f) for op in unary for f in by_size[n - 1]]
        formulas += [
            op(left, right)
            for op in binary
            for k in range(1, n - 1)
            for left in by_size[k]
            for right in by_size[n - 1 - k]
        ]
        by_size.append(formulas)
    for formulas in by_size[1 : max_nodes + 1]:
        yield from formulas
