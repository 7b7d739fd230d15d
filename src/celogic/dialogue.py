"""Dialogical games: two players argue a thesis, the proponent P defending it
against the opponent O, over explicitly labeled worlds.

Move legality combines the particle rules (how each connective is attacked
and defended) with the structural rules:

- the thesis is asserted by P at world 1, moves alternate, and every later
  move attacks an earlier assertion or defends against an attack;
- a player with no legal move loses;
- every move must change the position: an attack places a demand not placed
  before, a defence answers a demand not answered that way before. Positions
  grow monotonically, so plays are finite and pure delay is impossible;
- repetition rights are asymmetric, in the style of repetition ranks: O
  attacks any given assertion at most once and answers any given attack at
  most once (one well-chosen instantiation refutes, and every choice gets
  its own play in the strategy search), while P may spend one right per
  distinct payload (P can need several instantiations of a single concession
  by O, and may return to an attack to defend it the other way);
- atoms are never attacked, and P may only state an atom at a world where O
  has already stated it; this holds for the thesis too, so P loses an
  atomic thesis at once;
- P may only use worlds already introduced, while O may introduce fresh
  successor worlds (bounded by a cap derived from the thesis's modal depth);
  within a cluster of worlds connected by one agent's steps, any given world
  may be chosen;
- P may only assert a context name at a world where O has asserted it first.

Context names (``GameRules.env``) behave like atoms for assertion
bookkeeping but live under the context formality rule rather than the atom
rule; asserting a compound context additionally grants its positive
literals at that world.

The particle rules are one table (``_particle_rule``): for each asserted
formula, each way of attacking it with the defences that answer that
attack. A game works out an assertion's table once; only the worlds a Know
attack may name and a Poss defence may use come from the position.

Each structural rule is stated once (``_attack_problem``,
``_defence_problem`` and ``_check_assertable``): ``legal_moves`` lists the
particle rules' candidates that pass them, making only the checks that can
fail, and ``validate_move`` raises what they find, naming the broken rule.
So the two agree: ``validate_move`` accepts exactly the moves that
``legal_moves`` lists.

Winning strategies are decided by AND-OR search over positions (sets of
assertions, attack records and defence records), memoized on the position.
The search steps through the moves ``legal_moves`` lists without validating
them again; ``apply_move``, ``replay`` and ``replay_script`` validate every
move.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Iterable

from .kripke import ContextEnv
from .reduction import primitive_form
from .syntax import (
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
    fold,
    formula_info,
    parse_formula,
    render_formula,
    variant_contexts_names,
)

P = "P"
O = "O"

Label = tuple[tuple[str, int], ...]

ROOT: Label = ()


class IllegalMoveError(ValueError):
    """A move violating a game rule; carries the rule's name."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule


class BudgetExhaustedError(RuntimeError):
    """Search budget ran out: the verdict is unknown, not false."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} positions")
        self.nodes = nodes


def render_label(label: Label) -> str:
    return "1" + "".join(f"{agent}{index}" for agent, index in label)


def parse_label(text: str, agents: Iterable[str]) -> Label:
    """Parse a world name like ``1i1j2`` against the known agent names.

    Each step takes the longest agent name after which the rest still reads,
    so with agents ``i`` and ``i1`` the name ``1i1`` is one step of ``i``."""
    if not text.startswith("1"):
        raise ValueError(f"world name must start with 1: {text!r}")
    names = sorted(agents, key=len, reverse=True)

    def read(rest: str) -> Label | None:
        if not rest:
            return ()
        for name in filter(rest.startswith, names):
            end = len(name)
            while end < len(rest) and rest[end].isdigit():
                end += 1
            if end > len(name):
                later = read(rest[end:])
                if later is not None:
                    return ((name, int(rest[len(name):end])),) + later
        return None

    label = read(text[1:])
    if label is None:
        raise ValueError(f"cannot read world name {text!r}")
    return label


# ---------------------------------------------------------------------------
# Moves


@dataclass(frozen=True)
class AssertPayload:
    label: Label
    formula: Formula


@dataclass(frozen=True)
class RequestPayload:
    kind: str  # "?", "?_L", "?_R", "?_K", "?_P"
    agent: str | None = None
    label: Label | None = None  # world named by a "?_K" request


Payload = AssertPayload | RequestPayload


@dataclass(frozen=True)
class Move:
    actor: str
    kind: str  # "thesis" | "attack" | "defend"
    target: int | None
    payload: Payload


def render_payload(payload: Payload) -> str:
    if isinstance(payload, AssertPayload):
        return f"{render_label(payload.label)}: {render_formula(payload.formula)}"
    if payload.kind == "?_K":
        return f"?_K{{{payload.agent}}}/{render_label(payload.label)}"
    if payload.kind == "?_P":
        return f"?_P{{{payload.agent}}}"
    return payload.kind


def move_to_json(move: Move) -> dict:
    data: dict = {"actor": move.actor, "kind": move.kind}
    if move.target is not None:
        data["target"] = move.target
    if isinstance(move.payload, AssertPayload):
        data["payload"] = {
            "assert": {
                "label": render_label(move.payload.label),
                "formula": render_formula(move.payload.formula),
            }
        }
    else:
        req: dict = {"kind": move.payload.kind}
        if move.payload.agent is not None:
            req["agent"] = move.payload.agent
        if move.payload.label is not None:
            req["label"] = render_label(move.payload.label)
        data["payload"] = {"request": req}
    return data


def move_from_json(data: dict, agents: Iterable[str]) -> Move:
    payload_data = data["payload"]
    if "assert" in payload_data:
        a = payload_data["assert"]
        payload: Payload = AssertPayload(
            parse_label(a["label"], agents), parse_formula(a["formula"])
        )
    else:
        r = payload_data["request"]
        payload = RequestPayload(
            r["kind"],
            r.get("agent"),
            parse_label(r["label"], agents) if "label" in r else None,
        )
    return Move(data["actor"], data["kind"], data.get("target"), payload)


# ---------------------------------------------------------------------------
# Game formulas

# Equivalences are played as both implications (primitive_form, as the model
# semantics reads them), and a relativized possibility operator as its
# relativized knowledge dual: the reduction's own derived-poss expansion.
# Unrelativized P keeps its own particle rule.


def game_form(f: Formula) -> Formula:
    def step(f: Formula):
        g = f.rebuild(*(yield f.children()))
        match g:
            case Iff():
                return primitive_form(g)
            case Rel(Poss() as body, context):
                return Rel(primitive_form(body), context)
        return g

    return fold(f, step)


def _rel(body: Formula, context: str) -> Formula:
    # body is part of a game form, so primitive_form only expands a P
    return Rel(primitive_form(body), context)


# ---------------------------------------------------------------------------
# Game state


@dataclass(frozen=True, eq=False)
class GameRules:
    """One game's rules, shared by all its states: the context bindings
    (``ContextEnv.for_formula``'s env for the thesis, so an atom is a
    context name exactly when bound there: a guard of the thesis or a bound
    name it uses as an atom; body literals are atoms) and O's fresh-world
    cap (one more than the thesis's modal depth). It also keeps what follows
    from the rules alone: each asserted formula's particle rule, one table
    of its attacks with their defences."""

    env: ContextEnv
    fresh_cap: int
    particle_rules: dict = field(default_factory=dict, repr=False)


Assertion = tuple[str, Label, Formula]  # actor, world, formula
AttackRecord = tuple[str, Assertion, Payload]  # attacker, target assertion, payload
DefenceRecord = tuple[AttackRecord, AssertPayload]


@dataclass(frozen=True)
class GameState:
    rules: GameRules
    moves: tuple[Move, ...]
    defences: frozenset[DefenceRecord]
    introduced: frozenset[Label]
    turn: str
    # Ledgers kept move by move, so that legality never re-scans the
    # history. They follow from ``moves``: each assertion and each attack
    # record with the index of its first move, the assertions O has
    # attacked, and the attack records that have been answered.
    assertion_index: dict[Assertion, int] = field(compare=False, repr=False)
    attack_index: dict[AttackRecord, int] = field(compare=False, repr=False)
    rights_used: frozenset[Assertion] = field(compare=False, repr=False)
    answered: frozenset[AttackRecord] = field(compare=False, repr=False)

    @property
    def assertions(self) -> frozenset[Assertion]:
        return frozenset(self.assertion_index)

    @property
    def attacks(self) -> frozenset[AttackRecord]:
        return frozenset(self.attack_index)

    @property
    def o_fresh(self) -> int:
        """Worlds O has introduced; only O introduces worlds."""
        return len(self.introduced) - 1

    def position_key(self):
        return (self.assertions, self.attacks, self.defences, self.turn)

    @property
    def thesis(self) -> Formula:
        return self.moves[0].payload.formula


def initial_state(thesis: Formula, env: ContextEnv | None = None) -> GameState:
    normalized = game_form(thesis)
    rules = GameRules(
        env=(env or ContextEnv()).for_formula(normalized),
        fresh_cap=formula_info(normalized).modal_depth + 1,
    )
    move = Move(P, "thesis", None, AssertPayload(ROOT, normalized))
    return GameState(
        rules=rules,
        moves=(move,),
        defences=frozenset(),
        introduced=frozenset({ROOT}),
        turn=O,
        assertion_index={(P, ROOT, normalized): 0},
        attack_index={},
        rights_used=frozenset(),
        answered=frozenset(),
    )


# ---------------------------------------------------------------------------
# World bookkeeping


def _cluster(introduced: frozenset[Label], agent: str, world: Label) -> set[Label]:
    """Worlds reachable from ``world`` through steps of this agent: the
    agent's equivalence class over the introduced labels."""
    seen = {world}
    frontier = [world]
    while frontier:
        w = frontier.pop()
        if w and w[-1][0] == agent and w[:-1] in introduced and w[:-1] not in seen:
            seen.add(w[:-1])
            frontier.append(w[:-1])
        for v in introduced:
            if len(v) == len(w) + 1 and v[:-1] == w and v[-1][0] == agent:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return seen


def _fresh_successor(introduced: frozenset[Label], agent: str, world: Label) -> Label:
    used = {
        v[-1][1]
        for v in introduced
        if len(v) == len(world) + 1 and v[:-1] == world and v[-1][0] == agent
    }
    index = 1
    while index in used:
        index += 1
    return world + ((agent, index),)


def _world_options(state: GameState, actor: str, agent: str, world: Label):
    """Worlds available for an agent-indexed choice at ``world``: the
    introduced cluster, plus one fresh successor when O still may introduce,
    in the order of their printed names (the order legal_moves lists them)."""
    options = sorted(_cluster(state.introduced, agent, world))
    if actor == O and state.o_fresh < state.rules.fresh_cap:
        options.append(_fresh_successor(state.introduced, agent, world))
    options.sort(key=render_label)
    return options


def _granted_atoms(state: GameState, actor: str, world: Label) -> set[str]:
    """Atoms the actor stands committed to at ``world``: directly asserted
    atoms plus positive literals of contexts asserted there."""
    bindings = state.rules.env.bindings
    granted: set[str] = set()
    for a, w, f in state.assertion_index:
        if a != actor or w != world or not isinstance(f, Atom):
            continue
        granted.add(f.name)
        if f.name in bindings:
            for lit, positive in bindings[f.name].literals:
                if positive:
                    granted.add(lit)
    return granted


def _check_assertable(
    state: GameState, actor: str, world: Label, f: Formula
) -> tuple[str, str] | None:
    """None if the actor may assert f at world; else (rule, reason).

    P may not restate a complex formula already on P's record. Commitments
    are kept as sets, so a restatement would not open a fresh line of attack
    for O the way a fresh utterance does; letting P repeat complex content
    shields demands that are already pending. Atoms and context names are
    exempt (they cannot be attacked, so nothing is shielded, and P may
    genuinely have to point at a conceded atom twice: once per demand). O
    may always restate: answering a second projection of the same demand
    with the same content is legitimate.
    """
    if actor == P and not isinstance(f, Atom):
        if (P, world, f) in state.assertion_index:
            return ("PL-2", "restating one's own assertion changes nothing for P")
    if isinstance(f, Atom):
        if f.name in state.rules.env.bindings:
            if actor == P and (O, world, f) not in state.assertion_index:
                return (
                    "ML-frc",
                    f"context {f.name} not introduced by O at {render_label(world)}",
                )
        elif actor == P and f.name not in _granted_atoms(state, O, world):
            return (
                "PL-3",
                f"atom {f.name} not stated by O at {render_label(world)}",
            )
    return None


# ---------------------------------------------------------------------------
# Particle rules


ParticleRule = dict[Payload, tuple[AssertPayload, ...]]


def _particle_rule(rules: GameRules, target: Assertion) -> ParticleRule:
    """The target's particle rule, worked out once per game: each attack
    payload, in payload order, mapped to the defence payloads that answer
    it, in payload order. Only a Know's attacks and a Poss's defences depend
    on the position: the table leaves them empty, and ``_attack_payloads``
    and ``_defence_payloads`` work them out per call."""
    rule = rules.particle_rules.get(target)
    if rule is None:
        rule = rules.particle_rules[target] = _particle_table(rules, target)
    return rule


def _particle_table(rules: GameRules, target: Assertion) -> ParticleRule:
    _, world, f = target

    def said(*formulas: Formula) -> tuple[AssertPayload, ...]:
        return tuple(AssertPayload(world, g) for g in formulas)

    left, right = RequestPayload("?_L"), RequestPayload("?_R")
    match f:
        case Atom(name) if name in rules.env.bindings:
            # a compound context is played as the conjunction of its literals
            literals = rules.env.bindings[name].literals
            lits = [Atom(a) if positive else Not(Atom(a)) for a, positive in literals]
            if len(lits) < 2:
                return {}
            return {left: said(lits[0]), right: said(reduce(And, lits[1:]))}
        case Atom():
            return {}
        case Not(body):
            return {AssertPayload(world, body): ()}
        case And(l, r):
            return {left: said(l), right: said(r)}
        case Or(l, r):
            return {RequestPayload("?"): said(*sorted((l, r), key=render_formula))}
        case Imp(l, r):
            return {AssertPayload(world, l): said(r)}
        case Know():
            return {}
        case Poss(agent, _, _):
            return {RequestPayload("?_P", agent): ()}
        case Rel(And(l, r), c):
            return {left: said(_rel(l, c)), right: said(_rel(r, c))}
        case Rel(Know(agent, variant, inner), c):
            cx, cy = variant_contexts_names(variant, c, agent)
            answer = Know(agent, variant, _rel(inner, cy))
            return {AssertPayload(world, Atom(cx)): said(answer)}
        case Rel(Atom() | Rel() as body, c):
            answer = body
        case Rel(Not(inner), c):
            answer = Not(_rel(inner, c))
        case Rel(Or(l, r), c):
            answer = Or(_rel(l, c), _rel(r, c))
        case Rel(Imp(l, r), c):
            answer = Imp(_rel(l, c), _rel(r, c))
        case _:
            raise TypeError(f"not a game formula: {f!r}")
    return {AssertPayload(world, Atom(c)): said(answer)}


def _attack_payloads(state: GameState, actor: str, target: Assertion):
    """Payload candidates for attacking the target assertion (before the
    per-record and assertability filters), in the order legal_moves lists
    them."""
    _, world, f = target
    if isinstance(f, Know):
        return [
            RequestPayload("?_K", f.agent, w)
            for w in _world_options(state, actor, f.agent, world)
        ]
    return _particle_rule(state.rules, target).keys()


def _defence_payloads(state: GameState, actor: str, attack: AttackRecord):
    """Payload candidates for defending against the attack, in the order
    legal_moves lists them."""
    _, target, payload = attack
    _, world, f = target
    if isinstance(f, Know):
        return (AssertPayload(payload.label, f.body),)
    if isinstance(f, Poss):
        return [
            AssertPayload(w, f.body)
            for w in _world_options(state, actor, f.agent, world)
        ]
    return _particle_rule(state.rules, target)[payload]


# ---------------------------------------------------------------------------
# Legality and application


def _attack_problem(
    state: GameState, actor: str, target: Assertion, payload: Payload | None
) -> tuple[str, str] | None:
    """None if the actor may attack the target with this payload (one of
    the target's particle-rule candidates); else (rule, reason). O attacks
    a given assertion at most once, whatever the payload; P once per
    distinct payload. A payload of None asks only what holds for every
    payload."""
    if actor == O:
        spent = target in state.rights_used
    else:
        spent = (P, target, payload) in state.attack_index
    if spent:
        return ("PL-2", "this attack was already made")
    if isinstance(payload, AssertPayload):
        return _check_assertable(state, actor, payload.label, payload.formula)
    return None


def _defence_problem(
    state: GameState, actor: str, attack: AttackRecord, payload: AssertPayload | None
) -> tuple[str, str] | None:
    """None if the actor may answer the attack with this payload (one of the
    attack's particle-rule candidates); else (rule, reason). O answers a
    given attack at most once; P may return to it with a new payload. A
    payload of None asks only what holds for every payload."""
    if (attack, payload) in state.defences:
        return ("PL-2", "this defence was already given")
    if actor == O and attack in state.answered:
        return ("PL-2", "O has already answered this attack")
    if payload is not None:
        return _check_assertable(state, actor, payload.label, payload.formula)
    return None


def _assertion_of_move(state: GameState, index: int) -> Assertion | None:
    move = state.moves[index]
    if isinstance(move.payload, AssertPayload):
        return (move.actor, move.payload.label, move.payload.formula)
    return None


def _attack_record_of_move(state: GameState, index: int) -> AttackRecord | None:
    move = state.moves[index]
    if move.kind != "attack":
        return None
    target = _assertion_of_move(state, move.target)
    return (move.actor, target, move.payload)


def _opponent(actor: str) -> str:
    return O if actor == P else P


def validate_move(state: GameState, move: Move) -> None:
    """Raise IllegalMoveError naming the violated rule if the move is not
    permitted in this state."""
    if move.actor != state.turn:
        raise IllegalMoveError("PL-0", f"it is {state.turn}'s turn")
    if move.kind == "thesis":
        raise IllegalMoveError("PL-0", "the thesis is only asserted once")
    if move.kind not in ("attack", "defend"):
        raise IllegalMoveError("PL-0", f"unknown move kind {move.kind!r}")
    if move.target is None or not 0 <= move.target < len(state.moves):
        raise IllegalMoveError("PL-0", "move must target an earlier move")

    if move.kind == "attack":
        target = _assertion_of_move(state, move.target)
        if target is None:
            raise IllegalMoveError(
                "particle mismatch", "only assertions can be attacked"
            )
        if target[0] == move.actor:
            raise IllegalMoveError(
                "PL-0", "players attack the other player's assertions"
            )
        candidates = _attack_payloads(state, move.actor, target)
        if isinstance(target[2], Atom) and not candidates:
            raise IllegalMoveError("PL-3", "atomic statements cannot be attacked")
        if move.payload not in candidates:
            self_describing = render_payload(move.payload)
            # A ?_K naming a non-introduced world is a world introduction.
            if (
                isinstance(move.payload, RequestPayload)
                and move.payload.kind == "?_K"
                and move.payload.label is not None
                and move.payload.label not in state.introduced
            ):
                if move.actor == P:
                    raise IllegalMoveError(
                        "ML-frw", f"P cannot introduce {self_describing}"
                    )
                if state.o_fresh >= state.rules.fresh_cap:
                    raise IllegalMoveError(
                        "world cap", "O's fresh-world budget is spent"
                    )
            raise IllegalMoveError(
                "particle mismatch",
                f"{self_describing} does not attack {render_formula(target[2])}",
            )
        problem = _attack_problem(state, move.actor, target, move.payload)
    else:
        attack = _attack_record_of_move(state, move.target)
        if attack is None:
            raise IllegalMoveError("PL-0", "defences answer attacks")
        if attack[0] != _opponent(move.actor):
            raise IllegalMoveError("PL-0", "cannot defend against one's own attack")
        if attack[1][0] != move.actor:
            raise IllegalMoveError(
                "PL-0", "that attack is not directed at this player"
            )
        candidates = _defence_payloads(state, move.actor, attack)
        if not candidates:
            raise IllegalMoveError(
                "particle mismatch",
                f"{render_formula(attack[1][2])} admits no defence",
            )
        if move.payload not in candidates:
            raise IllegalMoveError(
                "particle mismatch",
                f"{render_payload(move.payload)} does not answer "
                f"{render_payload(attack[2])} on {render_formula(attack[1][2])}",
            )
        problem = _defence_problem(state, move.actor, attack, move.payload)
    if problem:
        raise IllegalMoveError(*problem)


def apply_move(state: GameState, move: Move) -> GameState:
    """Validate and append a move, updating commitments and ledgers."""
    validate_move(state, move)
    return _step(state, move)


def _step(state: GameState, move: Move) -> GameState:
    """Append a move that validate_move accepts, updating the ledgers."""
    index = len(state.moves)
    defences = state.defences
    introduced = state.introduced
    assertion_index = state.assertion_index
    attack_index = state.attack_index
    rights_used = state.rights_used
    answered = state.answered

    if move.kind == "attack":
        target = _assertion_of_move(state, move.target)
        # the repetition rule makes every attack record new
        attack_index = {**attack_index, (move.actor, target, move.payload): index}
        if move.actor == O:
            rights_used = rights_used | {target}
        if isinstance(move.payload, RequestPayload):
            if move.payload.label is not None and move.payload.label not in introduced:
                introduced = introduced | {move.payload.label}
    else:
        attack = _attack_record_of_move(state, move.target)
        defences = defences | {(attack, move.payload)}
        if attack not in answered:
            answered = answered | {attack}

    if isinstance(move.payload, AssertPayload):
        if move.payload.label not in introduced:
            introduced = introduced | {move.payload.label}
        assertion = (move.actor, move.payload.label, move.payload.formula)
        if assertion not in assertion_index:
            assertion_index = {**assertion_index, assertion: index}

    return GameState(
        rules=state.rules,
        moves=state.moves + (move,),
        defences=defences,
        introduced=introduced,
        turn=_opponent(state.turn),
        assertion_index=assertion_index,
        attack_index=attack_index,
        rights_used=rights_used,
        answered=answered,
    )


def legal_moves(state: GameState) -> list[Move]:
    """Every move the player to move may make, in a canonical order: attacks
    before defences, by the index of the move they answer, then by payload
    (its printed label and formula, or its request). These are exactly the
    moves validate_move accepts, each naming the first move of its target.

    The ledgers hold targets and attacks in the order of their moves, and
    the payload candidates come in payload order, so the moves are listed
    in that order without a sort.

    Only the checks that can fail are made. O may assert anything, and
    attacks an assertion or answers an attack at most once: so O's moves on
    one target pass or fail together, on the check with a payload of None.
    P's moves are checked one payload at a time, and a None payload never
    fails for P, since no attack or defence is recorded with none.
    """
    actor = state.turn
    moves: list[Move] = []

    for target, index in state.assertion_index.items():
        if target[0] == actor:
            continue
        if actor == O and _attack_problem(state, O, target, None):
            continue
        for payload in _attack_payloads(state, actor, target):
            if actor == O or not _attack_problem(state, P, target, payload):
                moves.append(Move(actor, "attack", index, payload))

    for attack, index in state.attack_index.items():
        if attack[0] == actor:
            continue
        if actor == O and _defence_problem(state, O, attack, None):
            continue
        for payload in _defence_payloads(state, actor, attack):
            if actor == O or not _defence_problem(state, P, attack, payload):
                moves.append(Move(actor, "defend", index, payload))
    return moves


# ---------------------------------------------------------------------------
# Strategy search


@contextmanager
def _deep_recursion():
    """Room for the recursive search and strategy walk on long plays."""
    limit = sys.getrecursionlimit()
    if limit < 40_000:
        sys.setrecursionlimit(40_000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@dataclass
class StrategyResult:
    """Outcome of the game search.

    On a win, ``strategy`` is built from the search's memo the first time
    it is read and then cached; until then the result holds that search.
    Reading it can raise BudgetExhaustedError when unfolding the tree meets
    positions the search never visited and the budget runs out.
    """

    verdict: bool
    refutation: tuple[Move, ...] | None
    positions: int
    _search: _Search | None = field(default=None, repr=False, compare=False)
    _root: GameState | None = field(default=None, repr=False, compare=False)
    _strategy: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def strategy(self) -> dict | None:
        if self._search is not None:
            with _deep_recursion():
                self._strategy = self._search.strategy_tree(self._root)
            self._search = self._root = None
        return self._strategy


class _Search:
    """AND-OR search over positions, memoized on the position. It steps
    through the moves legal_moves lists without validating them again:
    they are exactly the moves validate_move accepts."""

    def __init__(self, budget: int):
        self.budget = budget
        self.positions = 0
        self.memo: dict = {}

    def moves(self, state: GameState) -> list[Move]:
        """The legal moves in the order the search tries them: at P's turn,
        P's defences of the latest attack that admits one come before P's
        other defences, since P's wins mostly answer the latest attack. No
        move is dropped, so no position's value depends on the order.
        Defences come last, by the index of the attack they answer, so the
        last move names that attack."""
        moves = legal_moves(state)
        if state.turn == P and moves and moves[-1].kind == "defend":
            last = moves[-1].target
            moves.sort(key=lambda m: m.kind == "defend" and m.target != last)
        return moves

    def win(self, state: GameState) -> bool:
        """True iff P has a winning strategy from this position."""
        key = state.position_key()
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        self.positions += 1
        if self.positions > self.budget:
            raise BudgetExhaustedError(self.positions)
        moves = self.moves(state)
        if not moves:
            result = state.turn == O
        elif state.turn == P:
            result = any(self.win(_step(state, m)) for m in moves)
        else:
            result = all(self.win(_step(state, m)) for m in moves)
        self.memo[key] = result
        return result

    def strategy_tree(self, state: GameState) -> dict:
        moves = self.moves(state)
        if not moves:
            return {"turn": state.turn, "end": "opponent cannot move"}
        if state.turn == P:
            for m in moves:
                child = _step(state, m)
                if self.win(child):
                    return {
                        "turn": P,
                        "move": move_to_json(m),
                        "next": self.strategy_tree(child),
                    }
            raise AssertionError("no winning move at a winning P position")
        return {
            "turn": O,
            "children": [
                {
                    "move": move_to_json(m),
                    "next": self.strategy_tree(_step(state, m)),
                }
                for m in moves
            ],
        }

    def refuting_play(self, state: GameState) -> tuple[Move, ...]:
        """O's first refuting move at each O turn and P's first move at each
        P turn, in legal_moves' order; every position on it is in the memo."""
        moves = legal_moves(state)
        if not moves:
            return state.moves
        if state.turn == O:
            for m in moves:
                child = _step(state, m)
                if not self.win(child):
                    return self.refuting_play(child)
            raise AssertionError("no refuting move at a losing P position")
        return self.refuting_play(_step(state, moves[0]))


DEFAULT_SEARCH_BUDGET = 500_000


def has_winning_strategy(
    thesis: Formula,
    env: ContextEnv | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> StrategyResult:
    """AND-OR search: does P have a winning strategy for the thesis?

    On a win the result's ``strategy`` is the strategy tree (P's choice at
    every reachable O history). It is built when first read: until then the
    result holds the search's memo, so a caller that needs only the verdict
    never pays for the tree. Otherwise ``refutation`` is a play that O wins.
    Raises BudgetExhaustedError when the position budget runs out; that
    outcome is unknown, never false.
    """
    state = initial_state(thesis, env)
    # the structural rules apply to the thesis too, at the position before
    # it: P may not state an atom or a context name that O has not, so O
    # wins an atomic thesis with the one-move play
    if _check_assertable(replace(state, assertion_index={}), P, ROOT, state.thesis):
        return StrategyResult(False, state.moves, 1)
    search = _Search(budget)
    with _deep_recursion():
        if search.win(state):
            return StrategyResult(True, None, search.positions, search, state)
        return StrategyResult(False, search.refuting_play(state), search.positions)


# ---------------------------------------------------------------------------
# Transcripts


def replay(state: GameState, moves: Iterable[Move]) -> GameState:
    for move in moves:
        state = apply_move(state, move)
    return state


def replay_script(data: dict) -> GameState:
    """Run a JSON play script from its thesis; raises on any illegal move."""
    thesis = parse_formula(data["thesis"], data.get("default_variant"))
    env = ContextEnv.from_json(data.get("env", {}))
    state = initial_state(thesis, env)
    agents = formula_info(game_form(thesis)).agents
    for move_data in data["moves"]:
        state = apply_move(state, move_from_json(move_data, agents))
    return state


def _transcript_rows(moves) -> list[list[str]]:
    """Rows of (o_num, o_text, o_ref, p_ref, p_text, p_num); a defence sits on
    the row of the attack it answers, as in two-column play tables."""
    rows: list[list[str]] = []
    row_of_attack: dict[int, int] = {}
    for i, move in enumerate(moves):
        text = render_payload(move.payload)
        num = f"({i})"
        if move.kind == "thesis":
            rows.append(["", "", "", "", text, num])
            continue
        if move.kind == "attack":
            row = ["", "", "", "", "", ""]
            if move.actor == O:
                row[0], row[1], row[2] = num, text, str(move.target)
            else:
                row[3], row[4], row[5] = str(move.target), text, num
            row_of_attack[i] = len(rows)
            rows.append(row)
            continue
        # defence: fill the opposite side of its attack's row if free
        r = row_of_attack.get(move.target)
        if r is not None and (rows[r][1] == "" if move.actor == O else rows[r][4] == ""):
            if move.actor == O:
                rows[r][0], rows[r][1] = num, text
            else:
                rows[r][4], rows[r][5] = text, num
        else:
            row = ["", "", "", "", "", ""]
            if move.actor == O:
                row[0], row[1], row[2] = num, text, f"def {move.target}"
            else:
                row[3], row[4], row[5] = f"def {move.target}", text, num
            rows.append(row)
    return rows


def render_transcript(moves, winner: str | None = None) -> str:
    """Aligned two-column text table of a play."""
    if isinstance(moves, GameState):
        moves = moves.moves
    rows = _transcript_rows(moves)
    header = ["", "O", "", "", "P", ""]
    widths = [
        max(len(r[c]) for r in rows + [header]) for c in range(6)
    ]
    lines = []
    fmt = "  ".join("{:<%d}" % w for w in widths)
    lines.append(fmt.format(*header).rstrip())
    lines.append("-" * (sum(widths) + 10))
    for r in rows:
        lines.append(fmt.format(*r).rstrip())
    if winner:
        lines.append(f"{winner} wins the play")
    return "\n".join(lines)

