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
attack may name and a Poss defence may use come from the position, and the
game works those out once per agent, world and set of introduced worlds
(``GameRules.world_options``).

Each structural rule is stated once: the repetition rule in ``_problem``,
what a player may assert in ``_check_assertable``. ``legal_moves`` lists the
particle rules' candidates that pass them, making only the checks that can
fail, and ``validate_move`` raises what they find, naming the broken rule.
So the two agree: ``validate_move`` accepts exactly the moves that
``legal_moves`` lists.

Each state keeps each player's open targets: the other player's assertions
that it may still attack and attack records that it may still answer. A
move adds at most one assertion and one attack record, and uses up at most
the one target it acts on, so ``_step`` keeps the lists and ``legal_moves``
walks only the mover's, not every assertion and attack of the play. The
lists hold targets, not moves: a target is used up only by a move on it,
but what P may assert changes with every concession of O's and every
assertion of P's, so P's payloads are still checked one at a time. O's
one move per target is checked against O's lists.

A position is the set of move records: each move after the thesis is one
record (actor, the assertion it attacks or the attack record it answers,
payload). Every assertion but the thesis is a record's payload, and every
record is new, so the records fix the assertions, the attacks, the
defences and whose turn it is. Winning strategies are decided by AND-OR
search over positions, memoized on the records, which each state keeps.
Moves, payloads and states are immutable named tuples, built and hashed in
C. A state compares and hashes on its position (its rules, moves, records,
worlds and turn), not on its ledgers. A plain tuple can equal a payload, so
``validate_move`` checks a payload's type.
The search is a ``fold`` over positions, on the driver of the formula walks,
and the strategy and the refutation read off its memo are loops too: no
length of play is bounded by the recursion limit. The search steps through
the moves ``legal_moves`` lists, each on the target it was found on, so it
neither validates a move again nor looks its target up in the history;
``apply_move``, ``replay`` and ``replay_script`` validate every move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import itemgetter
from typing import Iterable, NamedTuple

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

_new = tuple.__new__  # a named tuple from its fields, in C: no Python frame


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
    so with agents ``i`` and ``i1`` the name ``1i1`` is one step of ``i``.
    One right-to-left pass finds, for each offset, whether the rest from
    there reads and by which step, so the time is linear in the name's
    length and nothing recurses."""
    if not text.startswith("1"):
        raise ValueError(f"world name must start with 1: {text!r}")
    names = sorted(agents, key=len, reverse=True)
    n = len(text)
    digits_end = [n] * (n + 1)  # where the run of digits at each offset ends
    # for each offset whose rest reads, the step read there: the agent and
    # where its index starts and ends (the next step's offset); None at the end
    steps: dict[int, tuple[str, int, int] | None] = {n: None}
    for k in range(n - 1, 0, -1):
        digits_end[k] = digits_end[k + 1] if text[k].isdigit() else k
        for name in names:
            start = k + len(name)
            end = digits_end[start] if text.startswith(name, k) else start
            if end > start and end in steps:
                steps[k] = (name, start, end)
                break
    if 1 not in steps:
        raise ValueError(f"cannot read world name {text!r}")
    label = []
    step = steps[1]
    while step is not None:
        name, start, end = step
        label.append((name, int(text[start:end])))
        step = steps[end]
    return tuple(label)


# ---------------------------------------------------------------------------
# Moves


class AssertPayload(NamedTuple):
    label: Label
    formula: Formula


class RequestPayload(NamedTuple):
    kind: str  # "?", "?_L", "?_R", "?_K", "?_P"
    agent: str | None = None
    label: Label | None = None  # world named by a "?_K" request


# The two never compare equal: they differ in length. A plain tuple may equal
# either, so validate_move checks a payload's type.
Payload = AssertPayload | RequestPayload


class Move(NamedTuple):
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
    of its attacks with their defences, and the worlds an agent-indexed
    choice may name, by (agent, world, introduced worlds, whether O may
    still introduce one), each entry a tuple."""

    env: ContextEnv
    fresh_cap: int
    particle_rules: dict = field(default_factory=dict, repr=False)
    world_options: dict = field(default_factory=dict, repr=False)


Assertion = tuple[str, Label, Formula]  # actor, world, formula
# A move after the thesis: its actor, the assertion it attacks or the attack
# record it answers, and its payload. An attack record is a Record on an
# Assertion, a defence record one on an attack record.
Record = tuple[str, "Assertion | Record", Payload]
# A player's open targets, each with the index of its first move, in that
# order: the assertions it may still attack, and the attack records it may
# still answer.
OpenTargets = tuple[
    tuple[tuple[Assertion, int], ...], tuple[tuple[Record, int], ...]
]


class GameState(NamedTuple):
    rules: GameRules
    moves: tuple[Move, ...]
    # The position: the record of every move after the thesis. Every
    # assertion but the thesis is a record's payload, and the repetition
    # rule makes every record new, so whose turn it is follows from their
    # number.
    records: frozenset[Record]
    introduced: frozenset[Label]
    turn: str
    # Ledgers kept move by move, so that legality never re-scans the
    # history; equality and hashing leave them out. They follow from
    # ``moves``: every assertion made, and each player's open targets: the
    # other player's assertions that have an attack and attack records that
    # have a defence, less those the player has used up. O uses a target up
    # by acting on it, so O's open targets are exactly those it has not
    # acted on; P uses one up when it has made every move on it, which only
    # a target whose payloads are fixed allows (all but a Know's attacks and
    # a Poss's defences, which grow with ``introduced``).
    assertions: frozenset[Assertion]
    open_targets: dict[str, OpenTargets]

    def __eq__(self, other):
        # rules, moves, records, introduced, turn
        return type(other) is GameState and self[:5] == other[:5]

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's over every field

    def __hash__(self):
        return hash(self[:5])

    @property
    def o_fresh(self) -> int:
        """Worlds O has introduced; only O introduces worlds."""
        return len(self.introduced) - 1

    def position_key(self) -> frozenset[Record]:
        return self.records

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
    assertion = (P, ROOT, normalized)
    return GameState(
        rules=rules,
        moves=(move,),
        records=frozenset(),
        introduced=frozenset({ROOT}),
        turn=O,
        assertions=frozenset({assertion}),
        open_targets={
            O: (((assertion, 0),) if _attackable(rules, assertion) else (), ()),
            P: ((), ()),
        },
    )


# ---------------------------------------------------------------------------
# World bookkeeping


def _world_options(
    state: GameState, actor: str, agent: str, world: Label
) -> tuple[Label, ...]:
    """Worlds available for an agent-indexed choice at ``world``: the agent's
    cluster, plus one fresh successor when O still may introduce, in the
    order of their printed names (the order legal_moves lists them). They
    depend on the actor only through whether it may introduce a world, and
    each game works them out once (``GameRules.world_options``).

    The cluster is the introduced labels that extend its root (``world``
    without its trailing steps of the agent) by steps of the agent only:
    labels are introduced one successor at a time, so these are the worlds
    the agent's steps connect. The fresh successor takes the least index
    that no child of ``world`` in the cluster uses."""
    fresh = actor == O and state.o_fresh < state.rules.fresh_cap
    key = (agent, world, state.introduced, fresh)
    options = state.rules.world_options.get(key)
    if options is not None:
        return options
    root = world
    while root and root[-1][0] == agent:
        root = root[:-1]
    depth = len(root)
    options = sorted(
        v
        for v in state.introduced
        if v[:depth] == root and all(a == agent for a, _ in v[depth:])
    )
    if fresh:
        used = {v[-1][1] for v in options if len(v) > len(world) and v[:-1] == world}
        index = 1
        while index in used:
            index += 1
        options.append(world + ((agent, index),))
    options.sort(key=render_label)
    options = state.rules.world_options[key] = tuple(options)
    return options


def _granted(state: GameState, world: Label, atom: Atom) -> bool:
    """Whether O stands committed to the atom at ``world``: O stated it
    there, or conceded there a context whose body has it as a positive
    literal."""
    assertions = state.assertions
    return (O, world, atom) in assertions or any(
        (O, world, Atom(name)) in assertions
        for name, body in state.rules.env.bindings.items()
        if (atom.name, True) in body.literals
    )


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
        if (P, world, f) in state.assertions:
            return ("PL-2", "restating one's own assertion changes nothing for P")
    if isinstance(f, Atom):
        if f.name in state.rules.env.bindings:
            if actor == P and (O, world, f) not in state.assertions:
                return (
                    "ML-frc",
                    f"context {f.name} not introduced by O at {render_label(world)}",
                )
        elif actor == P and not _granted(state, world, f):
            return (
                "PL-3",
                f"atom {f.name} not stated by O at {render_label(world)}",
            )
    return None


# ---------------------------------------------------------------------------
# Particle rules


ParticleRule = dict[Payload, tuple[AssertPayload, ...]]
_LEFT, _RIGHT, _EITHER = (RequestPayload(kind) for kind in ("?_L", "?_R", "?"))


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
    if isinstance(f, Atom) and f.name not in rules.env.bindings:
        return {}  # a plain atom, the commonest assertion

    def said(*formulas: Formula) -> tuple[AssertPayload, ...]:
        return tuple(AssertPayload(world, g) for g in formulas)

    match f:
        case Atom(name):
            # a compound context is played as the conjunction of its literals
            literals = rules.env.bindings[name].literals
            lits = [Atom(a) if positive else Not(Atom(a)) for a, positive in literals]
            if len(lits) < 2:
                return {}
            return {_LEFT: said(lits[0]), _RIGHT: said(reduce(And, lits[1:]))}
        case Not(body):
            return {AssertPayload(world, body): ()}
        case And(l, r):
            return {_LEFT: said(l), _RIGHT: said(r)}
        case Or(l, r):
            return {_EITHER: said(*sorted((l, r), key=render_formula))}
        case Imp(l, r):
            return {AssertPayload(world, l): said(r)}
        case Know():
            return {}
        case Poss(agent, _, _):
            return {RequestPayload("?_P", agent): ()}
        case Rel(And(l, r), c):
            return {_LEFT: said(_rel(l, c)), _RIGHT: said(_rel(r, c))}
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


def _defence_payloads(state: GameState, actor: str, attack: Record):
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


def _attackable(rules: GameRules, target: Assertion) -> bool:
    return isinstance(target[2], Know) or bool(_particle_rule(rules, target))


# ---------------------------------------------------------------------------
# Legality and application


# What the repetition rule says of a spent move, by kind: when its record is
# in the position, and when O has already acted on its target.
_SPENT = {
    "attack": ("this attack was already made",) * 2,
    "defend": ("this defence was already given", "O has already answered this attack"),
}


def _problem(
    state: GameState,
    actor: str,
    kind: str,
    target: Assertion | Record,
    payload: Payload,
) -> tuple[str, str] | None:
    """None if the actor may make a move of this kind on the target (the
    assertion it attacks or the attack record it answers) with this payload,
    one of the target's particle-rule candidates; else (rule, reason).

    A move is spent when its record is in the position. O also acts on a
    given target at most once, whatever the payload, so O may act only on
    its open targets of the kind; P may return to a target with a new
    payload."""
    if (actor, target, payload) in state.records:
        return ("PL-2", _SPENT[kind][0])
    if actor == O:
        open_targets = state.open_targets[O][kind == "defend"]
        if target not in (t for t, _ in open_targets):
            return ("PL-2", _SPENT[kind][1])
    if isinstance(payload, AssertPayload):
        return _check_assertable(state, actor, payload.label, payload.formula)
    return None


def _assertion_of_move(state: GameState, index: int) -> Assertion | None:
    move = state.moves[index]
    if isinstance(move.payload, AssertPayload):
        return (move.actor, move.payload.label, move.payload.formula)
    return None


def _attack_record_of_move(state: GameState, index: int) -> Record | None:
    move = state.moves[index]
    if move.kind != "attack":
        return None
    target = _assertion_of_move(state, move.target)
    return (move.actor, target, move.payload)


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
    if not isinstance(move.payload, Payload):
        raise IllegalMoveError("PL-0", f"not a payload: {move.payload!r}")

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
    else:
        target = attack = _attack_record_of_move(state, move.target)
        if attack is None:
            raise IllegalMoveError("PL-0", "defences answer attacks")
        if attack[0] == move.actor:
            raise IllegalMoveError("PL-0", "cannot defend against one's own attack")
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
    problem = _problem(state, move.actor, move.kind, target, move.payload)
    if problem:
        raise IllegalMoveError(*problem)


def apply_move(state: GameState, move: Move) -> GameState:
    """Validate and append a move, updating commitments and ledgers."""
    validate_move(state, move)
    of_move = _assertion_of_move if move.kind == "attack" else _attack_record_of_move
    return _step(state, move, of_move(state, move.target))


def _step(state: GameState, move: Move, target: Assertion | Record) -> GameState:
    """Append a move that validate_move accepts, on its target (the assertion
    it attacks or the attack record it answers), updating the ledgers."""
    rules, moves, records, introduced, _, assertions, open_targets = state
    actor, kind, _, payload = move
    other = P if actor == O else O
    attacks, defences = open_targets[actor]
    other_attacks, other_defences = open_targets[other]

    attack = kind == "attack"
    record = (actor, target, payload)
    records = records | {record}
    # the mover uses the target up: O at once, P with the last move on a
    # target whose payloads are fixed
    f = (target if attack else target[1])[2]
    if actor == O:
        used_up = True
    elif isinstance(f, Know if attack else Poss):
        used_up = False
    else:
        payloads = (_attack_payloads if attack else _defence_payloads)(
            state, P, target
        )
        used_up = all((P, target, p) in records for p in payloads)
    if used_up:
        if attack:
            attacks = tuple(e for e in attacks if e[0] != target)
        else:
            defences = tuple(e for e in defences if e[0] != target)
    if attack and (
        isinstance(f, (Know, Poss)) or _particle_rule(rules, target)[payload]
    ):
        other_defences += ((record, len(moves)),)

    # an assertion's world, or the world a ?_K request names
    label = payload.label
    if label is not None and label not in introduced:
        introduced = introduced | {label}
    if isinstance(payload, AssertPayload):
        assertion = (actor, label, payload.formula)
        if assertion not in assertions:
            assertions = assertions | {assertion}
            if _attackable(rules, assertion):
                other_attacks += ((assertion, len(moves)),)

    ledgers = {actor: (attacks, defences), other: (other_attacks, other_defences)}
    fields = (rules, moves + (move,), records, introduced, other, assertions, ledgers)
    return _new(GameState, fields)


def legal_moves(state: GameState) -> list[Move]:
    """Every move the player to move may make, in a canonical order: attacks
    before defences, by the index of the move they answer, then by payload
    (its printed label and formula, or its request). These are exactly the
    moves validate_move accepts, each naming the first move of its target.

    Only the player's open targets are walked. They are kept in the order
    of their moves, and the payload candidates come in payload order, so
    the moves are listed in that order without a sort.

    Only the checks that can fail are made. O may assert anything, and its
    open targets are those it has not acted on, so every candidate of O's
    is listed. P's candidates are checked one payload at a time.
    """
    return [move for move, _ in _candidates(state)]


def _candidates(state: GameState) -> list[tuple[Move, Assertion | Record]]:
    """legal_moves' moves, each with its target: the search steps with both."""
    actor = state.turn
    attacks, defences = state.open_targets[actor]
    pairs: list = []
    for kind, targets, payloads in (
        ("attack", attacks, _attack_payloads),
        ("defend", defences, _defence_payloads),
    ):
        for target, index in targets:
            for payload in payloads(state, actor, target):
                if actor == O or not _problem(state, P, kind, target, payload):
                    pairs.append((_new(Move, (actor, kind, index, payload)), target))
    return pairs


# ---------------------------------------------------------------------------
# Strategy search


@dataclass
class StrategyResult:
    """Outcome of the game search.

    On a win, ``strategy`` is built from the search's memo the first time
    it is read and then cached; until then the result holds that search.
    It is the positions of P's strategy in preorder, each a dict: the index
    of the position it follows (``"parent"``, None at the root), whose turn
    it is, the move that reached it (absent at the root), and ``"end"``
    where the mover cannot move. A P position has one child, for P's
    chosen move; an O position one per O move, in ``legal_moves`` order.
    The positions are unfolded on an explicit stack, and one that the
    search never visited is searched by the same ``fold``; so reading the
    strategy can raise BudgetExhaustedError when the budget runs out.
    """

    verdict: bool
    refutation: tuple[Move, ...] | None
    positions: int
    _search: _Search | None = field(default=None, repr=False, compare=False)
    _root: GameState | None = field(default=None, repr=False, compare=False)
    _strategy: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def strategy(self) -> list[dict] | None:
        if self._search is not None:
            self._strategy = self._search.strategy_nodes(self._root)
            self._search = self._root = None
        return self._strategy


class _Search:
    """AND-OR search over positions, memoized on the position. It steps
    through the moves legal_moves lists, on the targets it found, without
    validating them again: they are exactly the moves validate_move accepts."""

    def __init__(self, budget: int):
        self.budget = budget
        self.positions = 0
        self.memo: dict = {}

    def moves(self, state: GameState) -> list[tuple[Move, Assertion | Record]]:
        """The legal moves with their targets, in the order the search tries
        them: at P's turn, P's defences of the latest attack that admits one
        come before P's other defences, since P's wins mostly answer the
        latest attack. No move is dropped, so no position's value depends on
        the order. Defences come last, by the index of the attack they
        answer, so the last move names that attack."""
        moves = _candidates(state)
        if state.turn == P and moves and moves[-1][0].kind == "defend":
            last = moves[-1][0].target
            moves.sort(key=lambda c: c[0].kind == "defend" and c[0].target != last)
        return moves

    def win(self, state: GameState) -> bool:
        """True iff P has a winning strategy from this position."""
        # memoized on the position: a state's records, read in C
        return fold(state, self._value, self.memo, itemgetter(2))

    def _value(self, state: GameState):
        """``fold``'s step over positions: P needs one move to a won
        position, O one move to a lost one, and a player with no move
        loses. Each position stepped counts against the budget."""
        self.positions += 1
        if self.positions > self.budget:
            raise BudgetExhaustedError(self.positions)
        want = state.turn == P
        for m, target in self.moves(state):
            if (yield _step(state, m, target)) is want:
                return want
        return not want

    def _first(self, state: GameState, moves: list, value: bool):
        """The first move whose position has this value, and that position."""
        for m, target in moves:
            child = _step(state, m, target)
            if self.win(child) is value:
                return m, child
        raise AssertionError(f"no move to a position of value {value}")

    def strategy_nodes(self, state: GameState) -> list[dict]:
        """P's strategy from a won position, as ``StrategyResult.strategy``
        lists it, unfolded from the memo on an explicit stack of (position,
        parent index, move that reached it), depth first."""
        nodes: list[dict] = []
        stack: list = [(state, None, None)]
        while stack:
            state, parent, move = stack.pop()
            here, moves = len(nodes), self.moves(state)
            node = {"parent": parent, "turn": state.turn}
            if move is not None:
                node["move"] = move_to_json(move)
            nodes.append(node)
            if not moves:
                node["end"] = "opponent cannot move"
            elif state.turn == P:
                m, child = self._first(state, moves, True)
                stack.append((child, here, m))
            else:
                stack.extend((_step(state, m, t), here, m) for m, t in reversed(moves))
        return nodes

    def refuting_play(self, state: GameState) -> tuple[Move, ...]:
        """O's first refuting move at each O turn and P's first move at each
        P turn, in legal_moves' order; every position on it is in the memo."""
        while moves := _candidates(state):
            if state.turn == O:
                state = self._first(state, moves, False)[1]
            else:
                state = _step(state, *moves[0])
        return state.moves


DEFAULT_SEARCH_BUDGET = 500_000


def has_winning_strategy(
    thesis: Formula,
    env: ContextEnv | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> StrategyResult:
    """AND-OR search: does P have a winning strategy for the thesis?

    On a win the result's ``strategy`` lists P's strategy: P's choice at
    every reachable O history. It is built when first read: until then the
    result holds the search's memo, so a caller that needs only the verdict
    never pays for it. Otherwise ``refutation`` is a play that O wins.
    Raises BudgetExhaustedError when the position budget runs out; that
    outcome is unknown, never false.
    """
    state = initial_state(thesis, env)
    # the structural rules apply to the thesis too, at the position before
    # it: P may not state an atom or a context name that O has not, so O
    # wins an atomic thesis with the one-move play
    if _check_assertable(state._replace(assertions=frozenset()), P, ROOT, state.thesis):
        return StrategyResult(False, state.moves, 1)
    search = _Search(budget)
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
    agents = formula_info(game_form(thesis)).agents
    moves = (move_from_json(move_data, agents) for move_data in data["moves"])
    return replay(initial_state(thesis, env), moves)


def _transcript_rows(moves) -> list[list[str]]:
    """Rows of (o_num, o_text, o_ref, p_ref, p_text, p_num), one writer for
    every move: a defence fills the free side of the row of the attack it
    answers, as in two-column play tables; any other move opens a row, its
    ref "" for the thesis, "n" for an attack on move n and "def n" for a
    defence of attack n."""
    rows: list[list[str]] = []
    row_of_attack: dict[int, list[str]] = {}
    for i, move in enumerate(moves):
        side = slice(0, 3) if move.actor == O else slice(3, 6)
        row = row_of_attack.get(move.target) if move.kind == "defend" else None
        ref = ""
        if row is None or row[side][1]:
            ref = {"attack": f"{move.target}", "defend": f"def {move.target}"}.get(
                move.kind, ""
            )
            row = ["", "", "", "", "", ""]
            rows.append(row)
        if move.kind == "attack":
            row_of_attack[i] = row
        cells = [f"({i})", render_payload(move.payload), ref]
        row[side] = cells if move.actor == O else cells[::-1]
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

