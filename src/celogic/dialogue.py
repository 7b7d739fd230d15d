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

A world is a label: the steps from world 1, each an agent and an index.
Its name (``render_label``) is ``1`` followed by each step as agent, ``.``,
index, so ``1i.1j.2`` is the second j-successor of the first i-successor of
1. Agent names hold no ``.``, so every label has its own name, and
``parse_label`` reads one back without knowing the thesis's agents.

Context names (``GameRules.env``) behave like atoms for assertion
bookkeeping but live under the context formality rule rather than the atom
rule; asserting a compound context additionally grants its positive
literals at that world.

The particle rules are one table (``_particle_rule``): for each asserted
formula, each way of attacking it with the defences that answer that
attack. A game works out the table of a formula at a world once, whichever
player asserts it: at its assertion's first attack, or at its first listing
as a target. Whether an assertion may be attacked at all is read off its
formula (``_attackable``), so no table is built for one nobody attacks.

Each structural rule is stated once: the repetition rule in ``_problem``,
what a player may assert in ``_assertable``. ``legal_moves`` lists the
particle rules' candidates that pass them, making only the checks that can
fail, and ``validate_move`` raises what they find, naming the broken rule.
So the two agree: ``validate_move`` accepts exactly the moves that
``legal_moves`` lists.

Each state keeps each player's open targets, the mover's first: the other
player's assertions that it may still attack and attack records that it may
still answer, each with the index of its first move and its bit in
``GameRules.bits``. A move adds at most one assertion and one attack record,
and uses up at most the one target it acts on, so ``_step`` keeps the lists,
swapping the pair, and ``legal_moves`` walks only the mover's, not every
assertion and attack of the play.

Everything about a target's moves but the position is fixed per game, so
each game keeps one move table per target (``_move_table``): the moves the
particle rules give the player on it, in listing order, each an ``_Option``
holding its record's bit, what it opens for the other player, and what
P's making it asks of the position as two masks over ``GameRules.bits``.
A fixed target's table is built at its first listing and found through
its bit; a Know's attacks and a Poss's defences choose a world, so theirs
are built once per target and set of introduced worlds. A listing tests
each of P's options with three int operations; O's open targets are those
it has not acted on, so every option of O's is listed. A step reads what
the move adds off its option.

A position is the set of move records: each move after the thesis is one
record (actor, the assertion it attacks or the attack record it answers,
payload). Every assertion but the thesis is a record's payload, and every
record is new, so the records fix the assertions, the attacks, the
defences and whose turn it is. Each game numbers every record and every
assertion the first time it meets one (``GameRules.bits``), and a state
keeps its records and its assertions as int bitsets over that numbering:
a move grows them by one ``|``, without copying a set, and two plays that
reach the same records in another order reach the same int. Winning
strategies are decided by AND-OR search over positions, memoized on the
records' bitset. Moves, payloads and states are immutable named tuples,
built in C. A state compares and hashes as its tuple: its ledgers follow
from its rules and moves, so two states reached by the same moves of one
game are equal. A plain tuple can equal a payload, so ``validate_move``
checks a payload's type.
The search is a ``fold`` over positions, on the driver of the formula walks,
and the strategy and the refutation read off its memo are loops too: no
length of play is bounded by the recursion limit. The search steps through
the moves ``legal_moves`` lists, each with the option it was found as, so
it neither validates a move again nor looks its target up in the history;
``apply_move``, ``replay`` and ``replay_script`` validate every move.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import itemgetter
from typing import Iterable, NamedTuple

from .kripke import ContextEnv
from .reduction import primitive_form
from .syntax import (
    IDENT_PATTERN,
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


_STEP = re.compile(rf"({IDENT_PATTERN})\.([1-9][0-9]*)")
_WORLD_NAME = re.compile(f"1(?:{_STEP.pattern})*")


def render_label(label: Label) -> str:
    return "1" + "".join(f"{agent}.{index}" for agent, index in label)


def parse_label(text: str) -> Label:
    """Read a world name as ``render_label`` prints it, like ``1i.1j.2``:
    ``1``, then each step as its agent, ``.`` and its index. An agent name
    holds no ``.`` and starts with a letter, and an index has no leading
    zero, so every name reads one way and only a printed name reads."""
    if _WORLD_NAME.fullmatch(text) is None:
        raise ValueError(f"cannot read world name {text!r}")
    return tuple([(agent, int(index)) for agent, index in _STEP.findall(text)])


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


def move_to_json(move: Move, memo: dict | None = None) -> dict:
    """A move as JSON-ready data. Calls that share a ``memo`` render each
    formula node once between them (see ``render_formula``)."""
    data: dict = {"actor": move.actor, "kind": move.kind}
    if move.target is not None:
        data["target"] = move.target
    if isinstance(move.payload, AssertPayload):
        data["payload"] = {
            "assert": {
                "label": render_label(move.payload.label),
                "formula": render_formula(move.payload.formula, memo),
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


def move_from_json(data: dict) -> Move:
    payload_data = data["payload"]
    if "assert" in payload_data:
        a = payload_data["assert"]
        payload: Payload = AssertPayload(
            parse_label(a["label"]), parse_formula(a["formula"])
        )
    else:
        r = payload_data["request"]
        payload = RequestPayload(
            r["kind"],
            r.get("agent"),
            parse_label(r["label"]) if "label" in r else None,
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


class _Numbering(dict):
    """A game's numbering of records and assertions: ``table[key]`` is the
    key's bit, and a key met for the first time gets the next one. A record
    never equals an assertion: the one's second field is a target, the
    other's a world. ``table.get(key, 0) & bits`` asks whether a bitset
    holds the key, and numbers nothing."""

    def __missing__(self, key) -> int:
        bit = self[key] = 1 << len(self)
        return bit


class GameRules:
    """One game's rules, shared by all its states: the context bindings
    (``ContextEnv.for_formula``'s env for the thesis, so an atom is a
    context name exactly when bound there: a guard of the thesis or a bound
    name it uses as an atom; body literals are atoms) and O's fresh-world
    cap (one more than the thesis's modal depth). Both are read off the
    thesis as given, not off its game form, which has the same context
    names and modal depth. It also keeps the game's
    numbering of records and assertions, and what follows from the rules
    alone: the particle rule of each formula at each world, one table of
    its attacks with their defences, and the move table of each target the
    game lists (``_move_table``), under the length of the target's bit, or
    for a Know's attacks and a Poss's defences under (that length,
    introduced worlds). No table outlives its game. Rules compare by
    identity."""

    __slots__ = ("env", "fresh_cap", "bits", "particle_rules", "move_tables")

    def __init__(self, env: ContextEnv, fresh_cap: int):
        self.env, self.fresh_cap = env, fresh_cap
        self.bits, self.particle_rules, self.move_tables = _Numbering(), {}, {}

    def __repr__(self) -> str:
        return f"GameRules(env={self.env!r}, fresh_cap={self.fresh_cap!r})"


Assertion = tuple[str, Label, Formula]  # actor, world, formula
# A move after the thesis: its actor, the assertion it attacks or the attack
# record it answers, and its payload. An attack record is a Record on an
# Assertion, a defence record one on an attack record.
Record = tuple[str, "Assertion | Record", Payload]
# A player's open targets, each with the index of its first move and its bit
# in ``GameRules.bits``, in that order: the assertions it may still attack,
# and the attack records it may still answer.
OpenTargets = tuple[
    tuple[tuple[Assertion, int, int], ...], tuple[tuple[Record, int, int], ...]
]


class GameState(NamedTuple):
    rules: GameRules
    moves: tuple[Move, ...]
    # The position: the record of every move after the thesis, as the
    # bitset of their numbers in ``rules.bits``. Every assertion but the
    # thesis is a record's payload, and the repetition rule makes every
    # record new, so whose turn it is follows from their number.
    records: int
    introduced: frozenset[Label]
    turn: str
    # Ledgers kept move by move, so that legality never re-scans the
    # history. They follow from ``(rules, moves)``, so a state compares and
    # hashes as its tuple. ``assertions`` is every assertion made, a bitset
    # as ``records`` is; ``open_targets`` each player's open targets, the
    # mover's first: the other player's assertions that have an attack and
    # attack records that have a defence, less those the player has used
    # up by making every move on them. O acts on a target once, so its open
    # targets are exactly those it has not acted on; P can use up only a
    # target whose moves are fixed (not a Know's attacks or a Poss's
    # defences, which grow with ``introduced``).
    assertions: int
    open_targets: tuple[OpenTargets, OpenTargets]  # the mover's, the other's

    @property
    def o_fresh(self) -> int:
        """Worlds O has introduced; only O introduces worlds."""
        return len(self.introduced) - 1

    @property
    def thesis(self) -> Formula:
        return self.moves[0].payload.formula


def initial_state(thesis: Formula, env: ContextEnv | None = None) -> GameState:
    """The position after P asserts the thesis's game form at world 1. The
    env and the world cap are read off the thesis itself: its game form has
    the same context names and modal depth, and a thesis the tableau has
    reduced already keeps its names on its node, while its game form is a
    fresh formula each game."""
    normalized = game_form(thesis)
    rules = GameRules(
        env=(env or ContextEnv()).for_formula(thesis),
        fresh_cap=formula_info(thesis).modal_depth + 1,
    )
    move = Move(P, "thesis", None, AssertPayload(ROOT, normalized))
    assertion = (P, ROOT, normalized)
    bit = rules.bits[assertion]
    return GameState(
        rules=rules,
        moves=(move,),
        records=0,
        introduced=frozenset({ROOT}),
        turn=O,
        assertions=bit,
        open_targets=(
            (((assertion, 0, bit),) if _attackable(rules, assertion) else (), ()),
            ((), ()),
        ),
    )


# ---------------------------------------------------------------------------
# World bookkeeping


def _world_payloads(
    state: GameState, actor: str, f: Know | Poss, world: Label
) -> tuple[Payload, ...]:
    """The payloads that choose a world for ``f`` asserted at ``world``: a
    Know's attacks, one ``?_K`` request per world, or a Poss's defences, its
    body at each world. The worlds are the agent's cluster, plus one fresh
    successor when O still may introduce one, in the order of their printed
    names (the order legal_moves lists them). The payloads depend on the
    actor only through whether it may introduce a world.

    The cluster is the introduced labels that extend its root (``world``
    without its trailing steps of the agent) by steps of the agent only:
    labels are introduced one successor at a time, so these are the worlds
    the agent's steps connect. The fresh successor takes the least index
    that no child of ``world`` in the cluster uses."""
    agent, root = f.agent, world
    while root and root[-1][0] == agent:
        root = root[:-1]
    depth = len(root)
    options = [
        v
        for v in state.introduced
        if v[:depth] == root and all(a == agent for a, _ in v[depth:])
    ]
    if actor == O and state.o_fresh < state.rules.fresh_cap:
        used = {v[-1][1] for v in options if len(v) > len(world) and v[:-1] == world}
        index = 1
        while index in used:
            index += 1
        options.append(world + ((agent, index),))
    options.sort(key=render_label)
    if isinstance(f, Know):
        return tuple([_new(RequestPayload, ("?_K", agent, w)) for w in options])
    return tuple([_new(AssertPayload, (w, f.body)) for w in options])


def _assertable(rules: GameRules, world: Label, f: Formula) -> tuple[int, int]:
    """What P's asserting f at world asks of the position, as two masks over
    ``rules.bits``, (forbid, grant): the position may hold no assertion in
    ``forbid`` and, unless ``grant`` is 0, must hold one in ``grant``. O may
    assert anything, so no move of O's asks this.

    P may not restate a complex formula already on P's record (PL-2).
    Commitments are kept as sets, so a restatement would not open a fresh
    line of attack for O the way a fresh utterance does; letting P repeat
    complex content shields demands that are already pending. Atoms and
    context names are exempt (they cannot be attacked, so nothing is
    shielded, and P may genuinely have to point at a conceded atom twice:
    once per demand). O may always restate: answering a second projection
    of the same demand with the same content is legitimate.

    P may state a context name only where O has stated it (ML-frc), and an
    atom only where O stands committed to it (PL-3): O stated it there, or
    conceded there a context whose body has it as a positive literal.
    """
    bits, bindings = rules.bits, rules.env.bindings
    if not isinstance(f, Atom):
        return bits[(P, world, f)], 0
    grant = bits[(O, world, f)]
    if f.name not in bindings:
        for name, body in bindings.items():
            if (f.name, True) in body.literals:
                grant |= bits[(O, world, Atom(name))]
    return 0, grant


# ---------------------------------------------------------------------------
# Particle rules


ParticleRule = dict[Payload, tuple[AssertPayload, ...]]
_LEFT, _RIGHT, _EITHER = (RequestPayload(kind) for kind in ("?_L", "?_R", "?"))


def _particle_rule(rules: GameRules, target: Assertion) -> ParticleRule:
    """The target's particle rule, worked out once per game for each world
    and formula, whoever asserts it: each attack payload, in payload order,
    mapped to the defence payloads that answer it, in payload order. Only a
    Know's attacks and a Poss's defences depend on the position: the table
    leaves a Poss's defences empty, and ``_world_payloads`` builds them. A
    Know has no table: ``_move_table`` builds its attacks with
    ``_world_payloads`` and answers its ``?_K`` from the request's label,
    and ``_attackable`` answers for it without one."""
    key = target[1:]
    rule = rules.particle_rules.get(key)
    if rule is None:
        rule = rules.particle_rules[key] = _particle_table(rules, *key)
    return rule


def _particle_table(rules: GameRules, world: Label, f: Formula) -> ParticleRule:
    """``_particle_rule``'s table of f at world. A relativized formula is
    matched as ``Rel`` once, and its body picks the row."""

    def said(*formulas: Formula) -> tuple[AssertPayload, ...]:
        return tuple([_new(AssertPayload, (world, g)) for g in formulas])

    match f:
        case Atom(name):
            if not _compound_context(rules, name):
                return {}
            literals = rules.env.bindings[name].literals
            lits = [Atom(a) if positive else Not(Atom(a)) for a, positive in literals]
            return {_LEFT: said(lits[0]), _RIGHT: said(reduce(And, lits[1:]))}
        case Not(body):
            return {_new(AssertPayload, (world, body)): ()}
        case And(l, r):
            return {_LEFT: said(l), _RIGHT: said(r)}
        case Or(l, r):
            # X | X is defended once: its two defences are one payload
            defences = (l,) if l is r else sorted((l, r), key=render_formula)
            return {_EITHER: said(*defences)}
        case Imp(l, r):
            return {_new(AssertPayload, (world, l)): said(r)}
        case Poss(agent, _, _):
            return {_new(RequestPayload, ("?_P", agent, None)): ()}
        case Rel(body, c):
            match body:
                case And(l, r):
                    return {_LEFT: said(_rel(l, c)), _RIGHT: said(_rel(r, c))}
                case Know(agent, variant, inner):
                    cx, cy = variant_contexts_names(variant, c, agent)
                    answer = Know(agent, variant, _rel(inner, cy))
                    return {_new(AssertPayload, (world, Atom(cx))): said(answer)}
                case Atom() | Rel():
                    answer = body
                case Not(inner):
                    answer = Not(_rel(inner, c))
                case Or(l, r):
                    answer = Or(_rel(l, c), _rel(r, c))
                case Imp(l, r):
                    answer = Imp(_rel(l, c), _rel(r, c))
                case _:
                    raise TypeError(f"not a game formula: {f!r}")
            return {_new(AssertPayload, (world, Atom(c))): said(answer)}
    raise TypeError(f"not a game formula: {f!r}")


def _compound_context(rules: GameRules, name: str) -> bool:
    """Whether the atom is a context whose body has two or more literals:
    it is played as their conjunction. No other atom can be attacked."""
    body = rules.env.bindings.get(name)
    return body is not None and len(body.literals) > 1


def _attackable(rules: GameRules, target: Assertion) -> bool:
    """Whether the target has an attack, without building its particle
    table: every compound game formula has, a Know through ``_world_payloads``
    and any other through its non-empty table, and an atom has one only as
    a compound context. So a table is built at its assertion's first attack,
    or at its first listing as a target, and never for an assertion nobody
    attacks."""
    f = target[2]
    return not isinstance(f, Atom) or _compound_context(rules, f.name)


# ---------------------------------------------------------------------------
# Move tables


class _Option(NamedTuple):
    """One move that the particle rules give a player on a target, as the
    target's move table lists it: what the move adds to a position, and
    what P's making it asks of the position. Bits and masks are over the
    game's ``GameRules.bits``."""

    payload: Payload
    record: Record
    bit: int  # the record's
    target_bit: int
    # the records that, once all made, use the target up for the mover: none
    # for O, who acts on a target once; all of the table's for P on a fixed
    # target; -1, whose bits no position holds all of, for P on a Know's
    # attacks or a Poss's defences, which grow with the introduced worlds
    uses_up: int
    answerable: bool  # an attack the other player may answer
    assertion: Assertion | None  # the assertion the payload makes
    assertion_bit: int  # its bit; 0 for a request
    attackable: bool  # the other player may attack that assertion
    fresh: Label | None  # the world the move introduces, if any
    forbid: int  # ``_assertable``'s masks, (0, 0) for O and for a request
    grant: int


def _move_table(
    state: GameState, kind: str, target: Assertion | Record, bit: int
) -> tuple[_Option, ...]:
    """The moves of this kind that the particle rules give on the target
    (the assertion attacked or the attack record answered, ``bit`` its
    bit), in the order legal_moves lists them. The mover is the player who
    does not own the target: players attack the other's assertions and
    answer the other's attacks.

    A game builds a target's table once, under its bit's length: a bit is a
    power of two, and those hash to only 61 values. A Know's attacks and a
    Poss's defences choose a world, so theirs is built once per (length,
    introduced worlds), which also fix whether O may still introduce one.

    One loop over the payloads builds the options: each payload's record
    and its bit, whether the other player may answer it and, for an asserted
    payload, the assertion, its bit, whether it may be attacked and, for P
    only, ``_assertable``'s masks; O's are (0, 0), so O's options make no
    call. Every option holds ``uses_up``, which P's fixed tables know only
    once each record is numbered, so for them a first loop ORs the bits."""
    rules = state.rules
    actor = O if target[0] == P else P
    attack = kind == "attack"
    assertion = target if attack else target[1]
    _, world, f = assertion
    fixed = not isinstance(f, Know if attack else Poss)
    length = bit.bit_length()
    key = length if fixed else (length, state.introduced)
    table = rules.move_tables.get(key)
    if table is not None:
        return table
    if not fixed:
        payloads = _world_payloads(state, actor, f, world)
    elif not attack and isinstance(f, Know):
        payloads = (AssertPayload(target[2].label, f.body),)
    else:
        rule = _particle_rule(rules, assertion)
        payloads = rule if attack else rule[target[2]]
    bits, introduced = rules.bits, state.introduced
    uses_up = 0 if actor == O else -1  # see _Option.uses_up
    if actor == P and fixed:
        uses_up = 0
        for payload in payloads:
            uses_up |= bits[actor, target, payload]
    options = []
    for payload in payloads:
        record = (actor, target, payload)
        # the other player may answer an attack on a Know or a Poss, and
        # any other attack that its particle rule's row answers
        answerable = attack and (isinstance(f, (Know, Poss)) or bool(rule[payload]))
        said, said_bit, attackable, forbid, grant = None, 0, False, 0, 0
        if isinstance(payload, AssertPayload):
            said = (actor, *payload)
            said_bit, attackable = bits[said], _attackable(rules, said)
            if actor == P:
                forbid, grant = _assertable(rules, *payload)
        # only a Know's attack or a Poss's defence may name a world not yet
        # introduced, O's fresh one: any other payload's world is its
        # target's, or the one a ?_K named when the attack was made
        fresh = None if fixed or payload.label in introduced else payload.label
        options.append(_new(_Option, (
            payload, record, bits[record], bit, uses_up, answerable,
            said, said_bit, attackable, fresh, forbid, grant,
        )))
    table = rules.move_tables[key] = tuple(options)
    return table


# ---------------------------------------------------------------------------
# Legality and application


# What the repetition rule says of a spent move, by kind: when its record is
# in the position, and when its target is not open to the mover, which only
# O's moves meet (O has already acted on the target).
_SPENT = {
    "attack": ("this attack was already made",) * 2,
    "defend": ("this defence was already given", "O has already answered this attack"),
}


def _problem(state: GameState, kind: str, option: _Option) -> tuple[str, str] | None:
    """None if the option's move of this kind may be made in this state;
    else (rule, reason).

    A move is spent when its record is in the position, and the mover may
    act only on its open targets of the kind. O acts on a given target at
    most once, whatever the payload, so that check is O's repetition rule;
    P may return to a target with a new payload, and a target closes to P
    only once P has made every move on it. Then the payload must be
    assertable (``_assertable``)."""
    records, assertions = state.records, state.assertions
    if records & option.bit:
        return ("PL-2", _SPENT[kind][0])
    open_targets = state.open_targets[0][kind == "defend"]
    if option.target_bit not in (bit for _, _, bit in open_targets):
        return ("PL-2", _SPENT[kind][1])
    if assertions & option.forbid:
        return ("PL-2", "restating one's own assertion changes nothing for P")
    if option.grant and not assertions & option.grant:
        world, f = option.payload
        if f.name in state.rules.env.bindings:
            return (
                "ML-frc",
                f"context {f.name} not introduced by O at {render_label(world)}",
            )
        return ("PL-3", f"atom {f.name} not stated by O at {render_label(world)}")
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
    _legal_option(state, move)


# What _legal_option says of a move's target, by the move's kind: when the
# move it names is not a target of the kind, and when it is the mover's own.
_BAD_TARGET = {
    "attack": (
        ("particle mismatch", "only assertions can be attacked"),
        ("PL-0", "players attack the other player's assertions"),
    ),
    "defend": (
        ("PL-0", "defences answer attacks"),
        ("PL-0", "cannot defend against one's own attack"),
    ),
}


def _legal_option(state: GameState, move: Move) -> _Option:
    """The option of its target's move table that the move makes, if the
    move is permitted in this state; else raise IllegalMoveError naming the
    violated rule."""
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

    attack = move.kind == "attack"
    target = (_assertion_of_move if attack else _attack_record_of_move)(
        state, move.target
    )
    if target is None:
        raise IllegalMoveError(*_BAD_TARGET[move.kind][0])
    if target[0] == move.actor:
        raise IllegalMoveError(*_BAD_TARGET[move.kind][1])
    # every assertion and attack record made is numbered, so looking the
    # target's bit up numbers nothing
    table = _move_table(state, move.kind, target, state.rules.bits[target])
    f = (target if attack else target[1])[2]
    if not table:
        if attack:  # only an atom's attack table is empty
            raise IllegalMoveError("PL-3", "atomic statements cannot be attacked")
        raise IllegalMoveError(
            "particle mismatch", f"{render_formula(f)} admits no defence"
        )
    option = next((o for o in table if o.payload == move.payload), None)
    if option is None:
        payload, said = move.payload, render_payload(move.payload)
        # A ?_K naming a non-introduced world is a world introduction.
        if (
            attack
            and isinstance(payload, RequestPayload)
            and payload.kind == "?_K"
            and payload.label is not None
            and payload.label not in state.introduced
        ):
            if move.actor == P:
                raise IllegalMoveError("ML-frw", f"P cannot introduce {said}")
            if state.o_fresh >= state.rules.fresh_cap:
                raise IllegalMoveError("world cap", "O's fresh-world budget is spent")
        answers = "attack" if attack else f"answer {render_payload(target[2])} on"
        raise IllegalMoveError(
            "particle mismatch", f"{said} does not {answers} {render_formula(f)}"
        )
    problem = _problem(state, move.kind, option)
    if problem:
        raise IllegalMoveError(*problem)
    return option


def apply_move(state: GameState, move: Move) -> GameState:
    """Validate and append a move, updating commitments and ledgers."""
    return _step(state, move, _legal_option(state, move))


def _step(state: GameState, move: Move, option: _Option) -> GameState:
    """Append a move that validate_move accepts, made by this option of its
    target's move table, updating the ledgers."""
    rules, moves, records, introduced, _, assertions, open_targets = state
    actor, kind, _, _ = move
    (_, record, bit, target_bit, uses_up, answerable, assertion, assertion_bit,
     attackable, fresh, _, _) = option
    (attacks, defences), (other_attacks, other_defences) = open_targets

    records |= bit
    if records & uses_up == uses_up:
        if kind == "attack":
            attacks = tuple([e for e in attacks if e[2] != target_bit])
        else:
            defences = tuple([e for e in defences if e[2] != target_bit])
    if answerable:
        other_defences += ((record, len(moves), bit),)
    if fresh is not None:
        introduced = introduced | {fresh}
    if assertion_bit and not assertion_bit & assertions:
        assertions |= assertion_bit
        if attackable:
            other_attacks += ((assertion, len(moves), assertion_bit),)

    ledgers = ((other_attacks, other_defences), (attacks, defences))
    other = P if actor == O else O
    fields = (rules, moves + (move,), records, introduced, other, assertions, ledgers)
    return _new(GameState, fields)


def legal_moves(state: GameState) -> list[Move]:
    """Every move the player to move may make, in a canonical order: attacks
    before defences, by the index of the move they answer, then by payload
    (its printed label and formula, or its request). These are exactly the
    moves validate_move accepts, each naming the first move of its target.

    Only the player's open targets are walked. They are kept in the order
    of their moves, and each target's move table lists its options in
    payload order, so the moves are listed in that order without a sort.

    Only the checks that can fail are made. O may assert anything, and its
    open targets are those it has not acted on, so every option of O's is
    listed. P's are tested against the position's bitsets.
    """
    return [move for move, _ in _candidates(state)]


def _candidates(state: GameState) -> list[tuple[Move, _Option]]:
    """legal_moves' moves, each with its option: the search steps with both.
    The tests on P's options are ``_problem``'s, those that can fail."""
    actor, records, assertions = state.turn, state.records, state.assertions
    tables, introduced = state.rules.move_tables, state.introduced
    pairs: list = []
    for kind, targets in zip(("attack", "defend"), state.open_targets[0]):
        for target, index, bit in targets:
            length = bit.bit_length()  # what _move_table files the table under
            table = tables.get(length)
            if table is None:
                table = tables.get((length, introduced))
                if table is None:
                    table = _move_table(state, kind, target, bit)
            for o in table:
                if actor == O or not (
                    records & o.bit
                    or assertions & o.forbid
                    or o.grant and not assertions & o.grant
                ):
                    pairs.append((_new(Move, (actor, kind, index, o.payload)), o))
    return pairs


# ---------------------------------------------------------------------------
# Strategy search


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
    Results compare on their verdict, refutation and position count, and
    are unhashable.
    """

    __slots__ = ("verdict", "refutation", "positions", "_search", "_root", "_strategy")
    __hash__ = None

    def __init__(self, verdict, refutation, positions, search=None, root=None):
        self.verdict, self.refutation, self.positions = verdict, refutation, positions
        self._search, self._root, self._strategy = search, root, None

    def __eq__(self, other):
        if type(other) is not StrategyResult:
            return NotImplemented
        fields = self.verdict, self.refutation, self.positions
        return fields == (other.verdict, other.refutation, other.positions)

    def __repr__(self) -> str:
        return (
            f"StrategyResult(verdict={self.verdict!r}, "
            f"refutation={self.refutation!r}, positions={self.positions!r})"
        )

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

    def moves(self, state: GameState) -> list[tuple[Move, _Option]]:
        """The legal moves with their options, in the order the search tries
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
        # memoized on the position: a state's records bitset, read in C
        return fold(state, self._value, self.memo, itemgetter(2))

    def _value(self, state: GameState):
        """``fold``'s step over positions: P needs one move to a won
        position, O one move to a lost one, and a player with no move
        loses. Each position stepped counts against the budget."""
        self.positions += 1
        if self.positions > self.budget:
            raise BudgetExhaustedError(self.positions)
        want = state.turn == P
        for m, option in self.moves(state):
            if (yield _step(state, m, option)) is want:
                return want
        return not want

    def _first(self, state: GameState, moves: list, value: bool):
        """The first move whose position has this value, and that position."""
        for m, option in moves:
            child = _step(state, m, option)
            if self.win(child) is value:
                return m, child
        raise AssertionError(f"no move to a position of value {value}")

    def strategy_nodes(self, state: GameState) -> list[dict]:
        """P's strategy from a won position, as ``StrategyResult.strategy``
        lists it, unfolded from the memo on an explicit stack of (position,
        parent index, move that reached it), depth first."""
        nodes: list[dict] = []
        memo: dict = {}  # render_formula's, shared by every move
        stack: list = [(state, None, None)]
        while stack:
            state, parent, move = stack.pop()
            here, moves = len(nodes), self.moves(state)
            node = {"parent": parent, "turn": state.turn}
            if move is not None:
                node["move"] = move_to_json(move, memo)
            nodes.append(node)
            if not moves:
                node["end"] = "opponent cannot move"
            elif state.turn == P:
                m, child = self._first(state, moves, True)
                stack.append((child, here, m))
            else:
                stack.extend((_step(state, m, o), here, m) for m, o in reversed(moves))
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
    # it, which holds no assertion: P may not state an atom or a context
    # name that O has not, so O wins an atomic thesis with the one-move play
    if _assertable(state.rules, ROOT, state.thesis)[1]:
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
    moves = (move_from_json(move_data) for move_data in data["moves"])
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
    """Aligned two-column text table of a play's moves."""
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

