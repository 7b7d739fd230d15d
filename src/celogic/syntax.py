"""Formula and context-formula syntax: AST, parser, printers.

Concrete grammar (ASCII, with the listed unicode alternatives accepted on
input):

    formula := unary { binary unary } ;  binary := "<->" | "->" | "|" | "&" ;
    unary := "~" unary | "K" "{" ident ["," variant] "}" unary
           | "P" "{" ident ["," variant] "}" unary | primary ;
    primary := atom | group ;  group := "(" formula ")" { "^" ident } ;
    variant := "1.1" | "1.2" | "2.1" | "2.2" ;  atom, ident := [a-z][a-zA-Z0-9_]* ;
    context := "true" | "false" | lit { "&" lit } ;  lit := atom | "~" atom ;

The binary connectives are listed loosest first; ``->`` groups to the right,
the others to the left. ``_BINARY`` states this once for parser and printer.

A knowledge/possibility operator written without a variant tag parses as
"untagged" (variant None) unless a default variant is supplied; untagged
operators are rejected by the semantic layers, which need the tag to pick
the context interaction mode.

Every formula node has the same two methods, which structural walks are
written over. ``f.children()`` is the tuple of f's immediate subformulas,
left to right (``()`` for an atom). ``f.rebuild(*kids)`` is the node of f's
kind, with f's agent, variant or context, over the given kids. Bottom-up
walks run on ``fold``'s explicit stack, which also drives the game search
over positions, and the tableau runs on its own. The parser keeps open
parentheses on a stack, so nothing recurses per level of input. Every JSON
document (the AST, the proof log, the strategy) is a flat list of nodes
that name each other by index, so it nests a few levels at any depth of
input.

Formula nodes are hash-consed: building a node gives back the live node of
the same kind with the same fields, if there is one. So equal formulas are
one object, ``==`` is ``is``, and hashing or comparing a formula costs the
same at any depth. In particular ``f.rebuild(*f.children()) is f``, so a
walk that changes nothing gives back the very same tree.
"""

from __future__ import annotations

import re
from typing import NamedTuple
from weakref import ref

from _weakref import _remove_dead_weakref

class FormulaSyntaxError(ValueError):
    """Raised on malformed formula or context input; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UntaggedOperatorError(ValueError):
    """An operation needed a variant tag on a K/P operator that has none."""


def agent_context(agent: str) -> str:
    """Name of the context assigned to an agent (agent ``j`` owns ``cj``)."""
    return "c" + agent


_VARIANT_CONTEXTS = {
    "1.1": ("current", "current"),
    "1.2": ("current", "agent"),
    "2.1": ("agent", "current"),
    "2.2": ("agent", "agent"),
}

VARIANTS = tuple(_VARIANT_CONTEXTS)


def variant_contexts_names(
    variant: str | None, current: str, agent: str
) -> tuple[str, str]:
    """(condition, continuation) context names for a tagged knowledge operator
    relativized by ``current``: the first tag digit picks the condition
    context, the second the continuation context; 1 = the current context,
    2 = the agent's own."""
    if variant not in _VARIANT_CONTEXTS:
        raise UntaggedOperatorError(
            f"operator on agent {agent!r} under relativization needs a variant tag"
        )
    cond, cont = _VARIANT_CONTEXTS[variant]
    pick = {"current": current, "agent": agent_context(agent)}
    return pick[cond], pick[cont]


# ---------------------------------------------------------------------------
# Formula AST


class _Entry(ref):
    """A weak reference to an interned node that knows its own key."""

    __slots__ = ("key",)


# (class, *fields) -> the _Entry of the live node with those fields
_INTERNED: dict = {}


def _evict(entry: _Entry, table: dict = _INTERNED) -> None:
    """A dead node's callback: drop its entry, but only while the entry
    holds a dead reference, checked and dropped in one step (the helper
    ``weakref.WeakValueDictionary`` uses). An equal node may have been built
    between the death and the callback, and its entry must stay. ``table``
    is bound here so that the callback works while the interpreter exits."""
    _remove_dead_weakref(table, entry.key)


class _Interning(type):
    """The class of the formula node classes: calling one gives back the
    live node of that class with the same fields if there is one, and else
    builds it and enters it in ``_INTERNED`` (hash-consing: Filliâtre &
    Conchon, "Type-safe modular hash-consing", 2006). A new node is
    filled through its class's slot setters, one per name in its
    ``__match_args__``; its fields are given by position only.

    A key's child nodes hash and compare by identity, so a lookup costs the
    same however deep the node. The table keeps no node alive: an entry goes
    when its node dies, and its key holds only the node's own fields. Each
    change to the table is one atomic dict operation that never replaces a
    live entry, so threads building equal formulas at once get one node.
    """

    def __init__(cls, name, bases, namespace):
        super().__init__(name, bases, namespace)
        # each field's slot setter, in field order, to fill a new node
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__match_args__)

    def __call__(cls, *args):
        key = (cls, *args)
        entry = _INTERNED.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        setters = cls._setters
        if len(args) != len(setters):
            raise TypeError(
                f"{cls.__name__}() takes {len(setters)} fields, {len(args)} given"
            )
        node = object.__new__(cls)
        for put, value in zip(setters, args):
            put(node, value)
        entry = _Entry(node, _evict)
        entry.key = key
        while (found := _INTERNED.setdefault(key, entry)) is not entry:
            built = found()
            # entered since the lookup, by another thread or by a callback
            # that ran while this node was built
            if built is not None:
                return built
            _remove_dead_weakref(_INTERNED, key)
        return node


class Formula(metaclass=_Interning):
    """A formula node; see the module docstring for ``children()`` and
    ``rebuild(*kids)``.

    Each node class names its own fields once, as its ``__slots__``, which
    are also its ``__match_args__``; a subclass that adds no field inherits
    its parent's. Nodes are immutable: assigning or deleting an attribute
    raises. Nodes are interned (see ``_Interning``): structurally equal
    formulas are one object, so ``==`` and ``hash`` are the identity
    defaults of ``object`` and never walk a tree. Pickles and copies carry
    the fields only (``__reduce__``), and loading or copying gives back the
    interned node. Besides its fields a node has one slot, unset until first
    use: ``_normal``, where ``reduction.reduce_result`` keeps its normal
    form and its context names (see there). Equal subtrees, being one node,
    share it.
    """

    __slots__ = ("_normal", "__weakref__")
    __match_args__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"formula nodes are immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"formula nodes are immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)

    def children(self) -> tuple[Formula, ...]:
        return ()

    def rebuild(self) -> Formula:
        return self


class Not(Formula):
    __slots__ = __match_args__ = ("body",)

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def rebuild(self, body: Formula) -> Formula:
        return Not(body)


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def rebuild(self, left: Formula, right: Formula) -> Formula:
        return type(self)(left, right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _Modal(Formula):
    __slots__ = __match_args__ = ("agent", "variant", "body")

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def rebuild(self, body: Formula) -> Formula:
        return type(self)(self.agent, self.variant, body)


class Know(_Modal):
    __slots__ = ()


class Poss(_Modal):
    __slots__ = ()


class Rel(Formula):
    """Context relativization: the body read against the named context."""

    __slots__ = __match_args__ = ("body", "context")

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def rebuild(self, body: Formula) -> Formula:
        return Rel(body, self.context)


def fold(f, step, memo=None, key=None):
    """f's value under ``step``: a bottom-up walk on an explicit stack.

    ``step(g)`` is a generator that returns g's value. It yields each node
    whose value it needs, or a tuple of them such as ``g.children()``, and is
    sent back that value or the tuple of values. Only an exact ``tuple`` is
    such a batch: a tuple subclass, such as a game state, is one node. So a walk reads as its
    recursive form with ``go(x)`` spelled ``(yield x)``, and it may ask for
    nodes that are not subformulas of f. Nodes need not be formulas: the game
    search folds over positions. Values are filed in ``memo`` (a fresh dict
    by default) under ``key(g)`` (g itself by default), and a node whose key
    is there is not stepped again, so each distinct key is stepped once per
    memo; exceptions pass through.
    """

    def each(nodes):
        values = []
        for g in nodes:
            values.append((yield g))
        return tuple(values)

    done = {} if memo is None else memo
    top = f if key is None else key(f)
    stack = [] if top in done else [(top, step(f))]
    missing = object()  # no step returns it, so a falsy value is read back
    sent = None
    while stack:
        k, walk = stack[-1]
        try:
            need = walk.send(sent)
        except StopIteration as stop:
            stack.pop()
            sent = done[k] = stop.value
            continue
        k = need if key is None or type(need) is tuple else key(need)
        sent = done.get(k, missing)
        if sent is missing:  # stepped next, and started with None
            stack.append((k, each(need) if type(need) is tuple else step(need)))
            sent = None
    return done[top]


# ---------------------------------------------------------------------------
# Context formulas (conjunctions of literals, canonicalized)


class ContextFormula(NamedTuple):
    """Canonical conjunction of literals; () is top, contradictory is bottom.

    ``literals`` is a sorted, duplicate-free tuple of (atom, positive) pairs.
    A pair p/~p canonicalizes to the contradictory form.
    """

    literals: tuple[tuple[str, bool], ...] = ()
    contradictory: bool = False

    @property
    def is_top(self) -> bool:
        return not self.contradictory and not self.literals

    @property
    def is_bot(self) -> bool:
        return self.contradictory


TOP = ContextFormula()
BOT = ContextFormula(contradictory=True)


def make_context(literals) -> ContextFormula:
    """Canonicalize a literal list: dedupe, sort, collapse p & ~p to bottom."""
    seen = set(literals)
    for name, positive in seen:
        if (name, not positive) in seen:
            return BOT
    return ContextFormula(tuple(sorted(seen)))


# ---------------------------------------------------------------------------
# Grammar

# The binary connectives, loosest first: token kind, node class, printed
# symbol, and whether it groups to the right. A row's index is its
# precedence level; the unary operators bind tighter than every row.
_BINARY = (
    ("IFF", Iff, "<->", False),
    ("IMP", Imp, "->", True),
    ("OR", Or, "|", False),
    ("AND", And, "&", False),
)
_BY_KIND = {
    kind: (level, cls, right) for level, (kind, cls, _, right) in enumerate(_BINARY)
}
_BY_CLASS = {
    cls: (level, sym, right) for level, (_, cls, sym, right) in enumerate(_BINARY)
}
_UNARY_LEVEL = len(_BINARY)
_PREFIX = {"NOT": Not, "KOP": Know, "POP": Poss}

# ---------------------------------------------------------------------------
# Tokenizer

# an atom, agent or context name: none holds a "." (world names rely on it)
IDENT_PATTERN = r"[a-z][a-zA-Z0-9_]*"
_TOKEN_SPEC = [
    ("IFF", r"<->|↔"),
    ("IMP", r"->|→"),
    ("AND", r"&|∧"),
    ("OR", r"\||∨"),
    ("NOT", r"~|¬"),
    ("VARIANT", r"[12]\.[12]"),
    ("BADVARIANT", r"\d+\.\d+"),
    ("KOP", r"K"),
    ("POP", r"P"),
    ("LPAR", r"\("),
    ("RPAR", r"\)"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("COMMA", r","),
    ("CARET", r"\^"),
    ("TRUE", r"⊤"),
    ("FALSE", r"⊥"),
    ("IDENT", IDENT_PATTERN),
    ("WS", r"\s+"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _TOKEN_SPEC))


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, default_variant: str | None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.default_variant = default_variant

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {what}", tok.pos)
        return self.next()

    def formula(self) -> Formula:
        """A formula: precedence climbing over ``_BINARY`` on explicit
        stacks. An operand is its prefix operators over an atom or a
        parenthesised group. A connective first groups the pending ones that
        bind at least as tightly (strictly more tightly, if it groups to the
        right). Each open parenthesis keeps its prefix operators and the
        enclosing operands and connectives on ``groups``, so no nesting
        recurses."""
        groups = []  # per open parenthesis: (prefixes, operands, pending)
        operands: list[Formula] = []
        pending: list[tuple] = []  # _BINARY rows not yet applied

        def apply(level: int) -> None:
            while pending and pending[-1][0] >= level:
                _, cls, _ = pending.pop()
                right = operands.pop()
                operands.append(cls(operands.pop(), right))

        while True:
            prefixes = self.prefixes()
            if self.peek().kind == "LPAR":
                self.next()
                groups.append((prefixes, operands, pending))
                operands, pending = [], []
                continue
            out = self.atom()
            # close every group that ends here, innermost first
            while True:
                for cls, *tag in reversed(prefixes):
                    out = cls(*tag, out)
                operands.append(out)
                row = _BY_KIND.get(self.peek().kind)
                if row is not None:
                    break
                apply(0)
                out = operands.pop()
                if not groups:
                    return out
                self.expect("RPAR", "')'")
                while self.peek().kind == "CARET":
                    self.next()
                    out = Rel(out, self.expect("IDENT", "context name").text)
                prefixes, operands, pending = groups.pop()
            level, _, right = row
            apply(level + right)
            pending.append(row)
            self.next()

    def prefixes(self) -> list[tuple]:
        """The prefix operators before an operand, outermost first."""
        ops = []
        while (cls := _PREFIX.get(self.peek().kind)) is not None:
            self.next()
            ops.append((cls,) if cls is Not else (cls, *self._operator_tag()))
        return ops

    def _operator_tag(self) -> tuple[str, str | None]:
        self.expect("LBRACE", "'{' after modal operator")
        agent = self.expect("IDENT", "agent name").text
        variant = self.default_variant
        if self.peek().kind == "COMMA":
            self.next()
            tok = self.peek()
            if tok.kind == "BADVARIANT":
                raise FormulaSyntaxError(f"unknown variant tag {tok.text!r}", tok.pos)
            variant = self.expect("VARIANT", "variant tag").text
        self.expect("RBRACE", "'}'")
        return agent, variant

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.next()
            return Atom(tok.text)
        if tok.kind == "CARET":
            raise FormulaSyntaxError(
                "relativization applied to nothing (use '(...)^name')", tok.pos
            )
        raise FormulaSyntaxError("expected a formula", tok.pos)


def parse_formula(text: str, default_variant: str | None = None) -> Formula:
    """Parse concrete syntax into a Formula.

    ``default_variant`` fills operators written without a tag (``K{i} a``);
    with the default left as None such operators stay untagged.
    """
    if default_variant is not None and default_variant not in VARIANTS:
        raise ValueError(f"unknown default variant {default_variant!r}")
    if not text.strip():
        raise FormulaSyntaxError("empty input", 0)
    parser = _Parser(text, default_variant)
    out = parser.formula()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise FormulaSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return out


_CONTEXT_CONSTANTS = {"true": TOP, "⊤": TOP, "false": BOT, "⊥": BOT}


def parse_context(text: str) -> ContextFormula:
    """Parse a context body: ``true``, ``false``, or a conjunction of literals."""
    if not text.strip():
        raise FormulaSyntaxError("empty input", 0)
    parser = _Parser(text, None)
    tok = parser.next()
    body = _CONTEXT_CONSTANTS.get(tok.text)
    literals = []
    while body is None:
        positive = tok.kind != "NOT"
        if not positive:
            tok = parser.next()
        if tok.kind != "IDENT" or tok.text in _CONTEXT_CONSTANTS:
            break
        literals.append((tok.text, positive))
        if parser.peek().kind == "AND":
            parser.next()
            tok = parser.next()
        else:
            body = make_context(literals)
    # tok is the bad literal if the loop broke; else the body must end the input
    if body is None or (tok := parser.peek()).kind != "EOF":
        raise FormulaSyntaxError(
            "context bodies are conjunctions of literals (or true/false)", tok.pos
        )
    return body


# ---------------------------------------------------------------------------
# Printers


def _level(f: Formula) -> int:
    if row := _BY_CLASS.get(type(f)):
        return row[0]
    return _UNARY_LEVEL if isinstance(f, (Not, _Modal)) else _UNARY_LEVEL + 1


def _tag(agent: str, variant: str | None) -> str:
    return f"{{{agent},{variant}}}" if variant else f"{{{agent}}}"


def render_formula(f: Formula, memo: dict | None = None) -> str:
    """Minimal-parenthesis concrete syntax; parses back to the same AST.
    Calls that share a ``memo`` render each node once between them."""

    def wrap(g: Formula, minimum: int):
        s = yield g
        return f"({s})" if _level(g) < minimum else s

    def step(f: Formula):
        match f:
            case Atom(name):
                return name
            case Not(body):
                return "~" + (yield from wrap(body, _UNARY_LEVEL))
            case _Binary(l, r):
                level, sym, right = _BY_CLASS[type(f)]
                l = yield from wrap(l, level + right)
                return f"{l} {sym} " + (yield from wrap(r, level + (not right)))
            case _Modal(agent, variant, body):
                op = ("K" if isinstance(f, Know) else "P") + _tag(agent, variant)
                return f"{op} " + (yield from wrap(body, _UNARY_LEVEL))
            case Rel(body, context):
                chain = [context]
                while isinstance(body, Rel):
                    chain.append(body.context)
                    body = body.body
                return f"({(yield body)})" + "".join(f"^{c}" for c in reversed(chain))
        raise TypeError(f"not a formula: {f!r}")

    return fold(f, step, memo)


def render_context(cf: ContextFormula) -> str:
    if cf.is_top:
        return "true"
    if cf.is_bot:
        return "false"
    return " & ".join(n if pos else f"~{n}" for n, pos in cf.literals)


# ---------------------------------------------------------------------------
# Structure report


class FormulaInfo(NamedTuple):
    atoms: frozenset[str]
    agents: frozenset[str]
    contexts: frozenset[str]
    modal_depth: int
    is_el: bool


def subformulas(f: Formula):
    """All subtrees of f, preorder.

    An explicit stack, not nested generators: each subtree costs O(1) to
    yield however deep it sits, and deep input does not hit the recursion
    limit here.
    """
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(g.children()))


def node_count(f: Formula) -> int:
    return sum(1 for _ in subformulas(f))


def formula_info(f: Formula) -> FormulaInfo:
    """One explicit-stack walk over f's DAG; each entry carries the number
    of K/P operators above it, so the modal depth is the largest such count
    at an atom. A shared node is walked again only when it is reached under
    more operators than before, so a nest of subtrees shared twice, such as
    ``game_form``'s expansion of an ``<->`` chain, costs its distinct nodes,
    not its paths."""
    atoms: set[str] = set()
    agents: set[str] = set()
    contexts: set[str] = set()
    depth = 0
    reached: dict[Formula, int] = {}  # node -> most operators seen above it
    stack = [(f, 0)]
    while stack:
        g, d = stack.pop()
        if reached.get(g, -1) >= d:
            continue
        reached[g] = d
        match g:
            case Atom():
                atoms.add(g.name)
                if d > depth:
                    depth = d
                continue
            case Know() | Poss():
                agents.add(g.agent)
                d += 1
            case Rel():
                contexts.add(g.context)
        for k in reversed(g.children()):
            stack.append((k, d))
    return FormulaInfo(
        atoms=frozenset(atoms),
        agents=frozenset(agents),
        contexts=frozenset(contexts),
        modal_depth=depth,
        is_el=not contexts,
    )
