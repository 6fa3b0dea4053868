"""MITL front end: abstract syntax, parser, printer, and satisfaction monitor.

All timing data in this layer is exact: interval endpoints, word stamps and
clock values are ``fractions.Fraction``.  The monitor implements full MITL
(any nesting) over point-based timed words and is the verification oracle
the automaton construction is cross-checked against.

Formula text is split by one token pattern, ``_TOKEN``: optional space,
then a number (``\\d+`` and an optional ``.\\d*`` or ``/\\d+``), a word
(``[^\\W\\d]\\w*``, which must start with a letter or ``_``) or one of
``!&|()[],``.  Anything else, and a number ``Fraction`` cannot take (``p/0``),
is a ``MitlSyntaxError`` at its position.

The parser builds an ``&``/``|`` chain left-deep and without a nesting
limit, so no walk recurses once per chain operand.  The pure ones
(``is_propositional``, ``eval_propositional``, the monitor) loop down a
chain's left spine and read its right operands first, stopping as
``and``/``or`` would; those that must keep left-to-right order take the
spine bottom-up from ``left_spine``.

Finite words are evaluated under a stuttering extension: the final letter is
held at every time strictly after the final stamp.  The monitor evaluates
those stutter positions as position ``l = -1``, whose letter
``w.letters[-1]`` is the held one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import InvalidParam, MitlSyntaxError


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed time interval with rational endpoints; ``hi is None`` means +inf."""

    lo: Fraction
    hi: Optional[Fraction]

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        if self.hi is not None:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo < 0:
            raise InvalidParam("interval lower endpoint must be >= 0")
        if self.hi is not None:
            if self.hi < self.lo:
                raise InvalidParam("interval is empty")

    def contains(self, v: Fraction) -> bool:
        if v < self.lo:
            return False
        if self.hi is not None:
            if v > self.hi:
                return False
        return True

    def intersects_after(self, d: Fraction) -> bool:
        """Whether the interval contains some time strictly greater than ``d``."""
        if self.hi is None:
            return True
        if self.hi > d:
            return True
        return False

    def __str__(self) -> str:
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo},{hi}]"


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


def _chain_eq(self, other):
    """The dataclass's equality, down the left spine by a loop."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    a, b = self, other
    while isinstance(a, (And, Or)) and b.__class__ is a.__class__:
        if a is b:
            return True
        if not (a.right is b.right or a.right == b.right):
            return False
        a, b = a.left, b.left
    return a is b or a == b


def _chain_hash(self):
    bottom, spine = left_spine(self)
    h = hash(bottom)
    for node in spine:
        h = hash((h, node.right))
    return h


def _chain_repr(self):
    """The dataclass's repr text, built from the left spine."""
    bottom, spine = left_spine(self)
    parts = [f"{node.__class__.__qualname__}(left=" for node in reversed(spine)]
    parts.append(repr(bottom))
    parts += [f", right={node.right!r})" for node in spine]
    return "".join(parts)


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    __eq__, __hash__, __repr__ = _chain_eq, _chain_hash, _chain_repr


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    __eq__, __hash__, __repr__ = _chain_eq, _chain_hash, _chain_repr


@dataclass(frozen=True)
class Next:
    child: "Formula"
    interval: Interval


@dataclass(frozen=True)
class Eventually:
    child: "Formula"
    interval: Interval


@dataclass(frozen=True)
class Always:
    child: "Formula"
    interval: Interval


@dataclass(frozen=True)
class Until:
    left: "Formula"
    right: "Formula"
    interval: Interval


Formula = object  # union of the node classes above

TEMPORAL_UNARY = {"X": Next, "F": Eventually, "G": Always}


def atoms_of(f) -> frozenset:
    """The atom names of ``f``, by a loop over a stack of nodes, so that no
    chain is too long for it."""
    names, todo = set(), [f]
    while todo:
        f = todo.pop()
        if isinstance(f, Atom):
            names.add(f.name)
        elif isinstance(f, (And, Or, Until)):
            todo += (f.left, f.right)
        elif isinstance(f, (Not, Next, Eventually, Always)):
            todo.append(f.child)
        else:
            raise InvalidParam(f"not a formula node: {f!r}")
    return frozenset(names)


def left_spine(f):
    """The operand at the bottom of ``f``'s ``&``/``|`` left spine, and the
    spine's nodes bottom-up (none when ``f`` is no chain)."""
    spine = []
    while isinstance(f, (And, Or)):
        spine.append(f)
        f = f.left
    spine.reverse()
    return f, spine


def is_propositional(f) -> bool:
    while isinstance(f, (And, Or, Not)):
        if isinstance(f, Not):
            f = f.child
        elif not is_propositional(f.right):
            return False
        else:
            f = f.left
    return isinstance(f, Atom)


def eval_propositional(f, letter: frozenset) -> bool:
    while True:
        if isinstance(f, Atom):
            return f.name in letter
        if isinstance(f, Not):
            return not eval_propositional(f.child, letter)
        if isinstance(f, And):
            if not eval_propositional(f.right, letter):
                return False
        elif isinstance(f, Or):
            if eval_propositional(f.right, letter):
                return True
        else:
            raise InvalidParam(f"not a propositional formula: {f!r}")
        f = f.left


# ---------------------------------------------------------------------------
# concrete syntax
# ---------------------------------------------------------------------------

_RESERVED = {"X", "F", "G", "U", "inf"}

MAX_NESTING = 100   # nesting levels a formula may open, see ``_Parser``


_TOKEN = re.compile(r"\s*(?:(?P<number>\d+(?:\.\d*|/\d+)?)"
                    r"|(?P<word>[^\W\d]\w*)|(?P<op>[!&|()\[\],]))?")


def _tokens(text: str) -> list:
    """``(kind, text, position)`` of each token of ``text``, then ``eof``."""
    tokens = []
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        if kind is None:
            if pos == len(text):
                tokens.append(("eof", "", pos))
                return tokens
            raise MitlSyntaxError(f"unexpected character {text[pos]!r}", pos)
        start, word = m.start(kind), m[kind]
        if kind == "word":
            # ``[^\W\d]`` also takes digits that are not decimal, like ``²``
            if not (word[0].isalpha() or word[0] == "_"):
                raise MitlSyntaxError(f"unexpected character {word[0]!r}", start)
            kind = word if word in _RESERVED else "ident"
        elif kind == "op":
            kind = word
        tokens.append((kind, word, start))


def _parse_number(tok) -> Fraction:
    try:
        return Fraction(tok[1])
    except (ValueError, ZeroDivisionError) as exc:
        # ``p/0``, or more digits than ``int`` converts
        raise MitlSyntaxError(f"invalid number {tok[1]!r}", tok[2]) from exc


class _Parser:
    """Recursive descent over: unary > U > & > |  (U right-associative).

    Each ``(``, ``!``, ``X``, ``F``, ``G`` and ``U`` opens one nesting
    level; a formula nested deeper than ``MAX_NESTING`` levels is a syntax
    error at the token that opens the level past it, not a
    ``RecursionError``."""

    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise MitlSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def nest(self, depth):
        """Consume the token that opens nesting level ``depth + 1``."""
        tok = self.next()
        if depth >= MAX_NESTING:
            raise MitlSyntaxError(
                f"formula nested deeper than {MAX_NESTING} levels", tok[2])
        return depth + 1

    def parse(self):
        f = self._or(0)
        tok = self.peek()
        if tok[0] != "eof":
            raise MitlSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return f

    def _or(self, depth):
        f = self._and(depth)
        while self.peek()[0] == "|":
            self.next()
            f = Or(f, self._and(depth))
        return f

    def _and(self, depth):
        f = self._until(depth)
        while self.peek()[0] == "&":
            self.next()
            f = And(f, self._until(depth))
        return f

    def _until(self, depth):
        f = self._unary(depth)
        if self.peek()[0] == "U":
            inner = self.nest(depth)
            interval = self._interval()
            return Until(f, self._until(inner), interval)
        return f

    def _unary(self, depth):
        tok = self.peek()
        if tok[0] == "!":
            return Not(self._unary(self.nest(depth)))
        if tok[0] in TEMPORAL_UNARY:
            inner = self.nest(depth)
            interval = self._interval()
            return TEMPORAL_UNARY[tok[0]](self._unary(inner), interval)
        if tok[0] == "(":
            f = self._or(self.nest(depth))
            self.expect(")")
            return f
        if tok[0] == "ident":
            self.next()
            return Atom(tok[1])
        raise MitlSyntaxError(f"expected a formula, found {tok[1]!r}", tok[2])

    def _interval(self) -> Interval:
        self.expect("[")
        lo = _parse_number(self.expect("number"))
        self.expect(",")
        tok = self.next()
        if tok[0] == "inf":
            hi = None
        elif tok[0] == "number":
            hi = _parse_number(tok)
        else:
            raise MitlSyntaxError(f"expected a number or 'inf', found {tok[1]!r}", tok[2])
        self.expect("]")
        try:
            return Interval(lo, hi)
        except InvalidParam as exc:
            raise MitlSyntaxError(str(exc), tok[2]) from exc


def parse(text: str):
    """Parse formula text into an AST; raises MitlSyntaxError with position."""
    return _Parser(text).parse()


def to_string(f) -> str:
    """Canonical fully parenthesised rendering; round-trips through parse."""
    f, spine = left_spine(f)
    if spine:
        parts = ["(" * len(spine), to_string(f)]
        for node in spine:
            parts += (" & " if isinstance(node, And) else " | ", to_string(node.right), ")")
        return "".join(parts)
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + _wrap(f.child)
    if isinstance(f, Until):
        return f"({_wrap(f.left)} U{f.interval} {_wrap(f.right)})"
    for sym, cls in TEMPORAL_UNARY.items():
        if isinstance(f, cls):
            return f"{sym}{f.interval}{_wrap(f.child)}"
    raise InvalidParam(f"not a formula node: {f!r}")


def _wrap(f) -> str:
    s = to_string(f)
    return s if s.startswith("(") or isinstance(f, Atom) else f"({s})"


# ---------------------------------------------------------------------------
# timed words
# ---------------------------------------------------------------------------

# One shared frozenset per distinct letter: letters are subsets of a
# scenario's few atoms, and words are many.
_LETTERS: dict = {}


def _letter(props) -> frozenset:
    letter = frozenset(props)
    return _LETTERS.setdefault(letter, letter)


@dataclass(frozen=True)
class TimedWord:
    """Finite sequence of (proposition set, rational stamp) pairs."""

    letters: Tuple[frozenset, ...]
    times: Tuple[Fraction, ...]

    def __post_init__(self):
        letters = tuple(map(_letter, self.letters))
        # a Fraction is immutable: keep it, and convert only other numbers
        times = tuple(t if type(t) is Fraction else Fraction(t) for t in self.times)
        if len(letters) != len(times) or not letters:
            raise InvalidParam("word needs equally many letters and stamps, >= 1")
        if times[0] != 0:
            raise InvalidParam("first stamp must be 0")
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise InvalidParam("stamps must be strictly increasing")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.letters)


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

def monitor(f, w: TimedWord) -> bool:
    """Point-based satisfaction of ``f`` by ``w`` at its first position.

    Semantics: temporal operators quantify over the word's positions; a
    finite word is extended by stuttering, i.e. virtual positions carrying
    the final letter at every time strictly after the final stamp.
    """
    return _Monitor(w).sat(f, 0)


class _Monitor:
    def __init__(self, w: TimedWord):
        self.w = w
        self.last = len(w) - 1
        self.cache = {}

    def sat(self, f, l: int) -> bool:
        """Satisfaction at position ``l``; ``l = -1`` is any stutter position."""
        key = (id(f), l)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        out = self._sat(f, l)
        self.cache[key] = out
        return out

    def _sat(self, f, l: int) -> bool:
        w = self.w
        if isinstance(f, Atom):
            return f.name in w.letters[l]
        if isinstance(f, Not):
            return not self.sat(f.child, l)
        if isinstance(f, (And, Or)):
            while True:
                if isinstance(f, And):
                    if not self.sat(f.right, l):
                        return False
                elif isinstance(f, Or):
                    if self.sat(f.right, l):
                        return True
                else:
                    return self.sat(f, l)
                f = f.left
        if isinstance(f, Next):
            if 0 <= l < self.last:
                return f.interval.contains(w.times[l + 1] - w.times[l]) and self.sat(
                    f.child, l + 1
                )
            return f.interval.intersects_after(0) and self.sat(f.child, -1)
        if l < 0:
            # the held letter at every later time
            if isinstance(f, (Eventually, Always)):
                return self.sat(f.child, -1)
            if isinstance(f, Until):
                return self.sat(f.right, -1) and (
                    f.interval.contains(0) or self.sat(f.left, -1))
            raise InvalidParam(f"not a formula node: {f!r}")
        d = w.times[self.last] - w.times[l]  # offset of the last stamp
        if isinstance(f, Eventually):
            for lp in range(l, self.last + 1):
                if f.interval.contains(w.times[lp] - w.times[l]) and self.sat(f.child, lp):
                    return True
            return f.interval.intersects_after(d) and self.sat(f.child, -1)
        if isinstance(f, Always):
            for lp in range(l, self.last + 1):
                if f.interval.contains(w.times[lp] - w.times[l]) and not self.sat(
                    f.child, lp
                ):
                    return False
            return not f.interval.intersects_after(d) or self.sat(f.child, -1)
        if isinstance(f, Until):
            for lp in range(l, self.last + 1):
                if f.interval.contains(w.times[lp] - w.times[l]) and self.sat(f.right, lp):
                    if all(self.sat(f.left, lpp) for lpp in range(l, lp)):
                        return True
            # stutter witness: strictly after the last stamp, so every
            # concrete position from l on, and the held letter, must satisfy
            # the left operand
            return (f.interval.intersects_after(d) and self.sat(f.right, -1)
                    and self.sat(f.left, -1)
                    and all(self.sat(f.left, lpp) for lpp in range(l, self.last + 1)))
        raise InvalidParam(f"not a formula node: {f!r}")
