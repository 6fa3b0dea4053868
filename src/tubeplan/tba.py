"""Timed Büchi automata for a flat fragment of the timed logic.

Supported fragment: Boolean combinations (negations pushed inward by
duality) of blocks ``G[I] psi``, ``F[I] psi``, ``psi1 U[I] psi2`` with
propositional bodies, plus purely propositional blocks.  All blocks are
anchored at the start of the word, so the automaton needs no resets and one
clock: the time elapsed since the start, shared by every block.

Each block automaton is deterministic and complete, with trap locations for
settled verdicts, and so is the exported automaton, the synchronous product
of the blocks.  A guard compares the clock only with guard constants, so it
is a range of clock regions, resolved once per block edge.  A block
location reads a letter only through the atoms of its edges' labels, so
each (block location, the letter's share of those atoms) pair compiles
once into a block table with one target per region, from that block
location's few short labels.  The product steps each block on its own, so
a (location, letter) pair's table (``TimedAutomaton.table``) is the zip of
its blocks' tables: each region's block targets, read across, name the
target location.  A step is a lookup that yields one location;
``successors`` and the product search read the same tables.  ``build_tba``
walks the product once on label-free arcs, each the target and region
span of one combination of block edges.  The walk gives the locations,
their acceptance and the arcs that ``TimedAutomaton.live`` reads: each
location's last clock region from which some path of arcs reaches an
accepting location, computed once per automaton; the product search
expands no node past it.  The labelled product edges
(``TimedAutomaton.edges``), which the search never reads, are built from
the blocks on first read, in the walk's order.  A product location
is Büchi-accepting when the Boolean combination evaluates to true on the
per-block verdicts (co-safety blocks: reached their DONE trap; safety
blocks: not in their REJECT trap).  That combination is itself an And/Or
formula whose atoms are the blocks' indices, so ``eval_propositional`` decides it on the set of indices whose verdict holds.
Along any infinite word with diverging time the verdict vector is
eventually constant, so "accepting location visited infinitely often"
coincides with the formula's verdict.

Normalisation and the split into blocks walk an ``&``/``|`` chain's left
spine by a loop, bottom-up (``mitl.left_spine``), so that blocks keep
their left-to-right order and no chain is too long for them.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Tuple

from .errors import InternalError, InvalidParam, UnsupportedFragment
from .mitl import (
    And,
    Always,
    Atom,
    Eventually,
    Interval,
    Next,
    Not,
    Or,
    TimedWord,
    Until,
    atoms_of,
    eval_propositional,
    is_propositional,
    left_spine,
    to_string,
)


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    label: Optional[object]  # propositional formula; None means "any letter"
    regions: Tuple[int, int]  # inclusive range of clock regions


@dataclass(frozen=True, eq=False)
class TimedAutomaton:
    """Deterministic, complete automaton over one never-reset clock.

    ``constants`` are the sorted guard constants.  Clock region ``2i`` is the
    open gap just below ``constants[i]``, region ``2i+1`` is ``constants[i]``
    and region ``2n`` lies above the last; an edge's guard is a region range.

    The automaton is a product of blocks.  ``_blocks`` is ``(vectors,
    leaving)``: each location's vector of block locations, whose names
    joined by ``|`` are its own name, in the order the product walk found
    them, and the edges ``(target, label, first region, last region)`` that
    leave each block location.  ``_sources`` holds the label-free arcs into
    each location, ``(source, first region, last region)``: all that
    ``live`` reads.  The labelled ``edges`` are built from ``_blocks`` on
    first read, and the search never reads them.  ``build_tba`` makes an
    automaton from a formula, ``from_edges`` one from its own edges.
    """

    locations: Tuple[str, ...]
    initial: str
    accepting: frozenset
    constants: Tuple[Fraction, ...]
    _blocks: tuple = field(repr=False)
    _sources: dict = field(repr=False)
    _tables: dict = field(default_factory=dict, repr=False)
    _block_tables: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_edges(cls, locations, initial, accepting, edges, constants=()):
        """The automaton whose edges are ``edges``: a product of one block,
        which is its own edges, walked from every location."""
        leaving = {}
        for e in edges:
            leaving.setdefault(e.source, []).append((e.target, e.label, *e.regions))
        vectors, sources = _walk([(location,) for location in locations],
                                 leaving, 2 * len(constants))
        tba = cls(tuple(locations), initial, frozenset(accepting), tuple(constants),
                  (vectors, leaving), sources)
        object.__setattr__(tba, "edges", tuple(edges))   # kept as given
        return tba

    @property
    def cmax(self) -> Fraction:
        return self.constants[-1] if self.constants else Fraction(0)

    def successors(self, location: str, letter: frozenset, elapsed) -> str:
        """The one location reached from ``location`` by reading ``letter``
        at clock value ``elapsed``, in the unit of ``constants``."""
        i = bisect_left(self.constants, elapsed)
        at_constant = i < len(self.constants) and self.constants[i] == elapsed
        return self.table(location, letter)[2 * i + at_constant]

    def table(self, location: str, letter: frozenset) -> tuple:
        """The location reached from ``location`` by reading ``letter``, per
        clock region: the blocks' tables read across, built on first use
        and kept."""
        table = self._tables.get((location, letter))
        if table is None:
            table = self._tables[(location, letter)] = self._product_table(location, letter)
        return table

    @functools.cached_property
    def edges(self) -> Tuple[Edge, ...]:
        """The product's labelled edges, built on first read: the locations
        in the order the product walk found them, each location's edges in
        ``itertools.product`` order of its blocks' leaving edges, a label
        the ``And`` of its blocks' labels."""
        vectors, leaving = self._blocks
        top = 2 * len(self.constants)
        return tuple(Edge(source, "|".join(dst), label, (lo, hi))
                     for source, vector in vectors.items()
                     for (dst, lo, hi), label in zip(_spans(vector, leaving, top),
                                                     _labels(vector, leaving)))

    @functools.cached_property
    def live(self) -> dict:
        """Each location's last live clock region: the highest region from
        which some path of arcs reaches an accepting location in the top
        (saturated) region; a location missing from the map is dead.  An
        arc here fires on any letter and at any region of its span at or
        after the current one, so the map over-approximates every run.  It
        is the least fixed point of: ``top`` for an accepting location, and
        for each arc ``src -> dst`` over regions ``[lo, hi]``, at least
        ``min(hi, live[dst])`` for ``src`` when that is ``>= lo``.  Regions
        never decrease along a run, so no run from a location past its
        entry is accepted, and every node it reaches is past its own.  The
        arcs are ``_sources``, so no labelled edge is built."""
        top = 2 * len(self.constants)
        sources = self._sources
        live, todo = dict.fromkeys(self.accepting, top), list(self.accepting)
        while todo:
            target = todo.pop()
            for source, lo, hi in sources.get(target, ()):
                region = min(hi, live[target])
                if region >= lo and region > live.get(source, -1):
                    live[source] = region
                    todo.append(source)
        return live

    @functools.cached_property
    def _reads(self) -> dict:
        """The atoms each block location's leaving edges read: its block
        tables depend on a letter only through them."""
        _, leaving = self._blocks
        return {part: frozenset().union(*(atoms_of(label) for _, label, _, _ in out
                                          if label is not None))
                for part, out in leaving.items()}

    def _product_table(self, location: str, letter: frozenset) -> tuple:
        """Target per region: the zip of the block tables of the location's
        vector, each region's block targets joined into one name.  A block
        table is keyed by its block location and the letter's share of the
        atoms that location reads, so letters that differ elsewhere share
        it."""
        vectors, _ = self._blocks
        vector = vectors.get(location)
        if vector is None:
            raise InternalError(f"{location!r} is not a location of the automaton")
        tables, reads = self._block_tables, self._reads
        columns = []
        for part in vector:
            key = (part, letter & reads.get(part, frozenset()))
            column = tables.get(key)
            if column is None:
                column = tables[key] = self._block_table(*key)
            columns.append(column)
        return tuple(map("|".join, zip(*columns)))

    def _block_table(self, part: str, letter: frozenset) -> tuple:
        """Block target per region; exactly one of the edges that leave the
        block location ``part`` must cover each region."""
        _, leaving = self._blocks
        hits = [[] for _ in range(2 * len(self.constants) + 1)]
        for target, label, lo, hi in leaving.get(part, ()):
            if label is None or eval_propositional(label, letter):
                for targets in hits[lo:hi + 1]:
                    targets.append(target)
        for r, targets in enumerate(hits):
            if len(targets) != 1:
                raise InternalError(f"{len(targets)} edges leave {part!r} on "
                                    f"{sorted(letter)} in clock region {r}")
        return tuple(target for target, in hits)


# ---------------------------------------------------------------------------
# block construction
# ---------------------------------------------------------------------------

# A block edge's time condition is a pair of region ends, ``None`` for
# unbounded, else ``(constant, offset)``: offset 0 is the constant's own
# region, -1 the gap below it, +1 the gap above it.
_ANY = (None, None)


@dataclass
class _Block:
    locations: Tuple[str, ...]
    initial: str
    edges: list                  # (src, dst, label-or-None, time condition)
    verdict: dict                # location -> bool (current verdict)
    interval: Optional[Interval] = None


def _negate(f):
    return f.child if isinstance(f, Not) else Not(f)


def _within(iv: Interval):
    return ((iv.lo, 0) if iv.lo > 0 else None,
            None if iv.hi is None else (iv.hi, 0))


def _prop_block(psi) -> _Block:
    init, true, rej = "init", "true", "reject"
    edges = [
        (init, true, psi, _ANY),
        (init, rej, _negate(psi), _ANY),
        (true, true, None, _ANY),
        (rej, rej, None, _ANY),
    ]
    return _Block((init, true, rej), init, edges,
                  {init: False, true: True, rej: False})


def _eventually_block(psi, iv: Interval) -> _Block:
    wait, done = "wait", "done"
    edges = [
        (wait, done, psi, _within(iv)),
        (wait, wait, _negate(psi), _ANY),
        (done, done, None, _ANY),
    ]
    if iv.lo > 0:
        edges.append((wait, wait, psi, (None, (iv.lo, -1))))
    if iv.hi is not None:
        edges.append((wait, wait, psi, ((iv.hi, 1), None)))
    return _Block((wait, done), wait, edges,
                  {wait: False, done: True}, iv)


def _always_block(psi, iv: Interval) -> _Block:
    active, safe, rej = "active", "safe", "reject"
    edges = [
        (active, active, psi, _within(iv)),
        (active, rej, _negate(psi), _within(iv)),
        (rej, rej, None, _ANY),
    ]
    locations = [active, rej]
    if iv.lo > 0:
        edges.append((active, active, None, (None, (iv.lo, -1))))
    if iv.hi is not None:
        locations.append(safe)
        edges.append((active, safe, None, ((iv.hi, 1), None)))
        edges.append((safe, safe, None, _ANY))
    verdict = {active: True, rej: False}
    if iv.hi is not None:
        verdict[safe] = True
    return _Block(tuple(locations), active, edges, verdict, iv)


def _until_block(psi1, psi2, iv: Interval) -> _Block:
    wait, done, rej = "wait", "done", "reject"
    in_window = _within(iv)
    edges = [
        (wait, done, psi2, in_window),
        (wait, wait, And(psi1, _negate(psi2)), in_window),
        (wait, rej, And(_negate(psi1), _negate(psi2)), in_window),
        (done, done, None, _ANY),
        (rej, rej, None, _ANY),
    ]
    if iv.lo > 0:
        edges.append((wait, wait, psi1, (None, (iv.lo, -1))))
        edges.append((wait, rej, _negate(psi1), (None, (iv.lo, -1))))
    if iv.hi is not None:
        edges.append((wait, rej, None, ((iv.hi, 1), None)))
    return _Block((wait, done, rej), wait, edges,
                  {wait: False, done: True, rej: False}, iv)


# ---------------------------------------------------------------------------
# fragment normalisation
# ---------------------------------------------------------------------------

def _normalise(f, negated: bool):
    """Push negation inward by duality; reject what the fragment lacks."""
    while isinstance(f, Not):
        f, negated = f.child, not negated
    if isinstance(f, Atom):
        return Not(f) if negated else f
    if isinstance(f, (And, Or)):
        f, spine = left_spine(f)
        out = _normalise(f, negated)
        for node in spine:
            dual = isinstance(node, And) == negated
            out = (Or if dual else And)(out, _normalise(node.right, negated))
        return out
    if isinstance(f, Eventually):
        child = _normalise(f.child, negated)
        return Always(child, f.interval) if negated else Eventually(child, f.interval)
    if isinstance(f, Always):
        child = _normalise(f.child, negated)
        return Eventually(child, f.interval) if negated else Always(child, f.interval)
    if isinstance(f, Until):
        if negated:
            raise UnsupportedFragment(
                f"negated until is outside the fragment: {to_string(f)}", f
            )
        return Until(_normalise(f.left, False), _normalise(f.right, False), f.interval)
    if isinstance(f, Next):
        raise UnsupportedFragment(
            f"the next operator is outside the fragment: {to_string(f)}", f
        )
    raise InvalidParam(f"not a formula node: {f!r}")


def _collect_blocks(f, blocks: list):
    """Split a normalised formula into a monotone And/Or formula over
    blocks, whose atoms are the blocks' indices as text.

    A chain's propositional bottom, the longest part of its left spine that
    is propositional as a whole, is one block."""
    f, spine = left_spine(f)
    k, propositional = 0, is_propositional(f)
    while propositional and k < len(spine) and is_propositional(spine[k].right):
        f, k = spine[k], k + 1
    if propositional:
        blocks.append(_prop_block(f))
    elif isinstance(f, Eventually) and is_propositional(f.child):
        blocks.append(_eventually_block(f.child, f.interval))
    elif isinstance(f, Always) and is_propositional(f.child):
        blocks.append(_always_block(f.child, f.interval))
    elif isinstance(f, Until) and is_propositional(f.left) and is_propositional(f.right):
        blocks.append(_until_block(f.left, f.right, f.interval))
    else:
        raise UnsupportedFragment(
            f"nested timed operators are outside the fragment: {to_string(f)}", f
        )
    tree = Atom(str(len(blocks) - 1))
    for node in spine[k:]:
        tree = type(node)(tree, _collect_blocks(node.right, blocks))
    return tree


# ---------------------------------------------------------------------------
# the product walk
# ---------------------------------------------------------------------------

def _spans(vector, leaving, top) -> list:
    """``(target vector, first region, last region)`` of each product edge
    that leaves the location ``vector``, in ``itertools.product`` order of
    its blocks' leaving edges, built block by block: a region span is a
    running ``max``/``min``.  An empty span (first > last) is kept, though
    its edge never fires."""
    spans = [((), 0, top)]
    for part in vector:
        spans = [(dst + (target,), lo if lo > first else first, hi if hi < last else last)
                 for dst, lo, hi in spans
                 for target, _, first, last in leaving.get(part, ())]
    return spans


def _labels(vector, leaving) -> list:
    """The labels of the edges ``_spans`` gives, in its order: the ``And``
    of the blocks' edge labels, ``None`` ("any letter") left out, built
    block by block so that the partial products share their prefix."""
    labels = [None]
    for part in vector:
        labels = [label if more is None else (more if label is None else And(label, more))
                  for label in labels
                  for _, more, _, _ in leaving.get(part, ())]
    return labels


def _walk(roots, leaving, top):
    """The product locations reachable from the vectors ``roots``, each
    named once: their vectors by name, in the order found, and the
    label-free arcs ``(source, first region, last region)`` into each."""
    names = {root: "|".join(root) for root in roots}   # the vectors found, named
    vectors, sources = {}, {}
    frontier = list(roots)
    while frontier:
        vec = frontier.pop()
        source = names[vec]
        vectors[source] = vec
        for dst, lo, hi in _spans(vec, leaving, top):
            target = names.get(dst)
            if target is None:
                target = names[dst] = "|".join(dst)
                frontier.append(dst)
            sources.setdefault(target, []).append((source, lo, hi))
    return vectors, sources


def build_tba(formula) -> TimedAutomaton:
    """Translate a flat-fragment formula into a timed Büchi automaton.

    Each block edge's time condition is resolved to its region range once.
    The product is walked once from the initial vector: a location's arcs
    are the product of its blocks' leaving edges, each only a target and a
    region span, so the walk builds no label and no ``Edge``.  It gives the
    locations, their acceptance and the arcs ``live`` reads; the labelled
    ``edges`` are built only when something reads them."""
    norm = _normalise(formula, False)
    blocks: list = []
    tree = _collect_blocks(norm, blocks)

    constants = tuple(sorted({c for b in blocks if b.interval is not None
                              for c in (b.interval.lo, b.interval.hi)
                              if c is not None}))
    index = {c: 2 * i + 1 for i, c in enumerate(constants)}
    top = 2 * len(constants)

    # a block location's name is its block's index and its own name; the
    # blocks' verdicts are read by the block names that hold
    leaving, holds = {}, {}
    for i, b in enumerate(blocks):
        for src, dst, label, (lo, hi) in b.edges:
            leaving.setdefault(f"{i}:{src}", []).append(
                (f"{i}:{dst}", label, 0 if lo is None else index[lo[0]] + lo[1],
                 top if hi is None else index[hi[0]] + hi[1]))
        holds.update({f"{i}:{loc}": str(i) for loc, v in b.verdict.items() if v})

    init_vec = tuple(f"{i}:{b.initial}" for i, b in enumerate(blocks))
    vectors, sources = _walk([init_vec], leaving, top)
    accepting = frozenset(
        location for location, vec in vectors.items()
        if eval_propositional(tree, frozenset(holds[p] for p in vec if p in holds)))
    return TimedAutomaton(
        locations=tuple(sorted(vectors)),
        initial="|".join(init_vec),
        accepting=accepting,
        constants=constants,
        _blocks=(vectors, leaving),
        _sources=sources,
    )


# ---------------------------------------------------------------------------
# acceptance of (stutter-extended) finite timed words
# ---------------------------------------------------------------------------

def stutter_loop_weight(tba: TimedAutomaton, final_time: Fraction) -> Fraction:
    """Delay for the virtual stutter self-loop appended after a finite word.

    The held letter exists at *every* time after the final stamp; a discrete
    self-loop samples it at multiples of the returned weight.  Taking half
    the gcd of the distances from the final stamp to every guard constant
    still ahead guarantees the sampled times hit each constant exactly and
    each open region between consecutive constants at least once, so the
    discrete run decides acceptance exactly as the dense extension would.
    """
    diffs = [c - final_time for c in tba.constants if c > final_time]
    if not diffs:
        return Fraction(1)
    common = lcm(*(d.denominator for d in diffs))   # each distance is a multiple of 1/common
    scaled = (d.numerator * (common // d.denominator) for d in diffs)
    return Fraction(gcd(*scaled), common) / 2


def accepts_word(tba: TimedAutomaton, word: TimedWord) -> bool:
    """Büchi acceptance of the stutter-extended word.

    Implemented by viewing the word as a linear weighted transition system
    (with a stutter self-loop on its last state) and searching the product
    with the automaton for an accepting lasso.
    """
    from .abstraction import Wts
    from .errors import Unrealizable
    from .synthesis import find_accepting_run

    states = tuple(f"w{i}" for i in range(len(word)))
    labels = {s: word.letters[i] for i, s in enumerate(states)}
    transitions = {}
    for i in range(len(word) - 1):
        weight = word.times[i + 1] - word.times[i]
        transitions[(states[i], states[i + 1])] = weight
    transitions[(states[-1], states[-1])] = stutter_loop_weight(tba, word.times[-1])
    wts = Wts(states=states, initial=states[0], labels=labels, transitions=transitions)
    try:
        find_accepting_run(wts, tba)
        return True
    except Unrealizable:
        return False
