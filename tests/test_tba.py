import functools
import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from tubeplan.errors import InternalError, UnsupportedFragment
from tubeplan.mitl import (
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
    monitor,
    parse,
    to_string,
)
from tubeplan.scenario import default_scenario
from tubeplan.tba import (
    Edge,
    TimedAutomaton,
    _collect_blocks,
    _normalise,
    accepts_word,
    build_tba,
    stutter_loop_weight,
)

from conftest import TINY_SCENARIO

F = Fraction


def word(letters, times):
    return TimedWord(tuple(frozenset(s) for s in letters),
                     tuple(F(t) for t in times))


def test_eventually_block_shape():
    tba = build_tba(parse("F[0,inf] p"))
    assert len(tba.locations) == 2
    assert len(tba.accepting) == 1
    assert tba.cmax == 0


def test_safety_block_shape():
    tba = build_tba(parse("G[0,inf] !o"))
    assert len(tba.locations) == 2        # running and rejected
    assert len(tba.accepting) == 1
    tba2 = build_tba(parse("G[2,7] !o"))
    assert len(tba2.locations) == 3       # window can also be outlived
    assert tba2.cmax == 7


def test_product_of_blocks():
    tba = build_tba(parse("G[0,inf] !o & F[3,5] m"))
    assert len(tba.locations) == 4
    assert len(tba.accepting) == 1
    assert tba.cmax == 5


def test_unsupported_fragment():
    with pytest.raises(UnsupportedFragment):
        build_tba(parse("X[0,1] a"))
    with pytest.raises(UnsupportedFragment):
        build_tba(Not(Until(parse("a"), parse("b"), Interval(F(0), F(2)))))
    with pytest.raises(UnsupportedFragment):
        build_tba(parse("F[0,5] G[0,1] a"))   # nested timed operators


def test_negation_pushed_by_duality():
    # !F[1,2] a and G[1,2] !a must build equivalent automata
    a = build_tba(parse("!(F[1,2] a)"))
    b = build_tba(parse("G[1,2] !a"))
    words = [
        word([{"a"}], [0]),
        word([set()], [0]),
        word([set(), {"a"}], [0, 1]),
        word([set(), {"a"}, set()], [0, 1, 2]),
        word([{"a"}, set()], [0, 3]),
    ]
    for w in words:
        assert accepts_word(a, w) == accepts_word(b, w)


def test_determinism_and_completeness():
    # every location and letter has exactly one successor at, between and
    # around every guard constant
    rng = np.random.default_rng(5)
    tba = build_tba(parse("G[0,inf] !o & F[3,5] m & (a U[1,4] b)"))
    assert tba.constants == (0, 1, 3, 4, 5)
    letters = [frozenset(s for s in ("o", "m", "a", "b") if rng.random() < 0.5)
               for _ in range(40)]
    eps = F(1, 1000)
    elapsed_values = sorted({v for c in tba.constants
                             for v in (c - eps, c, c + eps, c + F(1, 2))
                             if v >= 0} | {tba.cmax + 1})
    for loc in tba.locations:
        for letter in letters:
            for v in elapsed_values:
                assert tba.successors(loc, letter, v) in tba.locations


def _hand_built(edges):
    return TimedAutomaton.from_edges(locations=("p", "q"), initial="p",
                                     accepting=frozenset({"q"}), edges=tuple(edges),
                                     constants=(F(2),))


def test_nondeterministic_or_incomplete_automaton_is_rejected():
    # regions over the constant 2: 0 is [0, 2), 1 is {2}, 2 is (2, inf)
    complete = [Edge("p", "p", None, (0, 1)), Edge("p", "q", None, (2, 2))]
    assert _hand_built(complete).successors("p", frozenset(), F(3)) == "q"
    overlapping = [Edge("p", "p", None, (0, 1)), Edge("p", "q", None, (1, 2))]
    with pytest.raises(InternalError, match="2 edges"):
        _hand_built(overlapping).successors("p", frozenset(), F(3))
    gap = [Edge("p", "p", None, (0, 0)), Edge("p", "q", None, (2, 2))]
    with pytest.raises(InternalError, match="0 edges"):
        _hand_built(gap).successors("p", frozenset(), F(0))
    # label overlap: both edges read a letter holding ``a``
    labelled = [Edge("p", "p", parse("a"), (0, 2)), Edge("p", "q", None, (0, 2))]
    assert _hand_built(labelled).successors("p", frozenset(), F(0)) == "q"
    with pytest.raises(InternalError, match="2 edges"):
        _hand_built(labelled).successors("p", frozenset({"a"}), F(0))


def test_unknown_location_is_named():
    # a location the automaton does not have is the package's own error,
    # naming the location, whether the automaton was built or assembled
    built = build_tba(parse("G[0,inf] !o & F[3,5] m"))
    hand = _hand_built([Edge("p", "p", None, (0, 1)), Edge("p", "q", None, (2, 2))])
    for tba in (built, hand):
        with pytest.raises(InternalError, match="'x'"):
            tba.table("x", frozenset())
        with pytest.raises(InternalError, match="'x'"):
            tba.successors("x", frozenset({"o"}), F(1))


def test_live_locations():
    # each location's last live region: a safety block's reject trap leads
    # to no accepting location, and its active location is live up to the
    # top region, 2 over the one constant 0
    tba = build_tba(parse("G[0,inf] !a"))
    assert tba.live == {"0:active": 2} and tba.accepting == {"0:active"}
    # F[1,2] b's wait can still reach done, which it does not accept, up to
    # the clock 2, region 3 of 0..4
    tba = build_tba(parse("F[1,2] b"))
    assert tba.live.keys() == set(tba.locations) == {"0:wait", "0:done"}
    assert tba.live == {"0:wait": 3, "0:done": 4}
    assert tba.accepting == {"0:done"}
    # the bundled formula, over the constants 0, 30, 50, 80 and 110: the four
    # locations where the safety block failed are dead, and one that waits
    # for mission2 is live up to 50 (region 5), one that waits only for
    # mission1 up to 110 (region 9)
    tba = build_tba(default_scenario().formula())
    assert len(tba.locations) == 8
    assert tba.live == {"0:active|1:done|2:done": 10, "0:active|1:done|2:wait": 9,
                        "0:active|1:wait|2:done": 5, "0:active|1:wait|2:wait": 5}
    # an edge that no clock region enables leads nowhere, and one that fires
    # only in region 1 makes its source live up to region 1
    assert _hand_built([Edge("p", "q", None, (1, 0))]).live == {"q": 2}
    assert _hand_built([Edge("p", "q", None, (1, 1))]).live == {"p": 1, "q": 2}


def test_live_map_is_computed_once_per_automaton(monkeypatch):
    # each accepts_word call is one product search, and 64 of them on one
    # automaton read the liveness map that the first one computed
    compute, computed = TimedAutomaton.live.func, []

    def counted(self):
        computed.append(self)
        return compute(self)

    live = functools.cached_property(counted)
    live.__set_name__(TimedAutomaton, "live")
    monkeypatch.setattr(TimedAutomaton, "live", live)
    f = parse("G[0,inf] !a & F[1,3] b")
    tba = build_tba(f)
    rng = np.random.default_rng(64)
    for _ in range(64):
        n = int(rng.integers(1, 5))
        steps = np.cumsum(rng.integers(1, 4, size=n - 1)) / 2
        w = word([{a for a in "ab" if rng.random() < 0.4} for _ in range(n)],
                 [0, *(F(float(t)) for t in steps)])
        assert accepts_word(tba, w) == monitor(f, w)
    assert computed == [tba]


def test_stutter_loop_weight_halves_gcd():
    tba = build_tba(parse("F[30,50] m & F[80,110] n"))
    # constants ahead of t=20 are 30, 50, 80, 110 -> gcd of gaps is 10
    assert stutter_loop_weight(tba, F(20)) == F(5)
    assert stutter_loop_weight(tba, F(115)) == F(1)   # nothing ahead


def test_accepts_matches_monitor_on_boundaries():
    cases = [
        ("F[2,4] a", [set(), {"a"}], [0, 4]),          # witness exactly at hi
        ("F[2,4] a", [set(), {"a"}], [0, 5]),          # just past the window
        ("F[2,4] a", [set(), {"a"}], [0, 1]),          # stutter witness
        ("F[2,4] a", [{"a"}, set()], [0, 1]),          # held letter fails
        ("G[1,3] a", [set(), {"a"}], [0, 1]),
        ("G[1,3] a", [{"a"}, set()], [0, 2]),
        ("a U[5,5] b", [{"a"}, {"b"}], [0, 5]),        # singular window
        ("a U[5,5] b", [{"a"}, {"b"}], [0, 4]),        # stutter breaks left
        ("a U[5,5] b", [{"a", "b"}, {"b"}], [0, 4]),
        ("a U[0,2] b", [{"b"}], [0]),                  # immediate witness
        ("G[0,inf] a", [{"a"}, {"a"}], [0, 7]),
        ("G[0,inf] a", [{"a"}, set()], [0, 7]),
        ("G[0,0] a", [{"a"}, set()], [0, 1]),          # window is one instant
        ("G[0,0] a", [set(), {"a"}], [0, 1]),
        ("F[0,0] a", [{"a"}, set()], [0, 1]),
        ("F[0,0] a", [set(), {"a"}], [0, 1]),
    ]
    for text, letters, times in cases:
        f = parse(text)
        w = word(letters, times)
        tba = build_tba(f)
        assert accepts_word(tba, w) == monitor(f, w), (text, letters, times)


def test_accepts_mission_formula():
    f = parse("G[0,inf](!o1 & !o2) & F[30,50] m2 & F[80,110] m1")
    tba = build_tba(f)
    good = word([{"m1"}, set(), {"m2"}, set(), {"m1"}],
                [0, 20, 40, 60, 90])
    bad = word([{"m1"}, {"o1"}, {"m2"}, set(), {"m1"}],
               [0, 20, 40, 60, 90])
    early = word([{"m1"}, set(), {"m2"}, set(), {"m1"}],
                 [0, 20, 25, 60, 90])
    assert accepts_word(tba, good) and monitor(f, good)
    assert not accepts_word(tba, bad) and not monitor(f, bad)
    assert not accepts_word(tba, early) and not monitor(f, early)


# 5,000-operand chains at the top, under a negation and as operands of U: a
# walk that recursed once per operand would raise RecursionError under the
# default recursion limit
_LONG_AND = " & ".join(f"!p{i}" for i in range(5000))
_LONG_OR = " | ".join(f"p{i}" for i in range(5000))
_AND_Q = f"{_LONG_AND} & F[1,3] q"
_OR_Q = f"{_LONG_OR} | G[1,3] q"
_UNTIL = f"({_LONG_AND}) U[1,3] ({_LONG_OR})"
LONG_CHAINS = {   # text, and its normal form, then that of its negation
    "and": (_AND_Q, _AND_Q, f"{_LONG_OR} | G[1,3] !q"),
    "or": (_OR_Q, _OR_Q, f"{_LONG_AND} & F[1,3] !q"),
    "not": (f"!({_OR_Q})", f"{_LONG_AND} & F[1,3] !q", _OR_Q),
    "until": (_UNTIL, _UNTIL, None),
}


def _long_chain_words():
    rng = np.random.default_rng(7)
    atoms = ("p0", "p2500", "p4999", "q")
    for _ in range(40):
        n = int(rng.integers(1, 6))
        steps = np.cumsum(rng.integers(1, 4, size=n - 1)) / 2
        yield TimedWord(
            tuple(frozenset(a for a in atoms if rng.random() < 0.3) for _ in range(n)),
            (F(0),) + tuple(F(float(t)) for t in steps))


@pytest.mark.parametrize("kind", sorted(LONG_CHAINS))
def test_long_chains_normalise(kind):
    text, positive, negated = LONG_CHAINS[kind]
    f = parse(text)
    assert to_string(_normalise(f, False)) == to_string(parse(positive))
    if negated is None:
        with pytest.raises(UnsupportedFragment, match="negated until"):
            _normalise(f, True)
    else:
        assert to_string(_normalise(f, True)) == to_string(parse(negated))


@pytest.mark.parametrize("kind", sorted(LONG_CHAINS))
def test_long_chains_build_and_check_words(kind):
    f = parse(LONG_CHAINS[kind][0])
    tba = build_tba(f)
    # the chain's propositional part is one block, its timed operand another
    assert len(tba.locations) <= 9
    verdicts = []
    for w in _long_chain_words():
        verdicts.append(monitor(f, w))
        assert accepts_word(tba, w) == verdicts[-1], w
    assert any(verdicts) and not all(verdicts)


def test_or_of_blocks():
    f = parse("F[0,2] a | F[0,2] b")
    tba = build_tba(f)
    assert accepts_word(tba, word([set(), {"b"}], [0, 1]))
    assert not accepts_word(tba, word([set(), {"b"}], [0, 3]))


# ---------------------------------------------------------------------------
# pinned outputs of the formula layer
# ---------------------------------------------------------------------------

_ATOMS = ("a", "b", "c", "d")


def _interval(rng):
    lo = F(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
    if rng.random() < 0.3:
        return Interval(lo, None)
    return Interval(lo, lo + F(int(rng.integers(0, 5)), int(rng.integers(1, 3))))


def _chain(rng, operand, n):
    """A left-deep ``&``/``|`` chain of ``n`` operands, each drawn by
    ``operand``; now and then an operand is itself a chain (printed in
    parentheses) or a negated one."""
    f = None
    for _ in range(n):
        r = rng.random()
        if r < 0.15 and n > 1:
            g = _chain(rng, operand, int(rng.integers(2, 4)))
        elif r < 0.25 and n > 1:
            g = Not(_chain(rng, operand, int(rng.integers(2, 4))))
        else:
            g = operand(rng)
        if f is None:
            f = g
        else:
            f = (And if rng.random() < 0.6 else Or)(f, g)
    return f


def _prop(rng):
    f = Atom(_ATOMS[rng.integers(len(_ATOMS))])
    return Not(f) if rng.random() < 0.3 else f


def _body(rng):
    return _chain(rng, _prop, int(rng.integers(1, 4)))


def _block(rng):
    """A block of the flat fragment, now and then negated; about one in
    fifteen lies outside the fragment."""
    kind = rng.integers(5)
    if rng.random() < 0.07:
        inner = Eventually(_body(rng), _interval(rng))
        return [Next(_body(rng), _interval(rng)),
                Always(inner, _interval(rng)),
                Not(Until(_body(rng), _body(rng), _interval(rng)))][rng.integers(3)]
    if kind == 0:
        f = _body(rng)
    elif kind == 1:
        f = Eventually(_body(rng), _interval(rng))
    elif kind == 2:
        f = Always(_body(rng), _interval(rng))
    else:
        f = Until(_body(rng), _body(rng), _interval(rng))
    return Not(f) if rng.random() < 0.2 else f


def _nodes(f):
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        todo += [getattr(g, k) for k in ("child", "left", "right") if hasattr(g, k)]


def _pin_corpus():
    rng = np.random.default_rng(23)
    formulas = []
    while len(formulas) < 320:
        # at most three timed blocks keep each product automaton small
        f = _chain(rng, _block, int(rng.integers(1, 4)))
        if sum(hasattr(g, "interval") for g in _nodes(f)) <= 3:
            formulas.append(f)
    formulas += [parse(t) for t in (
        default_scenario().formula_text, TINY_SCENARIO["formula"],
        "G[0,inf](!o1 & !o2) & F[30,50] m2 & F[80,110] m1",
        "!(F[1,2] a | G[0,3] !b) & (a U[1,4] b | c)",
        "a & b | c & (d | a & b) | !(c | d) & F[0,1](a & b | c)")]
    words = []
    for f in formulas:
        atoms = sorted(atoms_of(f))
        cmax = max((c for g in _nodes(f) if hasattr(g, "interval")
                    for c in (g.interval.lo, g.interval.hi) if c is not None),
                   default=F(1))
        fw = []
        for _ in range(40):
            n = int(rng.integers(1, 6))
            steps = [F(int(rng.integers(1, 5)), 2) * max(1, cmax // 4)
                     for _ in range(n - 1)]
            times = [F(0)]
            for s in steps:
                times.append(times[-1] + s)
            letters = [frozenset(a for a in atoms if rng.random() < 0.4)
                       for _ in range(n)]
            fw.append(TimedWord(tuple(letters), tuple(times)))
        words.append(fw)
    return formulas, words


def _attempt(fn, *args):
    try:
        return repr(fn(*args))
    except UnsupportedFragment as exc:
        return f"UnsupportedFragment: {exc}"


# sha256 of the formula layer's outputs on the corpus above, at the commit
# before chains were walked by loops; any change to a printed text, a
# normalised formula, an automaton or a verdict changes it
FORMULA_LAYER_DIGEST = "876e562662db0b777ca218fcaf1568b7d06ba6e00900c6b52656c16494acd3ab"


def test_formula_layer_outputs_are_pinned():
    formulas, words = _pin_corpus()
    assert len(formulas) >= 300 and all(len(w) == 40 for w in words)
    h = hashlib.sha256()
    built = 0
    for f, fw in zip(formulas, words):
        lines = [to_string(f), _attempt(_normalise, f, False),
                 _attempt(_normalise, f, True)]
        try:
            tba = build_tba(f)
        except UnsupportedFragment as exc:
            tba = None
            lines.append(f"UnsupportedFragment: {exc}")
        else:
            built += 1
            lines.append(repr((tba.locations, tba.initial, sorted(tba.accepting),
                               tba.edges, tba.constants)))
        for w in fw:
            verdict = monitor(f, w)
            if tba is not None:
                assert accepts_word(tba, w) == verdict, (to_string(f), w)
            lines.append(str(int(verdict)))
        h.update("\n".join(lines).encode() + b"\n\n")
    assert built >= 250
    assert h.hexdigest() == FORMULA_LAYER_DIGEST


def _product_edge_table(tba, location, letter):
    """The region table read off the product edges, as the automaton built
    it before it was compiled per block: the one edge that leaves
    ``location``, reads ``letter`` and covers a region gives its target."""
    hits = [[] for _ in range(2 * len(tba.constants) + 1)]
    for e in tba.edges:
        if e.source == location and (e.label is None
                                     or eval_propositional(e.label, letter)):
            for targets in hits[e.regions[0]:e.regions[1] + 1]:
                targets.append(e.target)
    assert all(len(targets) == 1 for targets in hits), (location, letter)
    return tuple(target for target, in hits)


def test_block_tables_zip_to_the_product_edge_tables():
    # every (location, letter) table reachable on the formula's atoms, the
    # zip of block tables, is the table the product edges give
    formulas, _ = _pin_corpus()
    pairs = 0
    for f in formulas:
        try:
            tba = build_tba(f)
        except UnsupportedFragment:
            continue
        atoms = sorted(atoms_of(f))
        letters = [frozenset(c) for k in range(len(atoms) + 1)
                   for c in itertools.combinations(atoms, k)]
        seen, todo = {tba.initial}, [tba.initial]
        while todo:
            location = todo.pop()
            for letter in letters:
                table = tba.table(location, letter)
                assert table == _product_edge_table(tba, location, letter), (
                    to_string(f), location, sorted(letter))
                pairs += 1
                new = set(table) - seen
                seen |= new
                todo += new
    assert pairs > 10_000


# the block locations whose verdict holds, by their own name: a co-safety
# block's done trap, a safety block's active and safe locations, and a
# propositional block's true trap
_HOLDING = {"done", "active", "safe", "true"}


def _edge_reference(f, tba):
    """The locations, accepting locations and liveness map of ``tba`` as
    read off its labelled edges: the locations the edges reach from the
    initial one, those whose block verdicts satisfy the formula's block
    combination, and the fixed point the automaton ran over its edges
    before its walk dropped their labels."""
    targets = {}
    for e in tba.edges:
        targets.setdefault(e.source, []).append(e.target)
    reached, todo = {tba.initial}, [tba.initial]
    while todo:
        new = set(targets.get(todo.pop(), ())) - reached
        reached |= new
        todo += new
    tree = _collect_blocks(_normalise(f, False), [])
    accepting = frozenset(
        location for location in reached
        if eval_propositional(tree, frozenset(
            block for block, name in (part.split(":") for part in location.split("|"))
            if name in _HOLDING)))
    top = 2 * len(tba.constants)
    sources = {}
    for e in tba.edges:
        sources.setdefault(e.target, []).append((e.source, *e.regions))
    live, todo = dict.fromkeys(accepting, top), list(accepting)
    while todo:
        target = todo.pop()
        for source, lo, hi in sources.get(target, ()):
            region = min(hi, live[target])
            if region >= lo and region > live.get(source, -1):
                live[source] = region
                todo.append(source)
    return tuple(sorted(reached)), accepting, live


def test_walk_gives_what_the_labelled_edges_give():
    # the label-free walk's locations, acceptance and liveness, on every
    # automaton of the pinned corpus, are those its labelled edges give
    formulas, _ = _pin_corpus()
    built = 0
    for f in formulas:
        try:
            tba = build_tba(f)
        except UnsupportedFragment:
            continue
        built += 1
        assert (tba.locations, tba.accepting, tba.live) == _edge_reference(f, tba), \
            to_string(f)
    assert built == 262


def test_hand_built_automaton_keeps_its_edges():
    # an automaton assembled from edges keeps them as given, in their own
    # order, and its liveness comes from the same label-free walk
    edges = (Edge("p", "q", None, (2, 2)), Edge("q", "q", None, (0, 2)),
             Edge("p", "p", None, (0, 1)))
    tba = _hand_built(edges)
    assert tba.edges == edges
    assert tba.live == {"p": 2, "q": 2}
    assert tba.successors("p", frozenset(), F(1)) == "p"
