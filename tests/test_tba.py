from fractions import Fraction

import numpy as np
import pytest

from tubeplan.errors import InternalError, UnsupportedFragment
from tubeplan.mitl import Interval, Not, TimedWord, Until, monitor, parse
from tubeplan.tba import (
    Edge,
    TimedAutomaton,
    accepts_word,
    build_tba,
    stutter_loop_weight,
)

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
    return TimedAutomaton(locations=("p", "q"), initial="p",
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


def test_or_of_blocks():
    f = parse("F[0,2] a | F[0,2] b")
    tba = build_tba(f)
    assert accepts_word(tba, word([set(), {"b"}], [0, 1]))
    assert not accepts_word(tba, word([set(), {"b"}], [0, 3]))
