from fractions import Fraction

import numpy as np
import pytest

from tubeplan.errors import UnsupportedFragment
from tubeplan.mitl import Interval, Not, TimedWord, Until, monitor, parse
from tubeplan.tba import Guard, accepts_word, build_tba, stutter_loop_weight

F = Fraction


def word(letters, times):
    return TimedWord(tuple(frozenset(s) for s in letters),
                     tuple(F(t) for t in times))


def test_guard_ops():
    g = Guard("<=", F(5))
    assert g.holds(F(5)) and g.holds(F(0)) and not g.holds(F(6))
    assert Guard(">", F(2)).holds(F(3))
    assert not Guard("<", F(2)).holds(F(2))


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
    # every block product must have exactly one enabled edge per input
    rng = np.random.default_rng(5)
    tba = build_tba(parse("G[0,inf] !o & F[3,5] m & (a U[1,4] b)"))
    letters = [frozenset(s for s in ("o", "m", "a", "b") if rng.random() < 0.5)
               for _ in range(40)]
    elapsed_values = [F(k, 2) for k in range(0, 14)]
    for loc in tba.locations:
        for letter in letters:
            for v in elapsed_values:
                assert len(tba.successors(loc, letter, v)) == 1


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
