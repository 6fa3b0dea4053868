import dataclasses
import string
from fractions import Fraction

import numpy as np
import pytest

from tubeplan.errors import InvalidParam, MitlSyntaxError
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
    is_propositional,
    monitor,
    parse,
    to_string,
)
from tubeplan.scenario import default_scenario

from conftest import TINY_SCENARIO

F = Fraction


def word(letters, times):
    return TimedWord(tuple(frozenset(s) for s in letters),
                     tuple(F(t) for t in times))


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def test_interval_membership():
    iv = Interval(F(2), F(5))
    assert iv.contains(F(2)) and iv.contains(F(5)) and iv.contains(F(3))
    assert not iv.contains(F(1)) and not iv.contains(F(6))
    unb = Interval(F(3), None)
    assert unb.contains(F(1000))
    assert not unb.contains(F(2))


def test_interval_validation():
    with pytest.raises(InvalidParam):
        Interval(F(5), F(2))
    with pytest.raises(InvalidParam):
        Interval(F(-1), F(2))
    # singular point interval is fine when both ends are closed
    assert Interval(F(3), F(3)).contains(F(3))


# ---------------------------------------------------------------------------
# parser / printer
# ---------------------------------------------------------------------------

def test_parse_mission_formula_structure():
    f = parse("G[0,inf](!obs1 & !obs2) & F[30,50] mission2 & F[80,110] mission1")
    assert isinstance(f, And)
    assert isinstance(f.left, And)
    g = f.left.left
    assert isinstance(g, Always)
    assert g.interval.hi is None
    ev = f.right
    assert isinstance(ev, Eventually)
    assert ev.interval.lo == F(80) and ev.interval.hi == F(110)
    assert atoms_of(f) == frozenset({"obs1", "obs2", "mission1", "mission2"})


def test_parse_rational_and_decimal_bounds():
    f = parse("F[1/3,5.25] a")
    assert f.interval.lo == F(1, 3)
    assert f.interval.hi == F(21, 4)


def test_parse_until_right_associative():
    f = parse("a U[0,2] b U[1,3] c")
    assert isinstance(f, Until)
    assert isinstance(f.right, Until)
    assert f.interval.lo == F(0)


def test_parse_precedence():
    f = parse("a & b | c")
    assert isinstance(f, Or)
    assert isinstance(f.left, And)
    f2 = parse("!a & b")
    assert isinstance(f2, And)
    assert isinstance(f2.left, Not)


def test_parse_errors_carry_position():
    with pytest.raises(MitlSyntaxError) as err:
        parse("F[1,2] (a &")
    assert err.value.position >= 10
    with pytest.raises(MitlSyntaxError):
        parse("F[5,1] a")
    with pytest.raises(MitlSyntaxError):
        parse("a ? b")


@pytest.mark.parametrize("text, expected", [
    # a zero denominator, or a digit that is not a decimal one, is a syntax
    # error at its position; ``Fraction`` never sees it
    ("F[1/0,3] a", 2),
    ("F[0,2/0] a", 4),
    ("F[\u00b2,3] a", 2),
    ("F[1\u00b2,3] a", 3),
    ("F[1.,21/4] a", Interval(F(1), F(21, 4))),
    ("F[\u0663/\u0664,2] a", Interval(F(3, 4), F(2))),
    ("F[1/3,inf] a", Interval(F(1, 3), None)),
    ("a\u00b2", Atom("a\u00b2")),
], ids=["zero-lo", "zero-hi", "superscript", "digit-superscript", "trailing-dot",
        "arabic-indic", "inf", "superscript-in-atom"])
def test_number_tokens(text, expected):
    if isinstance(expected, int):
        with pytest.raises(MitlSyntaxError) as err:
            parse(text)
        assert err.value.position == expected
    elif isinstance(expected, Interval):
        assert parse(text) == Eventually(Atom("a"), expected)
    else:
        assert parse(text) == expected


def _random_formula(rng, depth):
    atoms = ["p", "q", "r"]
    if depth == 0 or rng.random() < 0.25:
        return Atom(atoms[rng.integers(len(atoms))])
    lo = F(int(rng.integers(0, 5)), int(rng.integers(1, 4)))
    hi = None if rng.random() < 0.3 else lo + F(int(rng.integers(1, 6)),
                                                int(rng.integers(1, 4)))
    iv = Interval(lo, hi)
    kind = rng.integers(7)
    if kind == 0:
        return Not(_random_formula(rng, depth - 1))
    if kind == 1:
        return And(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if kind == 2:
        return Or(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if kind == 3:
        return Next(_random_formula(rng, depth - 1), iv)
    if kind == 4:
        return Eventually(_random_formula(rng, depth - 1), iv)
    if kind == 5:
        return Always(_random_formula(rng, depth - 1), iv)
    return Until(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1), iv)


def test_print_parse_round_trip_200():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        f = _random_formula(rng, depth=4)
        assert parse(to_string(f)) == f


def test_parser_totality_fuzz():
    # arbitrary text either parses or raises the parser's own error type
    rng = np.random.default_rng(99)
    alphabet = string.ascii_lowercase + "[](),&|!0123456789./ UFGX"
    for _ in range(500):
        n = int(rng.integers(1, 30))
        text = "".join(alphabet[i] for i in rng.integers(len(alphabet), size=n))
        try:
            f = parse(text)
        except MitlSyntaxError:
            continue
        assert parse(to_string(f)) == f


def _recursive_to_string(f):
    """The canonical rendering by one call per node, the plain recursive
    form that ``to_string`` must match byte for byte."""
    def wrap(g):
        text = _recursive_to_string(g)
        return text if text.startswith("(") or isinstance(g, Atom) else f"({text})"

    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + wrap(f.child)
    if isinstance(f, (And, Or)):
        op = "&" if isinstance(f, And) else "|"
        return f"({_recursive_to_string(f.left)} {op} {_recursive_to_string(f.right)})"
    if isinstance(f, Until):
        return f"({wrap(f.left)} U{f.interval} {wrap(f.right)})"
    sym = {Next: "X", Eventually: "F", Always: "G"}[type(f)]
    return f"{sym}{f.interval}{wrap(f.child)}"


def _recursive_atoms(f):
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, (And, Or, Until)):
        return _recursive_atoms(f.left) | _recursive_atoms(f.right)
    return _recursive_atoms(f.child)


def test_chain_loop_prints_the_recursive_text():
    rng = np.random.default_rng(2024)
    formulas = [_random_formula(rng, depth=d) for d in (4, 6) for _ in range(200)]
    texts = [default_scenario().formula_text, TINY_SCENARIO["formula"],
             "G[0,inf](!obs1 & !obs2) & F[30,50] mission2 & F[80,110] mission1",
             "a U[0,2] b U[1,3] c", "a & b | c", "!a & b", "F[1/3,5.25] a",
             "a & b | c & (d | e & f) | !(g | h) & F[0,1](p & q | r) & s",
             "(a | b) & (c | d) & (e U[0,1] f | g) & G[2,inf] h"]
    ops = rng.integers(2, size=60)
    texts.append("".join(f"p{i} {'&|'[o]} " for i, o in enumerate(ops)) + "q")
    formulas += [parse(t) for t in texts]
    for f in formulas:
        assert to_string(f) == _recursive_to_string(f)
        assert atoms_of(f) == _recursive_atoms(f)


# ---------------------------------------------------------------------------
# propositional helpers
# ---------------------------------------------------------------------------

def test_is_propositional_and_eval():
    assert is_propositional(parse("a & !b | c"))
    assert not is_propositional(parse("F[0,1] a"))
    f = parse("a & !b")
    assert eval_propositional(f, frozenset({"a"}))
    assert not eval_propositional(f, frozenset({"a", "b"}))


# 5,000-operand chains: a walk that recursed once per operand would raise
# RecursionError under the default recursion limit
LONG_AND = " & ".join(f"!p{i}" for i in range(5000))
LONG_OR = " | ".join(f"p{i}" for i in range(5000))


@pytest.mark.parametrize("text, holds_on_empty", [
    (LONG_AND, True), (LONG_OR, False), (f"!({LONG_OR})", True),
], ids=["and", "or", "not"])
def test_long_chain_is_propositional_and_evaluates(text, holds_on_empty):
    f = parse(text)
    assert is_propositional(f)
    assert eval_propositional(f, frozenset()) == holds_on_empty
    for atom in ("p0", "p2500", "p4999"):
        assert eval_propositional(f, frozenset({atom, "q"})) != holds_on_empty
    # the timed operand sits at the bottom, after every other one is read
    assert not is_propositional(parse(f"F[0,1] q & {text}"))
    assert not is_propositional(parse(f"({LONG_AND}) U[0,1] q"))


def _dataclass_repr(f):
    """The repr text a dataclass generates, by one call per node."""
    if not dataclasses.is_dataclass(f):
        return repr(f)
    fields = ", ".join(f"{field.name}={_dataclass_repr(getattr(f, field.name))}"
                       for field in dataclasses.fields(f))
    return f"{type(f).__qualname__}({fields})"


def _dataclass_eq(f, g):
    """The equality a dataclass generates, by one call per node."""
    if not dataclasses.is_dataclass(f):
        return f == g
    return type(f) is type(g) and all(
        _dataclass_eq(getattr(f, field.name), getattr(g, field.name))
        for field in dataclasses.fields(f))


def test_chain_equality_hash_and_repr_are_the_dataclass_ones():
    rng = np.random.default_rng(2025)
    formulas = [_random_formula(rng, depth=d) for d in (3, 5) for _ in range(150)]
    near = [parse(t) for t in ("a & b | c", "a | b & c", "(a & b) & c", "a & (b & c)",
                               "(a | b) & c", "a & b & !c", "a & b", "a | b", "a")]
    for f in formulas + near:
        assert repr(f) == _dataclass_repr(f)
        copy = parse(to_string(f))  # equal, and sharing no node with f
        assert copy == f and hash(copy) == hash(f)
    pairs = [(f, g) for f in near for g in near]
    pairs += list(zip(formulas, formulas[1:]))
    for f, g in pairs:
        assert (f == g) == _dataclass_eq(f, g), (f, g)


@pytest.mark.parametrize("text", [LONG_AND, LONG_OR], ids=["and", "or"])
def test_long_chain_compares_hashes_and_prints(text):
    f, g = parse(text), parse(text)
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    op = " & " if text is LONG_AND else " | "
    # differing only at the bottom of the spine: an operand, then an operator
    assert f != parse(text.replace("p0" + op, "q" + op, 1))
    other = " | " if op == " & " else " & "
    assert f != parse("(" + text.replace(op, other, 1).replace(op, ")" + op, 1))
    name = "And" if op == " & " else "Or"
    operand = "Not(child=Atom(name='p{}'))" if op == " & " else "Atom(name='p{}')"
    assert repr(f) == (f"{name}(left=" * 4999 + operand.format(0) + "".join(
        f", right={operand.format(i)})" for i in range(1, 5000)))


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

def test_mission_schedule_word():
    # a region tour whose stamps respect both mission windows and never
    # touches an obstacle label
    f = parse("G[0,inf](!obs1 & !obs2 & !obs3 & !obs4)"
              " & F[30,50] mission2 & F[80,110] mission1")
    w = word(
        [{"mission1"}, set(), {"mission2"}, set(), set(), {"mission1"}],
        ["0", "173/10", "187/5", "278/5", "741/10", "449/5"],
    )
    assert monitor(f, w)
    # shifting the second visit past the window must fail
    late = word(
        [{"mission1"}, set(), {"mission2"}, set(), set(), {"mission1"}],
        ["0", "173/10", "187/5", "278/5", "741/10", "111"],
    )
    assert not monitor(f, late)


def test_monitor_eventually_window():
    f = parse("F[2,4] a")
    assert monitor(f, word([set(), {"a"}], [0, 3]))
    assert not monitor(f, word([set(), {"a"}], [0, 5]))
    # stuttered final letter can supply the witness strictly after the end
    assert monitor(f, word([set(), {"a"}], [0, 1]))
    assert not monitor(f, word([{"a"}, set()], [0, 1]))


def test_monitor_always_window():
    f = parse("G[1,3] a")
    assert monitor(f, word([set(), {"a"}, {"a"}], [0, 1, 3]))
    assert not monitor(f, word([set(), {"a"}, set()], [0, 1, 3]))
    # held letter must satisfy the body through the rest of the window
    assert monitor(f, word([set(), {"a"}], [0, 1]))
    assert not monitor(f, word([{"a"}, set()], [0, 2]))


def test_monitor_until_semantics():
    f = parse("a U[0,5] b")
    assert monitor(f, word([{"a"}, {"a"}, {"b"}], [0, 1, 2]))
    assert not monitor(f, word([{"a"}, set(), {"b"}], [0, 1, 2]))
    # witness position itself need not satisfy the left operand
    assert monitor(f, word([{"a"}, {"b"}], [0, 1]))
    # lower bound excludes an early witness
    g = parse("a U[2,5] b")
    assert not monitor(g, word([{"a"}, {"b"}, set()], [0, 1, 6]))


def test_monitor_negation_coherence():
    rng = np.random.default_rng(31)
    for _ in range(300):
        f = _random_formula(rng, depth=3)
        n = int(rng.integers(1, 5))
        times = [F(0)]
        for _ in range(n - 1):
            times.append(times[-1] + F(int(rng.integers(1, 7)), 2))
        letters = [set(a for a in "pqr" if rng.random() < 0.5) for _ in range(n)]
        w = word(letters, times)
        assert monitor(Not(f), w) == (not monitor(f, w))


def test_monitor_window_widening_is_monotone():
    # enlarging an eventually window can only help
    rng = np.random.default_rng(17)
    for _ in range(200):
        lo = F(int(rng.integers(0, 4)))
        hi = lo + F(int(rng.integers(0, 5)))
        inner = Eventually(Atom("p"), Interval(lo, hi))
        outer = Eventually(Atom("p"), Interval(lo, hi + 2))
        n = int(rng.integers(1, 5))
        times = [F(0)]
        for _ in range(n - 1):
            times.append(times[-1] + F(int(rng.integers(1, 7)), 2))
        letters = [set(a for a in "pq" if rng.random() < 0.5) for _ in range(n)]
        w = word(letters, times)
        if monitor(inner, w):
            assert monitor(outer, w)


def test_timed_word_validation():
    with pytest.raises(InvalidParam):
        TimedWord((frozenset(),), (F(1),))            # must start at 0
    with pytest.raises(InvalidParam):
        TimedWord((frozenset(), frozenset()), (F(0), F(0)))
    with pytest.raises(InvalidParam):
        TimedWord((), ())


def test_timed_word_keeps_fraction_stamps():
    # Fraction stamps are kept as the same objects; other numbers convert
    stamps = (F(0), F(1, 2), F(7, 3))
    w = TimedWord((frozenset(),) * 3, stamps)
    assert all(a is b for a, b in zip(w.times, stamps))
    w = TimedWord((frozenset(),) * 3, (0, "1/2", 3))
    assert w.times == (F(0), F(1, 2), F(3)) and all(type(t) is F for t in w.times)
    for n, times, message in ((2, (F(1), F(2)), "first stamp"),
                              (2, (F(0), F(0)), "strictly increasing"),
                              (3, (0, "1/2", "1/2"), "strictly increasing"),
                              (2, (F(0),), "equally many")):
        with pytest.raises(InvalidParam, match=message):
            TimedWord((frozenset(),) * n, times)
