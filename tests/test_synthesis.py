import hashlib
import os
from bisect import bisect_right
from collections import deque
from dataclasses import replace
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from tubeplan import synthesis, tba as tba_module
from tubeplan.abstraction import load_wts, scenario_hash, wts_from_dict
from tubeplan.errors import (InternalError, InvalidParam, SearchBudgetExceeded,
                             Unrealizable)
from tubeplan.mitl import TimedWord, monitor, parse
from tubeplan.scenario import default_scenario
from tubeplan.synthesis import (
    find_accepting_run,
    load_plan,
    plan_digest,
    plan_from_dict,
    plan_to_dict,
    plan_word,
    run_to_plan,
    save_plan,
    synthesize,
)
from tubeplan.tba import Edge, TimedAutomaton, build_tba

F = Fraction


def two_state_wts(w_ab="1", w_ba="1", loops="1"):
    return wts_from_dict({
        "states": ["s0", "s1"],
        "initial": "s0",
        "labels": {"s0": [], "s1": ["p"]},
        "transitions": [
            {"source": "s0", "target": "s1", "weight": w_ab},
            {"source": "s1", "target": "s0", "weight": w_ba},
            {"source": "s0", "target": "s0", "weight": loops},
            {"source": "s1", "target": "s1", "weight": loops},
        ],
    })


def test_simple_reachability_plan():
    wts = two_state_wts()
    plan = synthesize(wts, parse("F[0,2] p"))
    # some visit to s1 must land inside the window
    witness = [t for s, t in zip(plan.states, plan.stamps) if s == "s1"]
    assert witness and min(witness) <= F(2)
    assert monitor(parse("F[0,2] p"), plan_word(plan, wts))


def test_hand_enumerated_product():
    # F[0,2] p over the two-state system: the product explored by hand has
    # one automaton clock saturating at 3, so reachable nodes are bounded
    # by |{s0,s1}| x |{wait,done}| x |{0,1,2,3}|; the lasso must anchor at
    # a saturated accepting node
    wts = two_state_wts()
    tba = build_tba(parse("F[0,2] p"))
    run = find_accepting_run(wts, tba)
    anchor = run.prefix[-1]
    assert anchor.clock == tba.cmax + 1
    assert anchor.location in tba.accepting
    assert run.cycle[-1] == anchor
    # prefix stamps: s0 at 0, s1 at 1, then loop to saturation at 3
    states = [n.state for n in run.prefix]
    assert states[0] == "s0" and "s1" in states


def test_unrealizable_when_all_weights_exceed_deadline():
    wts = two_state_wts(w_ab="3/2", w_ba="3/2", loops="3/2")
    with pytest.raises(Unrealizable) as err:
        synthesize(wts, parse("F[0,1] p"))
    assert err.value.reachable_locations


def test_unrealizable_safety_conflict():
    wts = wts_from_dict({
        "states": ["s0", "s1"],
        "initial": "s0",
        "labels": {"s0": ["p"], "s1": ["p", "bad"]},
        "transitions": [
            {"source": "s0", "target": "s1", "weight": "1"},
            {"source": "s1", "target": "s1", "weight": "1"},
        ],
    })
    # the only cycle goes through the forbidden label
    with pytest.raises(Unrealizable):
        synthesize(wts, parse("G[0,inf] !bad"))


def test_plan_stamps_are_cumulative_weights():
    wts = two_state_wts(w_ab="5/2", w_ba="2", loops="1")
    plan = synthesize(wts, parse("F[2,4] p"))
    for (src, dst, weight), a, b in zip(plan.legs(), plan.stamps,
                                        plan.stamps[1:]):
        assert b - a == weight == wts.weight_of(src, dst)


def test_plan_round_trip(tmp_path):
    wts = two_state_wts()
    plan = synthesize(wts, parse("F[0,2] p"), formula_text="F[0,2] p")
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    assert load_plan(path) == plan
    assert plan_from_dict(plan_to_dict(plan)) == plan
    # the digest survives the file and sees every field
    assert plan_digest(load_plan(path)) == plan_digest(plan)
    assert plan_digest(replace(plan, formula_text="F[0,3] p")) != plan_digest(plan)


def test_budget_exceeded():
    wts = two_state_wts()
    with pytest.raises(SearchBudgetExceeded):
        synthesize(wts, parse("F[0,100] p"), budget=5)


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_one_is_rejected(budget):
    with pytest.raises(InvalidParam, match=f"at least 1, got {budget}"):
        find_accepting_run(two_state_wts(), build_tba(parse("F[0,5] p")), budget=budget)


def test_monitor_disagreement_raises(monkeypatch):
    # the monitor re-check must survive python -O, so it cannot be an assert
    import tubeplan.mitl

    monkeypatch.setattr(tubeplan.mitl, "monitor", lambda formula, word: False)
    with pytest.raises(InternalError, match="semantic monitor"):
        synthesize(two_state_wts(), parse("F[0,2] p"))


def test_determinism():
    wts = two_state_wts(w_ab="1", w_ba="1", loops="1/2")
    a = synthesize(wts, parse("F[1,3] p & G[0,inf] p | F[0,2] p"))
    b = synthesize(wts, parse("F[1,3] p & G[0,inf] p | F[0,2] p"))
    assert a == b


def test_saturation_slack_does_not_change_verdicts():
    wts = two_state_wts(w_ab="3/2", w_ba="1", loops="1/2")
    for text in ("F[0,2] p", "F[0,1] p", "G[0,inf] !p", "p U[0,3] p"):
        tba = build_tba(parse(text))
        outcomes = []
        for slack in (1, 10, F(1, 3)):
            try:
                find_accepting_run(wts, tba, saturation_slack=slack)
                outcomes.append(True)
            except Unrealizable:
                outcomes.append(False)
        assert len(set(outcomes)) == 1, text


def _nodes(text):
    return [(state, F(clock)) for state, clock in
            (item.split("@") for item in text.split())]


@pytest.mark.parametrize("slack, prefix, cycle", [
    (1,
     "a@0 a@1/2 a@1 a@3/2 b@11/6 c@89/42 a@103/42 a@62/21 b@23/7 c@7/2",
     "a@7/2 b@7/2 c@7/2"),
    (F(1, 3),
     "a@0 a@1/2 a@1 a@3/2 b@11/6 c@89/42 a@103/42 b@39/14 c@17/6",
     "a@17/6 b@17/6 c@17/6"),
])
def test_mixed_denominators(slack, prefix, cycle):
    # weights in thirds, sevenths and halves, a guard constant of 5/2 and a
    # slack in thirds: the search counts ticks of 1/42 and the run it
    # returns carries the exact rational clocks
    wts = wts_from_dict({
        "states": ["a", "b", "c"],
        "initial": "a",
        "labels": {"b": ["p"], "c": ["q"]},
        "transitions": [
            {"source": "a", "target": "b", "weight": "1/3"},
            {"source": "a", "target": "a", "weight": "1/2"},
            {"source": "b", "target": "c", "weight": "2/7"},
            {"source": "b", "target": "a", "weight": "1/2"},
            {"source": "c", "target": "a", "weight": "1/3"},
        ],
    })
    tba = build_tba(parse("F[1,5/2] q & G[0,inf] !(p & q) & F[5/2,inf] p"))
    run = find_accepting_run(wts, tba, saturation_slack=slack)
    assert [(n.state, n.clock) for n in run.prefix] == _nodes(prefix)
    assert [(n.state, n.clock) for n in run.cycle] == _nodes(cycle)
    anchor = run.prefix[-1]
    assert type(anchor.clock) is F and anchor.clock == tba.cmax + slack


def _full_search(wts, tba):
    """The search as it was before it stopped early, kept as a reference:
    explore the whole reachable product with ``Fraction`` clocks, rank its
    accepting saturated nodes by (depth, duration, number), and return the
    first that lies on a cycle as ``(prefix, cycle)`` node lists, or raise
    ``Unrealizable`` with every reachable location."""
    cap = tba.cmax + 1  # the default saturation slack

    def successors(node):
        state, location, clock = node
        for dst, weight in wts.successors(state):
            tick = min(clock + weight, cap)
            yield (dst, tba.successors(location, wts.label_of(dst), tick),
                   tick), weight

    root = (wts.initial,
            tba.successors(tba.initial, wts.label_of(wts.initial), F(0)), F(0))
    nodes, parent, rank = [root], {root: None}, {root: (0, 0, 0)}
    for node in nodes:
        depth, duration, _ = rank[node]
        for child, weight in successors(node):
            if child not in parent:
                parent[child] = node
                rank[child] = (depth + 1, duration + weight, len(nodes))
                nodes.append(child)

    def back_to(back, node, stop):
        path = [node]
        while path[-1] != stop:
            path.append(back[path[-1]])
        return path[::-1]

    anchors = [n for n in nodes if n[2] == cap and n[1] in tba.accepting]
    for anchor in sorted(anchors, key=rank.get):
        back, queue = {}, deque([anchor])
        while queue:
            node = queue.popleft()
            for child, _ in successors(node):
                if child == anchor:
                    cycle = back_to(back, node, anchor)[1:] + [anchor]
                    return back_to(parent, anchor, root), cycle
                if child not in back:
                    back[child] = node
                    queue.append(child)
    raise Unrealizable("no accepting cycle", {n[1] for n in nodes})


def _random_system(rng):
    """1-4 states, some of them dead ends, weights in halves and thirds."""
    states = [f"s{i}" for i in range(int(rng.integers(1, 5)))]
    transitions = [
        {"source": src, "target": dst,
         "weight": f"{rng.integers(1, 7)}/{rng.choice([2, 3])}"}
        for src in states if rng.random() < 0.85
        for dst in states if rng.random() < 0.5]
    labels = {s: [a for a in "ab" if rng.random() < 0.5] for s in states}
    return wts_from_dict({"states": states, "initial": "s0",
                          "labels": labels, "transitions": transitions})


def _random_formula(rng):
    """And/Or of 1-3 G/F/U blocks over literals, half-integer constants."""
    def literal():
        return rng.choice(["a", "b", "!a", "!b"])

    def interval():
        lo = int(rng.integers(0, 7))
        hi = "inf" if rng.random() < 0.2 else F(lo + int(rng.integers(0, 5)), 2)
        return f"[{F(lo, 2)},{hi}]"

    def block():
        kind = rng.choice(["F", "G", "U"])
        if kind == "U":
            return f"({literal()} U{interval()} {literal()})"
        return f"{kind}{interval()} {literal()}"

    text = block()
    for _ in range(int(rng.integers(0, 3))):
        text += rng.choice([" & ", " | "]) + block()
    return text


def _outcome(search, wts, tba):
    try:
        prefix, cycle = search(wts, tba)
    except Unrealizable as exc:
        return "unrealizable", exc.reachable_locations
    return "run", prefix, cycle


def _early_stop(wts, tba):
    run = find_accepting_run(wts, tba)
    return ([(n.state, n.location, n.clock) for n in run.prefix],
            [(n.state, n.location, n.clock) for n in run.cycle])


def test_early_stop_matches_full_exploration():
    # stopping at the first level with an anchor returns the run that
    # exploring the whole product returns; with none, stopping when no kept
    # node is left reports some of the locations that exploration reaches
    rng = np.random.default_rng(20)
    outcomes = []
    for _ in range(300):
        wts, text = _random_system(rng), _random_formula(rng)
        tba = build_tba(parse(text))
        expected = _outcome(_full_search, wts, tba)
        outcome = _outcome(_early_stop, wts, tba)
        if expected[0] == "unrealizable":
            assert outcome[0] == "unrealizable" and outcome[1] <= expected[1], text
        else:
            assert outcome == expected, text
        outcomes.append(expected[0])
    assert 50 < outcomes.count("run") < 250


def _searched(monkeypatch, wts, tba, args=None):
    """The outcome of the search, its kept nodes, the set of nodes it
    pruned, and the locations whose arcs it fetched, which are those of the
    nodes it expanded.  The search's other arguments are appended to ``args`` if
    given."""
    bfs, searches, expanded = synthesis._bfs, [], set()

    def counted_bfs(table, *rest):
        def counted_table(location, letter):
            expanded.add(location)
            return table(location, letter)
        if args is not None:
            args.append(rest)
        searches.append(bfs(counted_table, *rest))
        return searches[-1]

    monkeypatch.setattr(synthesis, "_bfs", counted_bfs)
    outcome = _outcome(_early_stop, wts, tba)
    (nodes, found, _, _), = searches
    return outcome, nodes, found.difference(nodes), expanded


def _doomed(wts, tba):
    """The nodes of the whole reachable product, explored without pruning
    with ``Fraction`` clocks, from which no path reaches an accepting
    saturated node, so no path reaches an anchor either."""
    cap = tba.cmax + 1  # the default saturation slack
    root = (wts.initial,
            tba.successors(tba.initial, wts.label_of(wts.initial), F(0)), F(0))
    nodes, parents = [root], {root: []}
    for node in nodes:
        state, location, clock = node
        for dst, weight in wts.successors(state):
            tick = min(clock + weight, cap)
            child = (dst, tba.successors(location, wts.label_of(dst), tick), tick)
            if child not in parents:
                parents[child] = []
                nodes.append(child)
            parents[child].append(node)
    hopeful = {n for n in nodes if n[2] == cap and n[1] in tba.accepting}
    todo = list(hopeful)
    while todo:
        for node in parents[todo.pop()]:
            if node not in hopeful:
                hopeful.add(node)
                todo.append(node)
    return set(nodes) - hopeful


def _reaching(tba):
    """Liveness by location alone: the locations from which some path of
    edges, each enabled in some clock region, reaches an accepting one."""
    sources = {}
    for e in tba.edges:
        if e.regions[0] <= e.regions[1]:
            sources.setdefault(e.target, []).append(e.source)
    reaching, todo = set(tba.accepting), list(tba.accepting)
    while todo:
        for source in sources.get(todo.pop(), ()):
            if source not in reaching:
                reaching.add(source)
                todo.append(source)
    return reaching


def test_pruned_search_expands_no_dead_node(monkeypatch):
    # the cases of test_early_stop_matches_full_exploration: a search that
    # finds a run expands no location the liveness map lacks, and every
    # search keeps only nodes live at their clock region after the root and
    # prunes only nodes past their location's last live region.  No pruned
    # node reaches an anchor in the product a search without pruning
    # explores.  Liveness by location alone, which takes each location that
    # can reach an accepting one as live in every region, prunes fewer
    rng = np.random.default_rng(20)
    pruned = pruned_by_location = 0
    for _ in range(300):
        wts, text = _random_system(rng), _random_formula(rng)
        tba = build_tba(parse(text))
        args = []
        outcome, nodes, dead, expanded = _searched(monkeypatch, wts, tba, args)
        (bounds, edges, cap, root, accepting, live, budget), = args
        assert live is tba.live

        def live_here(node):
            return bisect_right(bounds, node[2]) <= live.get(node[1], -1)

        if outcome[0] == "run":
            assert expanded <= live.keys(), text
        assert all(live_here(node) for node in nodes[1:]), text
        assert not any(live_here(node) for node in dead), text
        ticks = synthesis._tick_size(wts, tba, F(1))
        doomed = _doomed(wts, tba)
        assert all((state, location, F(tick, ticks)) in doomed
                   for state, location, tick in dead), text
        pruned += len(dead)
        everywhere = dict.fromkeys(_reaching(tba), bisect_right(bounds, cap))
        kept, found, _, _ = synthesis._bfs(tba.table, bounds, edges, cap, root,
                                           accepting, everywhere, budget)
        pruned_by_location += len(found) - len(kept)
    assert pruned > pruned_by_location > 0


def test_search_from_a_violating_start_keeps_only_the_root(monkeypatch):
    # the initial state's label already breaks the safety block: the root's
    # one child is pruned, and the search stops there, reporting the two
    # locations that exploring the whole product reaches
    wts = wts_from_dict({
        "states": ["s0", "s1"],
        "initial": "s0",
        "labels": {"s0": ["bad"], "s1": ["p"]},
        "transitions": [
            {"source": "s0", "target": "s1", "weight": "1"},
            {"source": "s1", "target": "s0", "weight": "1"},
            {"source": "s1", "target": "s1", "weight": "1/2"},
        ],
    })
    tba = build_tba(parse("G[0,inf] !bad & F[1,2] p"))
    outcome, nodes, dead, _ = _searched(monkeypatch, wts, tba)
    assert nodes == [("s0", "0:reject|1:wait", 0)]
    assert outcome == _outcome(_full_search, wts, tba)
    assert outcome == ("unrealizable", {"0:reject|1:wait", "0:reject|1:done"})
    assert dead == {("s1", "0:reject|1:done", 2)}


def _walks(wts, start, most):
    """Every path of at most ``most`` edges from ``start``, as state tuples."""
    walks, frontier = [(start,)], [(start,)]
    for _ in range(most):
        frontier = [walk + (dst,) for walk in frontier for dst, _ in wts.successors(walk[-1])]
        walks += frontier
    return walks


def _horizon(formula):
    """The largest finite interval endpoint of ``formula``, 0 if none."""
    ends, todo = [F(0)], [formula]
    while todo:
        node = todo.pop()
        interval = getattr(node, "interval", None)
        if interval is not None:
            ends += [interval.lo] if interval.hi is None else [interval.lo, interval.hi]
        todo += [getattr(node, k) for k in ("child", "left", "right") if hasattr(node, k)]
    return max(ends)


def _lasso_words(wts, horizon, most=3):
    """The timed word of every lasso from the initial state, a prefix of at
    most ``most`` edges and then a cycle of 1 to ``most`` edges, with the
    cycle repeated until one whole copy of it starts after ``horizon``.
    For a flat formula whose constants are at most ``horizon``, ``monitor``
    judges that finite word as the infinite lasso: every bounded window
    closes by ``horizon``, and an unbounded block needs only the cycle's
    letters, which the last copy holds; the letter ``monitor`` holds past
    the word's end is the cycle's last."""
    for prefix in _walks(wts, wts.initial, most):
        for loop in _walks(wts, prefix[-1], most):
            if len(loop) == 1 or loop[-1] != prefix[-1]:
                continue
            states, stamps = list(prefix), [F(0)]
            for a, b in zip(prefix, prefix[1:]):
                stamps.append(stamps[-1] + wts.weight_of(a, b))
            copy_start = F(0)
            while copy_start <= horizon:
                copy_start = stamps[-1] + wts.weight_of(loop[0], loop[1])
                for a, b in zip(loop, loop[1:]):
                    states.append(b)
                    stamps.append(stamps[-1] + wts.weight_of(a, b))
            yield TimedWord(tuple(map(wts.label_of, states)), tuple(stamps))


def _oracle_verdicts(seed, pairs=300):
    """For ``pairs`` seeded (system, formula) pairs, the search's verdict,
    "yes" (``synthesize``'s plan, which it checks with ``monitor``) or "no",
    and whether ``monitor`` accepts some enumerated lasso's word."""
    rng = np.random.default_rng(seed)
    verdicts = []
    for _ in range(pairs):
        wts, text = _random_system(rng), _random_formula(rng)
        formula = parse(text)
        try:
            synthesize(wts, formula)
            verdict = "yes"
        except Unrealizable:
            verdict = "no"
        accepted = any(monitor(formula, word)
                       for word in _lasso_words(wts, _horizon(formula)))
        verdicts.append((verdict, accepted, text))
    return verdicts


@pytest.mark.parametrize("seed", [3, 4])
def test_no_enumerated_lasso_satisfies_an_unrealizable_task(seed):
    # the brute-force oracle knows neither the automaton nor the product: a
    # "no" is wrong where ``monitor`` accepts a short lasso of the system
    verdicts = _oracle_verdicts(seed)
    assert [text for verdict, accepted, text in verdicts
            if verdict == "no" and accepted] == []
    yes = [accepted for verdict, accepted, _ in verdicts if verdict == "yes"]
    assert 50 <= len(yes) <= len(verdicts) - 50
    # and it accepts a short lasso of every realizable task here
    assert all(yes)


def test_oracle_flags_a_search_that_prunes_live_nodes(monkeypatch):
    # with every location's last live region one too low, the search prunes
    # nodes that can still reach acceptance, and says "no" wrongly
    live = TimedAutomaton.live
    monkeypatch.setattr(TimedAutomaton, "live", property(
        lambda tba: {location: region - 1
                     for location, region in live.__get__(tba).items()}))
    assert any(verdict == "no" and accepted
               for verdict, accepted, _ in _oracle_verdicts(3))


def _bundled_wts(scenario):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return load_wts(os.path.join(root, "perfbench", "data", "nexus_wts.json"),
                    expected_hash=scenario_hash(scenario))


def _counted_search(monkeypatch, formula, kept=None):
    """Run the search on the bundled system; return its outcome, the number
    of product nodes it found, pruned ones included, the (location, letter)
    pairs whose region tables the automaton built, and the (block location,
    letter) pairs whose block tables it built.  The number of nodes it kept
    is appended to ``kept`` if given."""
    def counted(name):
        build, built = getattr(TimedAutomaton, name), []

        def counted_build(self, location, letter):
            built.append((location, letter))
            return build(self, location, letter)

        monkeypatch.setattr(TimedAutomaton, name, counted_build)
        return built

    built, built_blocks = counted("_product_table"), counted("_block_table")
    outcome, nodes, dead, _ = _searched(monkeypatch, _bundled_wts(default_scenario()),
                                        build_tba(formula))
    if kept is not None:
        kept.append(len(nodes))
    return outcome, len(nodes) + len(dead), built, built_blocks


def test_bundled_search_builds_each_region_table_once(monkeypatch):
    # the bundled plan anchors at depth 5: the search stops once the 421
    # nodes through that level are found, of the 16,055 reachable.  It keeps
    # 172 of them; the other 249 are never expanded: 211 sit where the
    # safety block has failed, so no accepting location follows, and 38 at
    # a clock past the last region from which a deadline can still be met.
    # It reads each edge's target from a region table that the automaton
    # builds once per (location, letter) pair, and never steps it one call
    # per edge; each region table zips block tables, each built once per
    # (block location, the letter's share of the atoms that block location
    # reads) pair
    kept = []
    outcome, found, built, blocks = _counted_search(monkeypatch,
                                                    default_scenario().formula(), kept)
    assert outcome[0] == "run" and len(outcome[1]) == 6
    assert found == 421 and kept == [172]
    assert len(built) == len(set(built)) == 21
    assert len(blocks) == len(set(blocks)) == 11


# the bundled formula, and R3 (mission2) within 10 s of the start, which no
# path from R1 reaches
UNREALIZABLE_BUNDLED = ("G[0,inf](!obs1 & !obs2 & !obs3 & !obs4) & F[30,50] mission2 & "
                        "F[80,110] mission1 & F[0,10] mission2")


def test_bundled_unrealizable_search_stops_when_its_kept_nodes_run_out(monkeypatch):
    # no anchor: the search keeps 6 of the 37 nodes it finds, and stops when
    # none is left to expand.  Exploring the whole product finds 16,055 and
    # reaches 8 locations; the search reports 2 of them
    kept = []
    outcome, found, built, blocks = _counted_search(monkeypatch,
                                                    parse(UNREALIZABLE_BUNDLED), kept)
    assert outcome == ("unrealizable", {"0:active|1:wait|2:wait|3:wait",
                                        "0:reject|1:wait|2:wait|3:wait"})
    assert outcome[1] < {f"0:{a}|1:{b}|2:{c}|3:wait" for a in ("active", "reject")
                         for b in ("done", "wait") for c in ("done", "wait")}
    assert found == 37 and kept == [6]
    assert len(built) == len(set(built)) == 5
    assert len(blocks) == len(set(blocks)) == 9


def _reachable_pairs(tba, letters):
    """Every (location, letter) pair the automaton can meet on ``letters``."""
    pairs, frontier, seen = [], [tba.initial], {tba.initial}
    while frontier:
        location = frontier.pop()
        for letter in letters:
            pairs.append((location, letter))
            for target in tba.table(location, letter):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
    return pairs


@pytest.mark.parametrize("which", ["bundled", "rational"])
def test_region_bounds_agree_with_successors(which):
    # a tick's region found by one bisect over the integer bounds picks the
    # target successors picks for the same clock value as a Fraction
    if which == "bundled":
        scenario = default_scenario()
        tba = build_tba(scenario.formula())
        letters = sorted({scenario.label_of(s) for s in scenario.regions}, key=sorted)
    else:
        tba = build_tba(parse("F[1,5/2] q & G[0,inf] !(p & q) & F[5/2,inf] p"))
        letters = [frozenset(), frozenset("p"), frozenset("q"), frozenset("pq")]
    assert tba.constants[0] == 0
    pairs = _reachable_pairs(tba, letters)
    base = lcm(*(c.denominator for c in tba.constants))
    for ticks in (base, 2 * base, 6 * base, 10 * base):
        bounds = synthesis._region_bounds(tba.constants, ticks)
        cap = int((tba.cmax + 1) * ticks)
        for location, letter in pairs:
            table = tba.table(location, letter)
            assert [table[bisect_right(bounds, t)] for t in range(cap + 1)] == [
                tba.successors(location, letter, F(t, ticks)) for t in range(cap + 1)]


BUNDLED_PLAN = ("R1 R5 R3 R5 R1 R5 R5",
                "0 281/10 214/5 115/2 428/5 1137/10 1157/10", 6)


def _golden(states, stamps, prefix_len):
    return (tuple(states.split()), tuple(F(t) for t in stamps.split()),
            prefix_len)


@pytest.mark.parametrize("which", ["bundled", "tiny", "widened"])
def test_golden_plans(which, request):
    # pinned plans: a search change that alters them alters the artifacts
    if which in ("bundled", "widened"):
        scenario = default_scenario()
        wts = _bundled_wts(scenario)
        formula = scenario.formula()
        expected = _golden(*BUNDLED_PLAN)
        if which == "widened":
            # both windows opened earlier, as the benchmark's variants are:
            # other guards, other regions, and still the fewest legs first
            formula = parse("G[0,inf] (!obs1 & !obs2 & !obs3 & !obs4) & "
                            "F[21,50] mission2 & F[70,110] mission1")
    else:
        scenario = request.getfixturevalue("tiny_scenario")
        wts = request.getfixturevalue("tiny_wts")
        formula = scenario.formula()
        expected = _golden("A B A B A B B", "0 36/5 72/5 108/5 144/5 36 37", 6)
    plan = synthesize(wts, formula)
    assert (plan.states, plan.stamps, plan.prefix_len) == expected


def test_budget_caps_the_nodes_found_before_the_search_stops():
    # the bundled plan is found among 421 nodes, pruned ones included, so a
    # budget of 421, below the 16,055 reachable nodes, still returns it, and
    # one less does not
    scenario = default_scenario()
    wts, formula = _bundled_wts(scenario), scenario.formula()
    plan = synthesize(wts, formula, budget=421)
    assert (plan.states, plan.stamps, plan.prefix_len) == _golden(*BUNDLED_PLAN)
    with pytest.raises(SearchBudgetExceeded):
        synthesize(wts, formula, budget=420)
    # an unrealizable search finds 37 nodes before its kept nodes run out,
    # the last of them from its last expansion, which the budget caps too
    formula = parse(UNREALIZABLE_BUNDLED)
    with pytest.raises(Unrealizable):
        synthesize(wts, formula, budget=37)
    with pytest.raises(SearchBudgetExceeded):
        synthesize(wts, formula, budget=36)


# sha256 of repr(build_tba(the bundled formula).edges) at the commit whose
# build_tba still built the labelled edges itself
BUNDLED_EDGES_SHA256 = "3ccef1b796d7e1acd2c2f0410d760b12fef81ae8bd71db5813e709d5b7eb9b30"


def test_search_builds_no_labelled_edge(monkeypatch):
    # building the automaton, its liveness map and a bundled synthesis make
    # no Edge; the first read of ``edges`` builds the 75 of the product once
    made = []

    def counted(*args):
        made.append(args)
        return Edge(*args)

    monkeypatch.setattr(tba_module, "Edge", counted)
    scenario = default_scenario()
    formula = scenario.formula()
    tba = build_tba(formula)
    assert len(tba.live) == 4
    plan = synthesize(_bundled_wts(scenario), formula)
    assert (plan.states, plan.stamps, plan.prefix_len) == _golden(*BUNDLED_PLAN)
    assert made == []
    edges = tba.edges
    assert len(made) == len(edges) == 75
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == BUNDLED_EDGES_SHA256
    assert tba.edges is edges and len(made) == 75
