"""Accepting-run search in the product of a transition system and automaton.

The automaton's one clock measures time since the start of the run (no
resets), so a product node carries one scalar: elapsed time, saturated at
the saturation slack past the largest guard constant.  The automaton is
deterministic and complete, so a product node has exactly one successor per
transition of the system.  Saturation makes the product graph finite.  The
search is breadth-first and stops at the first level holding an anchor, an
accepting saturated node that can reach itself; it looks for that cycle in
the saturated subgraph, which every successor of a saturated node is in.
A node whose clock region is past its location's last live region
(``TimedAutomaton.live``, a fixed point over the automaton's label-free
arcs: from no later region can an accepting location follow, and a
location missing from the map has none) is found but never
expanded, and neither are its successors, whose regions are no lower and
which are past their own.  No path from a pruned node reaches an anchor,
so once no kept node is left to expand the task is unrealizable, as
timed-automaton emptiness needs only the part of the region graph that can
still reach acceptance (Alur & Dill, "A theory of timed automata", TCS
1994): the search stops there and reports the locations of the nodes it
found.  The budget counts every node found, pruned or not.

The search clock counts integer ticks of 1/L, where L is the lcm of the
denominators of every weight, guard constant and the slack.  Each of them
is a whole number of ticks, so every stamp the search can reach is one too,
and counting ticks decides every guard exactly as the rationals would
(Henzinger, Manna & Pnueli, "What good are digital clocks?", ICALP 1992).
A tick's clock region is then one bisect over integer bounds, and each
(state, location) pair fetches its arcs, with the automaton's per-region
target tables (each the zip of the automaton's block tables, compiled once
per automaton), once per search: an edge is a table lookup, not a call
into the automaton.
The nodes of a returned run carry exact ``Fraction`` clocks, and the stamps
of its plan are exact sums of the ``Fraction`` weights.  Every tie is
broken lexicographically, so results are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .abstraction import Wts
from .errors import (InternalError, InvalidParam, SearchBudgetExceeded,
                     UnknownTransition, Unrealizable, ValidationError)
from .scenario import not_numbers, rational_str, read_json, write_json
from .tba import TimedAutomaton

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class ProductNode:
    state: str          # transition-system state
    location: str       # automaton location, after reading this state's label
    clock: Fraction     # saturated elapsed time


@dataclass(frozen=True)
class TimedRun:
    """Lasso in the product: ``prefix`` then ``cycle`` forever.

    ``prefix`` ends at the accepting anchor node; ``cycle`` starts with its
    first strict successor and ends back at the anchor.
    """

    prefix: tuple       # ProductNode sequence, len >= 1
    cycle: tuple        # ProductNode sequence, len >= 1, last == prefix[-1]


def _tick_size(wts: Wts, tba: TimedAutomaton, slack: Fraction) -> int:
    """L, the number of ticks per time unit: the lcm of the denominators of
    every weight, guard constant and the slack, so each is whole in ticks."""
    values = [*wts.transitions.values(), *tba.constants, slack]
    return lcm(*(v.denominator for v in values))


def _whole(value, ticks: int) -> int:
    """``value`` in ticks, for ``ticks`` a multiple of its denominator: an
    integer product, with no ``Fraction`` made."""
    return value.numerator * (ticks // value.denominator)


def _region_bounds(constants, ticks: int) -> list:
    """Bounds that find a whole tick's clock region with one bisect:
    ``bisect_right(bounds, tick)`` counts ``c`` and ``c + 1`` for every
    constant ``c`` (in ticks) at or below the tick, so it is ``2i`` in the
    gap below constant ``i`` and ``2i + 1`` on it."""
    return [b for c in constants for b in (_whole(c, ticks), _whole(c, ticks) + 1)]


def _bfs(table, bounds, edges, cap: int, root: tuple, accepting, live,
         budget: int):
    """Deterministic BFS over ``(state, location, tick)`` nodes that stops at
    the first level holding an anchor, an accepting saturated node on a
    cycle.  Returns the nodes it kept and every node it found, kept or
    pruned, then the anchor's path from the root and its cycle, or
    ``None, None`` once no kept node is left to expand.

    ``live`` maps a location to its last live clock region.  A node found
    in a higher region than its location's entry, or at a location without
    one, can reach no accepting saturated node: it is pruned, found but
    never expanded.  Regions never decrease along a path, so each of its
    successors is pruned too, and every kept node is first found from a
    kept parent, at the level and with the rank a search without pruning
    gives it, and no anchor is reachable from a pruned node.  ``budget``
    caps the nodes found, pruned ones included, from every expansion, the
    last one too.

    Kept nodes are numbered level by level, so when a level's first node is
    about to be expanded, that level's nodes and their (duration, number)
    ranks are final; trying its candidates in that order keeps the (depth,
    duration, number) order of a full exploration.  Each (state, location)
    pair's arcs ``(dst, weight, region table)`` are fetched once, so an
    edge costs a capped add, a bisect and an index."""
    nodes = [root]      # the kept nodes, which are the queue
    seen = {root}       # every node found, kept or pruned
    parent = [None]
    duration = [0]
    found = []          # accepting saturated nodes of the level being found
    level_end = 1       # number of the first node of the level being found
    arcs = {}
    top = bisect_right(bounds, cap)  # the region of every saturated tick

    def arcs_of(state, location):
        # one arc per transition, in the transition system's target order;
        # callers try ``arcs`` first, so only a dead end's [] is rebuilt
        here = arcs[state, location] = [
            (dst, weight, table(location, letter))
            for dst, weight, letter in edges[state]]
        return here

    def saturated_successors(node):  # a saturated node's successors are too
        here = arcs.get(node[:2]) or arcs_of(*node[:2])
        return [(dst, targets[top], cap) for dst, _, targets in here
                if live.get(targets[top], -1) == top]

    for idx, (state, location, clock) in enumerate(nodes):  # nodes is the queue
        if idx == level_end:
            if found:
                for n in sorted(found, key=duration.__getitem__):
                    cycle = _shortest_cycle(saturated_successors, nodes[n])
                    if cycle is not None:
                        return nodes, seen, [nodes[i] for i in _path_to(parent, n)], cycle
                found.clear()
            level_end = len(nodes)
        for dst, weight, targets in arcs.get((state, location)) or arcs_of(state, location):
            tick = clock + weight
            if tick > cap:
                tick = cap
            region = bisect_right(bounds, tick)
            child = (dst, targets[region], tick)
            if child not in seen:
                seen.add(child)
                if region > live.get(child[1], -1):
                    continue
                # weights are positive, so only saturated nodes can recur
                if tick == cap and child[1] in accepting:
                    found.append(len(nodes))
                nodes.append(child)
                parent.append(idx)
                duration.append(duration[idx] + weight)
        if len(seen) > budget:
            raise SearchBudgetExceeded(f"product exploration exceeded {budget} nodes")
    return nodes, seen, None, None


def _path_to(parent, node):
    path = [node]
    while parent[node] is not None:
        node = parent[node]
        path.append(node)
    return list(reversed(path))


def _shortest_cycle(successors, anchor):
    """Shortest (by edges, then successor order) path anchor -> anchor."""
    parent = {}
    queue = deque()
    for child in successors(anchor):
        if child == anchor:
            return [anchor]
        if child not in parent:
            parent[child] = None
            queue.append(child)
    while queue:
        node = queue.popleft()
        for child in successors(node):
            if child == anchor:
                return _path_to(parent, node) + [anchor]
            if child not in parent:
                parent[child] = node
                queue.append(child)
    return None


def find_accepting_run(
    wts: Wts,
    tba: TimedAutomaton,
    saturation_slack=1,
    budget: int = DEFAULT_BUDGET,
) -> TimedRun:
    """Search the product, from the system's initial state, for a reachable
    accepting node lying on a cycle."""
    slack = Fraction(saturation_slack)
    if slack <= 0:
        raise InvalidParam(f"saturation slack must be > 0, got {slack}")
    if budget < 1:
        raise InvalidParam(f"search budget must be at least 1, got {budget}")
    ticks = _tick_size(wts, tba, slack)
    bounds = _region_bounds(tba.constants, ticks)
    cap = _whole(tba.cmax + slack, ticks)
    edges = {s: [(dst, _whole(w, ticks), wts.label_of(dst))
                 for dst, w in wts.successors(s)] for s in wts.states}
    if wts.initial not in edges:
        raise UnknownTransition(f"unknown state {wts.initial!r}")
    start = tba.table(tba.initial, wts.label_of(wts.initial))
    root = (wts.initial, start[bisect_right(bounds, 0)], 0)
    _, seen, prefix, cycle = _bfs(tba.table, bounds, edges, cap, root,
                                  tba.accepting, tba.live, budget)
    if cycle is not None:
        def run_nodes(path):
            return tuple(ProductNode(state, location, Fraction(tick, ticks))
                         for state, location, tick in path)
        return TimedRun(run_nodes(prefix), run_nodes(cycle))
    raise Unrealizable("no accepting cycle is reachable in the product",
                       {location for _, location, _ in seen})


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plan:
    """Finite executable schedule: region sequence with exact stamps.

    ``stamps[0] == 0`` is the start; leg ``i`` runs from ``states[i]`` to
    ``states[i+1]`` and must complete at ``stamps[i+1]``.  The first
    ``prefix_len`` states are the lasso prefix; the rest is one cycle.
    """

    states: tuple
    stamps: tuple
    prefix_len: int
    scenario_hash: str = ""
    formula_text: str = ""

    def legs(self):
        return [
            (self.states[i], self.states[i + 1],
             self.stamps[i + 1] - self.stamps[i])
            for i in range(len(self.states) - 1)
        ]


def run_to_plan(run: TimedRun, wts: Wts, scenario_hash: str = "",
                formula_text: str = "") -> Plan:
    """Unroll a lasso into a finite plan: the prefix plus one cycle."""
    nodes = list(run.prefix) + list(run.cycle)
    states = tuple(n.state for n in nodes)
    stamps = [Fraction(0)]
    for a, b in zip(states, states[1:]):
        stamps.append(stamps[-1] + wts.weight_of(a, b))
    return Plan(states, tuple(stamps), len(run.prefix), scenario_hash,
                formula_text)


def plan_word(plan: Plan, wts):
    """The timed word a faithful execution of the plan produces.  ``wts``
    is anything with ``label_of``: a ``Wts`` or a ``Scenario``."""
    from .mitl import TimedWord

    return TimedWord(
        tuple(wts.label_of(s) for s in plan.states),
        plan.stamps,
    )


def synthesize(wts: Wts, formula, budget: int = DEFAULT_BUDGET,
               formula_text: str = "") -> Plan:
    """Compile the formula, search the product, and return a checked plan.

    The returned plan's induced timed word is re-checked against the formula
    with the independent semantic monitor; a disagreement is a bug, not an
    input problem, hence ``InternalError``.
    """
    from .mitl import monitor
    from .tba import build_tba

    tba = build_tba(formula)
    run = find_accepting_run(wts, tba, budget=budget)
    plan = run_to_plan(run, wts, wts.scenario_hash, formula_text)
    if not monitor(formula, plan_word(plan, wts)):
        raise InternalError("synthesized plan fails the semantic monitor")
    return plan


def plan_to_dict(plan: Plan) -> dict:
    return {
        "states": list(plan.states),
        "stamps": [rational_str(t) for t in plan.stamps],
        "prefix_len": plan.prefix_len,
        "scenario_hash": plan.scenario_hash,
        "formula": plan.formula_text,
    }


def plan_from_dict(data: dict) -> Plan:
    """Inverse of ``plan_to_dict``.  Data that is not a plan raises
    ``ValidationError``: a missing key, states or stamps that are not a
    list, a state that is not a string, a stamp that is not a finite
    rational (a bool is none), a stamp count other than the state count, a
    first stamp other than 0, stamps that do not strictly increase, or a
    ``prefix_len`` that is not an integer in 1..len(states)."""
    try:
        plan = Plan(
            states=tuple(data["states"]),
            stamps=tuple(Fraction(t) for t in data["stamps"]),
            prefix_len=data["prefix_len"],
            scenario_hash=data.get("scenario_hash", ""),
            formula_text=data.get("formula", ""),
        )
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError,
            OverflowError) as exc:
        raise ValidationError([f"data is not a plan: {exc!r}"]) from exc
    stamps, count = plan.stamps, len(plan.states)
    problems = [f"field {key!r} must be a list, got {data[key]!r}"
                for key in ("states", "stamps") if not isinstance(data[key], list)]
    problems += [f"field {path!r} must be a finite number, got {value}"
                 for path, value in not_numbers(data["stamps"], "stamps")]
    problems += [f"state {s!r} is not a string" for s in plan.states if not isinstance(s, str)]
    if len(stamps) != count:
        problems.append(f"{len(stamps)} stamps for {count} states")
    if stamps and stamps[0] != 0:
        problems.append(f"first stamp is {stamps[0]}, not 0")
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        problems.append("stamps do not strictly increase")
    if type(plan.prefix_len) is not int:
        problems.append(f"field 'prefix_len' must be an integer, got {plan.prefix_len!r}")
    elif not 1 <= plan.prefix_len <= count:
        problems.append(f"prefix_len {plan.prefix_len} is outside 1..{count}")
    if problems:
        raise ValidationError(problems)
    return plan


def plan_digest(plan: Plan) -> str:
    """sha256 of the plan's canonical JSON; a trace names its plan by it."""
    blob = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def save_plan(plan: Plan, path) -> None:
    write_json(path, plan_to_dict(plan))


def load_plan(path) -> Plan:
    """Read a plan saved by ``save_plan``; a file that is not UTF-8 JSON or
    not a plan raises ``ValidationError``, which names the file."""
    return read_json(path, plan_from_dict)
