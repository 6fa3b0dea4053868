"""Accepting-run search in the product of a transition system and automaton.

The automaton's one clock measures time since the start of the run (no
resets), so a product node carries one scalar: elapsed time, saturated at
the saturation slack past the largest guard constant.  The automaton is
deterministic and complete, so a product node has exactly one successor per
transition of the system.  Saturation makes the product graph finite, so
the search is a breadth-first exploration followed by lasso detection: an
accepting product node that can reach itself.

The search clock counts integer ticks of 1/L, where L is the lcm of the
denominators of every weight, guard constant and the slack.  Each of them
is a whole number of ticks, so every stamp the search can reach is one too,
and counting ticks decides every guard exactly as the rationals would
(Henzinger, Manna & Pnueli, "What good are digital clocks?", ICALP 1992).
The nodes of a returned run carry exact ``Fraction`` clocks, and the stamps
of its plan are exact sums of the ``Fraction`` weights.  Every tie is
broken lexicographically, so results are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .abstraction import Wts
from .errors import (InternalError, InvalidParam, SearchBudgetExceeded,
                     UnknownTransition, Unrealizable, ValidationError)
from .scenario import rational_str
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


def _bfs(step, edges, cap: int, root: tuple, budget: int):
    """Deterministic BFS over ``(state, location, tick)`` nodes, numbered in
    the order found.  Returns the nodes, then per node number its parent's
    number, its (depth, duration, number) rank and its children's numbers,
    over the fully explored reachable graph."""
    nodes = [root]
    number = {root: 0}
    parent = [None]
    rank = [(0, 0, 0)]
    children = []
    for idx, (state, location, clock) in enumerate(nodes):  # nodes is the queue
        if len(nodes) > budget:
            raise SearchBudgetExceeded(
                f"product exploration exceeded {budget} nodes"
            )
        depth, duration, _ = rank[idx]
        out = []
        # one child per transition, in the transition system's target order
        for dst, weight, letter in edges[state]:
            tick = min(clock + weight, cap)
            child = (dst, step(location, letter, tick), tick)
            n = number.get(child)
            if n is None:
                n = number[child] = len(nodes)
                nodes.append(child)
                parent.append(idx)
                rank.append((depth + 1, duration + weight, n))
            out.append(n)
        children.append(out)
    return nodes, parent, rank, children


def _path_to(parent, node):
    path = [node]
    while parent[node] is not None:
        node = parent[node]
        path.append(node)
    return list(reversed(path))


def _shortest_cycle(adjacency, anchor):
    """Shortest (by edges, then successor order) path anchor -> anchor."""
    parent = {}
    queue = deque()
    for child in adjacency[anchor]:
        if child == anchor:
            return [anchor]
        if child not in parent:
            parent[child] = None
            queue.append(child)
    while queue:
        node = queue.popleft()
        for child in adjacency[node]:
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
    ticks = _tick_size(wts, tba, slack)
    # regions do not depend on the unit, so the copy shares the tables
    step = replace(tba, constants=tuple(int(c * ticks) for c in tba.constants)
                   ).successors
    cap = int((tba.cmax + slack) * ticks)
    edges = {s: [(dst, int(w * ticks), wts.label_of(dst))
                 for dst, w in wts.successors(s)] for s in wts.states}
    if wts.initial not in edges:
        raise UnknownTransition(f"unknown state {wts.initial!r}")
    root = (wts.initial, step(tba.initial, wts.label_of(wts.initial), 0), 0)
    nodes, parent, rank, children = _bfs(step, edges, cap, root, budget)

    # Weights are strictly positive, so the clock rises until it saturates;
    # only saturated nodes can recur, hence only they can anchor a lasso.
    anchors = sorted((i for i, (_, location, tick) in enumerate(nodes)
                      if location in tba.accepting and tick == cap),
                     key=rank.__getitem__)
    for anchor in anchors:
        cycle = _shortest_cycle(children, anchor)
        if cycle is not None:
            def run_nodes(path):
                return tuple(ProductNode(state, location, Fraction(tick, ticks))
                             for state, location, tick in map(nodes.__getitem__, path))
            return TimedRun(run_nodes(_path_to(parent, anchor)), run_nodes(cycle))
    reachable = sorted({location for _, location, _ in nodes})
    raise Unrealizable(
        "no accepting cycle is reachable in the product", reachable
    )


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
    ``ValidationError``: a missing key, a stamp that is not a finite
    rational, a stamp count other than the state count, a first stamp other
    than 0, stamps that do not strictly increase, or a ``prefix_len``
    outside 1..len(states)."""
    try:
        plan = Plan(
            states=tuple(data["states"]),
            stamps=tuple(Fraction(t) for t in data["stamps"]),
            prefix_len=int(data["prefix_len"]),
            scenario_hash=data.get("scenario_hash", ""),
            formula_text=data.get("formula", ""),
        )
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError,
            OverflowError) as exc:
        raise ValidationError([f"data is not a plan: {exc!r}"]) from exc
    stamps, count = plan.stamps, len(plan.states)
    problems = []
    if len(stamps) != count:
        problems.append(f"{len(stamps)} stamps for {count} states")
    if stamps and stamps[0] != 0:
        problems.append(f"first stamp is {stamps[0]}, not 0")
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        problems.append("stamps do not strictly increase")
    if not 1 <= plan.prefix_len <= count:
        problems.append(f"prefix_len {plan.prefix_len} is outside 1..{count}")
    if problems:
        raise ValidationError(problems)
    return plan


def plan_digest(plan: Plan) -> str:
    """sha256 of the plan's canonical JSON; a trace names its plan by it."""
    blob = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def save_plan(plan: Plan, path) -> None:
    with open(path, "w") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plan(path) -> Plan:
    """Read a plan saved by ``save_plan``; a file that is not UTF-8 JSON or
    not a plan raises ``ValidationError``, which names the file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValidationError([f"{path} is not JSON: {exc}"]) from exc
    try:
        return plan_from_dict(data)
    except ValidationError as exc:
        raise ValidationError([f"{path}: {p}" for p in exc.problems]) from exc
