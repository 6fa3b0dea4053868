"""Accepting-run search in the product of a transition system and automaton.

The automaton's one clock measures time since the start of the run (no
resets), so a product node carries one scalar: elapsed time, saturated at
one unit past the largest guard constant.  The automaton is deterministic
and complete, so a product node has exactly one successor per transition of
the system.  Saturation makes the product graph finite, so the search is a
breadth-first exploration followed by lasso detection: an accepting product
node that can reach itself.

All arithmetic on stamps and weights is exact (fractions), and every
tie is broken lexicographically, so results are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .abstraction import Wts
from .errors import InternalError, InvalidParam, SearchBudgetExceeded, Unrealizable
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


class _Product:
    def __init__(self, wts: Wts, tba: TimedAutomaton, saturation_slack):
        slack = Fraction(saturation_slack)
        if slack <= 0:
            raise InvalidParam(f"saturation slack must be > 0, got {slack}")
        self.wts = wts
        self.tba = tba
        self.cap = tba.cmax + slack

    def initial_node(self, initial_state: str) -> ProductNode:
        zero = Fraction(0)
        letter = self.wts.label_of(initial_state)
        return ProductNode(initial_state,
                           self.tba.successors(self.tba.initial, letter, zero), zero)

    def successors(self, node: ProductNode):
        """One child per transition, in the transition system's target order."""
        out = []
        for dst, weight in self.wts.successors(node.state):
            clock = min(node.clock + weight, self.cap)
            location = self.tba.successors(node.location, self.wts.label_of(dst), clock)
            out.append((ProductNode(dst, location, clock), weight))
        return out


def _bfs(product: _Product, root: ProductNode, budget: int):
    """Deterministic BFS; returns parent map, per-node (depth, duration, idx),
    and adjacency for the fully explored reachable graph."""
    parent = {root: None}
    meta = {root: (0, Fraction(0), 0)}
    adjacency = {}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        if len(meta) > budget:
            raise SearchBudgetExceeded(
                f"product exploration exceeded {budget} nodes"
            )
        succs = product.successors(node)
        adjacency[node] = succs
        depth, duration, _ = meta[node]
        for child, weight in succs:
            if child not in meta:
                meta[child] = (depth + 1, duration + weight, len(meta))
                parent[child] = node
                queue.append(child)
    return parent, meta, adjacency


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
    for child, _ in adjacency[anchor]:
        if child == anchor:
            return [anchor]
        if child not in parent:
            parent[child] = None
            queue.append(child)
    while queue:
        node = queue.popleft()
        for child, _ in adjacency.get(node, ()):
            if child == anchor:
                return _path_to(parent, node) + [anchor]
            if child not in parent:
                parent[child] = node
                queue.append(child)
    return None


def find_accepting_run(
    wts: Wts,
    tba: TimedAutomaton,
    initial_state: str = None,
    saturation_slack=1,
    budget: int = DEFAULT_BUDGET,
) -> TimedRun:
    """Search the product for a reachable accepting node lying on a cycle."""
    if initial_state is None:
        initial_state = wts.initial
    product = _Product(wts, tba, saturation_slack)
    parent, meta, adjacency = _bfs(product, product.initial_node(initial_state),
                                   budget)

    # Weights are strictly positive, so the clock rises until it saturates;
    # only saturated nodes can recur, hence only they can anchor a lasso.
    accepting = [
        n for n in meta
        if n.location in tba.accepting and n.clock == product.cap
    ]
    accepting.sort(key=lambda n: meta[n])
    for anchor in accepting:
        cycle = _shortest_cycle(adjacency, anchor)
        if cycle is not None:
            return TimedRun(tuple(_path_to(parent, anchor)), tuple(cycle))
    reachable = sorted({n.location for n in meta})
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


def plan_word(plan: Plan, wts: Wts):
    """The timed word a faithful execution of the plan produces."""
    from .mitl import TimedWord

    return TimedWord(
        tuple(wts.label_of(s) for s in plan.states),
        plan.stamps,
    )


def synthesize(wts: Wts, formula, saturation_slack=1,
               budget: int = DEFAULT_BUDGET, formula_text: str = "") -> Plan:
    """Compile the formula, search the product, and return a checked plan.

    The returned plan's induced timed word is re-checked against the formula
    with the independent semantic monitor; a disagreement is a bug, not an
    input problem, hence ``InternalError``.
    """
    from .mitl import monitor
    from .tba import build_tba

    tba = build_tba(formula)
    run = find_accepting_run(wts, tba, saturation_slack=saturation_slack,
                             budget=budget)
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
    return Plan(
        states=tuple(data["states"]),
        stamps=tuple(Fraction(t) for t in data["stamps"]),
        prefix_len=int(data["prefix_len"]),
        scenario_hash=data.get("scenario_hash", ""),
        formula_text=data.get("formula", ""),
    )


def plan_digest(plan: Plan) -> str:
    """sha256 of the plan's canonical JSON; a trace names its plan by it."""
    blob = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def save_plan(plan: Plan, path) -> None:
    with open(path, "w") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plan(path) -> Plan:
    with open(path) as fh:
        return plan_from_dict(json.load(fh))
