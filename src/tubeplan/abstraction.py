"""Weighted transition system abstraction of the navigation layer.

States are the labelled regions of interest.  A transition ``(i, j)`` exists
when the tube controller's nominal, run from the center of region ``i``,
reaches region ``j`` (stop test plus a settle hold) without leaving the
leg's free space.  Its weight is the exact duration of that run
in sampling steps times the step length — settle hold included — so the
discrete timed runs over this system predict the stamps the executor will
reproduce, and a weight divided by the step is the executor's step count.
The system also keeps each transition's nominal inputs, so that execution
can replay the nominal from the source's center without solving again.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .controller import navigate
from .errors import AbstractionError, NoTransition, UnknownTransition, ValidationError
from .scenario import Scenario, not_numbers, rational_str, read_json, write_json

LEG_TIMEOUT = 90          # seconds


@dataclass(frozen=True)
class Wts:
    states: tuple
    initial: str
    labels: dict                        # state -> frozenset of propositions
    transitions: dict                   # (src, dst) -> Fraction weight
    scenario_hash: str = ""
    # (src, dst) -> the held nominal inputs of the transition's run from the
    # source's center, one row of n per sampling step, landing included
    held: dict = field(default_factory=dict, repr=False, compare=False)
    _succ: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        succ = {s: [] for s in self.states}
        for (src, dst), weight in sorted(self.transitions.items()):
            if weight <= 0:
                raise AbstractionError(
                    f"transition {src!r} -> {dst!r} has nonpositive weight"
                )
            succ[src].append((dst, weight))
        object.__setattr__(self, "_succ", succ)

    def successors(self, state: str):
        if state not in self._succ:
            raise UnknownTransition(f"unknown state {state!r}")
        return self._succ[state]

    def weight_of(self, src: str, dst: str) -> Fraction:
        if src not in self._succ or dst not in self._succ:
            raise UnknownTransition(f"unknown state in ({src!r}, {dst!r})")
        try:
            return self.transitions[(src, dst)]
        except KeyError:
            raise NoTransition(f"no transition {src!r} -> {dst!r}") from None

    def label_of(self, state: str) -> frozenset:
        return self.labels.get(state, frozenset())


def scenario_hash(scenario: Scenario) -> str:
    """Digest of every scenario field the abstraction depends on.

    The formula is deliberately excluded: the same workspace and controller
    tuning yield the same transition system whatever the task.
    """
    payload = {
        "model": scenario.model_name,
        "state_dim": scenario.state_dim,
        "workspace": [scenario.workspace.lower.tolist(),
                      scenario.workspace.upper.tolist()],
        "robot_radius": scenario.robot_radius,
        "regions": {
            name: [ball.center.tolist(), ball.radius]
            for name, ball in sorted(scenario.regions.items())
        },
        "disturbance_bound": scenario.disturbance_bound,
        "sigma_margin": scenario.sigma_margin,
        "lipschitz": scenario.lipschitz,
        "gain_floor": scenario.gain_floor,
        "input": [scenario.input_kind, scenario.input_bound],
        "fhocp": [rational_str(scenario.horizon), rational_str(scenario.step),
                  scenario.state_weight, scenario.terminal_weight,
                  scenario.input_weight, scenario.terminal_level],
        "settle_time": rational_str(scenario.settle_time),
        "sim_dt": scenario.sim_dt,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_wts(scenario: Scenario) -> Wts:
    """Run the nominal of every center-to-region leg and keep the ones that
    arrive with no nominal position outside the leg's free space.  All legs
    run in one ``navigate`` call, in step, with one batch of shooting
    problems per sampling step.

    Self-loops are included (arrive immediately, hold for the settle time),
    so plans can wait at a region in settle-time quanta.  Each kept
    transition keeps its nominal's held inputs (``Nominal.held``), which
    ``harness.execute_plan`` hands back to ``navigate`` to replay the
    nominal with no shooting problem.
    """
    model = scenario.model()
    tube = scenario.tube_params()
    fhocp = scenario.fhocp_params()
    input_set = scenario.input_set()
    settle = scenario.settle_steps
    max_steps = round(LEG_TIMEOUT / scenario.step)

    names = tuple(sorted(scenario.regions))
    pairs = [(src, dst, scenario.state_constraints_for(src, dst))
             for src in names for dst in names]
    nominals = navigate(
        [(model.embed_position(scenario.regions[src].center), scenario.regions[dst], free)
         for src, dst, free in pairs],
        model, input_set, tube, fhocp, max_steps, settle_steps=settle, sim_dt=scenario.sim_dt)
    transitions, held = {}, {}
    for (src, dst, free), nominal in zip(pairs, nominals):
        if not nominal.arrived:
            if src == dst:
                raise AbstractionError(
                    f"self-loop at {src!r} failed ({nominal.status}); "
                    "the settle hold cannot be realised"
                )
            continue
        if any(free.count_violations(nominal.states[:, :2])):
            continue
        transitions[(src, dst)] = (nominal.arrival_steps + settle) * scenario.step
        held[(src, dst)] = nominal.held

    labels = {name: scenario.label_of(name) for name in names}
    return Wts(
        states=names,
        initial=scenario.initial_region,
        labels=labels,
        transitions=transitions,
        scenario_hash=scenario_hash(scenario),
        held=held,
    )


def wts_to_dict(wts: Wts) -> dict:
    out = {
        "states": list(wts.states),
        "initial": wts.initial,
        "labels": {s: sorted(wts.labels.get(s, ())) for s in wts.states},
        "scenario_hash": wts.scenario_hash,
        "transitions": [],
    }
    for (src, dst), weight in sorted(wts.transitions.items()):
        item = {"source": src, "target": dst, "weight": rational_str(weight)}
        if (src, dst) in wts.held:
            item["held"] = wts.held[src, dst].tolist()
        out["transitions"].append(item)
    return out


def _held_rows(value, where: str):
    """A transition's ``held`` list as a float array of rows, and the
    problems that keep it from being one: rows that are not lists of one
    width, or an entry that is not a finite number: anything but an int or
    a float (a bool too), or a float that is not finite.  One pass checks
    each entry once."""
    if not (isinstance(value, list) and all(isinstance(row, list) for row in value)):
        return None, [f"field {where!r} must be a list of rows of numbers"]
    widths = sorted({len(row) for row in value})
    if len(widths) > 1:
        return None, [f"field {where!r} has rows of {widths} numbers"]
    problems = [f"field '{where}.{i}.{j}' must be a finite number, got {v!r}"
                for i, row in enumerate(value) for j, v in enumerate(row)
                if not ((type(v) is float or type(v) is int) and -math.inf < v < math.inf)]
    if not problems:
        try:
            rows = np.array(value, dtype=float)
        except OverflowError as exc:            # an integer past float range
            problems.append(f"field {where!r}: {exc}")
        else:
            return rows.reshape(len(value), widths[0] if widths else 0), []
    return None, problems


def wts_from_dict(data: dict) -> Wts:
    """Inverse of ``wts_to_dict``; extra per-transition keys (older files
    carry ``arrival_steps`` and ``weight_steps``) are ignored, and a
    transition without ``held`` inputs (as in older files) is solved again
    when executed.  Data that is not a transition system over its own
    states, lists a transition twice, has states that are not a list, a bool
    weight, a weight of 0 or below, ``held`` inputs that are not rows of one
    width of finite numbers or a ``scenario_hash`` that is not a string,
    raises ``ValidationError``."""
    try:
        states = tuple(data["states"])
        pairs = [((item["source"], item["target"]), Fraction(item["weight"]))
                 for item in data["transitions"]]
        transitions = dict(pairs)
        label_items = list(data["labels"].items())
        initial = data["initial"]
        digest = data.get("scenario_hash", "")
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError,
            OverflowError) as exc:
        raise ValidationError([f"not a transition system: {exc!r}"]) from exc
    problems = [f"field {path!r} must be a finite number, got {value}"
                for i, item in enumerate(data["transitions"])
                for path, value in not_numbers(item["weight"], f"transitions.{i}.weight")]
    problems += [f"transition {src!r} -> {dst!r} has nonpositive weight {rational_str(w)}"
                 for (src, dst), w in pairs if w <= 0]
    if not isinstance(data["states"], list):
        problems.append(f"field 'states' must be a list, got {data['states']!r}")
    problems += [f"state {s!r} is not a string" for s in states if not isinstance(s, str)]
    problems += [f"labels of {s!r} must be a list of strings, got {v!r}"
                 for s, v in label_items
                 if not (isinstance(v, list) and all(isinstance(a, str) for a in v))]
    missing = dict.fromkeys(s for pair in transitions for s in pair if s not in states)
    problems += [f"transition end {s!r} is not a state" for s in missing]
    problems += [f"transition {src!r} -> {dst!r} is listed {n} times"
                 for (src, dst), n in Counter(p for p, _ in pairs).items() if n > 1]
    if initial not in states:
        problems.append(f"initial state {initial!r} is not a state")
    if not isinstance(digest, str):
        problems.append(f"field 'scenario_hash' must be a string, got {digest!r}")
    held = {}
    for i, ((pair, _), item) in enumerate(zip(pairs, data["transitions"])):
        if "held" in item:
            held[pair], found = _held_rows(item["held"], f"transitions.{i}.held")
            problems += found
    if problems:
        raise ValidationError(problems)
    return Wts(
        states=states,
        initial=initial,
        labels={s: frozenset(v) for s, v in label_items},
        transitions=transitions,
        scenario_hash=digest,
        held=held,
    )


def held_problems(wts: Wts, scenario: Scenario) -> list:
    """What keeps the held inputs of ``wts`` from driving ``scenario``'s
    model: each transition's must have a row per sampling step of its
    weight, each of the model's width."""
    n = scenario.state_dim
    return [f"transition {src!r} -> {dst!r} holds {rows.shape[0]} rows of "
            f"{rows.shape[1]} inputs, not {wts.transitions[src, dst] / scenario.step} "
            f"rows of {n}"
            for (src, dst), rows in sorted(wts.held.items())
            if rows.shape != (wts.transitions[src, dst] / scenario.step, n)]


def save_wts(wts: Wts, path) -> None:
    write_json(path, wts_to_dict(wts))


def load_wts(path, expected_hash: str) -> Wts:
    """Read a transition system saved by ``save_wts`` for the scenario whose
    ``scenario_hash`` is ``expected_hash``; another scenario's raises
    ``AbstractionError``, a file that is not one ``ValidationError``."""
    wts = read_json(path, wts_from_dict)
    if wts.scenario_hash != expected_hash:
        raise AbstractionError(
            "cached transition system was built from a different scenario "
            f"({wts.scenario_hash[:12]} != {expected_hash[:12]})"
        )
    return wts
