"""Weighted transition system abstraction of the navigation layer.

States are the labelled regions of interest.  A transition ``(i, j)`` exists
when the tube controller, run on the disturbance-free system from the center
of region ``i``, reaches region ``j`` (stop test plus a settle hold) without
leaving the leg's free space.  Its weight is the exact duration of that run
in sampling steps times the step length — settle hold included — so the
discrete timed runs over this system predict the stamps the executor will
reproduce.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .controller import navigate
from .dynamics import DisturbanceSpec
from .errors import AbstractionError, NoTransition, UnknownTransition
from .scenario import Scenario, rational_str

LEG_TIMEOUT = 90.0


@dataclass(frozen=True)
class ControllerDescriptor:
    """What the executor needs to replay one leg."""

    source: str
    target: str
    arrival_steps: int          # disturbance-free steps to the stop test
    weight_steps: int           # arrival + settle; the scheduled duration


@dataclass(frozen=True)
class WtsTransition:
    weight: Fraction
    descriptor: Optional[ControllerDescriptor] = None


@dataclass(frozen=True)
class Wts:
    states: tuple
    initial: str
    labels: dict                        # state -> frozenset of propositions
    transitions: dict                   # (src, dst) -> WtsTransition
    scenario_hash: str = ""
    _succ: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        succ = {s: [] for s in self.states}
        for (src, dst), tr in sorted(self.transitions.items()):
            if tr.weight <= 0:
                raise AbstractionError(
                    f"transition {src!r} -> {dst!r} has nonpositive weight"
                )
            succ[src].append((dst, tr))
        object.__setattr__(self, "_succ", succ)

    def successors(self, state: str):
        if state not in self._succ:
            raise UnknownTransition(f"unknown state {state!r}")
        return self._succ[state]

    def weight_of(self, src: str, dst: str) -> Fraction:
        if src not in self._succ or dst not in self._succ:
            raise UnknownTransition(f"unknown state in ({src!r}, {dst!r})")
        try:
            return self.transitions[(src, dst)].weight
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
    """Run every center-to-region leg on the nominal system and keep the
    ones that arrive.

    Self-loops are included (arrive immediately, hold for the settle time),
    so plans can wait at a region in settle-time quanta.
    """
    model = scenario.model()
    tube = scenario.tube_params()
    fhocp = scenario.fhocp_params()
    input_set = scenario.input_set()
    settle = scenario.settle_steps
    h = float(scenario.step)
    timeout = round(LEG_TIMEOUT / h) * h
    no_disturbance = DisturbanceSpec(0.0, "zero")

    names = tuple(sorted(scenario.regions))
    transitions = {}
    for src in names:
        start = model.embed_position(scenario.regions[src].center)
        for dst in names:
            outcome = navigate(
                model,
                start,
                scenario.regions[dst],
                scenario.state_constraints_for(src, dst),
                input_set,
                tube,
                fhocp,
                no_disturbance,
                t_max=timeout,
                seed=0,
                settle_steps=settle,
                sim_dt=scenario.sim_dt,
            )
            if not outcome.arrived:
                if src == dst:
                    raise AbstractionError(
                        f"self-loop at {src!r} failed ({outcome.status}); "
                        "the settle hold cannot be realised"
                    )
                continue
            if outcome.obstacle_violations or outcome.workspace_violations:
                continue
            weight_steps = outcome.arrival_steps + settle
            transitions[(src, dst)] = WtsTransition(
                weight=weight_steps * outcome.step_fraction,
                descriptor=ControllerDescriptor(
                    src, dst, outcome.arrival_steps, weight_steps
                ),
            )

    labels = {name: scenario.label_of(name) for name in names}
    return Wts(
        states=names,
        initial=scenario.initial_region,
        labels=labels,
        transitions=transitions,
        scenario_hash=scenario_hash(scenario),
    )


def wts_to_dict(wts: Wts) -> dict:
    out = {
        "states": list(wts.states),
        "initial": wts.initial,
        "labels": {s: sorted(wts.labels.get(s, ())) for s in wts.states},
        "scenario_hash": wts.scenario_hash,
        "transitions": [],
    }
    for (src, dst), tr in sorted(wts.transitions.items()):
        item = {"source": src, "target": dst, "weight": rational_str(tr.weight)}
        if tr.descriptor is not None:
            item["arrival_steps"] = tr.descriptor.arrival_steps
            item["weight_steps"] = tr.descriptor.weight_steps
        out["transitions"].append(item)
    return out


def wts_from_dict(data: dict) -> Wts:
    transitions = {}
    for item in data["transitions"]:
        src, dst = item["source"], item["target"]
        desc = None
        if "weight_steps" in item:
            desc = ControllerDescriptor(
                src, dst, int(item["arrival_steps"]), int(item["weight_steps"])
            )
        transitions[(src, dst)] = WtsTransition(Fraction(item["weight"]), desc)
    return Wts(
        states=tuple(data["states"]),
        initial=data["initial"],
        labels={s: frozenset(v) for s, v in data["labels"].items()},
        transitions=transitions,
        scenario_hash=data.get("scenario_hash", ""),
    )


def save_wts(wts: Wts, path) -> None:
    with open(path, "w") as fh:
        json.dump(wts_to_dict(wts), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_wts(path, expected_hash: str = None) -> Wts:
    with open(path) as fh:
        wts = wts_from_dict(json.load(fh))
    if expected_hash is not None and wts.scenario_hash != expected_hash:
        raise AbstractionError(
            "cached transition system was built from a different scenario "
            f"({wts.scenario_hash[:12]} != {expected_hash[:12]})"
        )
    return wts
