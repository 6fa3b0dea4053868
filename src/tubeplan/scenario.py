"""Problem definitions: workspace, regions of interest, task, and knobs.

A scenario bundles everything one planning problem needs: the robot model,
the workspace box, labelled circular regions of interest, the disturbance
bound, controller tuning, and the task formula.  Scenarios load from JSON;
fields where exact arithmetic matters (sampling step, horizon, settle time)
accept rationals written as ``"p/q"`` strings.  ``read_json`` and
``write_json`` read and write every JSON artifact file: scenario,
transition system and plan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from numbers import Real

import numpy as np

from . import mitl
from .controller import FhocpParams, TubeParams, make_tube_params
from .dynamics import (
    MODEL_FACTORIES,
    DynamicsModel,
    estimate_lipschitz,
    min_eig_g,
)
from .errors import ValidationError
from .geometry import Ball, Box, ConstraintSet, inflate_ball

LIPSCHITZ_SAMPLES = 4000
EIG_SAMPLES = 4000
ESTIMATE_SEED = 20260823


def parse_rational(value) -> Fraction:
    """Accept ints, finite floats, and ``"p/q"`` strings with ``q != 0``; a
    bool, which ``numbers.Real`` counts as 0 or 1, is not a number here."""
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, Real) and not isinstance(value, bool):
            return Fraction(value).limit_denominator(10**9)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValidationError([f"cannot read {value!r} as a rational number"])


def rational_str(value: Fraction) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class Scenario:
    name: str
    model_name: str
    state_dim: int
    workspace: Box                  # position-space box
    robot_radius: float
    regions: dict                   # name -> Ball (position space)
    labels: dict                    # name -> frozenset of propositions
    initial_region: str
    disturbance_bound: float
    sigma_margin: float
    input_kind: str                 # "box" or "ball"
    input_bound: float
    horizon: Fraction
    step: Fraction
    state_weight: float
    terminal_weight: float
    input_weight: float
    terminal_level: float
    settle_time: Fraction
    sim_dt: float
    formula_text: str
    lipschitz: float = None         # None -> estimate from the model
    gain_floor: float = None
    raw: dict = field(default=None, repr=False, compare=False)

    # ---- derived objects -------------------------------------------------

    def model(self) -> DynamicsModel:
        return MODEL_FACTORIES[self.model_name](self.state_dim)

    def input_set(self):
        if self.input_kind == "box":
            n = self.state_dim
            b = self.input_bound
            return Box(-b * np.ones(n), b * np.ones(n))
        return Ball(np.zeros(self.state_dim), self.input_bound)

    def tube_params(self) -> TubeParams:
        lip, floor = self.lipschitz, self.gain_floor
        model = self.model()
        if lip is None:
            lip = estimate_lipschitz(model, self.workspace, LIPSCHITZ_SAMPLES,
                                     ESTIMATE_SEED)
        if floor is None:
            floor = min_eig_g(model, self.workspace, EIG_SAMPLES, ESTIMATE_SEED + 1)
        return make_tube_params(lip, floor, self.sigma_margin, self.disturbance_bound)

    def fhocp_params(self) -> FhocpParams:
        return FhocpParams(
            horizon=float(self.horizon),
            step=float(self.step),
            state_weight=self.state_weight,
            terminal_weight=self.terminal_weight,
            input_weight=self.input_weight,
            terminal_level=self.terminal_level,
            dim=self.state_dim,
        )

    def formula(self):
        return mitl.parse(self.formula_text)

    def state_constraints_for(self, source: str, target: str) -> ConstraintSet:
        """Free space for the leg ``source -> target``.

        The workspace is eroded by the robot radius; every region other than
        the two endpoints becomes a keep-out ball inflated by the robot
        radius, so the body never overlaps a third region mid-leg.
        """
        region = self.workspace.eroded(self.robot_radius)
        exclusions = tuple(
            inflate_ball(ball, self.robot_radius)
            for name, ball in sorted(self.regions.items())
            if name not in (source, target)
        )
        return ConstraintSet(region, exclusions)

    @property
    def settle_steps(self) -> int:
        return int(round(self.settle_time / self.step))

    def label_of(self, region: str) -> frozenset:
        return self.labels.get(region, frozenset())


def not_numbers(value, where: str = "") -> list:
    """``(path, value)`` for every non-finite float and every bool under
    ``value``.  Python's ``json`` reads ``NaN``, ``Infinity`` and ``1e400``
    as non-finite floats, and ``true`` and ``false`` as bools, which
    ``numbers.Real`` counts as 1 and 0; no scenario field is a bool."""
    if isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value)):
        return [(where, value)]
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [found for key, item in items
            for found in not_numbers(item, f"{where}.{key}" if where else str(key))]


def _require(problems, cond: bool, message: str) -> bool:
    if not cond:
        problems.append(message)
    return cond


def scenario_from_dict(data: dict) -> Scenario:
    """Build and cross-validate a scenario; collect *all* problems at once."""
    if not isinstance(data, dict):
        raise ValidationError([f"a scenario must be a JSON object, "
                               f"got {type(data).__name__}"])
    problems = [f"field {path!r} must be a finite number, got {value}"
                for path, value in not_numbers(data)]

    def get(key, kind=None, default=KeyError):
        if key not in data:
            if default is KeyError:
                problems.append(f"missing field {key!r}")
                return None
            return default
        v = data[key]
        if kind is not None and not isinstance(v, kind):
            problems.append(f"field {key!r} has type {type(v).__name__}")
            return None
        return v

    name = get("name", str, "unnamed")
    model_name = get("model", str)
    state_dim = get("state_dim", int, 3)
    if state_dim is not None and state_dim < 2:
        problems.append(f"state_dim must be >= 2, got {state_dim}")
    if model_name is not None and model_name not in MODEL_FACTORIES:
        problems.append(
            f"unknown model {model_name!r}; known: {sorted(MODEL_FACTORIES)}"
        )

    workspace = None
    ws = get("workspace", dict)
    if ws is not None:
        try:
            workspace = Box(ws.get("lower"), ws.get("upper"))
        except Exception as exc:  # reported, not raised
            problems.append(f"bad workspace: {exc}")
        if workspace is not None and workspace.dim != 2:
            problems.append(f"workspace bounds must be 2-d, got {workspace.dim}-d")
            workspace = None

    robot_radius = get("robot_radius", Real, 0.0)
    if robot_radius is not None and robot_radius < 0:
        problems.append(f"robot_radius must be >= 0, got {robot_radius}")

    regions = {}
    for rname, spec in (get("regions", dict) or {}).items():
        try:
            ball = Ball(spec["center"], spec["radius"])
        except Exception as exc:
            problems.append(f"bad region {rname!r}: {exc}")
            continue
        if _require(problems, ball.center.shape == (2,),
                    f"region {rname!r} center must be 2-d, got {ball.center.shape[0]}-d"):
            regions[rname] = ball

    labels = {}
    for rname, props in (get("labels", dict, {}) or {}).items():
        if rname not in regions:
            problems.append(f"labels refer to unknown region {rname!r}")
        if _require(problems, isinstance(props, list)
                    and all(isinstance(p, str) for p in props),
                    f"labels of {rname!r} must be a list of strings, got {props!r}"):
            labels[rname] = frozenset(props)

    initial_region = get("initial_region", str)
    if initial_region is not None and regions and initial_region not in regions:
        problems.append(f"initial_region {initial_region!r} is not a region")

    disturbance_bound = get("disturbance_bound", Real, 0.0)
    sigma_margin = get("sigma_margin", Real, 1.0)
    _require(problems, disturbance_bound is None or disturbance_bound >= 0,
             f"disturbance_bound must be >= 0, got {disturbance_bound}")
    _require(problems, sigma_margin is None or sigma_margin > 0,
             f"sigma_margin must be > 0, got {sigma_margin}")
    # an explicit null means "estimate from the model", same as absent
    lipschitz = data.get("lipschitz")
    gain_floor = data.get("gain_floor")
    for fname, v in (("lipschitz", lipschitz), ("gain_floor", gain_floor)):
        _require(problems, v is None or isinstance(v, Real),
                 f"field {fname!r} must be a number or null")

    input_spec = get("input", dict, {"type": "box", "bound": 1.0}) or {}
    input_kind = input_spec.get("type", "box")
    input_bound = input_spec.get("bound", input_spec.get("radius"))
    _require(problems, input_kind in ("box", "ball"),
             f"input type must be 'box' or 'ball', got {input_kind!r}")
    _require(problems, isinstance(input_bound, Real) and input_bound > 0,
             f"input bound must be > 0, got {input_bound!r}")

    fh = get("fhocp", dict, {}) or {}
    try:
        horizon = parse_rational(fh.get("horizon", 1))
        step = parse_rational(fh.get("step", Fraction(1, 10)))
    except ValidationError as exc:
        problems.extend(exc.problems)
        horizon, step = Fraction(1), Fraction(1, 10)
    state_weight = fh.get("state_weight", 0.5)
    terminal_weight = fh.get("terminal_weight", 0.5)
    input_weight = fh.get("input_weight", 0.5)
    terminal_level = fh.get("terminal_level", 0.1)
    for wname, w in (("state_weight", state_weight),
                     ("terminal_weight", terminal_weight),
                     ("input_weight", input_weight),
                     ("terminal_level", terminal_level)):
        _require(problems, isinstance(w, Real) and w > 0,
                 f"fhocp.{wname} must be > 0, got {w!r}")
    _require(problems, horizon > step > 0,
             f"need horizon > step > 0, got {horizon} and {step}")

    try:
        settle_time = parse_rational(get("settle_time", default=0))
    except ValidationError as exc:
        problems.extend(exc.problems)
        settle_time = Fraction(0)
    _require(problems, settle_time >= 0, f"settle_time must be >= 0, got {settle_time}")
    _require(problems, settle_time != 0,
             "settle_time must be > 0: it is the weight of every self-loop")
    sim_dt = get("sim_dt", Real, 0.01)
    dt_ok = sim_dt is not None and _require(problems, sim_dt > 0,
                                            f"sim_dt must be > 0, got {sim_dt}")
    if dt_ok and step > 0:
        sub = float(step) / sim_dt
        _require(problems, abs(round(sub) * sim_dt - float(step)) < 1e-9,
                 f"sim_dt={sim_dt} must divide the sampling step {step}")
    if step > 0:
        _require(problems, (horizon / step).denominator == 1,
                 f"fhocp.horizon={horizon} must be a multiple of the step {step}")
        _require(problems, (settle_time / step).denominator == 1,
                 f"settle_time={settle_time} must be a multiple of the step {step}")

    formula_text = get("formula", str)
    parsed = None
    if formula_text is not None:
        try:
            parsed = mitl.parse(formula_text)
        except Exception as exc:
            problems.append(f"bad formula: {exc}")
    if parsed is not None:
        bound = set().union(*labels.values()) if labels else set()
        for atom in sorted(mitl.atoms_of(parsed)):
            _require(problems, atom in bound,
                     f"formula atom {atom!r} is not the label of any region")

    # geometric cross-checks (only once the pieces exist)
    if workspace is not None and regions and isinstance(robot_radius, Real):
        inner = None
        try:
            inner = workspace.eroded(robot_radius)
        except Exception as exc:
            problems.append(f"workspace too small for the robot: {exc}")
        arrival = None
        if isinstance(terminal_level, Real) and isinstance(terminal_weight, Real) \
                and terminal_weight > 0 and terminal_level > 0:
            arrival = terminal_level / np.sqrt(terminal_weight)
        tube = None
        if isinstance(disturbance_bound, Real) and isinstance(sigma_margin, Real) \
                and sigma_margin > 0 and disturbance_bound >= 0:
            tube = disturbance_bound / sigma_margin
        for rname, ball in sorted(regions.items()):
            if inner is not None:
                _require(problems, inner.contains(ball.center),
                         f"region {rname!r} center leaves the eroded workspace")
            if arrival is not None and tube is not None:
                _require(
                    problems,
                    ball.radius >= robot_radius + arrival + tube,
                    f"region {rname!r} radius {ball.radius} is below "
                    f"robot_radius + arrival radius + tube = "
                    f"{robot_radius + arrival + tube:.4g}",
                )
        names = sorted(regions)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                # on floats: a huge coordinate overflows no square, and a
                # difference past the float range is inf, without a warning
                dist = math.hypot(*(p - q for p, q in zip(regions[a].center.tolist(),
                                                          regions[b].center.tolist())))
                _require(
                    problems,
                    dist > regions[a].radius + regions[b].radius + 2 * robot_radius,
                    f"regions {a!r} and {b!r} are not disjoint for the robot body",
                )

    if problems:
        raise ValidationError(problems)

    return Scenario(
        name=name,
        model_name=model_name,
        state_dim=state_dim,
        workspace=workspace,
        robot_radius=float(robot_radius),
        regions=regions,
        labels={k: frozenset(v) for k, v in labels.items()},
        initial_region=initial_region,
        disturbance_bound=float(disturbance_bound),
        sigma_margin=float(sigma_margin),
        input_kind=input_kind,
        input_bound=float(input_bound),
        horizon=horizon,
        step=step,
        state_weight=float(state_weight),
        terminal_weight=float(terminal_weight),
        input_weight=float(input_weight),
        terminal_level=float(terminal_level),
        settle_time=settle_time,
        sim_dt=float(sim_dt),
        formula_text=formula_text,
        lipschitz=None if lipschitz is None else float(lipschitz),
        gain_floor=None if gain_floor is None else float(gain_floor),
        raw=data,
    )


def read_json(path, from_dict):
    """``from_dict`` of the JSON data in the file at ``path``.  A file that
    is not UTF-8 JSON, or data ``from_dict`` rejects, raises
    ``ValidationError``, each of whose problems names the file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:      # not JSON, or not UTF-8 text
            raise ValidationError([f"{path}: not JSON: {exc}"]) from exc
    try:
        return from_dict(data)
    except ValidationError as exc:
        raise ValidationError([f"{path}: {p}" for p in exc.problems]) from exc


def write_json(path, data) -> None:
    """``data`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    return read_json(path, scenario_from_dict)


def default_scenario() -> Scenario:
    """The bundled nine-region benchmark workspace."""
    text = resources.files("tubeplan").joinpath("data/nexus_sml.json").read_text()
    return scenario_from_dict(json.loads(text))
