"""Closed-loop execution of plans, independent verification, and trace I/O.

A plan leg is executed by re-running the navigation controller toward the
leg's target for *exactly* the leg's scheduled duration (the transition
weight).  Arrival earlier than the schedule becomes a hold at the target;
arrival later than the schedule is a failure.  The stamps of the produced
timed word are therefore the plan's stamps; what execution actually has to
earn is the containment check at each stamp, and that is what the verifier
tests, together with the semantic monitor and safety checks it recomputes
from the recorded samples alone.  A trace holds the samples and the digest
of its plan; the stamps, the word and the leg of each sample are read from
the plan, the only copy of them.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .abstraction import Wts
from .controller import input_violation, lockstep, max_deviation, navigate
from .dynamics import DisturbanceSpec, derive_seed
from .errors import ExecutionFailure, ValidationError
from .mitl import monitor
from .scenario import Scenario, rational_str
from .synthesis import Plan, plan_digest, plan_word

# Loop-closure slack on the tube radius: the controller resets the nominal
# state every sampling step, so the deviation it must absorb per interval is
# one step's worth of disturbance, not the full radius; the second term
# covers integration error at the simulation resolution.
TUBE_REL_SLACK = 1.001


def tube_tolerance(tube_radius: float, sim_dt: float, delta_bound: float) -> float:
    return TUBE_REL_SLACK * tube_radius + 10.0 * sim_dt * delta_bound


@dataclass
class LegRecord:
    physical_arrival_steps: int     # when the stop test first passed
    saturations: int                # diagnostic only; the verdict ignores it


@dataclass
class Trace:
    """Concatenated closed-loop record of a full plan execution."""

    ts: np.ndarray
    states: np.ndarray
    nominal: np.ndarray
    inputs: np.ndarray
    deltas: np.ndarray
    plan_digest: str                # ``synthesis.plan_digest`` of the plan run
    legs: list = field(default_factory=list)
    seed: int = 0
    disturbance: str = "zero"

    @property
    def max_deviation(self) -> float:
        """Largest ``|x - x_hat|`` over all samples."""
        return max_deviation(self.states, self.nominal)


def execute_plan(
    scenario: Scenario,
    wts: Wts,
    plan: Plan,
    disturbance: str = "random",
    seed: int = 0,
) -> Trace:
    """Run every leg of the plan on the disturbed system.

    ``disturbance`` is one of ``DISTURBANCE_POLICIES``.  Per-leg disturbance
    streams are derived from ``seed`` and the leg's position in the plan, so
    the whole run is reproducible and independent of how other legs unfolded.
    """
    model = scenario.model()
    tube = scenario.tube_params()
    fhocp = scenario.fhocp_params()
    input_set = scenario.input_set()
    h = float(scenario.step)

    x = model.embed_position(scenario.regions[plan.states[0]].center)
    ts = [np.zeros(1)]
    xs = [x[None, :]]
    nom = [x[None, :]]
    us = [np.zeros((1, model.n))]
    ds = [np.zeros((1, model.n))]
    legs = []

    def recorded() -> Trace:
        return Trace(np.concatenate(ts), np.concatenate(xs),
                     np.concatenate(nom), np.concatenate(us),
                     np.concatenate(ds), plan_digest(plan), list(legs),
                     seed, disturbance)

    t_offset = 0.0
    for i, (src, dst, weight) in enumerate(plan.legs()):
        if (src, dst) not in wts.transitions:
            raise ExecutionFailure(
                f"plan leg {src!r} -> {dst!r} has no transition", recorded()
            )
        steps = weight / scenario.step
        if steps.denominator != 1:
            raise ExecutionFailure(
                f"plan leg {src!r} -> {dst!r} lasts {weight}, not a whole "
                f"number of {scenario.step} s steps", recorded()
            )
        steps = int(steps)
        spec = DisturbanceSpec(scenario.disturbance_bound, disturbance)
        (outcome,) = lockstep([navigate(
            model,
            x,
            scenario.regions[dst],
            scenario.state_constraints_for(src, dst),
            input_set,
            tube,
            fhocp,
            spec,
            steps,
            seed=derive_seed(seed, i, src, dst),
            settle_steps=0,
            min_duration_steps=steps,
            sim_dt=scenario.sim_dt,
        )])
        if not outcome.arrived:
            legs.append(LegRecord(outcome.arrival_steps or -1,
                                  outcome.saturation_count))
            raise ExecutionFailure(
                f"leg {i} ({src!r} -> {dst!r}) ended {outcome.status} after "
                f"{outcome.total_steps} of {steps} scheduled steps",
                recorded(),
            )
        legs.append(LegRecord(outcome.arrival_steps, outcome.saturation_count))
        ts.append(outcome.ts[1:] + t_offset)
        xs.append(outcome.states[1:])
        nom.append(outcome.nominal_states[1:])
        us.append(outcome.inputs[1:])
        ds.append(outcome.disturbances[1:])
        x = outcome.states[-1].copy()
        t_offset += steps * h

    return recorded()


def stamp_indices(scenario: Scenario, plan: Plan) -> list:
    """Sample index of each plan stamp; a Fraction, whole if a sample is there."""
    substeps = round(float(scenario.step) / scenario.sim_dt)
    return [stamp * substeps / scenario.step for stamp in plan.stamps]


def leg_rows(indices: list) -> list:
    """Rows of each leg: the samples from its start to its end stamp."""
    return [slice(math.ceil(a), math.floor(b) + 1)
            for a, b in zip(indices, indices[1:])]


def _check_trace(scenario: Scenario, plan: Plan, trace: Trace) -> None:
    """The trace must have been recorded for ``plan``, on the scenario's
    model, else ``ValidationError``."""
    if trace.plan_digest != plan_digest(plan):
        raise ValidationError([f"trace was recorded for plan "
                               f"{trace.plan_digest[:12]!r}, not this one"])
    if trace.states.shape[1] != scenario.state_dim:
        raise ValidationError([f"trace has {trace.states.shape[1]} state columns, "
                               f"the scenario's model {scenario.state_dim}"])


def verify_trace(scenario: Scenario, plan: Plan, trace: Trace) -> dict:
    """Independent pass/fail report for an executed trace.

    Checks, in order: the robot body sits inside the scheduled region at
    the sample of every stamp; the semantic monitor accepts the produced
    timed word; no recorded sample of a leg lies in a third region or
    outside the workspace; the applied inputs respect their bounds; and the
    deviation from the nominal trajectory stays within the tube tolerance.
    Everything but the saturation count is computed from the samples; the
    stamps, the word and the legs come from the plan, which must be the one
    the trace was recorded for (else ``ValidationError``).
    """
    _check_trace(scenario, plan, trace)
    formula = scenario.formula()
    tube = scenario.tube_params()
    eta = scenario.robot_radius
    pos = scenario.model().position(trace.states)
    indices = stamp_indices(scenario, plan)

    containment = []
    for state, stamp, idx in zip(plan.states, plan.stamps, indices):
        ball = scenario.regions[state]
        if idx.denominator == 1 and idx < len(pos):
            dist = float(np.linalg.norm(pos[int(idx)] - ball.center))
            margin = (ball.radius - eta) - dist
        else:
            margin = None           # no sample at this stamp
        containment.append({
            "state": state,
            "stamp": rational_str(stamp),
            "margin": margin,
            "ok": margin is not None and margin >= -1e-9,
        })
    containment_ok = all(c["ok"] for c in containment)

    complete = len(pos) == indices[-1] + 1
    monitor_ok = complete and monitor(formula, plan_word(plan, scenario))

    offpath = exits = 0
    for (src, dst, _), rows in zip(plan.legs(), leg_rows(indices)):
        free = scenario.state_constraints_for(src, dst)
        leg_exits, leg_hits = free.count_violations(pos[rows])
        exits += leg_exits
        offpath += leg_hits
    saturations = int(sum(leg.saturations for leg in trace.legs))

    u_set = scenario.input_set()
    input_bad = int(np.count_nonzero(input_violation(trace.inputs, u_set)))

    tol = tube_tolerance(tube.tube_radius, scenario.sim_dt,
                         scenario.disturbance_bound)
    tube_ok = trace.max_deviation <= tol

    report = {
        "pass": bool(containment_ok and monitor_ok and offpath == 0
                     and exits == 0 and input_bad == 0 and tube_ok),
        "complete": complete,
        "containment": containment,
        "containment_ok": containment_ok,
        "monitor_ok": bool(monitor_ok),
        "offpath_entries": offpath,
        "workspace_exits": exits,
        "input_violations": input_bad,
        "saturations": saturations,
        "max_deviation": trace.max_deviation,
        "tube_tolerance": tol,
        "tube_ok": bool(tube_ok),
    }
    return report


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def _meta_dict(trace: Trace) -> dict:
    return {
        "plan_digest": trace.plan_digest,
        "seed": trace.seed,
        "disturbance": trace.disturbance,
        "legs": [asdict(leg) for leg in trace.legs],
    }


def _columns(n: int) -> list:
    return (["t"] + [f"x{i}" for i in range(n)] + [f"xhat{i}" for i in range(n)]
            + [f"u{i}" for i in range(n)] + [f"delta{i}" for i in range(n)])


def export_trace(trace: Trace, path) -> None:
    """Tab-separated samples with a JSON metadata comment line on top."""
    cols = _columns(trace.states.shape[1])
    rows = np.column_stack([trace.ts, trace.states, trace.nominal,
                            trace.inputs, trace.deltas]).tolist()
    line = "\t".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(_meta_dict(trace), sort_keys=True,
                                   separators=(",", ":")) + "\n")
        fh.write("\t".join(cols) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def import_trace(path) -> Trace:
    """Read a trace written by ``export_trace``; a file that is not one, such
    as a truncated copy, one with other columns or one that is not UTF-8
    text, raises ``ValidationError``."""
    try:
        with open(path) as fh:
            header = fh.readline()
            cols = fh.readline().rstrip("\n").split("\t")
            data = _parse_samples(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError([f"{path} is not UTF-8 text: {exc}"]) from exc
    # headers written by older versions also carry per-leg schedules and
    # safety counters; the plan and the samples give those, so they are
    # dropped
    keys = [f.name for f in fields(LegRecord)]
    try:
        meta = json.loads(header.lstrip("# "))
        legs = [LegRecord(**{k: d[k] for k in keys}) for d in meta["legs"]]
        seed, disturbance = meta["seed"], meta["disturbance"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError([f"{path}: bad trace header: {exc!r}"]) from exc
    width = len(cols)
    n = (width - 1) // 4
    if n < 1 or cols != _columns(n):
        raise ValidationError([f"{path}: column header {cols[:9]!r} is not that "
                               "of a trace"])
    if data is None or data.shape[1] != width:
        data = _parse_sample_rows(path, width)
    return Trace(
        ts=data[:, 0],
        states=data[:, 1:1 + n],
        nominal=data[:, 1 + n:1 + 2 * n],
        inputs=data[:, 1 + 2 * n:1 + 3 * n],
        deltas=data[:, 1 + 3 * n:1 + 4 * n],
        plan_digest=meta.get("plan_digest", ""),
        legs=legs,
        seed=seed,
        disturbance=disturbance,
    )


def _parse_samples(fh):
    """The sample rows left in ``fh`` as a 2-D array, read in one pass by
    numpy's C parser, or None if it cannot read them.  An empty block reads
    as one column.  A decoding error is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")          # "input contained no data"
        try:
            return np.loadtxt(fh, delimiter="\t", comments=None, ndmin=2)
        except UnicodeDecodeError:
            raise
        except ValueError:
            return None


def _parse_sample_rows(path, width: int) -> np.ndarray:
    """The sample rows of the trace at ``path``, read cell by cell: the
    reading for a block ``_parse_samples`` could not give ``width`` columns,
    whose error names the row or cell at fault."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split("\t")
                for line in itertools.islice(fh, 2, None) if line.strip()]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError([f"{path}: sample row {i} has {len(row)} "
                                   f"cells, the column header {width}"])
    try:
        return np.array([[float(v) for v in row] for row in rows]).reshape(-1, width)
    except ValueError as exc:
        raise ValidationError([f"{path}: bad sample: {exc}"]) from exc


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def export_plot_data(scenario: Scenario, plan: Plan, trace: Trace,
                     outdir) -> list:
    """Plain numeric series for external plotting; returns written paths.
    The stamps and legs come from ``plan``, the one the trace ran."""
    import os

    _check_trace(scenario, plan, trace)
    os.makedirs(outdir, exist_ok=True)
    written = []

    def table(name, header, cells, rows):
        """One line per row, formatted with ``cells``, a %-format per column."""
        path = os.path.join(outdir, name)
        line = "\t".join(cells) + "\n"
        with open(path, "w") as fh:
            fh.write("\t".join(header) + "\n")
            fh.writelines(line % tuple(row) for row in rows)
        written.append(path)

    g, s = "%.17g", "%s"

    model = scenario.model()
    pos = model.position(trace.states)
    nom = model.position(trace.nominal)
    indices = stamp_indices(scenario, plan)
    # a sample belongs to the leg it lies in or closes; the first to leg 0
    leg_of = np.searchsorted(np.array(indices[1:], dtype=float),
                             np.arange(len(pos)))
    table("path.tsv", ["t", "px", "py", "nom_px", "nom_py", "leg"], [g] * 5 + ["%d"],
          np.column_stack([trace.ts, pos[:, :2], nom[:, :2], leg_of]).tolist())
    table("regions.tsv", ["name", "cx", "cy", "radius", "labels"], [s, g, g, g, s],
          [(name, ball.center[0], ball.center[1], ball.radius,
            ",".join(sorted(scenario.label_of(name))))
           for name, ball in sorted(scenario.regions.items())])
    d = trace.states - trace.nominal
    dev = np.sqrt(np.add.reduce(d * d, axis=-1))
    table("deviation.tsv", ["t", "deviation"], [g, g],
          np.column_stack([trace.ts, dev]).tolist())
    table("inputs.tsv", ["t"] + [f"u{i}" for i in range(model.n)], [g] * (1 + model.n),
          np.column_stack([trace.ts, trace.inputs]).tolist())
    table("stamps.tsv", ["stamp", "state", "labels"], [g, s, s],
          [(float(stamp), name, ",".join(sorted(scenario.label_of(name))))
           for stamp, name in zip(plan.stamps, plan.states)])
    table("legs.tsv", ["index", "source", "target", "plan_steps",
                       "physical_arrival_steps", "max_deviation"], [s] * 5 + [g],
          [(str(i), src, dst, str(weight / scenario.step),
            str(leg.physical_arrival_steps),
            float(np.max(dev[rows], initial=0.0)))
           for i, ((src, dst, weight), leg, rows)
           in enumerate(zip(plan.legs(), trace.legs, leg_rows(indices)))])
    return written
