"""Closed-loop execution of plans, independent verification, and trace I/O.

A plan leg is executed by re-running the navigation controller toward the
leg's target for *exactly* the leg's scheduled duration (the transition
weight).  Arrival earlier than the schedule becomes a hold at the target;
arrival later than the schedule is a failure.  The stamps of the produced
timed word are therefore the plan's stamps; what execution actually has to
earn is the containment check at each stamp, and that is what the verifier
tests, together with the semantic monitor and safety checks it recomputes
from the recorded samples alone.  A trace holds the samples, the digest of
its plan, and the seed and disturbance policy of the run; the stamps, the
word and the leg of each sample are read from the plan, the only copy of
them, and each leg's arrival and each saturation from the samples.
A leg that starts at its source's center replays the nominal the
abstraction computed for its transition, from the held inputs the
transition system carries, so execution solves only the other legs.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .abstraction import Wts
from .controller import (
    FhocpSolution,
    Samples,
    lockstep,
    navigate,
    reached,
    saturation_count,
    track,
)
from .dynamics import DISTURBANCE_POLICIES, DisturbanceSpec, derive_seed
from .errors import ExecutionFailure, ValidationError
from .mitl import monitor
from .scenario import Scenario, rational_str
from .synthesis import Plan, plan_digest, plan_word

# Loop-closure slack on the tube radius: the nominal runs on its own for the
# whole plan, so the deviation ``q = x - x_hat``, which obeys ``q' = -sigma q
# + delta`` from ``q = 0`` at the plan's start, stays within the tube radius
# and reaches it under a sustained worst push; the first term's slack and the
# second term cover integration error at the simulation resolution and the
# round-off of a nominal landing on a region's center.
TUBE_REL_SLACK = 1.001


def tube_tolerance(tube_radius: float, sim_dt: float, delta_bound: float) -> float:
    return TUBE_REL_SLACK * tube_radius + 10.0 * sim_dt * delta_bound


@dataclass
class Trace(Samples):
    """Concatenated closed-loop record of a full plan execution."""

    plan_digest: str                # ``synthesis.plan_digest`` of the plan run
    seed: int = 0
    disturbance: str = "zero"


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
    A leg must be a transition of ``wts`` and last its weight, else
    ``ExecutionFailure``.  A failure's partial trace ends with the samples of
    the leg that failed.

    Each leg's nominal starts where the previous leg's nominal ended, so it
    depends only on the leg, its step count and that start: ``navigate``
    computes it once per distinct leg, and ``track`` runs the disturbed
    state around it on every leg.  A leg whose nominal starts exactly at its
    source's center, and whose transition carries its held inputs
    (``Wts.held``), is the abstraction's run: its shooting problems are
    answered with those inputs in order (``_replay``), with no solve.  Other
    legs solve through ``lockstep``.  Held inputs that run out before the
    nominal ends raise ``ValidationError``.
    """
    model = scenario.model()
    tube = scenario.tube_params()
    fhocp = scenario.fhocp_params()
    input_set = scenario.input_set()
    spec = DisturbanceSpec(scenario.disturbance_bound, disturbance)
    h = float(scenario.step)

    x = start = model.embed_position(scenario.regions[plan.states[0]].center)
    # the nominal of each distinct leg run so far
    nominals = {}
    # blocks of sample rows: the start, then each leg's rows after its start
    blocks = [np.concatenate(([0.0], x, x, np.zeros(2 * model.n)))[None, :]]

    def recorded() -> Trace:
        return Trace(np.concatenate(blocks), plan_digest(plan), seed, disturbance)

    t_offset = 0.0
    for i, (src, dst, weight) in enumerate(plan.legs()):
        scheduled = wts.transitions.get((src, dst))
        if scheduled is None:
            raise ExecutionFailure(
                f"plan leg {src!r} -> {dst!r} has no transition", recorded()
            )
        if weight != scheduled:
            raise ExecutionFailure(
                f"leg {i} ({src!r} -> {dst!r}) lasts {weight}, not its "
                f"transition's weight {scheduled}", recorded()
            )
        steps = weight / scenario.step
        if steps.denominator != 1:
            raise ExecutionFailure(
                f"plan leg {src!r} -> {dst!r} lasts {weight}, not a whole "
                f"number of {scenario.step} s steps", recorded()
            )
        steps = int(steps)
        key = (src, dst, steps, start.tobytes())
        if key not in nominals:
            run = navigate(
                model, start, scenario.regions[dst], scenario.state_constraints_for(src, dst),
                input_set, tube, fhocp, steps, min_duration_steps=steps,
                sim_dt=scenario.sim_dt)
            held = wts.held.get((src, dst))
            center = model.embed_position(scenario.regions[src].center)
            if held is not None and key[3] == center.tobytes():
                nominals[key] = _replay(run, held, src, dst)
            else:
                (nominals[key],) = lockstep([run])
        nominal = nominals[key]
        leg = track(model, nominal, x, tube, input_set, spec,
                    seed=derive_seed(seed, i, src, dst))
        rows = leg.samples[1:]
        rows[:, 0] += t_offset
        blocks.append(rows)
        if not nominal.arrived:
            raise ExecutionFailure(
                f"leg {i} ({src!r} -> {dst!r}) ended {nominal.status} after "
                f"{nominal.total_steps} of {steps} scheduled steps",
                recorded(),
            )
        x, start = leg.states[-1], leg.nominal[-1]
        t_offset += steps * h

    return recorded()


def _replay(run, held: np.ndarray, src: str, dst: str):
    """The ``Nominal`` of the ``navigate`` generator ``run``, each of whose
    shooting problems is answered by the next row of ``held`` as the first
    input of a feasible solution; the rows of a landing, which ``navigate``
    computes itself, go unread.  ``ValidationError`` if the rows run out."""
    rows = iter(held)
    sol = None
    while True:
        try:
            run.send(sol)
        except StopIteration as stop:
            return stop.value
        row = next(rows, None)
        if row is None:
            raise ValidationError([f"transition {src!r} -> {dst!r}: its {len(held)} "
                                   "held inputs ran out before its nominal ended"])
        sol = FhocpSolution(row[None], None, True, 0.0)


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
    Every count, the saturations included, is computed from the samples;
    the stamps, the word and the legs come from the plan, which must be the
    one the trace was recorded for (else ``ValidationError``).
    """
    _check_trace(scenario, plan, trace)
    formula = scenario.formula()
    tube = scenario.tube_params()
    eta = scenario.robot_radius
    pos = trace.states[:, :2]
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

    u_set = scenario.input_set()
    input_bad = int(np.count_nonzero(u_set.outside(trace.inputs)))

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
        "saturations": saturation_count(trace.inputs, u_set),
        "max_deviation": trace.max_deviation,
        "tube_tolerance": tol,
        "tube_ok": bool(tube_ok),
    }
    return report


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def _write_tsv(path, header_lines, cells, rows) -> None:
    """``header_lines``, then one line per row formatted with ``cells``, a
    %-format per column."""
    line = "\t".join(cells) + "\n"
    with open(path, "w") as fh:
        fh.writelines(header + "\n" for header in header_lines)
        fh.writelines(line % tuple(row) for row in rows)


def export_trace(trace: Trace, path) -> None:
    """Tab-separated sample rows with a JSON metadata comment line on top."""
    cols = Samples.columns(trace.states.shape[1])
    meta = {"plan_digest": trace.plan_digest, "seed": trace.seed,
            "disturbance": trace.disturbance}
    _write_tsv(path, ["# " + json.dumps(meta, sort_keys=True, separators=(",", ":")),
                      "\t".join(cols)],
               ["%.17g"] * len(cols), trace.samples.tolist())


def import_trace(path) -> Trace:
    """Read a trace written by ``export_trace``; a file that is not one, such
    as a truncated copy, one with other columns, a non-finite cell or one
    that is not UTF-8 text, raises ``ValidationError``."""
    try:
        with open(path) as fh:
            header = fh.readline()
            cols = fh.readline().rstrip("\n").split("\t")
            data = _parse_samples(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError([f"{path} is not UTF-8 text: {exc}"]) from exc
    try:
        meta = json.loads(header.lstrip("# "))
        digest, seed, disturbance = meta["plan_digest"], meta["seed"], meta["disturbance"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError([f"{path}: bad trace header: {exc!r}"]) from exc
    if not (isinstance(digest, str) and type(seed) is int
            and disturbance in DISTURBANCE_POLICIES):
        raise ValidationError([f"{path}: bad trace header: plan_digest {digest!r}, "
                               f"seed {seed!r}, disturbance {disturbance!r}"])
    width = len(cols)
    if width < 5 or cols != Samples.columns((width - 1) // 4):
        raise ValidationError([f"{path}: column header {cols[:9]!r} is not that "
                               "of a trace"])
    if data is None or data.shape[1] != width:
        data = _parse_sample_rows(path, width)
    # the verifier's bound tests read a NaN as inside every bound
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0].tolist()
        raise ValidationError([f"{path}: sample row {row}: {cols[col]} is "
                               f"{float(data[row, col])}, not a finite number"])
    return Trace(data, digest, seed, disturbance)


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
        path = os.path.join(outdir, name)
        _write_tsv(path, ["\t".join(header)], cells, rows)
        written.append(path)

    g, s = "%.17g", "%s"

    pos = trace.states[:, :2]
    indices = stamp_indices(scenario, plan)
    # a sample belongs to the leg it lies in or closes; the first to leg 0
    leg_of = np.searchsorted(np.array(indices[1:], dtype=float),
                             np.arange(len(pos)))
    table("path.tsv", ["t", "px", "py", "nom_px", "nom_py", "leg"], [g] * 5 + ["%d"],
          np.column_stack([trace.ts, pos, trace.nominal[:, :2], leg_of]).tolist())
    table("regions.tsv", ["name", "cx", "cy", "radius", "labels"], [s, g, g, g, s],
          [(name, ball.center[0], ball.center[1], ball.radius,
            ",".join(sorted(scenario.label_of(name))))
           for name, ball in sorted(scenario.regions.items())])
    dev = trace.deviations
    table("deviation.tsv", ["t", "deviation"], [g, g],
          np.column_stack([trace.ts, dev]).tolist())
    n = scenario.state_dim
    table("inputs.tsv", ["t"] + [f"u{i}" for i in range(n)], [g] * (1 + n),
          np.column_stack([trace.ts, trace.inputs]).tolist())
    table("stamps.tsv", ["stamp", "state", "labels"], [g, s, s],
          [(float(stamp), name, ",".join(sorted(scenario.label_of(name))))
           for stamp, name in zip(plan.stamps, plan.states)])
    # a leg's arrival: the first of its sampling instants whose recorded
    # real position passes the stop test ``reached``, or -1 (``navigate``
    # applies that test to the nominal)
    substeps = round(float(scenario.step) / scenario.sim_dt)
    radius = scenario.fhocp_params().arrival_radius

    def arrival(dst, rows):
        center = scenario.regions[dst].center
        return next((k for k, p in enumerate(pos[rows][::substeps])
                     if reached(p, center, radius)), -1)

    table("legs.tsv", ["index", "source", "target", "plan_steps",
                       "physical_arrival_steps", "max_deviation"], [s] * 5 + [g],
          [(str(i), src, dst, str(weight / scenario.step), str(arrival(dst, rows)),
            float(np.max(dev[rows], initial=0.0)))
           for i, ((src, dst, weight), rows)
           in enumerate(zip(plan.legs(), leg_rows(indices)))])
    return written
