"""In-memory span tracing around tubeplan's public functions.

The tracer replaces a public name at the place where its caller looks it up
(a module attribute, or a class attribute for methods) with a wrapper that
records one span: name, start, end, the enclosing span, and the benchmark
stage that was open.  Nothing under ``src/`` is edited, and ``uninstall``
puts every original back.

A span's self time is its duration minus the time covered by its children.
Spans are single-threaded and properly nested, so the children of a span
never overlap and their durations simply add up.  Runs of the speed probe's
reference kernel inside a span are taken out of its duration.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

STAGES = ("abstract", "simulate")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.stages = [""]
        self.name = array("i")
        self.parent = array("i")
        self.stage = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}            # (stage, key) -> number
        self._open = -1
        self._stage = 0
        self._patched = []

    # ---- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open)
        self.stage.append(self._stage)
        self.end.append(0.0)
        self._open = idx
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open = self.parent[idx]

    def count(self, key: str, n=1) -> None:
        ck = (self.stages[self._stage], key)
        self.counts[ck] = self.counts.get(ck, 0) + n

    @contextmanager
    def stage_span(self, stage: str):
        """A span opened by the benchmark itself; calls made inside it are
        attributed to ``stage``."""
        prev = self._stage
        if stage not in self.stages:
            self.stages.append(stage)
        self._stage = self.stages.index(stage)
        idx = self._begin(self._name_id("stage." + stage))
        try:
            yield
        finally:
            self._finish(idx)
            self._stage = prev

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``on_result(tracer, args, result)`` runs after the span has closed,
        so its own cost is not charged to the wrapped function.
        """
        original = getattr(owner, attr)
        nid = self._name_id(name)
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                finish(idx)
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---- reading ---------------------------------------------------------

    def arrays(self, probe):
        """Name, stage, duration and self time of every span."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        stage = np.frombuffer(self.stage, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        dur = end - start - probe.time_inside(start, end)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return name, stage, dur, dur - child

    def write(self, path, probe) -> None:
        """Write every span (name, start, end, parent, stage) and every
        probe kernel run to ``path``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                stage=np.frombuffer(self.stage, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=float),
                end=np.frombuffer(self.end, dtype=float),
                names=np.array(json.dumps(self.names)),
                stages=np.array(json.dumps(self.stages)),
                probe_start=np.asarray(probe.starts),
                probe_end=np.asarray(probe.ends),
            )


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------

def _on_solve(tracer, args, sol):
    tracer.count("solver_iters", sol.iterations)
    if not sol.feasible:
        tracer.count("infeasible_solves")


def _on_build_wts(tracer, args, wts):
    tracer.count("transitions", len(wts.transitions))


def _on_synthesize(tracer, args, plan):
    tracer.count("plan_legs", len(plan.states) - 1)


def _on_build_tba(tracer, args, tba):
    tracer.count("tba_locations", len(tba.locations))
    tracer.count("tba_edges", len(tba.edges))


def _on_execute(tracer, args, trace):
    tracer.count("samples", len(trace.ts))


def _on_export(tracer, args, result):
    tracer.count("trace_bytes", os.path.getsize(args[1]))


def install(tracer: Tracer, tp) -> None:
    """Wrap each layer's public names where their callers look them up."""
    spans = [
        (tp.cli, "main", "cli.main", None),
        (tp.cli, "load_scenario", "scenario.load_scenario", None),
        (tp.abstraction, "build_wts", "abstraction.build_wts", _on_build_wts),
        (tp.abstraction, "save_wts", "abstraction.save_wts", None),
        (tp.abstraction, "load_wts", "abstraction.load_wts", None),
        (tp.abstraction, "navigate", "abstraction.navigate", None),
        (tp.harness, "navigate", "harness.navigate", None),
        (tp.controller, "solve_fhocp", "controller.solve_fhocp", _on_solve),
        (tp.controller, "rk4_step", "controller.rk4_step", None),
        (tp.synthesis, "synthesize", "synthesis.synthesize", _on_synthesize),
        (tp.synthesis, "find_accepting_run", "synthesis.find_accepting_run", None),
        (tp.synthesis, "save_plan", "synthesis.save_plan", None),
        (tp.synthesis, "load_plan", "synthesis.load_plan", None),
        (tp.tba.TimedAutomaton, "successors", "tba.TimedAutomaton.successors", None),
        (tp.tba, "build_tba", "tba.build_tba", _on_build_tba),
        (tp.tba, "accepts_word", "tba.accepts_word", None),
        (tp.mitl, "monitor", "mitl.monitor", None),
        (tp.harness, "monitor", "harness.monitor", None),
        (tp.mitl, "parse", "mitl.parse", None),
        (tp.harness, "execute_plan", "harness.execute_plan", _on_execute),
        (tp.harness, "export_trace", "harness.export_trace", _on_export),
        (tp.harness, "import_trace", "harness.import_trace", None),
        (tp.harness, "verify_trace", "harness.verify_trace", None),
    ]
    for owner, attr, name, on_result in spans:
        tracer.wrap(owner, attr, name, on_result)


# Layer metrics with their units.  Controller and dynamics metrics are also
# reported per stage span (``abstract.`` and ``simulate.`` prefixes), since
# both the abstraction and the executor drive the controller.
STAGED_METRICS = {
    "controller.navigate_calls": "count",
    "controller.solves": "count",
    "controller.solver_iters": "count",
    "controller.iters_per_solve": "count",
    "controller.infeasible_solves": "count",
    "controller.solve_s": "s",
    "controller.loop_s": "s",
    "dynamics.rk4_steps": "count",
    "dynamics.rk4_s": "s",
}
LAYER_METRICS = {
    **STAGED_METRICS,
    **{f"{stage}.{name}": unit for stage in STAGES
       for name, unit in STAGED_METRICS.items()},
    "abstraction.legs": "count",
    "abstraction.transitions": "count",
    "abstraction.kept_ratio": "ratio",
    "abstraction.leg_ms_p50": "ms",
    "abstraction.leg_ms_max": "ms",
    "synthesis.search_s": "s",
    "synthesis.expansions": "count",
    "synthesis.expansions_per_s": "1/s",
    "synthesis.plan_legs": "count",
    "tba.build_s": "s",
    "tba.locations": "count",
    "tba.edges": "count",
    "tba.accepts_s": "s",
    "mitl.monitor_calls": "count",
    "mitl.monitor_s": "s",
    "mitl.parse_s": "s",
    "harness.execute_s": "s",
    "harness.samples": "count",
    "harness.export_s": "s",
    "harness.import_s": "s",
    "harness.trace_bytes": "bytes",
    "harness.verify_s": "s",
    "scenario.load_s": "s",
    "cli.overhead_s": "s",
    "trace_overhead_ratio": "ratio",
}

# Counts that must repeat exactly for the same seed.
EXACT_COUNTS = ("controller.solves", "controller.solver_iters",
                "synthesis.expansions", "harness.samples")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, probe) -> dict:
    """Per-layer values (without ``trace_overhead_ratio``) from the spans."""
    name, stage, dur, self_time = tracer.arrays(probe)
    ids = tracer._name_ids

    def select(span, stage_name=None):
        mask = name == ids.get(span, -1)
        if stage_name is not None:
            sid = (tracer.stages.index(stage_name)
                   if stage_name in tracer.stages else -1)
            mask &= stage == sid
        return mask

    def calls(span, st=None):
        return int(np.count_nonzero(select(span, st)))

    def total(span, st=None):
        return float(dur[select(span, st)].sum())

    def own(span, st=None):
        return float(self_time[select(span, st)].sum())

    def counted(key, st=None):
        if st is not None:
            return tracer.counts.get((st, key), 0)
        return sum(v for (s, k), v in tracer.counts.items() if k == key)

    out = {}
    for prefix, st in [("", None)] + [(s + ".", s) for s in STAGES]:
        navs = calls("abstraction.navigate", st) + calls("harness.navigate", st)
        solves = calls("controller.solve_fhocp", st)
        iters = counted("solver_iters", st)
        out.update({
            prefix + "controller.navigate_calls": navs,
            prefix + "controller.solves": solves,
            prefix + "controller.solver_iters": iters,
            prefix + "controller.iters_per_solve": _ratio(iters, solves),
            prefix + "controller.infeasible_solves": counted("infeasible_solves", st),
            prefix + "controller.solve_s": own("controller.solve_fhocp", st),
            prefix + "controller.loop_s": (own("abstraction.navigate", st)
                                           + own("harness.navigate", st)),
            prefix + "dynamics.rk4_steps": calls("controller.rk4_step", st),
            prefix + "dynamics.rk4_s": total("controller.rk4_step", st),
        })

    legs_ms = dur[select("abstraction.navigate")] * 1e3
    legs = len(legs_ms)
    transitions = counted("transitions")
    search_s = total("synthesis.find_accepting_run")
    expansions = calls("tba.TimedAutomaton.successors")
    out.update({
        "abstraction.legs": legs,
        "abstraction.transitions": transitions,
        "abstraction.kept_ratio": _ratio(transitions, legs),
        "abstraction.leg_ms_p50": float(np.median(legs_ms)) if legs else 0.0,
        "abstraction.leg_ms_max": float(legs_ms.max()) if legs else 0.0,
        "synthesis.search_s": search_s,
        "synthesis.expansions": expansions,
        "synthesis.expansions_per_s": _ratio(expansions, search_s),
        "synthesis.plan_legs": counted("plan_legs"),
        "tba.build_s": total("tba.build_tba"),
        "tba.locations": counted("tba_locations"),
        "tba.edges": counted("tba_edges"),
        "tba.accepts_s": total("tba.accepts_word"),
        "mitl.monitor_calls": calls("mitl.monitor") + calls("harness.monitor"),
        "mitl.monitor_s": total("mitl.monitor") + total("harness.monitor"),
        "mitl.parse_s": total("mitl.parse"),
        "harness.execute_s": own("harness.execute_plan"),
        "harness.samples": counted("samples"),
        "harness.export_s": total("harness.export_trace"),
        "harness.import_s": total("harness.import_trace"),
        "harness.trace_bytes": counted("trace_bytes"),
        "harness.verify_s": total("harness.verify_trace"),
        "scenario.load_s": total("scenario.load_scenario"),
        "cli.overhead_s": own("cli.main"),
    })
    return out
