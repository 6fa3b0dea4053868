"""The benchmark's hooks must still find what they wrap and load.

``perfbench/tracing.py`` patches public names of the package by attribute,
and the ``nexus-synth`` workload loads a frozen transition system checked
against the bundled scenario's hash; a rename or a format change would
otherwise surface only when the benchmark runs.
"""

import dataclasses
import importlib
import importlib.util
import os
from types import SimpleNamespace

import numpy as np

from tubeplan.abstraction import load_wts, scenario_hash
from tubeplan.scenario import default_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
MODULES = ("errors", "geometry", "dynamics", "controller", "mitl", "tba",
           "scenario", "abstraction", "synthesis", "harness", "cli")


def _load_tracing():
    # by file path: importing run.py would re-exec the interpreter
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_hooked_name():
    tracing = _load_tracing()
    tp = SimpleNamespace(**{m: importlib.import_module("tubeplan." + m)
                            for m in MODULES})
    before = {m: dict(vars(getattr(tp, m))) for m in MODULES}
    successors = tp.tba.TimedAutomaton.successors
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, tp)
        assert tp.harness.navigate is not before["harness"]["navigate"]
    finally:
        tracer.uninstall()
    for m in MODULES:
        assert vars(getattr(tp, m)) == before[m], m
    assert tp.tba.TimedAutomaton.successors is successors


def test_frozen_transition_system_loads():
    wts = load_wts(os.path.join(PERFBENCH, "data", "nexus_wts.json"),
                   expected_hash=scenario_hash(default_scenario()))
    assert len(wts.transitions) == 59


class _NoKernel:
    """A speed probe whose reference kernel never ran."""

    @staticmethod
    def time_inside(start, end):
        return np.zeros(len(start))


def test_layer_metrics_read_a_traced_run(tiny_scenario, tiny_wts):
    # the per-layer metrics of a traced abstraction and execution: every
    # solve the tracer sees must be one problem's solution, with an int
    # iteration count and a bool verdict, or ``_on_solve`` fails.  The
    # execution runs on the system without its held inputs, as loaded from
    # an older cache, so that it solves
    tracing = _load_tracing()
    tp = SimpleNamespace(**{m: importlib.import_module("tubeplan." + m)
                            for m in MODULES})
    plan = tp.synthesis.synthesize(tiny_wts, tiny_scenario.formula())
    unheld = dataclasses.replace(tiny_wts, held={})
    tracer = tracing.Tracer()
    tracing.install(tracer, tp)
    try:
        with tracer.stage_span("abstract"):
            tp.abstraction.build_wts(tiny_scenario)
        with tracer.stage_span("simulate"):
            tp.harness.execute_plan(tiny_scenario, unheld, plan, seed=1)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, _NoKernel())
    assert type(layers["controller.solves"]) is int
    assert type(layers["controller.solver_iters"]) is int
    for name in ("navigate_calls", "solves", "solver_iters", "iters_per_solve"):
        assert layers["simulate.controller." + name] > 0, name
    assert layers["abstraction.transitions"] == len(tiny_wts.transitions)


def test_traced_execution_counts_every_solve(monkeypatch, tiny_scenario, tiny_wts):
    # the tracer counts solves at ``solve_fhocp``, which a lone problem goes
    # through; every solve goes through ``solve_fhocps``, so the two counts
    # agree only while execution passes its problems one at a time.  The
    # system has no held inputs, as if loaded from an older cache, so
    # execution solves
    tracing = _load_tracing()
    tp = SimpleNamespace(**{m: importlib.import_module("tubeplan." + m)
                            for m in MODULES})
    plan = tp.synthesis.synthesize(tiny_wts, tiny_scenario.formula())
    unheld = dataclasses.replace(tiny_wts, held={})
    problems = []
    solve_all = tp.controller.solve_fhocps

    def counting(batch):
        problems.extend(batch)
        return solve_all(batch)

    monkeypatch.setattr(tp.controller, "solve_fhocps", counting)
    tracer = tracing.Tracer()
    tracing.install(tracer, tp)
    try:
        with tracer.stage_span("simulate"):
            tp.harness.execute_plan(tiny_scenario, unheld, plan, seed=1)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, _NoKernel())
    assert layers["simulate.controller.solves"] == len(problems) > 0
