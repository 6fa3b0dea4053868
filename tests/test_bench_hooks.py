"""The benchmark's hooks must still find what they wrap and load.

``perfbench/tracing.py`` patches public names of the package by attribute,
and the ``nexus-synth`` workload loads a frozen transition system checked
against the bundled scenario's hash; a rename or a format change would
otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
import os
from types import SimpleNamespace

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
