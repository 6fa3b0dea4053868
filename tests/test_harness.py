from dataclasses import replace
from fractions import Fraction

import hashlib
import json
import os

import numpy as np
import pytest

from tubeplan import cli
from tubeplan.abstraction import Wts
from tubeplan.errors import ExecutionFailure, ValidationError
from tubeplan.harness import (
    Trace,
    execute_plan,
    export_plot_data,
    export_trace,
    import_trace,
    stamp_indices,
    tube_tolerance,
    verify_trace,
)
from tubeplan.mitl import parse
from tubeplan.synthesis import Plan, plan_digest, save_plan, synthesize

from conftest import tiny_dict

F = Fraction


@pytest.fixture(scope="module")
def tiny_plan(tiny_scenario, tiny_wts):
    return synthesize(tiny_wts, tiny_scenario.formula(),
                      formula_text=tiny_scenario.formula_text)


@pytest.fixture(scope="module")
def tiny_trace(tiny_scenario, tiny_wts, tiny_plan):
    return execute_plan(tiny_scenario, tiny_wts, tiny_plan,
                        disturbance="random", seed=7)


def test_executed_stamps_are_the_scheduled_stamps(tiny_scenario, tiny_plan,
                                                  tiny_trace):
    assert tiny_trace.plan_digest == plan_digest(tiny_plan)
    for stamp, idx in zip(tiny_plan.stamps,
                          stamp_indices(tiny_scenario, tiny_plan)):
        assert idx.denominator == 1
        assert tiny_trace.ts[int(idx)] == pytest.approx(float(stamp))
    assert tiny_trace.ts[-1] == pytest.approx(float(tiny_plan.stamps[-1]))
    # sample count: one initial sample plus one per simulation substep
    assert len(tiny_trace.ts) == round(float(tiny_plan.stamps[-1]) / 0.01) + 1


def test_verifier_passes_under_random_disturbance(tiny_scenario, tiny_plan,
                                                  tiny_trace):
    report = verify_trace(tiny_scenario, tiny_plan, tiny_trace)
    assert report["pass"]
    assert report["complete"]
    assert report["monitor_ok"]
    assert report["offpath_entries"] == 0
    assert report["workspace_exits"] == 0
    assert report["input_violations"] == 0
    assert all(c["margin"] >= 0 for c in report["containment"])
    assert report["max_deviation"] <= report["tube_tolerance"]


def test_same_seed_reproduces_the_trace(tiny_scenario, tiny_wts, tiny_plan,
                                        tiny_trace):
    again = execute_plan(tiny_scenario, tiny_wts, tiny_plan,
                         disturbance="random", seed=7)
    assert np.array_equal(again.states, tiny_trace.states)
    assert np.array_equal(again.inputs, tiny_trace.inputs)
    assert np.array_equal(again.deltas, tiny_trace.deltas)
    other = execute_plan(tiny_scenario, tiny_wts, tiny_plan,
                         disturbance="random", seed=8)
    assert not np.array_equal(other.deltas, tiny_trace.deltas)


def test_zero_disturbance_is_noise_free(tiny_scenario, tiny_wts, tiny_plan):
    trace = execute_plan(tiny_scenario, tiny_wts, tiny_plan,
                         disturbance="zero", seed=0)
    assert np.all(trace.deltas == 0)
    report = verify_trace(tiny_scenario, tiny_plan, trace)
    assert report["pass"]


def test_trace_export_import_round_trip(tiny_scenario, tiny_plan, tiny_trace,
                                        tmp_path):
    path = tmp_path / "trace.tsv"
    export_trace(tiny_trace, path)
    loaded = import_trace(path)
    # every column, bit for bit: signed zeros, nominal, input, disturbance
    assert loaded.samples.shape == tiny_trace.samples.shape
    assert np.array_equal(loaded.samples.view(np.int64),
                          tiny_trace.samples.view(np.int64))
    assert (loaded.plan_digest, loaded.seed, loaded.disturbance) == (
        tiny_trace.plan_digest, 7, "random")
    # the verifier derives the timed word from the scenario's labels
    assert verify_trace(tiny_scenario, tiny_plan, loaded)["monitor_ok"]
    again = tmp_path / "again.tsv"
    export_trace(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_trace_cells_are_17_significant_digits(tmp_path):
    # signed zero, the smallest subnormal, a huge value, a value with no
    # short binary form and whole numbers, in every column
    special = [-0.0, 5e-324, 1e300, 0.1, 3.0, -2.0, 0.0, -1e-300, 12345678901234567.0]
    rng = np.random.default_rng(5)
    table = rng.permutation(np.resize(special, (9, 9)).ravel()).reshape(9, 9)
    trace = Trace(table, plan_digest="d" * 64)
    path = tmp_path / "trace.tsv"
    export_trace(trace, path)
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    cells = [line.split("\t") for line in lines[2:-1]]
    assert cells == [[format(v, ".17g") for v in row] for row in table.tolist()]
    loaded = import_trace(path)
    for name in ("ts", "states", "nominal", "inputs", "deltas"):
        assert np.array_equal(getattr(loaded, name).view(np.int64),
                              getattr(trace, name).view(np.int64)), name


def test_forged_samples_between_stamps_fail(tiny_scenario, tiny_plan,
                                            tiny_trace, tmp_path):
    # every sample off the scheduled stamps, with its nominal, moves onto the
    # centre of the hazard region H; the stamps, the inputs, the deviation and
    # the header stay clean, so only the samples themselves can tell
    substeps = round(float(tiny_scenario.step) / tiny_scenario.sim_dt)
    stamped = [int(s * substeps / tiny_scenario.step) for s in tiny_plan.stamps]
    forged_rows = np.ones(len(tiny_trace.ts), dtype=bool)
    forged_rows[stamped] = False
    hazard = tiny_scenario.model().embed_position(tiny_scenario.regions["H"].center)
    forged = replace(tiny_trace, samples=tiny_trace.samples.copy())
    forged.states[forged_rows] = hazard
    forged.nominal[forged_rows] = hazard

    report = verify_trace(tiny_scenario, tiny_plan, forged)
    assert report["containment_ok"] and report["tube_ok"]
    assert report["offpath_entries"] > 0
    assert not report["pass"]

    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(tiny_dict()))
    save_plan(tiny_plan, tmp_path / "plan.json")
    export_trace(forged, tmp_path / "trace.tsv")
    code = cli.main(["verify", "--scenario", str(scenario_path),
                     "--plan", str(tmp_path / "plan.json"),
                     "--trace", str(tmp_path / "trace.tsv")])
    assert code == cli.EXIT_FAIL


def test_trace_of_another_plan_is_rejected(tiny_scenario, tiny_wts,
                                           tiny_trace, tmp_path):
    # same scenario, other task: the trace names the plan it ran by digest
    other = synthesize(tiny_wts, parse("F[0,30] goal"),
                       formula_text="F[0,30] goal")
    assert plan_digest(other) != tiny_trace.plan_digest
    with pytest.raises(ValidationError):
        verify_trace(tiny_scenario, other, tiny_trace)

    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(tiny_dict()))
    save_plan(other, tmp_path / "plan.json")
    export_trace(tiny_trace, tmp_path / "trace.tsv")
    code = cli.main(["verify", "--scenario", str(scenario_path),
                     "--plan", str(tmp_path / "plan.json"),
                     "--trace", str(tmp_path / "trace.tsv")])
    assert code == cli.EXIT_INVALID


def test_samples_after_the_last_stamp_are_incomplete(tiny_scenario, tiny_plan,
                                                     tiny_trace):
    # the run goes on past the plan's last stamp, holding the last sample
    extra = 5
    longer = replace(tiny_trace, samples=np.concatenate(
        [tiny_trace.samples, np.repeat(tiny_trace.samples[-1:], extra, axis=0)]))
    longer.ts[-extra:] = tiny_trace.ts[-1] + 0.01 * np.arange(1, extra + 1)
    report = verify_trace(tiny_scenario, tiny_plan, longer)
    assert report["containment_ok"] and report["tube_ok"]
    assert not report["complete"]
    assert not report["pass"]


def _with_legacy_legs(path, saturations):
    """Rewrite the header of the trace at ``path`` as older versions wrote
    it, with per-leg records that claim ``saturations`` each."""
    header, rest = path.read_text().split("\n", 1)
    meta = json.loads(header[2:])
    meta["legs"] = [{"physical_arrival_steps": 0, "saturations": saturations,
                     "max_deviation": 0.0, "offpath_entries": 0,
                     "workspace_exits": 0}]
    path.write_text("# " + json.dumps(meta) + "\n" + rest)


def test_import_drops_old_header_counters(tiny_trace, tmp_path):
    # traces written by older versions carry per-leg records in their
    # header; they still load, and the records are ignored
    path = tmp_path / "trace.tsv"
    export_trace(tiny_trace, path)
    _with_legacy_legs(path, "x")
    loaded = import_trace(path)
    assert np.array_equal(loaded.states, tiny_trace.states)
    again = tmp_path / "again.tsv"
    export_trace(loaded, again)
    export_trace(tiny_trace, path)
    assert again.read_bytes() == path.read_bytes()


def test_saturations_are_counted_from_the_samples(tiny_scenario, tiny_plan,
                                                  tiny_trace, tmp_path):
    # three inputs moved onto the box bound under a header that claims 99
    # saturations per leg: the report counts the three the samples show
    bound = tiny_scenario.input_set().upper[0]
    assert verify_trace(tiny_scenario, tiny_plan, tiny_trace)["saturations"] == 0
    saturated = replace(tiny_trace, samples=tiny_trace.samples.copy())
    saturated.inputs[[40, 400, 2000], 0] = [bound, -bound, bound]
    path = tmp_path / "trace.tsv"
    export_trace(saturated, path)
    _with_legacy_legs(path, 99)
    report = verify_trace(tiny_scenario, tiny_plan, import_trace(path))
    assert report["saturations"] == 3
    assert report["input_violations"] == 0 and report["pass"]


def _header_not_json(lines):
    lines[0] = lines[0][:-5]


def _drop_header_key(key):
    def corrupt(lines):
        meta = json.loads(lines[0][2:])
        del meta[key]
        lines[0] = "# " + json.dumps(meta)
    return corrupt


def _set_header_key(key, value):
    def corrupt(lines):
        meta = json.loads(lines[0][2:])
        meta[key] = value
        lines[0] = "# " + json.dumps(meta)
    return corrupt


def _extra_cell(lines):
    lines[5] += "\t0"


def _word_cell(lines):
    lines[5] = lines[5].replace("\t", "\tx", 1)


def _nan_input(lines):
    # read as inside every bound, a NaN input would pass the verifier
    for i in range(5, len(lines) - 1):
        cells = lines[i].split("\t")
        n = (len(cells) - 1) // 4
        cells[1 + 2 * n:1 + 3 * n] = ["nan"] * n
        lines[i] = "\t".join(cells)


@pytest.mark.parametrize("corrupt, message", [
    (_header_not_json, "bad trace header"),
    (_drop_header_key("plan_digest"), "'plan_digest'"),
    (_drop_header_key("seed"), "'seed'"),
    (_drop_header_key("disturbance"), "'disturbance'"),
    (_set_header_key("plan_digest", 5), "plan_digest 5,"),
    (_set_header_key("seed", "x"), "seed 'x',"),
    (_set_header_key("seed", 1.0), "seed 1.0,"),
    (_set_header_key("disturbance", 7), "disturbance 7$"),
    (_extra_cell, "sample row 3 has"),
    (_word_cell, "bad sample"),
    (_nan_input, "sample row 3: u0 is nan, not a finite number"),
], ids=["header-not-json", "no-plan-digest", "no-seed", "no-disturbance",
        "digest-not-string", "seed-not-integer", "seed-float",
        "unknown-disturbance", "row-width", "non-numeric", "non-finite"])
def test_malformed_trace_is_rejected(tiny_trace, tmp_path, corrupt, message):
    path = tmp_path / "trace.tsv"
    export_trace(tiny_trace, path)
    lines = path.read_text().split("\n")
    corrupt(lines)
    path.write_text("\n".join(lines))
    with pytest.raises(ValidationError, match=message):
        import_trace(path)


def test_plot_data_files(tiny_scenario, tiny_plan, tiny_trace, tmp_path):
    written = export_plot_data(tiny_scenario, tiny_plan, tiny_trace,
                               tmp_path / "plots")
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["deviation.tsv", "inputs.tsv", "legs.tsv", "path.tsv",
                     "regions.tsv", "stamps.tsv"]
    with open(written[0]) as fh:
        header = fh.readline().split("\t")
        assert header[0] == "t"
        assert len(fh.readlines()) == len(tiny_trace.ts)
    # each sample's leg comes from the plan: the first sample and the
    # samples up to and including stamp i + 1 belong to leg i
    path = np.loadtxt(tmp_path / "plots" / "path.tsv", skiprows=1)
    ends = stamp_indices(tiny_scenario, tiny_plan)[1:]
    expected = [next(i for i, end in enumerate(ends) if k <= end)
                for k in range(len(tiny_trace.ts))]
    assert path[:, -1].astype(int).tolist() == expected
    legs = (tmp_path / "plots" / "legs.tsv").read_text().splitlines()
    assert len(legs) == len(tiny_plan.states)   # header plus one per leg


# sha256 of the plot-data files of the tiny trace, as a writer that
# formatted each cell on its own wrote them, on the trace of the projected
# Newton solver with the nominal carried over the whole plan
PLOT_DATA_SHA256 = {
    "deviation.tsv": "ce009cc0169fb6a4b362990196aafb27ecbdc43df1a84d074b83d7fefc12f639",
    "inputs.tsv": "16d4d0bc595a3017cd9706ef6e0f48d54e5fd0d856295d7af385d926e0610f64",
    "legs.tsv": "36c926f981ee8f86de774a56225b42f7ace9769a2ddd91862b0313b2943f8a52",
    "path.tsv": "ea79e05ad917014b6a130c2d4e8a13467308c8061d1a0c36f8fcabad363b523d",
    "regions.tsv": "565ef6a7764090a93446d4caad1e49e4d1ca040d1103bea8199b8d17dde680e2",
    "stamps.tsv": "9ae14fa5d8eef143f6edcb10e4dcc08b3c32b1de9fda82558e32adc0918185d0",
}


def test_plot_data_bytes_are_pinned(tiny_scenario, tiny_plan, tiny_trace, tmp_path):
    written = export_plot_data(tiny_scenario, tiny_plan, tiny_trace,
                               tmp_path / "plots")
    digests = {}
    for path in written:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == PLOT_DATA_SHA256


def test_missing_transition_fails_with_partial_trace(tiny_scenario, tiny_wts):
    plan = Plan(states=("A", "Z"), stamps=(F(0), F(1)), prefix_len=2)
    with pytest.raises(ExecutionFailure) as err:
        execute_plan(tiny_scenario, tiny_wts, plan, disturbance="zero")
    partial = err.value.partial_trace
    assert partial is not None
    assert len(partial.ts) == 1


def test_impossible_schedule_fails_with_partial_trace(tiny_scenario, tiny_wts):
    # shrink the A -> B schedule to one sampling step so the leg times out
    squeezed = dict(tiny_wts.transitions)
    squeezed[("A", "B")] = F(1, 10)
    wts = Wts(tiny_wts.states, tiny_wts.initial, tiny_wts.labels, squeezed,
              tiny_wts.scenario_hash)
    plan = Plan(states=("A", "B"), stamps=(F(0), F(1, 10)), prefix_len=2)
    with pytest.raises(ExecutionFailure) as err:
        execute_plan(tiny_scenario, wts, plan, disturbance="zero")
    # the partial trace ends with the failed leg's samples, one sampling
    # step of them, and neither of its sampling instants passes the stop test
    partial = err.value.partial_trace
    assert partial is not None
    assert len(partial.ts) == 11 and partial.ts[-1] == pytest.approx(0.1)
    dist = np.linalg.norm(partial.states[[0, 10], :2]
                          - tiny_scenario.regions["B"].center, axis=1)
    assert np.all(dist > tiny_scenario.fhocp_params().arrival_radius)


def test_tube_tolerance_formula():
    assert tube_tolerance(0.05, 0.01, 0.05) == pytest.approx(0.05505)
    assert tube_tolerance(0.0, 0.01, 0.0) == 0.0
