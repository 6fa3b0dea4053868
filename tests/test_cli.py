import json
import re
import shlex
from pathlib import Path

import pytest

import tubeplan
from tubeplan import cli
from tubeplan.errors import ValidationError

from conftest import tiny_dict


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    scn = d / "tiny.json"
    scn.write_text(json.dumps(tiny_dict()))
    return d


@pytest.fixture(scope="module")
def wts_cache(workdir):
    """Abstraction cache shared by the slower subcommand tests."""
    path = workdir / "wts.json"
    code = cli.main(["abstract", "--scenario", str(workdir / "tiny.json"),
                     "--out", str(path)])
    assert code == cli.EXIT_PASS
    return path


def test_parse_echoes_formula(capsys):
    assert cli.main(["parse", "--formula", "F[0,30] goal"]) == cli.EXIT_PASS
    out = capsys.readouterr().out
    assert "F[0,30]" in out and "goal" in out
    assert "atoms: goal" in out


def test_parse_rejects_bad_formula(capsys):
    assert cli.main(["parse", "--formula", "F[5,2 goal"]) == cli.EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_invalid_scenario_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "hovercraft"}))
    code = cli.main(["abstract", "--scenario", str(bad)])
    assert code == cli.EXIT_INVALID


def test_abstract_lists_transitions(workdir, wts_cache, capsys):
    # the fixture already ran abstract; check its artifact and rerun output
    data = json.loads(wts_cache.read_text())
    assert data["states"] == ["A", "B", "H"]
    assert any(t["source"] == "A" and t["target"] == "B"
               for t in data["transitions"])


def test_synthesize_writes_plan(workdir, wts_cache, capsys):
    plan_path = workdir / "plan.json"
    code = cli.main(["synthesize", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--out", str(plan_path)])
    assert code == cli.EXIT_PASS
    plan = json.loads(plan_path.read_text())
    assert plan["states"][0] == "A"
    assert "B" in plan["states"]
    assert "t=" in capsys.readouterr().out


def _tiny_plan(workdir, wts_cache):
    """The tiny plan as a dict, synthesized into the workdir if missing."""
    plan_path = workdir / "plan.json"
    if not plan_path.exists():
        assert cli.main(["synthesize", "--scenario",
                         str(workdir / "tiny.json"), "--wts", str(wts_cache),
                         "--out", str(plan_path)]) == cli.EXIT_PASS
    return json.loads(plan_path.read_text())


def test_simulate_then_verify(workdir, wts_cache, capsys):
    _tiny_plan(workdir, wts_cache)
    plan_path = workdir / "plan.json"
    trace_path = workdir / "trace.tsv"
    code = cli.main(["simulate", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--plan", str(plan_path),
                     "--out", str(trace_path), "--seed", "3"])
    assert code == cli.EXIT_PASS
    capsys.readouterr()  # drop the simulate summary line
    code = cli.main(["verify", "--scenario", str(workdir / "tiny.json"),
                     "--plan", str(plan_path), "--trace", str(trace_path)])
    assert code == cli.EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["monitor_ok"]


def test_plot_data_command(workdir, wts_cache, tmp_path, capsys):
    trace_path = workdir / "trace.tsv"
    assert trace_path.exists()
    code = cli.main(["plot-data", "--scenario", str(workdir / "tiny.json"),
                     "--plan", str(workdir / "plan.json"),
                     "--trace", str(trace_path), "--out", str(tmp_path / "p")])
    assert code == cli.EXIT_PASS
    listed = capsys.readouterr().out.splitlines()
    assert len(listed) == 6


def test_truncated_trace_is_rejected(workdir, tmp_path, capsys):
    # an interrupted copy cuts the last row short: that is bad input
    # (exit 3), not a failed verdict (exit 1)
    trace = (workdir / "trace.tsv").read_bytes()
    cut = tmp_path / "cut.tsv"
    cut.write_bytes(trace[:-40])
    code = cli.main(["verify", "--scenario", str(workdir / "tiny.json"),
                     "--plan", str(workdir / "plan.json"), "--trace", str(cut)])
    assert code == cli.EXIT_INVALID
    assert "cells, the column header" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "not-utf8"])
@pytest.mark.parametrize("flag", ["--scenario", "--plan", "--trace"])
def test_unreadable_input_file_is_rejected(workdir, wts_cache, tmp_path, capsys,
                                           flag, kind):
    # a file that cannot be read is bad input (exit 3, one error line), not
    # a failed verdict (exit 1) with a traceback
    _tiny_plan(workdir, wts_cache)
    files = {"--scenario": workdir / "tiny.json", "--plan": workdir / "plan.json",
             "--trace": workdir / "trace.tsv"}
    assert files["--trace"].exists()
    bad = tmp_path / files[flag].name
    if kind == "not-utf8":
        # the file's own bytes, then one that no UTF-8 text holds
        bad.write_bytes(files[flag].read_bytes() + b"\xff")
    files[flag] = bad
    capsys.readouterr()
    code = cli.main(["verify", *(str(a) for pair in files.items() for a in pair)])
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_run_end_to_end(workdir, wts_cache, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = cli.main(["run", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--out", str(out)])
    assert code == cli.EXIT_PASS
    printed = capsys.readouterr().out
    assert printed.rstrip().endswith("PASS")
    for name in ("wts.json", "plan.json", "trace.tsv", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["pass"]
    # run stores the scenario's raw formula text; verify compares it in
    # canonical form, so the run's own artifacts still verify
    code = cli.main(["verify", "--scenario", str(workdir / "tiny.json"),
                     "--plan", str(out / "plan.json"),
                     "--trace", str(out / "trace.tsv")])
    assert code == cli.EXIT_PASS


def test_plan_for_another_formula_is_rejected(workdir, wts_cache, tmp_path,
                                              capsys):
    # a plan synthesized for a weaker task, and its own honest trace: the
    # verdict would check the scenario's formula against another task's plan
    plan_path = tmp_path / "plan.json"
    trace_path = tmp_path / "trace.tsv"
    scn = str(workdir / "tiny.json")
    assert cli.main(["synthesize", "--scenario", scn, "--wts", str(wts_cache),
                     "--formula", "F[0,30] goal",
                     "--out", str(plan_path)]) == cli.EXIT_PASS
    assert cli.main(["simulate", "--scenario", scn, "--wts", str(wts_cache),
                     "--plan", str(plan_path), "--seed", "3",
                     "--out", str(trace_path)]) == cli.EXIT_PASS
    capsys.readouterr()
    code = cli.main(["verify", "--scenario", scn, "--plan", str(plan_path),
                     "--trace", str(trace_path)])
    assert code == cli.EXIT_INVALID
    assert "not the scenario's" in capsys.readouterr().err


def _drop_formula(plan):
    del plan["formula"]


def _garble_formula(plan):
    plan["formula"] = "F[5,2 goal"


@pytest.mark.parametrize("corrupt, message", [
    (_drop_formula, "names no formula"),
    (_garble_formula, "formula does not parse"),
], ids=["missing", "unparsable"])
def test_plan_formula_must_parse(workdir, wts_cache, tmp_path, capsys,
                                 corrupt, message):
    plan = _tiny_plan(workdir, wts_cache)
    corrupt(plan)
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps(plan))
    capsys.readouterr()
    code = cli.main(["verify", "--scenario", str(workdir / "tiny.json"),
                     "--plan", str(bad), "--trace", str(workdir / "trace.tsv")])
    assert code == cli.EXIT_INVALID
    assert message in capsys.readouterr().err


def test_unrealizable_exit_code(workdir, wts_cache, capsys):
    # every leg is longer than one second, so this deadline cannot be met
    code = cli.main(["synthesize", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--formula", "F[0,1] goal"])
    assert code == cli.EXIT_UNREALIZABLE
    assert "unrealizable" in capsys.readouterr().err


def test_budget_exit_code(workdir, wts_cache, capsys):
    # an exhausted budget decides nothing: realizability is unknown
    code = cli.main(["synthesize", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--budget", "2"])
    assert code == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert "search budget exceeded; realizability unknown" in err
    assert "unrealizable:" not in err


def test_unsupported_fragment_exit_code(workdir, wts_cache, capsys):
    code = cli.main(["synthesize", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--formula", "F[0,5] G[0,1] goal"])
    assert code == cli.EXIT_INVALID


def test_stale_cache_is_rejected(workdir, wts_cache, tmp_path):
    changed = tiny_dict()
    changed["disturbance_bound"] = 0.01
    scn = tmp_path / "changed.json"
    scn.write_text(json.dumps(changed))
    code = cli.main(["synthesize", "--scenario", str(scn),
                     "--wts", str(wts_cache)])
    assert code == cli.EXIT_RUNTIME


def test_stale_labels_in_cache_are_rejected(workdir, wts_cache, tmp_path):
    # the scenario hash leaves labels out, so only the label check sees this
    relabelled = tiny_dict()
    relabelled["labels"] = {"A": ["home"], "B": ["hazard"], "H": ["goal"]}
    scn = tmp_path / "relabelled.json"
    scn.write_text(json.dumps(relabelled))
    code = cli.main(["run", "--scenario", str(scn), "--wts", str(wts_cache)])
    assert code == cli.EXIT_RUNTIME


def _truncate(text):
    return text[:-40]


def _edit_wts(change):
    def corrupt(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)
    return corrupt


def _drop_labels(data):
    del data["labels"]


def _word_weight(data):
    data["transitions"][0]["weight"] = "fast"


def _unknown_target(data):
    data["transitions"][0]["target"] = "Z"


def _unknown_initial(data):
    data["initial"] = "Z"


def _label_string(data):
    data["labels"]["A"] = "home"


@pytest.mark.parametrize("corrupt", [
    _truncate, _edit_wts(_drop_labels), _edit_wts(_word_weight),
    _edit_wts(_unknown_target), _edit_wts(_unknown_initial),
    _edit_wts(_label_string),
], ids=["truncated", "missing-key", "non-rational-weight", "unknown-target",
        "unknown-initial", "label-string"])
def test_malformed_wts_cache_is_rejected(workdir, wts_cache, tmp_path, capsys,
                                         corrupt):
    # unchecked, these crash synthesis (JSONDecodeError, KeyError,
    # ValueError) or fail it as a runtime error (exit 4)
    bad = tmp_path / "wts.json"
    bad.write_text(corrupt(wts_cache.read_text()))
    code = cli.main(["synthesize", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(bad)])
    assert code == cli.EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def _keep_columns(trace_text, names):
    lines = trace_text.rstrip("\n").split("\n")
    keep = [lines[1].split("\t").index(name) for name in names]
    return "\n".join([lines[0]] + ["\t".join(line.split("\t")[i] for i in keep)
                                   for line in lines[1:]]) + "\n"


PLANAR = ["t", "x0", "x1", "xhat0", "xhat1", "u0", "u1", "delta0", "delta1"]


@pytest.mark.parametrize("command", ["verify", "plot-data"])
@pytest.mark.parametrize("columns, message", [
    (["t", "x0", "x1"], "is not that of a trace"),
    (PLANAR, "2 state columns, the scenario's model 3"),
], ids=["t-x0-x1", "planar"])
def test_trace_of_another_model_is_rejected(workdir, wts_cache, tmp_path, capsys,
                                            command, columns, message):
    # a trace of a planar model, with the plan's own digest, and one whose
    # columns are no trace's: unchecked, both crash (IndexError, a
    # broadcast error) or plot the wrong model
    _tiny_plan(workdir, wts_cache)
    trace = workdir / "trace.tsv"
    if not trace.exists():
        assert cli.main(["simulate", "--scenario", str(workdir / "tiny.json"),
                         "--wts", str(wts_cache), "--plan", str(workdir / "plan.json"),
                         "--out", str(trace), "--seed", "3"]) == cli.EXIT_PASS
    bad = tmp_path / "trace.tsv"
    bad.write_text(_keep_columns(trace.read_text(), columns))
    argv = [command, "--scenario", str(workdir / "tiny.json"),
            "--plan", str(workdir / "plan.json"), "--trace", str(bad)]
    if command == "plot-data":
        argv += ["--out", str(tmp_path / "p")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INVALID
    assert message in capsys.readouterr().err


def _scenario_edit(path, value):
    def change(data):
        *parents, key = path
        for p in parents:
            data = data[p]
        data[key] = value
    return change


@pytest.mark.parametrize("change, message", [
    (_scenario_edit(["regions", "A", "center"], [-0.9, 0.0, 0.0]),
     "center must be 2-d"),
    (_scenario_edit(["workspace"], {"lower": [-1.5] * 3, "upper": [1.5] * 3}),
     "workspace bounds must be 2-d"),
    (_scenario_edit(["state_dim"], 1), "state_dim must be >= 2"),
    (_scenario_edit(["sim_dt"], 0.0), "sim_dt must be > 0"),
    (_scenario_edit(["sim_dt"], -0.01), "sim_dt must be > 0"),
    (_scenario_edit(["fhocp", "horizon"], "1/0"), "'1/0' as a rational"),
    (_scenario_edit(["settle_time"], -1), "settle_time must be >= 0"),
    (_scenario_edit(["disturbance_bound"], -0.02), "disturbance_bound must be >= 0"),
    (_scenario_edit(["sigma_margin"], 0.0), "sigma_margin must be > 0"),
    (_scenario_edit(["labels", "A"], "home"), "must be a list of strings"),
    # json writes these as NaN and Infinity, and reads them back as floats
    (_scenario_edit(["lipschitz"], float("nan")),
     "field 'lipschitz' must be a finite number, got nan"),
    (_scenario_edit(["input"], {"type": "box", "bound": float("inf")}),
     "field 'input.bound' must be a finite number, got inf"),
], ids=["center-3d", "workspace-3d", "state-dim-1", "sim-dt-0",
        "sim-dt-negative", "rational-1/0", "settle-negative",
        "disturbance-negative", "sigma-margin-0", "label-string",
        "lipschitz-nan", "input-bound-inf"])
def test_out_of_range_scenario_is_rejected(tmp_path, capsys, change, message):
    data = tiny_dict()
    change(data)
    scn = tmp_path / "bad.json"
    scn.write_text(json.dumps(data))
    code = cli.main(["synthesize", "--scenario", str(scn),
                     "--wts", str(tmp_path / "wts.json")])
    assert code == cli.EXIT_INVALID
    assert message in capsys.readouterr().err


def test_plan_of_another_scenario_is_rejected(workdir, wts_cache, tmp_path,
                                              capsys):
    plan_path = workdir / "plan.json"
    trace_path = workdir / "trace.tsv"
    assert plan_path.exists() and trace_path.exists()
    changed = tiny_dict()
    changed["disturbance_bound"] = 0.01
    scn = tmp_path / "changed.json"
    scn.write_text(json.dumps(changed))
    for argv in (
        ["simulate", "--plan", str(plan_path)],
        ["verify", "--plan", str(plan_path), "--trace", str(trace_path)],
        ["plot-data", "--plan", str(plan_path), "--trace", str(trace_path),
         "--out", str(tmp_path / "p")],
    ):
        code = cli.main(argv + ["--scenario", str(scn)])
        assert code == cli.EXIT_INVALID, argv[0]
        assert "another scenario" in capsys.readouterr().err


def _set_state_z(plan):
    plan["states"][0] = "Z"


def _drop_two_stamps(plan):
    del plan["stamps"][-2:]


def _start_at_one(plan):
    plan["stamps"][0] = "1"


def _repeat_a_stamp(plan):
    plan["stamps"][2] = plan["stamps"][1]


def _prefix_too_long(plan):
    plan["prefix_len"] = len(plan["states"]) + 1


def _drop_prefix_len(plan):
    del plan["prefix_len"]


def _divide_a_stamp_by_zero(plan):
    plan["stamps"][1] = "1/0"


def _overflow_a_stamp(plan):
    plan["stamps"][1] = 1e400       # written out as 1e400 below


@pytest.mark.parametrize("corrupt, message", [
    (_set_state_z, "state 'Z' is not a region"),
    (_drop_two_stamps, "stamps for"),
    (_start_at_one, "first stamp is 1, not 0"),
    (_repeat_a_stamp, "do not strictly increase"),
    (_prefix_too_long, "prefix_len"),
    (_drop_prefix_len, "is not a plan"),
    (_divide_a_stamp_by_zero, "is not a plan"),
    (_overflow_a_stamp, "is not a plan"),
], ids=["unknown-state", "missing-stamps", "nonzero-start", "repeated-stamp",
        "prefix-too-long", "missing-key", "zero-denominator", "infinite-stamp"])
def test_malformed_plan_is_rejected(workdir, wts_cache, tmp_path, capsys,
                                    corrupt, message):
    # unchecked, these crash execution (KeyError, IndexError) or run a
    # schedule that does not start at 0
    plan = _tiny_plan(workdir, wts_cache)
    corrupt(plan)
    bad = tmp_path / "bad_plan.json"
    # json writes an infinite float as Infinity; both read back as inf
    bad.write_text(json.dumps(plan).replace("Infinity", "1e400"))
    # the library loader rejects every plan that is malformed on its own;
    # only the scenario knows whether a state is one of its regions
    if corrupt is _set_state_z:
        assert "Z" in tubeplan.load_plan(bad).states
    else:
        with pytest.raises(ValidationError) as err:
            tubeplan.load_plan(bad)
        assert message in str(err.value)
    capsys.readouterr()
    code = cli.main(["simulate", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--plan", str(bad)])
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_unrealizable_prints_reachable_locations(workdir, wts_cache, capsys):
    code = cli.main(["synthesize", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache),
                     "--formula", "G[0,inf] !hazard & F[0,1] goal"])
    assert code == cli.EXIT_UNREALIZABLE
    lines = capsys.readouterr().err.splitlines()
    listed = [line for line in lines if line.startswith("reachable locations: ")]
    assert len(listed) == 1
    locations = listed[0].split(": ", 1)[1].split(", ")
    assert len(locations) >= 2 and locations == sorted(locations)


def _readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```[^\n]*\n(.*?)```", readme.read_text(), re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("tubeplan ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} >= {
        "run", "parse", "abstract", "synthesize", "simulate", "verify",
        "plot-data"}
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
