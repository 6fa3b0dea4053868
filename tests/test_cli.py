import json
import re
import shlex
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tubeplan
from tubeplan import cli
from tubeplan.errors import ValidationError
from tubeplan.harness import import_trace
from tubeplan.mitl import MAX_NESTING

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


def test_parse_accepts_nesting_up_to_the_limit(capsys):
    # 50 parentheses, 49 negations and an F: exactly MAX_NESTING levels
    text = "(" * 50 + "!" * 49 + "F[0,1] a" + ")" * 50
    assert cli.main(["parse", "--formula", text]) == cli.EXIT_PASS
    assert "atoms: a" in capsys.readouterr().out


@pytest.mark.parametrize("text, position", [
    ("(" * 50 + "!" * 50 + "F[0,1] a" + ")" * 50, 100),
    ("(" * 400 + "a" + ")" * 400, 100),
    ("!" * 3000 + "a", 100),
], ids=["F-past-limit", "parentheses-400", "negations-3000"])
def test_parse_rejects_deep_nesting(capsys, text, position):
    # nesting past the limit is bad input at the token that crosses it
    # (exit 3, one error line), not a RecursionError traceback (exit 1)
    assert cli.main(["parse", "--formula", text]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err == (f"error: formula nested deeper than {MAX_NESTING} levels "
                   f"(at position {position})\n")


def test_parse_prints_long_chains(capsys):
    # the parser builds a 5,000-operand chain left-deep, without recursion;
    # printing it and listing its atoms must not recurse per operand either
    text = " & ".join(["a"] * 5000)
    assert cli.main(["parse", "--formula", text]) == cli.EXIT_PASS
    assert capsys.readouterr().out.splitlines() == [
        "(" * 4999 + "a" + " & a)" * 4999, "atoms: a"]


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    """The tiny world with labels o0..o4999 on H, whose safety block forbids
    each: one ``&`` chain of 5,000 operands, and its own abstraction."""
    d = tmp_path_factory.mktemp("chain")
    data = tiny_dict()
    data["labels"]["H"] = [f"o{i}" for i in range(5000)]
    data["formula"] = ("G[0,inf](" + " & ".join(f"!o{i}" for i in range(5000))
                       + ") & F[0,30] goal")
    (d / "tiny.json").write_text(json.dumps(data))
    assert cli.main(["abstract", "--scenario", str(d / "tiny.json"),
                     "--out", str(d / "wts.json")]) == cli.EXIT_PASS
    return d


@pytest.mark.parametrize("command", ["parse", "synthesize", "run", "verify"])
def test_long_safety_chain_end_to_end(long_chain, capsys, command):
    # no stage walks the chain by one call per operand, so none raises
    # RecursionError under the default recursion limit
    scn, out = str(long_chain / "tiny.json"), long_chain / "out"
    wts = ["--wts", str(long_chain / "wts.json")]
    if command == "verify" and not out.exists():
        assert cli.main(["run", "--scenario", scn, *wts, "--out", str(out)]) == cli.EXIT_PASS
    argv = {
        "parse": ["parse", "--scenario", scn],
        "synthesize": ["synthesize", "--scenario", scn, *wts],
        "run": ["run", "--scenario", scn, *wts, "--out", str(out)],
        "verify": ["verify", "--scenario", scn, "--plan", str(out / "plan.json"),
                   "--trace", str(out / "trace.tsv")],
    }[command]
    assert cli.main(argv) == cli.EXIT_PASS
    if command == "parse":
        assert "!o4999)" in capsys.readouterr().out


def test_invalid_scenario_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "hovercraft"}))
    code = cli.main(["abstract", "--scenario", str(bad)])
    assert code == cli.EXIT_INVALID
    # the problems name the file, as those of a cache or a plan do
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_huge_coordinate_prints_one_error_line(capsys, tmp_path):
    data = tiny_dict()
    data["regions"]["A"]["center"] = [1e300, 0]
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["parse", "--scenario", str(bad)]) == cli.EXIT_INVALID
    assert capsys.readouterr().err == (
        f"error: {bad}: region 'A' center leaves the eroded workspace\n")


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


def _rush_first_leg(stamps):
    """The stamps with the first leg cut to 1 s, too short to cross the
    tiny world, and every later stamp moved earlier with it."""
    cut = stamps[1] - 1
    return [stamps[0]] + [t - cut for t in stamps[1:]]


def _verify_report(workdir, plan_path, trace_path, capsys):
    capsys.readouterr()
    code = cli.main(["verify", "--scenario", str(workdir / "tiny.json"),
                     "--plan", str(plan_path), "--trace", str(trace_path)])
    return code, json.loads(capsys.readouterr().out)


def test_failed_simulation_writes_its_partial_trace(workdir, wts_cache, tmp_path,
                                                    capsys):
    plan = _tiny_plan(workdir, wts_cache)
    plan["stamps"] = [str(t) for t in _rush_first_leg(
        [Fraction(t) for t in plan["stamps"]])]
    plan_path, trace_path = tmp_path / "plan.json", tmp_path / "trace.tsv"
    plan_path.write_text(json.dumps(plan))
    code = cli.main(["simulate", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--plan", str(plan_path),
                     "--out", str(trace_path)])
    assert code == cli.EXIT_RUNTIME
    assert "failure: leg 0" in capsys.readouterr().err
    code, report = _verify_report(workdir, plan_path, trace_path, capsys)
    assert code == cli.EXIT_FAIL
    assert not report["complete"] and not report["pass"]


def test_failed_run_writes_its_artifacts(workdir, wts_cache, tmp_path, capsys,
                                         monkeypatch):
    synthesize = cli.synthesis.synthesize

    def rushed(*args, **kwargs):
        plan = synthesize(*args, **kwargs)
        return replace(plan, stamps=tuple(_rush_first_leg(plan.stamps)))

    monkeypatch.setattr(cli.synthesis, "synthesize", rushed)
    out = tmp_path / "artifacts"
    code = cli.main(["run", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    assert sorted(p.name for p in out.iterdir()) == ["plan.json", "trace.tsv",
                                                     "wts.json"]
    code, report = _verify_report(workdir, out / "plan.json", out / "trace.tsv",
                                  capsys)
    assert code == cli.EXIT_FAIL
    assert not report["complete"] and not report["pass"]


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


@pytest.mark.parametrize("command", ["parse", "synthesize", "verify"])
def test_zero_denominator_is_invalid_input(workdir, wts_cache, tmp_path, capsys,
                                           command):
    # a formula with a number ``Fraction`` cannot take is bad input (exit 3,
    # one error line), not a ZeroDivisionError traceback (exit 1)
    text = "F[1/0,3] goal"
    scn = str(workdir / "tiny.json")
    if command == "parse":
        argv = ["parse", "--formula", text]
    elif command == "synthesize":
        argv = ["synthesize", "--scenario", scn, "--wts", str(wts_cache), "--formula", text]
    else:
        plan = _tiny_plan(workdir, wts_cache)
        plan["formula"] = text
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(plan))
        argv = ["verify", "--scenario", scn, "--plan", str(bad),
                "--trace", str(workdir / "trace.tsv")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "invalid number '1/0' (at position 2)" in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


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



@pytest.mark.parametrize("argv, message", [
    (["synthesize", "--budget", "abc"], "argument --budget: not an integer: 'abc'"),
    (["synthesize", "--budget", "0"], "argument --budget: must be at least 1, got 0"),
    (["run", "--budget", "-5"], "argument --budget: must be at least 1, got -5"),
    (["simulate", "--plan", "plan.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify"], "the following arguments are required: --plan, --trace"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
])
def test_usage_error_is_invalid_input(capsys, argv, message):
    # argparse's own exit code, 2, is the CLI's "unrealizable task"; a usage
    # error is invalid input, with the usage line on stderr, and a budget
    # below 1 is one too, not an exceeded search budget
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: tubeplan")
    assert message in captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv", [["--help"], ["synthesize", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tubeplan")

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


def test_stale_labels_in_cache_are_rejected(workdir, wts_cache, tmp_path, capsys):
    # the scenario hash leaves labels and the initial region out, so only
    # their own checks see these
    for key, value, message in (
        ("labels", {"A": ["home"], "B": ["hazard"], "H": ["goal"]}, "stale labels"),
        ("initial_region", "B", "starts at 'A', not at the initial region 'B'"),
    ):
        changed = tiny_dict()
        changed[key] = value
        scn = tmp_path / "changed.json"
        scn.write_text(json.dumps(changed))
        capsys.readouterr()
        code = cli.main(["run", "--scenario", str(scn), "--wts", str(wts_cache)])
        assert code == cli.EXIT_RUNTIME, key
        assert message in capsys.readouterr().err, key


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


def _boolean_weight(data):
    data["transitions"][1]["weight"] = True


def _states_string(data):
    data["states"] = "".join(data["states"])


def _repeat_a_transition(data):
    first = data["transitions"][0]
    data["transitions"].append(dict(first, weight="999"))


def _drop_h_from_states(data):
    data["states"] = "AB"


def _zero_weight(data):
    data["transitions"][0]["weight"] = "0"


def _negative_weight(data):
    data["transitions"][1]["weight"] = "-1"


def _number_hash(data):
    data["scenario_hash"] = 5


def _null_hash(data):
    data["scenario_hash"] = None


@pytest.mark.parametrize("corrupt, message", [
    (_truncate, "error:"), (_edit_wts(_drop_labels), "error:"),
    (_edit_wts(_word_weight), "error:"), (_edit_wts(_unknown_target), "error:"),
    (_edit_wts(_unknown_initial), "error:"), (_edit_wts(_label_string), "error:"),
    (_edit_wts(_boolean_weight),
     "field 'transitions.1.weight' must be a finite number, got True"),
    (_edit_wts(_states_string), "field 'states' must be a list, got 'ABH'"),
    (_edit_wts(_repeat_a_transition), "transition 'A' -> 'A' is listed 2 times"),
    # each missing name once, however many transitions it ends
    (_edit_wts(_drop_h_from_states), "transition end 'H' is not a state"),
    (_edit_wts(_number_hash), "field 'scenario_hash' must be a string, got 5"),
    (_edit_wts(_null_hash), "field 'scenario_hash' must be a string, got None"),
    (_edit_wts(_zero_weight), "transition 'A' -> 'A' has nonpositive weight 0"),
    (_edit_wts(_negative_weight), "transition 'A' -> 'B' has nonpositive weight -1"),
], ids=["truncated", "missing-key", "non-rational-weight", "unknown-target",
        "unknown-initial", "label-string", "boolean-weight", "states-string",
        "repeated-transition", "states-without-h", "number-hash", "null-hash",
        "zero-weight", "negative-weight"])
def test_malformed_wts_cache_is_rejected(workdir, wts_cache, tmp_path, capsys,
                                         corrupt, message):
    # unchecked, these crash synthesis (JSONDecodeError, KeyError,
    # ValueError, a TypeError on a hash that is not a string), fail it as a
    # runtime error (exit 4, as a weight of 0 or below did), or plan on a
    # weight ``true`` read as 1 s, or on the last of two weights (exit 0)
    bad = tmp_path / "wts.json"
    bad.write_text(corrupt(wts_cache.read_text()))
    code = cli.main(["synthesize", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(bad)])
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.count(message) == 1
    assert f"error: {bad}" in err           # every problem names the file


def _held_of(data, src, dst):
    return next(t for t in data["transitions"]
                if (t["source"], t["target"]) == (src, dst))["held"]


def _held_nan(data):
    _held_of(data, "A", "B")[3][1] = float("nan")


def _held_word(data):
    _held_of(data, "A", "B")[0][0] = "x"


def _held_bool(data):
    _held_of(data, "A", "B")[0][2] = True


def _held_ragged(data):
    _held_of(data, "A", "B")[5].pop()


def _held_not_rows(data):
    _held_of(data, "A", "B")[:] = [1.0, 2.0]


def _held_short(data):
    _held_of(data, "A", "B").pop()


def _held_planar(data):
    for row in _held_of(data, "A", "B"):
        row.pop()


@pytest.mark.parametrize("corrupt, message", [
    (_held_nan, "field 'transitions.1.held.3.1' must be a finite number, got nan"),
    (_held_word, "field 'transitions.1.held.0.0' must be a finite number, got 'x'"),
    (_held_bool, "field 'transitions.1.held.0.2' must be a finite number, got True"),
    (_held_ragged, "field 'transitions.1.held' has rows of [2, 3] numbers"),
    (_held_not_rows, "field 'transitions.1.held' must be a list of rows of numbers"),
    (_held_short, "transition 'A' -> 'B' holds 71 rows of 3 inputs, not 72 rows of 3"),
    (_held_planar, "transition 'A' -> 'B' holds 72 rows of 2 inputs, not 72 rows of 3"),
], ids=["nan", "word", "bool", "ragged", "not-rows", "short", "planar"])
@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_malformed_held_inputs_are_rejected(workdir, wts_cache, tmp_path, capsys,
                                            corrupt, message, command):
    # unchecked, the replay of a leg's nominal would read a NaN, a string
    # or a row of another model as an input
    plan = tmp_path / "plan.json"
    assert cli.main(["synthesize", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--out", str(plan)]) == cli.EXIT_PASS
    bad = tmp_path / "wts.json"
    bad.write_text(_edit_wts(corrupt)(wts_cache.read_text()))
    argv = [command, "--scenario", str(workdir / "tiny.json"), "--wts", str(bad)]
    if command == "simulate":
        argv += ["--plan", str(plan)]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.count(message) == 1
    assert f"error: {bad}" in err


def _detour_through_z(data):
    """A state ``Z`` that is no region, which the plan must pass: A's own
    transitions are replaced by A -> Z, and Z leads everywhere."""
    data["states"].append("Z")
    data["labels"]["Z"] = []
    data["transitions"] = [t for t in data["transitions"] if t["source"] != "A"]
    data["transitions"] += [{"source": src, "target": dst, "weight": "1/10"}
                            for src, dst in (("A", "Z"), ("Z", "B"), ("B", "Z"),
                                             ("Z", "A"), ("Z", "Z"))]


@pytest.mark.parametrize("command", ["synthesize", "run"])
def test_cache_state_that_is_no_region_is_rejected(workdir, wts_cache, tmp_path,
                                                   capsys, command):
    # the scenario hash does not cover the cache's states: unchecked,
    # ``synthesize`` plans through Z (exit 0) and ``run`` crashes executing
    # the leg to it (KeyError)
    bad = tmp_path / "wts.json"
    bad.write_text(_edit_wts(_detour_through_z)(wts_cache.read_text()))
    code = cli.main([command, "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(bad)])
    assert code == cli.EXIT_RUNTIME
    assert "has states ['A', 'B', 'H', 'Z'], not the scenario's regions" \
        in capsys.readouterr().err


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
    (_scenario_edit(["settle_time"], 0), "settle_time must be > 0"),
    (_scenario_edit(["fhocp", "horizon"], "5/4"),
     "fhocp.horizon=5/4 must be a multiple of the step 1/10"),
    (_scenario_edit(["disturbance_bound"], -0.02), "disturbance_bound must be >= 0"),
    (_scenario_edit(["sigma_margin"], 0.0), "sigma_margin must be > 0"),
    (_scenario_edit(["labels", "A"], "home"), "must be a list of strings"),
    # json writes these as NaN and Infinity, and reads them back as floats
    (_scenario_edit(["lipschitz"], float("nan")),
     "field 'lipschitz' must be a finite number, got nan"),
    (_scenario_edit(["input"], {"type": "box", "bound": float("inf")}),
     "field 'input.bound' must be a finite number, got inf"),
], ids=["center-3d", "workspace-3d", "state-dim-1", "sim-dt-0",
        "sim-dt-negative", "rational-1/0", "settle-negative", "settle-0", "horizon-5/4",
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


@pytest.mark.parametrize("path, value", [
    (["robot_radius"], False),
    (["lipschitz"], False),
    (["sigma_margin"], True),
    (["gain_floor"], True),
    (["input", "bound"], True),
    (["fhocp", "horizon"], True),
    (["fhocp", "state_weight"], True),
    (["fhocp", "step"], True),
    (["fhocp", "terminal_level"], True),
    (["state_dim"], True),
    (["disturbance_bound"], False),
    (["settle_time"], False),
    (["sim_dt"], True),
    (["workspace", "lower", 0], False),
    (["regions", "A", "radius"], True),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, list) else str(v).lower())
def test_boolean_scenario_number_is_rejected(tmp_path, capsys, path, value):
    # ``bool`` is a ``numbers.Real``: read as a number, ``false`` would be a
    # zero radius and ``true`` a unit bound or horizon
    data = tiny_dict()
    _scenario_edit(path, value)(data)
    scn = tmp_path / "bad.json"
    scn.write_text(json.dumps(data))
    code = cli.main(["synthesize", "--scenario", str(scn),
                     "--wts", str(tmp_path / "wts.json")])
    assert code == cli.EXIT_INVALID
    field = ".".join(map(str, path))
    assert f"field {field!r} must be a finite number, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "wts.json").exists()


def test_ball_input_set_runs_end_to_end(tmp_path, capsys):
    # the tiny world with a ball of inputs: the report's input counts are
    # the norm rule's, row by row, and two runs write the same bytes
    data = tiny_dict()
    data["input"] = {"type": "ball", "bound": 0.3}
    scn = tmp_path / "ball.json"
    scn.write_text(json.dumps(data))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["run", "--scenario", str(scn), "--out", str(out)]) == cli.EXIT_PASS
    report = json.loads((outs[0] / "report.json").read_text())
    inputs = import_trace(outs[0] / "trace.tsv").inputs
    norms = [float(np.sqrt(np.add.reduce(u * u))) for u in inputs]
    assert len(norms) > 1000
    assert report["input_violations"] == sum(v > 0.3 + 1e-9 for v in norms)
    assert report["saturations"] == sum(v > 0.3 - 1e-9 for v in norms)
    assert report["pass"]
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["plan.json", "report.json", "trace.tsv", "wts.json"]
    assert all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)


def test_plan_of_another_scenario_is_rejected(workdir, wts_cache, tmp_path,
                                              capsys):
    plan_path = workdir / "plan.json"
    trace_path = workdir / "trace.tsv"
    assert plan_path.exists() and trace_path.exists()
    for key, value, message in (
        ("disturbance_bound", 0.01, "another scenario"),
        # left out of the scenario hash, so only the plan's first state shows it
        ("initial_region", "B", "starts at 'A', not at the initial region 'B'"),
    ):
        changed = tiny_dict()
        changed[key] = value
        scn = tmp_path / "changed.json"
        scn.write_text(json.dumps(changed))
        for argv in (
            ["simulate", "--plan", str(plan_path)],
            ["verify", "--plan", str(plan_path), "--trace", str(trace_path)],
            ["plot-data", "--plan", str(plan_path), "--trace", str(trace_path),
             "--out", str(tmp_path / "p")],
        ):
            code = cli.main(argv + ["--scenario", str(scn)])
            assert code == cli.EXIT_INVALID, (key, argv[0])
            assert message in capsys.readouterr().err, (key, argv[0])


def _set_state_z(plan):
    plan["states"][0] = "Z"


def _list_state(plan):
    plan["states"][0] = ["A"]


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


def _boolean_stamp(plan):
    plan["stamps"][1] = True


def _fractional_prefix_len(plan):
    plan["prefix_len"] = 2.9


def _text_prefix_len(plan):
    plan["prefix_len"] = "2"


def _states_string(plan):
    plan["states"] = "".join(plan["states"])


@pytest.mark.parametrize("corrupt, message", [
    (_set_state_z, "state 'Z' is not a region"),
    (_list_state, "state ['A'] is not a string"),
    (_drop_two_stamps, "stamps for"),
    (_start_at_one, "first stamp is 1, not 0"),
    (_repeat_a_stamp, "do not strictly increase"),
    (_prefix_too_long, "prefix_len"),
    (_drop_prefix_len, "is not a plan"),
    (_divide_a_stamp_by_zero, "is not a plan"),
    (_overflow_a_stamp, "is not a plan"),
    (_boolean_stamp, "field 'stamps.1' must be a finite number, got True"),
    (_fractional_prefix_len, "field 'prefix_len' must be an integer, got 2.9"),
    (_text_prefix_len, "field 'prefix_len' must be an integer, got '2'"),
    (_states_string, "field 'states' must be a list, got 'AB"),
], ids=["unknown-state", "list-state", "missing-stamps", "nonzero-start", "repeated-stamp",
        "prefix-too-long", "missing-key", "zero-denominator", "infinite-stamp",
        "boolean-stamp", "fractional-prefix-len", "text-prefix-len", "states-string"])
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


def test_unrealizable_bundled_task_stops_within_its_budget(tmp_path, capsys):
    # a "no" is known once the search's kept nodes run out, 37 nodes in, of
    # the product's 16,055, so a budget of 100 ends with exit 2 and the two
    # locations the search reached, not with exit 5
    wts = tmp_path / "wts.json"
    wts.write_bytes((Path(__file__).resolve().parent.parent / "perfbench" / "data"
                     / "nexus_wts.json").read_bytes())
    formula = ("G[0,inf](!obs1 & !obs2 & !obs3 & !obs4) & F[30,50] mission2 & "
               "F[80,110] mission1 & F[0,10] mission2")
    code = cli.main(["synthesize", "--wts", str(wts), "--formula", formula,
                     "--budget", "100"])
    assert code == cli.EXIT_UNREALIZABLE
    assert capsys.readouterr().err.splitlines() == [
        "unrealizable: no accepting cycle is reachable in the product",
        "reachable locations: 0:active|1:wait|2:wait|3:wait, 0:reject|1:wait|2:wait|3:wait"]


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
