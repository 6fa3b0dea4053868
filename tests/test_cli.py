import json
import re
import shlex
from pathlib import Path

import pytest

from tubeplan import cli

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


@pytest.mark.parametrize("corrupt, message", [
    (_set_state_z, "state 'Z' is not a region"),
    (_drop_two_stamps, "stamps for"),
    (_start_at_one, "first stamp is 1, not 0"),
    (_repeat_a_stamp, "do not strictly increase"),
    (_prefix_too_long, "prefix_len"),
    (_drop_prefix_len, "is not a plan"),
], ids=["unknown-state", "missing-stamps", "nonzero-start", "repeated-stamp",
        "prefix-too-long", "missing-key"])
def test_malformed_plan_is_rejected(workdir, wts_cache, tmp_path, capsys,
                                    corrupt, message):
    # unchecked, these crash execution (KeyError, IndexError) or run a
    # schedule that does not start at 0
    plan = _tiny_plan(workdir, wts_cache)
    corrupt(plan)
    bad = tmp_path / "bad_plan.json"
    bad.write_text(json.dumps(plan))
    capsys.readouterr()
    code = cli.main(["simulate", "--scenario", str(workdir / "tiny.json"),
                     "--wts", str(wts_cache), "--plan", str(bad)])
    assert code == cli.EXIT_INVALID
    assert message in capsys.readouterr().err


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
