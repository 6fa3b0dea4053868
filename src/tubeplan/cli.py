"""Command-line front end.

Subcommands mirror the pipeline stages: parse a formula, abstract a scenario
into a weighted transition system, synthesize a plan, simulate it, verify a
trace, or do the whole chain with ``run``.  Exit codes: 0 verified pass,
1 verification failure, 2 unrealizable task, 3 invalid input (including a
file that cannot be read, and a plan or trace that does not match the
scenario or plan it is used with),
4 runtime failure during abstraction or execution, 5 search budget exceeded
(realizability unknown).  A usage error (an unknown subcommand or option,
a missing or malformed argument, a budget below 1) is invalid input too:
exit 3, with the usage line on stderr.  A failed execution still writes
its partial trace where ``--out`` asks for the trace, so ``verify`` can
check it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import abstraction, harness, mitl, synthesis
from .dynamics import DISTURBANCE_POLICIES
from .errors import (
    AbstractionError,
    ExecutionFailure,
    MitlSyntaxError,
    SearchBudgetExceeded,
    TubeplanError,
    Unrealizable,
    UnsupportedFragment,
    ValidationError,
)
from .scenario import default_scenario, load_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNREALIZABLE = 2
EXIT_INVALID = 3
EXIT_RUNTIME = 4
EXIT_BUDGET = 5


def _load(args):
    if getattr(args, "scenario", None):
        return load_scenario(args.scenario)
    return default_scenario()


def _get_wts(args, scenario):
    """Load a cached abstraction when it matches, else rebuild (and cache).
    A cache whose held inputs do not fit the scenario's steps and model
    (``abstraction.held_problems``) is invalid input."""
    expected = abstraction.scenario_hash(scenario)
    path = getattr(args, "wts", None)
    if path and os.path.exists(path):
        wts = abstraction.load_wts(path, expected_hash=expected)
        # the hash names the scenario, not the cache's own states, and it
        # leaves the labels and the initial region out
        if sorted(wts.states) != sorted(scenario.regions):
            raise AbstractionError(f"cached transition system has states "
                                   f"{sorted(wts.states)}, not the scenario's regions "
                                   f"{sorted(scenario.regions)}")
        if wts.labels != {s: scenario.label_of(s) for s in wts.states}:
            raise AbstractionError("cached transition system has stale labels")
        if wts.initial != scenario.initial_region:
            raise AbstractionError(f"cached transition system starts at {wts.initial!r}, "
                                   f"not at the initial region {scenario.initial_region!r}")
        problems = abstraction.held_problems(wts, scenario)
        if problems:
            raise ValidationError([f"{path}: {p}" for p in problems])
        return wts
    wts = abstraction.build_wts(scenario)
    if path:
        abstraction.save_wts(wts, path)
    return wts


def _load_plan(args, scenario):
    """Load ``--plan``, which must have been synthesized for ``scenario``;
    ``synthesis.load_plan`` checks its structure, its states must be
    regions of the scenario, and the first one its initial region (which
    the scenario hash leaves out)."""
    plan = synthesis.load_plan(args.plan)
    if plan.scenario_hash != abstraction.scenario_hash(scenario):
        raise ValidationError([f"{args.plan} was synthesized for another scenario"])
    problems = [f"{args.plan}: state {s!r} is not a region of the scenario"
                for s in plan.states if s not in scenario.regions]
    if not problems and plan.states[0] != scenario.initial_region:
        problems.append(f"{args.plan} starts at {plan.states[0]!r}, not at the initial "
                        f"region {scenario.initial_region!r}")
    if problems:
        raise ValidationError(problems)
    return plan


def cmd_parse(args) -> int:
    if args.formula:
        text = args.formula
    else:
        text = _load(args).formula_text
    f = mitl.parse(text)
    print(mitl.to_string(f))
    print("atoms:", " ".join(sorted(mitl.atoms_of(f))))
    return EXIT_PASS


def cmd_abstract(args) -> int:
    scenario = _load(args)
    wts = abstraction.build_wts(scenario)
    if args.out:
        abstraction.save_wts(wts, args.out)
    print(f"states: {len(wts.states)}  transitions: {len(wts.transitions)}")
    for (src, dst), weight in sorted(wts.transitions.items()):
        print(f"  {src} -> {dst}  weight {float(weight):g}")
    return EXIT_PASS


def cmd_synthesize(args) -> int:
    scenario = _load(args)
    wts = _get_wts(args, scenario)
    formula = mitl.parse(args.formula) if args.formula else scenario.formula()
    plan = synthesis.synthesize(wts, formula, budget=args.budget,
                                formula_text=mitl.to_string(formula))
    if args.out:
        synthesis.save_plan(plan, args.out)
    for state, stamp in zip(plan.states, plan.stamps):
        print(f"  t={float(stamp):7.2f}  {state}")
    return EXIT_PASS


def _execute(args, scenario, wts, plan, trace_path):
    """Run the plan.  A failed execution writes its partial trace to
    ``trace_path``, when one is given, before the failure propagates, so
    that ``verify`` can report on it."""
    try:
        return harness.execute_plan(scenario, wts, plan,
                                    disturbance=args.disturbance, seed=args.seed)
    except ExecutionFailure as exc:
        if trace_path:
            harness.export_trace(exc.partial_trace, trace_path)
        raise


def cmd_simulate(args) -> int:
    scenario = _load(args)
    plan = _load_plan(args, scenario)
    wts = _get_wts(args, scenario)
    trace = _execute(args, scenario, wts, plan, args.out)
    if args.out:
        harness.export_trace(trace, args.out)
    print(f"samples: {len(trace.ts)}  max deviation: {trace.max_deviation:.4g}")
    return EXIT_PASS


def _check_plan_formula(args, plan, scenario):
    """The plan must have been synthesized for the scenario's formula.

    ``run`` stores the raw formula text and ``synthesize`` its canonical
    form, so the two are compared after ``mitl.to_string``.
    """
    if not plan.formula_text or not isinstance(plan.formula_text, str):
        raise ValidationError([f"{args.plan} names no formula"])
    try:
        text = mitl.to_string(mitl.parse(plan.formula_text))
    except MitlSyntaxError as exc:
        raise ValidationError([f"{args.plan}: formula does not parse: {exc}"]) from exc
    expected = mitl.to_string(scenario.formula())
    if text != expected:
        raise ValidationError([f"{args.plan} was synthesized for formula {text!r}, "
                               f"not the scenario's {expected!r}"])


def cmd_verify(args) -> int:
    scenario = _load(args)
    plan = _load_plan(args, scenario)
    _check_plan_formula(args, plan, scenario)
    trace = harness.import_trace(args.trace)
    report = harness.verify_trace(scenario, plan, trace)
    print(json.dumps(report, indent=2))
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def cmd_run(args) -> int:
    scenario = _load(args)
    wts = _get_wts(args, scenario)
    formula = scenario.formula()
    plan = synthesis.synthesize(wts, formula, budget=args.budget,
                                formula_text=scenario.formula_text)
    trace_path = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        abstraction.save_wts(wts, os.path.join(args.out, "wts.json"))
        synthesis.save_plan(plan, os.path.join(args.out, "plan.json"))
        trace_path = os.path.join(args.out, "trace.tsv")
    trace = _execute(args, scenario, wts, plan, trace_path)
    report = harness.verify_trace(scenario, plan, trace)
    if args.out:
        harness.export_trace(trace, trace_path)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(json.dumps(report, indent=2))
    print("PASS" if report["pass"] else "FAIL")
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def cmd_plot_data(args) -> int:
    scenario = _load(args)
    plan = _load_plan(args, scenario)
    trace = harness.import_trace(args.trace)
    written = harness.export_plot_data(scenario, plan, trace, args.out)
    for path in written:
        print(path)
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input: the usage line and the error go to
    stderr, and the exit code is ``EXIT_INVALID``, not argparse's 2, which
    here means an unrealizable task.  Subcommand parsers are of this class
    too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    """A ``--budget``: an integer of at least 1."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {budget}")
    return budget


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="tubeplan",
        description="Timed task planning and tube-controlled execution.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, wts=False, seed=False, budget=False, disturbance=False,
               out_help=None):
        p.add_argument("--scenario", help="scenario JSON (default: bundled)")
        if out_help:
            p.add_argument("--out", help=out_help)
        if wts:
            p.add_argument("--wts", help="abstraction cache file (read/write)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if budget:
            p.add_argument("--budget", type=_budget,
                           default=synthesis.DEFAULT_BUDGET,
                           help="most product nodes the search may find "
                                "before it stops (exit 5 past it)")
        if disturbance:
            p.add_argument("--disturbance", default="random",
                           choices=DISTURBANCE_POLICIES)

    p = sub.add_parser("parse", help="parse and echo a task formula")
    p.add_argument("--formula", help="formula text (default: scenario's)")
    p.add_argument("--scenario")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("abstract", help="build the weighted transition system")
    common(p, out_help="write the transition system JSON here")
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("synthesize", help="find a plan satisfying the task")
    common(p, wts=True, budget=True, out_help="write the plan JSON here")
    p.add_argument("--formula", help="override the scenario formula")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="execute a plan in closed loop")
    common(p, wts=True, seed=True, disturbance=True,
           out_help="write the trace TSV here")
    p.add_argument("--plan", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check a recorded trace against a plan")
    p.add_argument("--scenario")
    p.add_argument("--plan", required=True)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="abstract, synthesize, execute, verify")
    common(p, wts=True, seed=True, budget=True, disturbance=True,
           out_help="directory for all artifacts")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("plot-data", help="dump plotting series from a trace")
    p.add_argument("--scenario")
    p.add_argument("--plan", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_plot_data)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, MitlSyntaxError, UnsupportedFragment, OSError) as exc:
        # OSError: an input file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Unrealizable as exc:
        print(f"unrealizable: {exc}", file=sys.stderr)
        print("reachable locations: "
              + ", ".join(sorted(exc.reachable_locations)), file=sys.stderr)
        return EXIT_UNREALIZABLE
    except SearchBudgetExceeded as exc:
        print(f"search budget exceeded; realizability unknown: {exc}",
              file=sys.stderr)
        return EXIT_BUDGET
    except (ExecutionFailure, AbstractionError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except TubeplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
