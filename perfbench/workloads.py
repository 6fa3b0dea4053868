"""The benchmark's three workloads.

Each workload makes its inputs from the seed when it is constructed (that is
the set-up the benchmark times), then runs numbered operations through
tubeplan's public functions.  ``op(i, tracer)`` runs operation ``i`` of one
pass, checks its output, and returns ``(marks, detail)``: ``marks`` lists the
timed parts of the operation as ``(label, start, end)`` perf_counter pairs.
Failures are counted on the workload, never retried or dropped.

- ``pair-mission``: the user's CLI path (abstract, synthesize, simulate,
  verify) on a three-region cut of the bundled scenario.  Controller-bound.
- ``nexus-synth``: synthesis on the frozen nine-region transition system for
  the bundled formula and seed-drawn variants.  Product-search-bound.
- ``word-checks``: many tiny ``accepts_word`` searches checked against the
  monitor.  Bound by the fixed cost per search.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import hashlib
import io
import json
import os
import time
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN_WTS = os.path.join(HERE, "data", "nexus_wts.json")


class BenchError(Exception):
    """The benchmark cannot run, or the program broke an invariant."""


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _stage(tracer, name):
    return tracer.stage_span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# pair-mission
# ---------------------------------------------------------------------------

def _drop_atoms(mitl, f, atoms):
    """``f`` without the literals over atoms outside ``atoms``; conjunctions
    shrink around them, so the bundled safety clause keeps only the
    obstacles that remain."""
    if isinstance(f, mitl.And):
        parts = [p for p in (_drop_atoms(mitl, f.left, atoms),
                             _drop_atoms(mitl, f.right, atoms)) if p is not None]
        if len(parts) == 2:
            return mitl.And(*parts)
        return parts[0] if parts else None
    if isinstance(f, mitl.Not) and isinstance(f.child, mitl.Atom):
        return f if f.child.name in atoms else None
    if isinstance(f, mitl.Atom):
        return f if f.name in atoms else None
    if isinstance(f, (mitl.Always, mitl.Eventually)):
        child = _drop_atoms(mitl, f.child, atoms)
        return None if child is None else dataclasses.replace(f, child=child)
    return f


class PairMission:
    """R1 (mission1), R3 (mission2) and one seed-drawn obstacle from R6-R9."""

    KEEP = ("R1", "R3")
    OBSTACLES = ("R6", "R7", "R8", "R9")
    STAGES = ("abstract", "synthesize", "simulate", "verify")
    n_ops = 1

    def __init__(self, tp, seed: int, workdir: str):
        self.tp = tp
        rng = np.random.default_rng(seed)
        self.obstacle = self.OBSTACLES[int(rng.integers(len(self.OBSTACLES)))]
        self.disturbance_seed = int(rng.integers(2**31))
        base = tp.scenario.default_scenario()
        keep = self.KEEP + (self.obstacle,)
        data = copy.deepcopy(base.raw)
        data["regions"] = {k: v for k, v in data["regions"].items() if k in keep}
        data["labels"] = {k: v for k, v in data["labels"].items() if k in keep}
        atoms = {a for labels in data["labels"].values() for a in labels}
        data["formula"] = tp.mitl.to_string(_drop_atoms(tp.mitl, base.formula(), atoms))
        tp.scenario.scenario_from_dict(data)     # reject a bad cut at set-up
        self.files = {name: os.path.join(workdir, name) for name in
                      ("scenario.json", "wts.json", "plan.json", "trace.tsv",
                       "report.json")}
        with open(self.files["scenario.json"], "w") as fh:
            json.dump(data, fh, indent=2)
        self.formula_text = data["formula"]
        self.attempted = self.failed = 0

    def describe(self) -> str:
        return (f"obstacle {self.obstacle}, disturbance seed "
                f"{self.disturbance_seed}, formula {self.formula_text!r}")

    def _argv(self, stage):
        f = self.files
        sc = ["--scenario", f["scenario.json"]]
        return {
            "abstract": ["abstract", *sc, "--out", f["wts.json"]],
            "synthesize": ["synthesize", *sc, "--wts", f["wts.json"],
                           "--out", f["plan.json"]],
            "simulate": ["simulate", *sc, "--wts", f["wts.json"],
                         "--plan", f["plan.json"], "--disturbance", "random",
                         "--seed", str(self.disturbance_seed),
                         "--out", f["trace.tsv"]],
            "verify": ["verify", *sc, "--plan", f["plan.json"],
                       "--trace", f["trace.tsv"]],
        }[stage]

    def op(self, i: int, tracer=None):
        gc.collect()        # start each mission from the same collector state
        for path in self.files.values():
            if not path.endswith("scenario.json") and os.path.exists(path):
                os.remove(path)
        marks = []
        ok = True
        for stage in self.STAGES:
            self.attempted += 1
            if not ok:                 # an earlier stage failed: so does this
                self.failed += 1
                continue
            out = io.StringIO()
            t0 = time.perf_counter()
            with _stage(tracer, stage), contextlib.redirect_stdout(out):
                code = self.tp.cli.main(self._argv(stage))
            marks.append((stage, t0, time.perf_counter()))
            if stage == "verify":
                with open(self.files["report.json"], "w") as fh:
                    fh.write(out.getvalue())
                ok = code == 0 and json.loads(out.getvalue()).get("pass") is True
            else:
                ok = code == 0
            if not ok:
                self.failed += 1
        digest = {name: sha256_file(self.files[name]) if ok else ""
                  for name in ("wts.json", "plan.json", "trace.tsv")}
        return marks, digest

    def fingerprint(self, details) -> dict:
        return details[0]

    def report(self, op_s, label_s, busy_s) -> list:
        rows = [(f"{stage}_s", float(np.median(label_s[stage])), "s",
                 len(label_s[stage])) for stage in self.STAGES if stage in label_s]
        rows.append(("mission_s", float(np.median(op_s)), "s", len(op_s)))
        return rows


# ---------------------------------------------------------------------------
# nexus-synth
# ---------------------------------------------------------------------------

class NexusSynth:
    """The bundled formula plus seed-drawn variants that open each bounded
    window 0-10 whole seconds earlier, on the frozen bundled transition
    system.  A wider window admits the bundled plan, so every variant is
    realizable."""

    VARIANTS = 4
    MAX_WIDEN = 10

    def __init__(self, tp, seed: int, workdir: str):
        self.tp = tp
        scenario = tp.scenario.default_scenario()
        expected = tp.abstraction.scenario_hash(scenario)
        try:
            self.wts = tp.abstraction.load_wts(FROZEN_WTS, expected_hash=expected)
        except tp.errors.AbstractionError as exc:
            raise BenchError(f"{FROZEN_WTS} does not match the bundled scenario "
                             f"({exc}); regenerate it with "
                             "python3 perfbench/freeze_wts.py") from None
        rng = np.random.default_rng(seed)
        formulas = [scenario.formula()]
        for _ in range(self.VARIANTS):
            formulas.append(self._widen(tp.mitl, formulas[0], rng))
        self.formulas = [(f, tp.mitl.to_string(f)) for f in formulas]
        self.n_ops = len(self.formulas)
        self.plan_path = os.path.join(workdir, "plan.json")
        # the benchmark's own checks use the untraced functions
        self.monitor = tp.mitl.monitor
        self.plan_word = tp.synthesis.plan_word
        self.save_plan = tp.synthesis.save_plan
        self.attempted = self.failed = 0

    def _widen(self, mitl, f, rng):
        if isinstance(f, (mitl.And, mitl.Or)):
            return type(f)(self._widen(mitl, f.left, rng),
                           self._widen(mitl, f.right, rng))
        if isinstance(f, mitl.Eventually) and f.interval.hi is not None:
            # widen at the start only: the largest constant, and with it the
            # product's clock range, stays that of the bundled formula, so
            # that seeds differ in guards and not in the amount of work
            earlier = min(int(rng.integers(self.MAX_WIDEN + 1)), int(f.interval.lo))
            iv = mitl.Interval(f.interval.lo - earlier, f.interval.hi)
            return mitl.Eventually(f.child, iv)
        return f

    def describe(self) -> str:
        return "formulas: " + "; ".join(text for _, text in self.formulas)

    def op(self, i: int, tracer=None):
        tp = self.tp
        formula, text = self.formulas[i]
        self.attempted += 1
        # Full collections during a search scan its whole product graph, and
        # when they fall depends on what ran before: start from a clean slate.
        gc.collect()
        t0 = time.perf_counter()
        try:
            with _stage(tracer, "synthesize"):
                plan = tp.synthesis.synthesize(self.wts, formula, formula_text=text)
        except (tp.errors.Unrealizable, tp.errors.SearchBudgetExceeded):
            self.failed += 1
            return [("synthesize", t0, time.perf_counter())], ""
        marks = [("synthesize", t0, time.perf_counter())]
        if not self._plan_ok(plan, formula):
            self.failed += 1
            return marks, ""
        self.save_plan(plan, self.plan_path)
        return marks, sha256_file(self.plan_path)

    def _plan_ok(self, plan, formula) -> bool:
        for (src, dst, duration) in plan.legs():
            try:
                if self.wts.weight_of(src, dst) != duration:
                    return False
            except self.tp.errors.TubeplanError:
                return False
        return bool(self.monitor(formula, self.plan_word(plan, self.wts)))

    def fingerprint(self, details) -> dict:
        return {"plan.json": hashlib.sha256(
            "".join(details[:self.n_ops]).encode()).hexdigest()}

    def report(self, op_s, label_s, busy_s) -> list:
        return [("synthesize_s", float(np.median(op_s)), "s", len(op_s))]


# ---------------------------------------------------------------------------
# word-checks
# ---------------------------------------------------------------------------

ATOMS = ("a", "b", "m", "o")


def _literal(rng) -> str:
    atom = ATOMS[int(rng.integers(len(ATOMS)))]
    return atom if rng.random() < 0.6 else "!" + atom


def _body(rng) -> str:
    if rng.random() < 0.5:
        return _literal(rng)
    op = "&" if rng.random() < 0.5 else "|"
    return f"({_literal(rng)} {op} {_literal(rng)})"


def _interval(rng):
    lo = Fraction(int(rng.integers(0, 11)), 2)
    if rng.random() < 0.2:
        return lo, None
    return lo, lo + Fraction(int(rng.integers(0, 11 - int(2 * lo))), 2)


def _block(rng):
    lo, hi = _interval(rng)
    iv = f"[{lo},{'inf' if hi is None else hi}]"
    kind = int(rng.integers(3))
    if kind == 0:
        text = f"G{iv} {_body(rng)}"
    elif kind == 1:
        text = f"F{iv} {_body(rng)}"
    else:
        text = f"{_body(rng)} U{iv} {_body(rng)}"
    return f"({text})", hi if hi is not None else lo


def _formula(rng, n_blocks: int):
    """And/Or of ``n_blocks`` G/F/U blocks with half-integer constants <= 5."""
    blocks = [_block(rng) for _ in range(n_blocks)]
    text = blocks[0][0]
    for block, _ in blocks[1:]:
        text += (" & " if rng.random() < 0.5 else " | ") + block
    return text, max(c for _, c in blocks)


def _word(rng, cmax, TimedWord):
    """1-5 letters; stamps step by half-integers up past every constant."""
    n = int(rng.integers(1, 6))
    times = [Fraction(0)]
    for _ in range(n - 1):
        times.append(times[-1] + Fraction(int(rng.integers(1, 2 * (int(cmax) + 2))), 2))
    letters = [frozenset(p for p in ATOMS if rng.random() < 0.4) for _ in range(n)]
    return TimedWord(tuple(letters), tuple(times))


class WordChecks:
    FORMULAS = 256
    WORDS = 64

    def __init__(self, tp, seed: int, workdir: str):
        self.tp = tp
        rng = np.random.default_rng(seed)
        self.cases = []
        for i in range(self.FORMULAS):
            # 1, 2, 3 blocks in turn: the block count sets most of a check's
            # cost, and drawing it made throughput differ by 7 % between seeds
            text, cmax = _formula(rng, 1 + i % 3)
            words = [_word(rng, cmax, tp.mitl.TimedWord) for _ in range(self.WORDS)]
            self.cases.append((text, tp.mitl.parse(text), words))
        self.n_ops = self.FORMULAS * self.WORDS
        self.tba = None
        self.attempted = self.failed = 0

    def describe(self) -> str:
        return (f"{self.FORMULAS} formulas x {self.WORDS} words, e.g. "
                f"{self.cases[0][0]!r}")

    def op(self, i: int, tracer=None):
        fi, wi = divmod(i, self.WORDS)
        _, formula, words = self.cases[fi]
        marks = []
        with _stage(tracer, "check"):
            if wi == 0:
                t0 = time.perf_counter()
                self.tba = self.tp.tba.build_tba(formula)
                marks.append(("build", t0, time.perf_counter()))
            self.attempted += 1
            t0 = time.perf_counter()
            accepted = self.tp.tba.accepts_word(self.tba, words[wi])
            satisfied = self.tp.mitl.monitor(formula, words[wi])
            marks.append(("check", t0, time.perf_counter()))
        if accepted != satisfied:
            self.failed += 1
        return marks, "1" if accepted else "0"

    def fingerprint(self, details) -> dict:
        return {"verdicts": hashlib.sha256(
            "".join(details[:self.n_ops]).encode()).hexdigest()}

    def report(self, op_s, label_s, busy_s) -> list:
        us = np.asarray(label_s["check"]) * 1e6
        return [
            ("word_checks_per_s", len(us) / busy_s, "1/s", len(us)),
            ("word_check_p50_us", float(np.percentile(us, 50)), "us", len(us)),
            ("word_check_p99_us", float(np.percentile(us, 99)), "us", len(us)),
        ]


WORKLOADS = {
    "pair-mission": PairMission,
    "nexus-synth": NexusSynth,
    "word-checks": WordChecks,
}
