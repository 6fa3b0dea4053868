"""tubeplan benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pair-mission --seed 1 --seconds 20 --trace 0

``--workload`` is ``pair-mission``, ``nexus-synth``, ``word-checks`` or
``all`` (the three in turn, in this one process).  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` the same workload is run once untraced and once more with
spans around every layer's public functions, and the JSON holds the
per-layer metrics.  Lines before it are for people: the environment, the
inputs, and every metric by name and unit.

The package is imported from ``src/`` of the checkout, never from an
installed copy.  Spans of a traced run go to ``.bench_out/``; so do the
per-seed fingerprints that make a later run with the same seed fail if an
artifact hash or an exact count differs.
"""

from __future__ import annotations

import os
import sys

# Pin string hashing: with a random hash seed per process, dict and set
# layouts differ from run to run, and so does speed (word checks of one
# seed spread 10 % across processes, 6 % with the hash seed pinned).  The
# interpreter reads the variable only at start, so start it again, in this
# same process.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

# Pin the BLAS and OpenMP pools to one thread before numpy is imported:
# numpy's OpenBLAS would otherwise start its own pool of threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracing import EXACT_COUNTS, LAYER_METRICS, Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, BenchError  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MODULES = ("errors", "geometry", "dynamics", "controller", "mitl", "tba",
           "scenario", "abstraction", "synthesis", "harness", "cli")
SETUP_REPEATS = 5

# end-to-end metric -> unit; must match BENCHMARK.json
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def import_package():
    """Import tubeplan afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "tubeplan" or n.startswith("tubeplan.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tubeplan")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "tubeplan"):
        raise BenchError(f"tubeplan was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module("tubeplan." + m)
                              for m in MODULES})


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if blas.get(k)},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def code_digest() -> str:
    """Digest of the package and the benchmark, to key stored fingerprints."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "tubeplan"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def check_fingerprint(workload: str, seed: int, fingerprint: dict) -> None:
    """Compare with what earlier runs with this seed and code recorded."""
    path = os.path.join(OUT, "fingerprints.json")
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    key = f"{workload}:{seed}:{code_digest()}"
    before = stored.get(key, {})
    diff = sorted(k for k in fingerprint.keys() & before.keys()
                  if fingerprint[k] != before[k])
    if diff:
        raise BenchError(f"nondeterminism with seed {seed}: " + ", ".join(
            f"{k} was {before[k]}, now {fingerprint[k]}" for k in diff))
    stored[key] = {**before, **fingerprint}
    os.makedirs(OUT, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)


def measure(wl, seconds: float, tracer=None):
    """Run operations in order, cycling, until a full pass is done and
    ``seconds`` have passed; a traced run does exactly one pass, so that
    its counts are exact.  Returns each operation's marks and detail."""
    marks, details = [], []
    start = time.perf_counter()
    i = 0
    while i < wl.n_ops or (tracer is None and time.perf_counter() - start < seconds):
        m, d = wl.op(i % wl.n_ops, tracer)
        marks.append(m)
        details.append(d)
        i += 1
    return marks, details


def op_seconds(marks, probe):
    """Seconds at reference speed per operation and per mark label."""
    secs = probe.scale([(a, b) for op in marks for _, a, b in op])[1]
    per_op, per_label = [], {}
    k = 0
    for op in marks:
        total = 0.0
        for label, _, _ in op:
            per_label.setdefault(label, []).append(float(secs[k]))
            total += secs[k]
            k += 1
        per_op.append(float(total))
    return per_op, per_label


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    probe = SpeedProbe()
    with probe:
        setup = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            tp = import_package()
            wl = WORKLOADS[name](tp, seed, workdir)
            setup.append((t0, time.perf_counter()))
        marks, details = measure(wl, seconds)
    print(f"[{name}] seed {seed}: {wl.describe()}")

    # busy time: the program's work, without the benchmark's own checks
    op_s, label_s = op_seconds(marks, probe)
    busy_s = sum(op_s)
    fingerprint = wl.fingerprint(details)
    rows = wl.report(op_s, label_s, busy_s)
    metrics = {
        "setup_s": float(median(probe.scale(setup)[1])),
        "ops_per_s": len(op_s) / busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    if trace:
        tracer = Tracer()
        install(tracer, tp)
        traced_probe = SpeedProbe()
        try:
            with traced_probe:
                traced_marks, traced_details = measure(wl, seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(OUT, f"spans-{name}.npz"), traced_probe)
        traced_fp = wl.fingerprint(traced_details)
        if traced_fp != fingerprint:
            raise BenchError(f"traced and untraced runs differ: {traced_fp} != {fingerprint}")
        layers = layer_metrics(tracer, traced_probe)
        for key in EXACT_COUNTS:
            fingerprint[key] = layers[key]
        # time per operation at reference speed, traced over untraced
        traced_s, _ = op_seconds(traced_marks, traced_probe)
        n = len(traced_s)
        layers["trace_overhead_ratio"] = median(traced_s) / median(op_s[:n])
        rows.append(("trace_overhead_ratio", layers["trace_overhead_ratio"], "ratio", n))
        reported = {k: {"value": layers[k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        reported = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    check_fingerprint(name, seed, fingerprint)
    rows += [("fail_ratio", wl.failed / wl.attempted, "ratio", wl.attempted),
             ("setup_s", metrics["setup_s"], "s", SETUP_REPEATS),
             ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
             ("machine_speed", probe.speed(), "ref", len(probe.starts))]
    for key, value, unit, n in rows:
        print(f"[{name}] {key} = {value:.6g} {unit}  (n={n})")
    if trace:
        for key, entry in reported.items():
            print(f"[{name}] layer {key} = {entry['value']:.6g} {entry['unit']}")
    return {"correct": wl.failed == 0, "attempted": wl.attempted,
            "failed": wl.failed, "metrics": reported}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tubeplan", "__init__.py")):
        print(f"error: no tubeplan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print("env: " + json.dumps(environment(), sort_keys=True))

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
