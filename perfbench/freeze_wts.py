"""Regenerate the frozen transition system used by the nexus-synth workload.

Run from the repository root:

    python3 perfbench/freeze_wts.py

It abstracts the bundled ``nexus_sml`` scenario with ``abstraction.build_wts``
and writes the result with ``abstraction.save_wts`` to
``perfbench/data/nexus_wts.json``.  This takes a few minutes; the benchmark
only reads the file, after checking its ``scenario_hash`` against the bundled
scenario.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tubeplan import abstraction  # noqa: E402
from tubeplan.scenario import default_scenario  # noqa: E402

OUT = os.path.join(HERE, "data", "nexus_wts.json")


def main() -> int:
    wts = abstraction.build_wts(default_scenario())
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    abstraction.save_wts(wts, OUT)
    print(f"{OUT}: {len(wts.states)} states, {len(wts.transitions)} transitions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
