"""Which benchmark instances fail, seed by seed, and what the solves cost.

Run from the repository root::

    python3 tools/failure_sweep.py > sweep.txt

For each workload of ``bench/workloads.py`` and each seed of a fixed
range (``flow-h8`` seeds 0-10, ``flow-suite`` and ``loose-qp`` seeds
0-20) it solves every instance once through ``bench/harness.py``'s
``run_rep``, with the same correctness checks as a benchmark run, and
prints one line: the failed instances by failure class, and the totals of
iterations, backtracks and ``mp_steps`` over every solve that returned.
Nothing is timed, so two checkouts whose solver behaves the same print
the same file, and ``diff`` of two runs compares their failures.  It
takes several minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import harness  # noqa: E402
import workloads  # noqa: E402

SEEDS = {"flow-h8": range(11), "flow-suite": range(21), "loose-qp": range(21)}


def main() -> int:
    # as in bench/run.py: ill-conditioned blocks may warn, and that is no failure
    warnings.simplefilter("ignore")
    for name, seeds in SEEDS.items():
        wl = workloads.WORKLOADS[name]
        for seed in seeds:
            instances = wl.make(seed)
            _, prepared = harness.run_setup(instances)
            with harness.SolveLog() as log:
                rep = harness.run_rep(wl, instances, prepared, log, {})
            failures = json.dumps(harness.failures(rep), sort_keys=True)
            print(
                f"{name} {seed} failures {failures} iterations {rep.total(0)} "
                f"backtracks {rep.total(1)} mp_steps {rep.total(2)}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
