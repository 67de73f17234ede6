"""How the cost of a solve grows with the tree: balanced binary supply trees.

Run from the repository root::

    python3 tools/scaling_sweep.py

For each height 3-10 it builds criterion 6's generator instance
(``model.gen_flow`` on ``balanced_tree(h, 2)`` with
``sample_flow_params`` drawn from seed 0), times its clique tree
(``setup_s``, ``chordal.clique_tree_for``, as the benchmark's set-up) and
``ipm.prepare`` on that tree, then solves it once, tree given and run log
off, and prints one line: agents, cliques, clique-tree height ``L``, pass
units, iterations, backtracks, ``mp_steps``, milliseconds per iteration
and microseconds per clique-iteration (both from the whole solve time,
``ipm.prepare`` included, as the benchmark's ``ms_per_iter``), ``setup_s``
and the ``ipm.prepare`` time.  Each number is one run; compare two
checkouts only with runs taken on one host, in alternation.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from treeipm import chordal, ipm, model  # noqa: E402

HEIGHTS = range(3, 11)
COLUMNS = (
    "h", "agents", "cliques", "L", "units", "iters", "backtracks", "mp_steps",
    "ms_per_iter", "us_per_clique_iter", "setup_s", "prepare_s",
)


def main() -> int:
    params = ipm.SolverParams(max_iters=200)
    print(" ".join(COLUMNS), flush=True)
    for h in HEIGHTS:
        shape = model.balanced_tree(h, 2)
        flow = model.sample_flow_params(len(shape), np.random.default_rng(0))
        p, x0 = model.gen_flow(shape, params=flow)
        t0 = time.perf_counter()
        _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
        setup_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        units = sum(map(len, ipm.prepare(p, tree).network.units))
        prepare_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        res = ipm.solve(p, params, x0, tree=tree, record_log=False)
        solve_s = time.perf_counter() - t0
        its = res.iterations
        print(
            f"{h} {len(shape)} {tree.q} {tree.height} {units} {its} {res.total_backtracks} "
            f"{res.accounting.mp_steps} {1e3 * solve_s / its:.1f} "
            f"{1e6 * solve_s / (tree.q * its):.1f} {setup_s:.4f} {prepare_s:.4f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
