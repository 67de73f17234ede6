"""One SHA-256 per solve over everything the solve returns, and per replay.

Run from the repository root::

    python3 tools/output_digest.py > digests.txt

Each line is ``<label> <sha256>``.  A digest covers the trace CSV, ``x``,
``x_clique``, ``lam``, ``v``, the objective and status, the solve-phase
``accounting.json`` and the run log's ``deliver`` events (``read`` events
have lines of their own).  For ``solve_auto`` runs it also covers each component's
phase-one report.  The solves are:

- ``flow/<s>``: the seven-agent two-chain supply instance of seeds 0-49
  (the instances of bench ``flow-suite`` seed 0);
- ``h8/0``: the 511-agent balanced binary supply tree (criterion 6), and
  ``h8/1``: the bench ``flow-h8`` instance of seed 1, its coefficients
  jittered;
- ``loose/<s>/<c>``: component ``c`` of ``ipm.solve_auto`` on
  ``bench/loose_qp.py`` seed ``s``, seeds 0-47 and the two instances
  that end ``max_iters``, 390 and 454;
- ``replay/<s>``: the ``repr`` of the ``(distributed, centralized)`` step
  pairs that ``oracle.same_iterate_steps`` returns along the ``flow/<s>``
  solve, seeds 0-9;
- ``reads/<s>``: every ``read`` event of the ``flow/<s>`` run log, in
  order, seeds 0-9, so that two checkouts with equal lines logged the same
  whole run log.

Two checkouts whose solver arithmetic agrees bit for bit print the same
file, so ``diff`` of two runs is the byte-equality check.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import loose_qp  # noqa: E402
import workloads  # noqa: E402
from treeipm import ipm, model, oracle  # noqa: E402

TWO_CHAIN = [-1, 0, 0, 1, 2, 3, 4]


def _arrays(h, mapping) -> None:
    for key in sorted(mapping):
        h.update(f"{key}:".encode())
        h.update(np.ascontiguousarray(mapping[key], dtype=float).tobytes())


def digest(res: ipm.SolveResult, extra: str = "") -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        res.trace.to_csv(path)
        h.update(path.read_bytes())
    h.update(res.x.tobytes())
    for part in (res.x_clique, res.lam, res.v):
        _arrays(h, part)
    h.update(f"{res.objective!r} {res.status} {extra}".encode())
    h.update(json.dumps(res.accounting.to_json_dict(), indent=2).encode())
    for event in res.network.events or ():
        if event["type"] == "deliver":
            h.update(json.dumps(event).encode())
    return h.hexdigest()


def main() -> int:
    replays, reads = [], []
    for s in range(50):
        p, x0 = model.gen_flow(TWO_CHAIN, seed=s)
        res = ipm.solve(p, x0=x0)
        print(f"flow/{s}", digest(res), flush=True)
        if s < 10:
            pairs = oracle.same_iterate_steps(p, ipm.SolverParams(), x0, res.iterations, res.setup.tree)
            replays.append(hashlib.sha256(repr(pairs).encode()).hexdigest())
            logged = [json.dumps(e) for e in res.network.events if e["type"] == "read"]
            reads.append(hashlib.sha256("\n".join(logged).encode()).hexdigest())
    p, x0 = model.gen_flow(
        model.balanced_tree(8, 2),
        params=model.sample_flow_params(511, np.random.default_rng(0)),
    )
    print("h8/0", digest(ipm.solve(p, x0=x0, record_log=False)), flush=True)
    h8 = workloads.WORKLOADS["flow-h8"]
    (inst,) = h8.make(1)
    res = ipm.solve(inst.problem, h8.params, inst.x0, record_log=False)
    print("h8/1", digest(res), flush=True)
    for s in [*range(48), 390, 454]:
        p, _ = loose_qp.generate(s)
        for c, run in enumerate(ipm.solve_auto(p)):
            print(f"loose/{s}/{c}", digest(run.result, repr(run.phase_one)), flush=True)
    for s, h in enumerate(replays):
        print(f"replay/{s}", h, flush=True)
    for s, h in enumerate(reads):
        print(f"reads/{s}", h, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
