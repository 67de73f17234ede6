"""Benchmark of the treeipm solver: one workload, end to end or traced.

Run from the repository root::

    python3 bench/run.py --workload flow-suite --seed 0 --seconds 15 --trace 0

``--trace 0`` sets up every instance of the workload in at least three
rounds and for at least a second (one round when a round takes over a
quarter of ``--seconds``), then
solves the whole instance list repeatedly, from one caller in a closed
loop, until ``--seconds`` of solving have passed (at least once).  Every
solve is checked outside the timed region.  ``--trace 1`` makes one
untraced and one traced repetition, checks that both give the same
counts, and reports per-layer metrics from the traced one.

The last line of standard output is one JSON object with the metrics
``BENCHMARK.json`` declares.  ``--workload all`` runs every workload, end
to end and then traced, in this one process; its last line sums the
counts and prefixes each metric with ``<workload>/<e2e|trace>/``, and
``peak_rss_mb`` is then the peak of the process so far.  A full report goes to
``bench/out/BENCH_<workload>_<seed>_<e2e|trace>.json``; a traced run also
writes its spans to ``bench/out/spans_<workload>_<seed>.jsonl``.  At seed
0 the report lists any drift from the counts pinned in
``harness.BASELINE``.
"""

from __future__ import annotations

import os

# one BLAS thread: the solver is single-process and the numbers must not
# depend on how many cores the machine lends the linear algebra
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys

# one string-hash seed: set and dict layouts, and so the chordal and
# dispatch times, otherwise change from process to process; the program
# replaces itself once with the seed fixed, so no child process is left
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import json
import platform
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_one(wl, args, trace: int, env: dict) -> dict:
    """Measure one workload, print its table, write its report.

    Returns the result object of the output contract for this run.
    """
    import harness

    instances = wl.make(args.seed)
    if trace:
        metrics, detail, problems = harness.traced(wl, instances, args.seed, OUT)
    else:
        metrics, detail, problems = harness.measure(wl, instances, args.seconds)
    if args.seed == 0:
        detail["baseline_drift"] = harness.baseline_drift(wl.name, metrics, detail)

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "problems": problems,
    }
    mode = "trace" if trace else "e2e"
    (OUT / f"BENCH_{wl.name}_{args.seed}_{mode}.json").write_text(json.dumps(report, indent=2))

    print(f"# {wl.name} seed {args.seed} ({'traced' if trace else 'end to end'}); "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    for k, (v, u) in metrics.items():
        print(f"{k:40s} {v:>16.6g} {u}")
    for k in ("latency_tail_at", "repetitions", "failures", "baseline_drift"):
        if k in detail:
            print(f"# {k}: {detail[k]}")
    if trace:
        top = sorted(detail["self_s"].items(), key=lambda kv: -kv[1])[:12]
        print("# self time: " + ", ".join(f"{k} {v:.3f}s" for k, v in top))
    for line in problems:
        print(f"# PROBLEM: {line}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    reps = detail.get("repetitions", 1)
    return {
        "correct": not problems,
        "attempted": detail["instances"] * reps,
        "failed": sum(len(v) for v in detail["failures"].values()) * reps,
        "metrics": {k: {"value": float(metrics[k][0]), "unit": metrics[k][1]} for k in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "treeipm" / "__init__.py").is_file():
        print(f"bench: no treeipm package under {src}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be non-negative", file=sys.stderr)
        return 2
    # measure this checkout's package, never an installed copy
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    # ill-conditioned barrier blocks warn hundreds of times per large solve;
    # printing them would be timed as solver work
    warnings.simplefilter("ignore")
    OUT.mkdir(exist_ok=True)
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "hash_seed": os.environ["PYTHONHASHSEED"],
        "clients": 1,
        "loop": "closed",
    }
    if args.workload != "all":
        wl = workloads.WORKLOADS[args.workload]
        print(json.dumps(run_one(wl, args, args.trace, env)))
        return 0

    # every workload end to end, then traced; one summary line
    results = {}
    for trace in (0, 1):
        for name, wl in workloads.WORKLOADS.items():
            results[f"{name}/{'trace' if trace else 'e2e'}"] = run_one(wl, args, trace, env)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{key}/{k}": v for key, r in results.items() for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
