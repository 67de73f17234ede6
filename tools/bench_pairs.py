"""Ten alternating pairs of benchmark runs of two git refs, per workload.

Run from the repository root::

    python3 tools/bench_pairs.py <parent-ref> <change-ref>

Both refs are exported with ``git archive`` into temporary directories.
For each workload of ``BENCHMARK.json`` the script runs ten pairs of each
checkout's own ``bench/run.py --workload <w> --seed 0 --seconds 15
--trace 0``, one after the other, alternating which side runs first.  From
the last JSON line of every run it prints, per end-to-end metric of
``BENCHMARK.json``: the median of each side, the parent's interquartile
range, how many pairs the change wins and ties, and whether the change's
median is worse than the parent's by more than the metric's bound.  It
also prints failed / attempted solves per side.  A run that exits
non-zero is listed with its side, pair and exit code and left out of the
medians and of the pairs compared; the other runs go on.  Given one ref twice, it
measures how far two runs of the same code spread on this host.  Progress
goes to standard error; one workload takes about ten minutes.
"""

from __future__ import annotations

import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
RUN = ["bench/run.py", "--seed", "0", "--seconds", "15", "--trace", "0"]


def export(ref: str, dest: Path) -> Path:
    """The files of ``ref`` under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as fh:
        fh.extractall(dest, filter="data")
    return dest


def run(checkout: Path, workload: str) -> dict | int:
    """One benchmark run of ``checkout``: its last line of output, as JSON,
    or its exit code if it failed."""
    done = subprocess.run(
        [sys.executable, *RUN, "--workload", workload],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode:
        print(done.stderr, file=sys.stderr, flush=True)
        return done.returncode
    return json.loads(done.stdout.strip().splitlines()[-1])


def better(a: float, b: float, higher: bool) -> bool:
    return a > b if higher else a < b


def report(workload: str, metrics: list[dict], runs: dict[str, list[dict | int]]) -> None:
    """The verdicts of one workload; ``runs[side][k]`` is pair ``k``'s run,
    or the exit code of a failed one."""
    ok = {side: [r for r in rs if isinstance(r, dict)] for side, rs in runs.items()}
    pairs = [(b, n) for b, n in zip(runs["parent"], runs["change"])
             if isinstance(b, dict) and isinstance(n, dict)]
    print(f"## {workload}: {PAIRS} pairs, {len(pairs)} with both runs")
    for side, rs in runs.items():
        for k, r in enumerate(rs):
            if not isinstance(r, dict):
                print(f"FAILED RUN: {side} pair {k + 1} exit code {r}")
    if not pairs:
        print(flush=True)
        return
    print(f"{'metric':18s} {'parent':>12s} {'change':>12s} {'parent IQR':>25s} "
          f"{'wins':>5s} {'ties':>5s}  verdict")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [r["metrics"][name]["value"] for r in ok["parent"]]
        new = [r["metrics"][name]["value"] for r in ok["change"]]
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else base * 3
        med_base, med_new = statistics.median(base), statistics.median(new)
        values = [(b["metrics"][name]["value"], n["metrics"][name]["value"]) for b, n in pairs]
        wins = sum(better(n, b, higher) for b, n in values)
        ties = sum(n == b for b, n in values)
        limit = med_base * (1 - m["bound"] if higher else 1 + m["bound"])
        worse = better(limit, med_new, higher)
        verdict = f"WORSE than the {m['bound']:.0%} bound" if worse else "within bound"
        print(f"{name:18s} {med_base:12.6g} {med_new:12.6g} {f'{q1:.6g}-{q3:.6g}':>25s} "
              f"{wins:5d} {ties:5d}  {verdict}")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in ok[side])
        attempted = sum(r["attempted"] for r in ok[side])
        wrong = sum(not r["correct"] for r in ok[side])
        print(f"{side}: failed/attempted {failed}/{attempted}, runs reporting a problem {wrong}")
    print(flush=True)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/bench_pairs.py <parent-ref> <change-ref>", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        sides = {
            "parent": export(argv[0], Path(tmp) / "parent"),
            "change": export(argv[1], Path(tmp) / "change"),
        }
        print(f"# parent {argv[0]}, change {argv[1]}", flush=True)
        for wl in declared["workloads"]:
            runs: dict[str, list[dict | int]] = {"parent": [], "change": []}
            for k in range(PAIRS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    print(f"{wl['name']} pair {k + 1}/{PAIRS}: {side}", file=sys.stderr, flush=True)
                    runs[side].append(run(sides[side], wl["name"]))
            report(wl["name"], declared["end_to_end"], runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
