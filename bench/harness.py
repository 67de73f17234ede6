"""Measurement loop, metrics and the traced run of the benchmark.

``measure`` gives the end-to-end metrics of one workload, ``traced`` the
per-layer ones.  Both return ``(metrics, detail, problems)``: metrics map
a name to ``(value, unit)``, detail goes to the report file, and any
problem (a wrong solution, counts that differ between repetitions or
between the untraced and the traced run) makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer as tracing
import workloads
from treeipm import cli, ipm, model

SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
TAIL_BEYOND = 10

# counts of the solver as it stood when this benchmark was written; a
# seed-0 run reports any difference as drift, since a change that improves
# the solver changes them on purpose
BASELINE = {
    "flow-h8": {
        "iterations": 109,
        "backtracks": 116,
        "mp_steps": 9746,
        "chordal.cliques": 574,
        "chordal.height": 11,
    },
    "flow-suite": {"iterations": 979, "worst_iterations": 32},
}


class SolveLog:
    """Records every ``ipm.solve`` call while installed: result and time.

    ``solve_auto`` hides the phase-one solve, so calls are taken at the
    ``ipm.solve`` boundary, which the solver looks up at call time.  A
    call that raises is recorded with result ``None``.
    """

    def __init__(self):
        self.calls: list[tuple[ipm.SolveResult | None, float]] = []

    def __enter__(self):
        self.original = original = ipm.solve

        def solve(*args, **kwargs):
            res = None
            t0 = time.perf_counter()
            try:
                res = original(*args, **kwargs)
                return res
            finally:
                self.calls.append((res, time.perf_counter() - t0))

        ipm.solve = solve
        return self

    def __exit__(self, *exc):
        ipm.solve = self.original

    def take(self) -> list[tuple[ipm.SolveResult | None, float]]:
        """The calls recorded since the last ``take``."""
        out, self.calls = self.calls, []
        return out


@dataclass
class InstanceRun:
    label: str
    latency_s: float
    solve_s: float
    counts: tuple[int, int, int]
    """Iterations, backtracks and ``mp_steps`` summed over returned solves."""
    failure: str | None
    worst_iterations: int
    envelopes: int
    log_events: int


@dataclass
class Rep:
    runs: list[InstanceRun] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def ok(self) -> list[InstanceRun]:
        return [r for r in self.runs if r.failure is None]

    def total(self, idx: int) -> int:
        return sum(r.counts[idx] for r in self.runs)

    def wall_s(self) -> float:
        return sum(r.latency_s for r in self.runs)


def _span(tr, name):
    return tr.span(name) if tr is not None else contextlib.nullcontext()


def run_setup(instances, tr=None) -> tuple[float, list]:
    t0 = time.perf_counter()
    with _span(tr, "bench.setup"):
        prepared = [workloads.setup(inst) for inst in instances]
    return time.perf_counter() - t0, prepared


def run_rep(wl, instances, prepared, log, references, tr=None) -> Rep:
    """Solve every instance once; time it, then check it untimed."""
    rep = Rep()
    log.take()
    for inst, prep in zip(instances, prepared):
        run, problem = _run_instance(wl, inst, prep, log, references, tr)
        rep.runs.append(run)
        if problem:
            rep.problems.append(problem)
    return rep


def _run_instance(wl, inst, prep, log, references, tr) -> tuple[InstanceRun, str | None]:
    """One timed solve and its checks.

    Kept apart from the loop so that the solver's results, run logs
    included, are freed before the next instance is solved.  With a
    tracer, an instance whose solves all returned must have made exactly
    cliques x iterations calls of ``treeqp.eliminate``.
    """
    elims = tr.calls["treeqp.eliminate"] if tr is not None else 0
    failure = None
    out = None
    t0 = time.perf_counter()
    try:
        with _span(tr, "bench.instance"):
            out = workloads.solve(wl, inst, prep)
    except Exception as exc:  # a failed solve is counted, not fatal
        failure = type(exc).__name__
    latency = time.perf_counter() - t0
    calls = log.take()
    results = [res for res, _ in calls if res is not None]
    problem = None
    if tr is not None and len(results) == len(calls):
        made = tr.calls["treeqp.eliminate"] - elims
        expected = sum(res.setup.tree.q * res.iterations for res in results)
        if made != expected:
            problem = (
                f"{inst.label}: treeqp.eliminate calls {made} != "
                f"cliques x iterations {expected}"
            )
    worst = 0
    if out is not None:
        failure = _judge(wl, inst, out, references)
        worst = max(res.iterations for _, res in out.runs)
    nets = [res.network for res in results]
    run = InstanceRun(
        inst.label,
        latency,
        out.solve_s if out is not None else latency,
        (
            sum(res.iterations for res in results),
            sum(res.total_backtracks for res in results),
            sum(res.accounting.mp_steps for res in results),
        ),
        failure,
        worst,
        sum(sum(per.values()) for net in nets for per in net.sent.values()),
        sum(len(net.events or ()) for net in nets),
    )
    return run, problem


def _judge(wl, inst, out, references) -> str | None:
    """Failure label of a returned solve, or ``None`` when it passes."""
    if not all(res.converged for _, res in out.runs):
        return "NotConverged"
    ref = None
    if inst.x_ref is not None:
        if inst.label not in references:
            try:
                references[inst.label] = checks.reference_objectives(
                    out.runs, inst.x_ref, wl.params
                )
            except Exception as exc:  # no reference: the solve stays unverified
                references[inst.label] = f"Unverified:{type(exc).__name__}"
        ref = references[inst.label]
        if isinstance(ref, str):
            return ref
    failed = checks.check_solution(out.runs, wl.params, ref)
    failed += ["privacy" for a in out.audits if not a.ok]
    failed += ["accounting" for a in out.accounting if not a.identity_ok]
    return "CheckFailed:" + ",".join(failed) if failed else None


# ------------------------------------------------------------------ checks


def _disagreements(a: Rep, b: Rep) -> list[str]:
    """Instances whose counts or outcome differ between two repetitions."""
    return [
        x.label
        for x, y in zip(a.runs, b.runs)
        if x.counts != y.counts or x.failure != y.failure
    ]


def _wrong_solutions(rep: Rep) -> list[str]:
    wrong = [r.label for r in rep.runs if r.failure and r.failure.startswith("CheckFailed")]
    return [f"solutions failed the correctness gate: {wrong}"] if wrong else []


def failures(rep: Rep) -> dict[str, list[str]]:
    """Failed instances of one repetition, keyed by failure class."""
    out: dict[str, list[str]] = {}
    for r in rep.runs:
        if r.failure is not None:
            out.setdefault(r.failure, []).append(r.label)
    return out


def baseline_drift(name: str, metrics: dict, detail: dict) -> list[str]:
    seen = {k: v for k, (v, _) in metrics.items()}
    seen["worst_iterations"] = detail.get("worst_iterations")
    return [
        f"baseline {k}: pinned {v}, measured {seen[k]}"
        for k, v in BASELINE.get(name, {}).items()
        if seen.get(k) is not None and seen[k] != v
    ]


# ------------------------------------------------------------- end to end


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With fewer than ``2 * TAIL_BEYOND`` samples that percentile would sit
    at or below the median, so the maximum is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], f"max of {n}"
    k = n - TAIL_BEYOND - 1
    return xs[k], f"p{100.0 * (k + 1) / n:.1f} of {n}"


def measure(wl, instances, seconds: float) -> tuple[dict, dict, list[str]]:
    setup_times: list[float] = []
    # at least SETUP_REPEATS rounds and SETUP_SECONDS of set-up, unless one
    # round already takes a quarter of the run
    while (
        len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS
    ) and sum(setup_times) < seconds / 4:
        dt, prepared = run_setup(instances)
        setup_times.append(dt)
    references: dict = {}
    reps: list[Rep] = []
    with SolveLog() as log:
        # the untimed checks between solves do not count towards --seconds
        measured = 0.0
        while not reps or measured < seconds:
            reps.append(run_rep(wl, instances, prepared, log, references))
            measured += reps[-1].wall_s()

    first = reps[0]
    problems = [
        f"repetitions disagree on {bad}"
        for rep in reps[1:]
        if (bad := _disagreements(first, rep))
    ] + _wrong_solutions(first)
    ok = first.ok()
    attempted = len(first.runs)
    # one sample per instance (its median over repetitions), so the tail
    # percentile depends on the workload, not on how many repetitions fit
    chosen = [i for i, r in enumerate(first.runs) if r.failure is None] or range(attempted)
    samples = [statistics.median(rep.runs[i].latency_s for rep in reps) for i in chosen]
    tail_value, tail_at = tail(samples)
    solve_s = statistics.median(sum(r.solve_s for r in rep.runs) for rep in reps)
    iterations = first.total(0)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (solve_s, "s"),
        "solves_per_s": (statistics.median(len(ok) / rep.wall_s() for rep in reps), "1/s"),
        "latency_ms.p50": (1e3 * statistics.median(samples), "ms"),
        "latency_ms.tail": (1e3 * tail_value, "ms"),
        "iterations": (iterations, "count"),
        "backtracks": (first.total(1), "count"),
        "mp_steps": (first.total(2), "count"),
        "ms_per_iter": (1e3 * solve_s / max(iterations, 1), "ms"),
        "success_share": (len(ok) / attempted, "ratio"),
        "failed_share": (1.0 - len(ok) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "instances": attempted,
        "repetitions": len(reps),
        "latency_tail_at": tail_at,
        "failures": failures(first),
        "worst_iterations": max(r.worst_iterations for r in first.runs),
        "setup_rounds": len(setup_times),
    }
    return metrics, detail, problems


# ------------------------------------------------------------------ traced


def traced(wl, instances, seed: int, out_dir: Path) -> tuple[dict, dict, list[str]]:
    references: dict = {}
    tr = tracing.Tracer()
    # one traced set-up serves both repetitions; the solves are compared
    with tr.installed():
        _, prepared = run_setup(instances, tr)
    with SolveLog() as log:
        plain = run_rep(wl, instances, prepared, log, references)
        with tr.installed():
            rep = run_rep(wl, instances, prepared, log, references, tr)
    # checks run untimed between solves, so compare solve time only
    wall_plain = plain.wall_s()
    wall_traced = rep.wall_s()

    problems = _wrong_solutions(plain) + rep.problems
    if bad := _disagreements(plain, rep):
        problems.append(f"traced run changed counts or outcomes of {bad}")
    cli_overhead, cli_bytes, cli_code = measure_cli(seed, out_dir)
    if cli_code != 0:
        problems.append(f"treeipm solve exited with {cli_code}")

    metrics = per_layer(tr, prepared, rep)
    metrics["cli.overhead_s"] = (cli_overhead, "s")
    metrics["cli.bytes_written"] = (cli_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (wall_traced / wall_plain, "ratio")
    spans_path = out_dir / f"spans_{wl.name}_{seed}.jsonl"
    tr.write_spans(spans_path)
    detail = {
        "instances": len(instances),
        "untraced_wall_s": wall_plain,
        "traced_wall_s": wall_traced,
        "untraced_counts": [plain.total(i) for i in range(3)],
        "traced_counts": [rep.total(i) for i in range(3)],
        "self_s": dict(sorted(tr.self_s.items())),
        "total_s": dict(sorted(tr.total_s.items())),
        "calls": dict(sorted(tr.calls.items())),
        "spans": spans_path.name,
        "span_count": len(tr.spans),
        "failures": failures(plain),
    }
    return metrics, detail, problems


def per_layer(tr, prepared, rep: Rep) -> dict:
    trees = [t for prep in prepared for t in prep.trees]
    fill = sum(
        len(e.edges) - len(g.edges)
        for prep in prepared
        for g, e in zip(prep.graphs, prep.embedded)
    )
    total, self_s, calls = tr.total_s, tr.self_s, tr.calls
    elim_calls = calls["treeqp.eliminate"]
    iterations = rep.total(0)
    backtracks = rep.total(1)
    m = {
        "chordal.sparsity_graph_s": (total["chordal.sparsity_graph"], "s"),
        "chordal.embed_s": (total["chordal.embed"], "s"),
        "chordal.clique_tree_s": (total["chordal.clique_tree"], "s"),
        "chordal.root_s": (total["chordal.root"], "s"),
        "chordal.cliques": (sum(t.q for t in trees), "count"),
        "chordal.height": (max(t.height for t in trees), "count"),
        "chordal.fill_edges": (fill, "count"),
        "chordal.max_clique": (max(len(c) for t in trees for c in t.cliques), "count"),
        "model.reduce_equality_block_s": (total["model.reduce_equality_block"], "s"),
        "model.reduce_equality_block.calls": (calls["model.reduce_equality_block"], "count"),
        "model.eq_rows_in": (tr.counts["model.eq_rows_in"], "count"),
        "model.eq_rows_kept": (tr.counts["model.eq_rows_kept"], "count"),
        "treeqp.eliminate_s": (total["treeqp.eliminate"], "s"),
        "treeqp.eliminate.calls": (elim_calls, "count"),
        "treeqp.eliminate_us_per_call": (
            1e6 * total["treeqp.eliminate"] / max(elim_calls, 1),
            "us",
        ),
        "treeqp.recover_clique_s": (total["treeqp.recover_clique"], "s"),
        "treeqp.recover_clique.calls": (calls["treeqp.recover_clique"], "count"),
    }
    for kind in tracing.PASS_KINDS:
        m[f"netsim.{kind}_s"] = (total[f"netsim.{kind}"], "s")
        m[f"netsim.{kind}.passes"] = (calls[f"netsim.{kind}"], "count")
    m["netsim.dispatch_s"] = (sum(self_s[f"netsim.{k}"] for k in tracing.PASS_KINDS), "s")
    m["netsim.envelopes"] = (sum(r.envelopes for r in rep.runs), "count")
    m["netsim.log_events"] = (sum(r.log_events for r in rep.runs), "count")
    m["netsim.audit_s"] = (total["netsim.audit"], "s")
    m["netsim.accounting_s"] = (total["netsim.accounting"], "s")
    m["ipm.handler_s"] = (self_s["ipm.handler"], "s")
    m["ipm.backtracks"] = (backtracks, "count")
    m["ipm.accept_ratio"] = (iterations / max(iterations + backtracks, 1), "ratio")
    m["ipm.phase_one_s"] = (total["ipm.phase_one"], "s")
    m["ipm.phase_one.calls"] = (calls["ipm.phase_one"], "count")
    components = tr.counts["ipm.components"] if calls["ipm.solve_auto"] else len(trees)
    m["ipm.components"] = (components, "count")
    return m


def measure_cli(seed: int, out_dir: Path) -> tuple[float, int, int]:
    """In-process ``treeipm solve`` of the first flow-suite instance.

    Returns wall time outside ``ipm.solve``, bytes written and exit code.
    """
    inst = workloads.WORKLOADS["flow-suite"].make(seed)[0]
    tmp = out_dir / f"cli_{seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        model.save_problem(inst.problem, tmp / "problem.json")
        (tmp / "x0.json").write_text(json.dumps({"x0": inst.x0.tolist()}))
        argv = ["solve", str(tmp / "problem.json"), "--x0", str(tmp / "x0.json"),
                "--out", str(tmp / "run")]
        with SolveLog() as log, contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        written = sum(f.stat().st_size for f in (tmp / "run").rglob("*") if f.is_file())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return wall - sum(dt for _, dt in log.calls), written, code
