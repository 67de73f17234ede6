"""Command line front end.

Subcommands: ``gen-flow`` writes a benchmark instance, ``solve`` runs the
distributed solver (phase one kicks in automatically when needed),
``solve-central`` runs the dense reference, ``compare`` runs both and
reports their step-size agreement, along the two trajectories and from
the same iterates, ``dump-tree`` prints the chordal structure.

Exit codes: 0 solved, 2 infeasible, 3 not converged or numerical failure,
4 malformed input, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from treeipm import chordal, ipm, model, netsim, oracle
from treeipm.errors import (
    DisconnectedGraphError,
    EliminationError,
    InfeasibleEqualityError,
    InfeasibleProblemError,
    LineSearchStallError,
    NotStrictlyFeasibleError,
    ProblemFormatError,
    TreeIpmError,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NOT_CONVERGED = 3
EXIT_BAD_INPUT = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--eps", type=float, default=1e-10, help="surrogate gap tolerance")
    sp.add_argument(
        "--eps-feas", type=float, default=1e-8, help="residual norm tolerance"
    )
    sp.add_argument("--beta", type=float, default=0.5, help="backtracking factor")
    sp.add_argument(
        "--gamma", type=float, default=0.05, help="line search decrease fraction"
    )
    sp.add_argument("--max-iters", type=int, default=100, help="iteration cap")


def _params(args: argparse.Namespace) -> ipm.SolverParams:
    return ipm.SolverParams(
        eps=args.eps,
        eps_feas=args.eps_feas,
        beta=args.beta,
        gamma=args.gamma,
        max_iters=args.max_iters,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treeipm", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-flow", help="generate a supply-tree benchmark instance")
    g.add_argument("--height", type=int, default=2, help="tree height in edges")
    g.add_argument("--branching", type=int, default=2, help="children per node")
    g.add_argument(
        "--tree",
        help="JSON file with a parent array (root is -1); overrides height/branching",
    )
    g.add_argument("--seed", type=int, default=0, help="parameter sampling seed")
    g.add_argument("--out", required=True, help="output problem JSON path")

    s = sub.add_parser("solve", help="run the distributed solver on a problem file")
    s.add_argument("problem", help="problem JSON path")
    s.add_argument("--out", default=".", help="output directory")
    s.add_argument("--x0", help="optional JSON file with a start point")
    s.add_argument(
        "--dump-tree", dest="dump_tree", help="also write the clique tree JSON here"
    )
    _add_solver_flags(s)

    c = sub.add_parser("solve-central", help="run the dense reference solver")
    c.add_argument("problem", help="problem JSON path")
    c.add_argument("--out", default=".", help="output directory")
    c.add_argument("--x0", help="optional JSON file with a start point")
    _add_solver_flags(c)

    m = sub.add_parser("compare", help="run both solvers and compare traces")
    m.add_argument("problem", help="problem JSON path")
    m.add_argument("--out", help="optional directory for compare.json")
    _add_solver_flags(m)

    d = sub.add_parser("dump-tree", help="write chordal structure for a problem")
    d.add_argument("problem", help="problem JSON path")
    d.add_argument("--out", required=True, help="output JSON path")
    return parser


def _load(path: str) -> model.CoupledProblem:
    return model.load_problem(path)


def _load_x0(path: str | None, n: int) -> np.ndarray | None:
    if path is None:
        return None
    with open(path) as fh:
        doc = json.load(fh)
    vec = np.asarray(doc["x0"] if isinstance(doc, dict) else doc, dtype=float)
    if vec.shape != (n,):
        raise ProblemFormatError(f"x0 file {path}: expected {n} entries")
    return vec


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _phase_one_dict(info: ipm.PhaseOneInfo | None) -> dict | None:
    if info is None:
        return None
    return {
        "pre_check": info.pre_check,
        "optimum": info.optimum,
        "margin": info.margin,
        "iterations": info.iterations,
    }


def cmd_gen_flow(args: argparse.Namespace) -> int:
    if args.tree:
        with open(args.tree) as fh:
            doc = json.load(fh)
        shape = doc["parents"] if isinstance(doc, dict) else doc
    else:
        shape = model.balanced_tree(args.height, args.branching)
    problem, x0 = model.gen_flow(shape, seed=args.seed)
    model.save_problem(problem, args.out)
    x0_path = Path(args.out).with_suffix(".x0.json")
    with open(x0_path, "w") as fh:
        json.dump({"x0": x0.tolist()}, fh)
    print(
        f"wrote {args.out}: {len(shape)} agents, {problem.n} variables, "
        f"{problem.m_total} inequalities, {problem.p_total} equality rows"
    )
    print(f"wrote {x0_path}: strictly feasible start")
    return EXIT_OK


def _write_solution(
    p: model.CoupledProblem, out: Path, x: np.ndarray, converged: bool, reports: list
) -> int:
    solution = {
        "x": x.tolist(),
        "objective": p.objective_value(x),
        "converged": converged,
        "components": reports,
    }
    with open(out / "solution.json", "w") as fh:
        json.dump(solution, fh, indent=2)
    print(f"objective {solution['objective']:.12g} -> {out / 'solution.json'}")
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def cmd_solve(args: argparse.Namespace) -> int:
    p = _load(args.problem)
    params = _params(args)
    out = _outdir(args.out)
    runs = ipm.solve_auto(p, params, _load_x0(args.x0, p.n))
    multi = len(runs) > 1
    comp_reports = []
    for idx, run in enumerate(runs):
        result = run.result
        suffix = f"_c{idx}" if multi else ""
        result.trace.to_csv(out / f"trace{suffix}.csv")
        with open(out / f"accounting{suffix}.json", "w") as fh:
            json.dump(result.accounting.to_json_dict(), fh, indent=2)
        audit = netsim.audit_privacy(result.network)
        comp_reports.append(
            {
                "variables": run.variables,
                "iterations": result.iterations,
                "converged": result.converged,
                "status": result.status,
                "objective": result.objective,
                "backtracks": result.total_backtracks,
                "phase_one": _phase_one_dict(run.phase_one),
                "privacy_ok": audit.ok,
                "lam": {str(k): v.tolist() for k, v in sorted(result.lam.items())},
                "v": {str(i): v.tolist() for i, v in sorted(result.v.items())},
            }
        )
        print(
            f"component {idx}: {result.status} after {result.iterations} "
            f"iterations, objective {result.objective:.12g}"
        )
        if args.dump_tree:
            tree_doc = result.setup.tree.to_json_dict()
            tree_path = Path(args.dump_tree)
            if multi:
                tree_path = tree_path.with_suffix(f".c{idx}.json")
            with open(tree_path, "w") as fh:
                json.dump(tree_doc, fh, indent=2)
    converged = all(run.result.converged for run in runs)
    return _write_solution(p, out, ipm.merge_solution(p, runs), converged, comp_reports)


def cmd_solve_central(args: argparse.Namespace) -> int:
    p = _load(args.problem)
    params = _params(args)
    out = _outdir(args.out)
    x0 = _load_x0(args.x0, p.n)
    comps = ipm.split_components(p)
    multi = len(comps) > 1
    x_full = np.zeros(p.n)
    comp_reports = []
    all_converged = True
    for idx, comp in enumerate(comps):
        start, info = ipm.component_start(comp, x0, params)
        result = oracle.centralized_ipm(comp.problem, params, start)
        x_full[comp.variables] = result.x
        all_converged &= result.converged
        suffix = f"_c{idx}" if multi else ""
        result.trace.to_csv(out / f"trace{suffix}.csv")
        comp_reports.append(
            {
                "variables": comp.variables,
                "iterations": result.iterations,
                "converged": result.converged,
                "status": result.status,
                "objective": result.objective,
                "phase_one": _phase_one_dict(info),
            }
        )
        print(
            f"component {idx}: {result.status} after {result.iterations} "
            f"iterations, objective {result.objective:.12g}"
        )
    return _write_solution(p, out, x_full, all_converged, comp_reports)


def cmd_compare(args: argparse.Namespace) -> int:
    p = _load(args.problem)
    params = _params(args)
    reports = []
    ok = True
    for idx, comp in enumerate(ipm.split_components(p)):
        sub_p = comp.problem
        start, _ = ipm.component_start(comp, None, params)
        dist = ipm.solve(sub_p, params, start, record_log=False)
        cent = oracle.centralized_ipm(sub_p, params, start)
        iters = min(dist.iterations, cent.iterations)
        alpha_gap = max(
            (
                abs(dist.trace.rows[i].alpha - cent.trace.rows[i].alpha)
                for i in range(iters)
            ),
            default=0.0,
        )
        # the free-running gap mostly measures how far the trajectories
        # amplify rounding; steps from the same iterate compare the solvers
        steps = oracle.same_iterate_steps(
            sub_p, params, start, dist.iterations, dist.setup.tree
        )
        same_gap = max((abs(a - b) for a, b in steps), default=0.0)
        x_gap = float(np.max(np.abs(dist.x - cent.x))) if dist.x.size else 0.0
        same_iters = dist.iterations == cent.iterations
        ok &= dist.converged and cent.converged
        reports.append(
            {
                "variables": comp.variables,
                "distributed_iterations": dist.iterations,
                "centralized_iterations": cent.iterations,
                "max_alpha_gap": alpha_gap,
                "max_alpha_gap_same_iterate": same_gap,
                "max_x_gap": x_gap,
                "objective_gap": abs(dist.objective - cent.objective),
            }
        )
        print(
            f"component {idx}: iterations {dist.iterations}/{cent.iterations} "
            f"(distributed/centralized), max step gap {alpha_gap:.3e} "
            f"({same_gap:.3e} from the same iterate), "
            f"max solution gap {x_gap:.3e}"
        )
        if not same_iters:
            print(f"component {idx}: iteration counts differ", file=sys.stderr)
    if args.out:
        out = _outdir(args.out)
        with open(out / "compare.json", "w") as fh:
            json.dump(reports, fh, indent=2)
        print(f"wrote {out / 'compare.json'}")
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_dump_tree(args: argparse.Namespace) -> int:
    p = _load(args.problem)
    docs = []
    for comp in ipm.split_components(p):
        graph, _, tree = chordal.clique_tree_for(
            comp.problem.scopes(), comp.problem.n
        )
        docs.append(
            {
                "variables": comp.variables,
                "graph": graph.to_json_dict(),
                "tree": tree.to_json_dict(),
            }
        )
    with open(args.out, "w") as fh:
        json.dump({"components": docs}, fh, indent=2)
    total_cliques = sum(len(d["tree"]["cliques"]) for d in docs)
    print(
        f"wrote {args.out}: {len(docs)} component(s), {total_cliques} clique(s)"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-flow": cmd_gen_flow,
        "solve": cmd_solve,
        "solve-central": cmd_solve_central,
        "compare": cmd_compare,
        "dump-tree": cmd_dump_tree,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ProblemFormatError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (InfeasibleProblemError, InfeasibleEqualityError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (
        LineSearchStallError,
        EliminationError,
        NotStrictlyFeasibleError,
        DisconnectedGraphError,
    ) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except TreeIpmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
