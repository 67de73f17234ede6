"""Correctness gate applied to every solve, outside the timed region.

Uses only what a solve returns and the dense oracle; no solver internals.
A solution passes when, for every component it solved:

- it is strictly feasible: ``p.max_inequality(x) < 0``;
- ``||p.equality_residual(x)|| <= eps_feas`` on the original rows;
- ``||oracle.dual_residual|| <= eps_feas`` and
  ``oracle.surrogate_gap <= eps`` at the returned primal-dual point;
- where a reference is given, its objective matches
  ``oracle.centralized_ipm`` to ``OBJECTIVE_RTOL``.

The step accounting identity needs no check here: ``ipm.solve`` builds
its accounting strictly and raises ``AccountingError`` when it breaks,
which counts as a failed solve.  ``flow-suite`` also recomputes the
report with ``netsim.accounting`` after the solve, and the harness fails
the instance when that report's identity does not hold.
"""

from __future__ import annotations

import numpy as np

from treeipm import ipm, oracle

OBJECTIVE_RTOL = 1e-6


def reference_objectives(
    runs: list[tuple[list[int], ipm.SolveResult]],
    x_ref: np.ndarray,
    params: ipm.SolverParams,
) -> list[float]:
    """Dense centralized optimum of every solved component."""
    out = []
    for variables, res in runs:
        cent = oracle.centralized_ipm(res.setup.problem, params, x_ref[variables])
        if not cent.converged:
            raise ArithmeticError(f"oracle did not converge ({cent.status})")
        out.append(cent.objective)
    return out


def check_solution(
    runs: list[tuple[list[int], ipm.SolveResult]],
    params: ipm.SolverParams,
    reference: list[float] | None,
) -> list[str]:
    """Names of the checks the solution fails; empty when it passes."""
    failed: list[str] = []
    for c, (_, res) in enumerate(runs):
        p = res.setup.problem
        x = res.x
        if not p.max_inequality(x) < 0:
            failed.append(f"c{c}:inequality")
        if np.linalg.norm(p.equality_residual(x)) > params.eps_feas:
            failed.append(f"c{c}:equality")
        w = oracle.dual_residual(p, res.setup.assignment, res.setup.tree, x, res.lam, res.v)
        if np.linalg.norm(w) > params.eps_feas:
            failed.append(f"c{c}:dual_residual")
        if oracle.surrogate_gap(p, x, res.lam) > params.eps:
            failed.append(f"c{c}:surrogate_gap")
        if reference is not None:
            ref = reference[c]
            if abs(res.objective - ref) > OBJECTIVE_RTOL * (1.0 + abs(ref)):
                failed.append(f"c{c}:objective")
    return failed
