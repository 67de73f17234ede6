"""Centralized reference implementations.

Everything here solves the same problems as the tree-structured solver but
by direct dense linear algebra on globally assembled matrices, through a
different factorization route (LAPACK LU / least squares instead of the
symmetric-indefinite solves used per clique).  Tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from treeipm import chordal, ipm, treeqp
from treeipm.errors import (
    EliminationError,
    LineSearchStallError,
    NotStrictlyFeasibleError,
)
from treeipm.ipm import (
    ALPHA_STALL,
    ConvergenceTrace,
    SolverParams,
    TraceRow,
    _next_t,
    _step_scale,
)
from treeipm.model import Assignment, CoupledProblem, eval_subproblem, positions

KKT_RESIDUAL_TOL = 1e-10


@dataclass
class GlobalKkt:
    """Dense barrier KKT pieces over all variables and equality rows."""

    H: np.ndarray
    A: np.ndarray
    r: np.ndarray
    r_pri: np.ndarray
    row_slices: dict[int, slice]


def assemble_global(
    p: CoupledProblem,
    a: Assignment,
    tree: chordal.CliqueTree,
    x: np.ndarray,
    lam: Mapping[int, np.ndarray],
    v: Mapping[int, np.ndarray],
    t: float,
    soc: Mapping[int, np.ndarray] | None = None,
) -> GlobalKkt:
    """Barrier KKT system at ``t``; ``soc`` is a second-order correction
    subtracted from the centrality residual ``-lam*g - 1/t``."""
    n = p.n
    H = np.zeros((n, n))
    r = np.zeros(n)
    inv_t = 0.0 if math.isinf(t) else 1.0 / t
    for k, sp in enumerate(p.subproblems):
        cols = list(sp.J)
        ev = eval_subproblem(sp, x[cols])
        if ev.g.size and ev.g.max() >= 0:
            raise NotStrictlyFeasibleError(
                f"point is not strictly feasible for subproblem {k}"
            )
        lk = lam[k]
        Hk = ev.hess.copy()
        for lj, Qj in zip(lk, ev.con_hess):
            if Qj.any():
                Hk = Hk + lj * Qj
        if ev.g.size:
            Hk = Hk - ev.jac.T @ (ev.jac * (lk / ev.g)[:, None])
            r_cent = _r_cent(lk, ev.g, inv_t, soc, k)
            rk = ev.grad + ev.jac.T @ lk + ev.jac.T @ (r_cent / ev.g)
        else:
            rk = ev.grad
        H[np.ix_(cols, cols)] += Hk
        r[cols] += rk
    rows = sum(a.local_eq[i][0].shape[0] for i in range(tree.q))
    A = np.zeros((rows, n))
    r_pri = np.zeros(rows)
    row_slices: dict[int, slice] = {}
    at = 0
    for i in range(tree.q):
        Ai, bi = a.local_eq[i]
        pi = Ai.shape[0]
        cols = list(tree.cliques[i])
        row_slices[i] = slice(at, at + pi)
        if pi:
            A[at : at + pi, cols] = Ai
            r_pri[at : at + pi] = Ai @ x[cols] - bi
            r[cols] += Ai.T @ v[i]
        at += pi
    return GlobalKkt(H, A, r, r_pri, row_slices)


def _r_cent(lam, g, inv_t, soc, k):
    r_cent = -lam * g - inv_t
    return r_cent if soc is None else r_cent - soc[k]


def dense_kkt_solve(
    kkt: GlobalKkt, use_lstsq: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the full saddle-point system in one shot.

    ``use_lstsq`` switches to a minimum-norm least-squares solve of the
    diagonally equilibrated system, which tolerates redundant (consistent)
    equality rows; the primal direction is still unique whenever the
    problem is well posed.
    """
    n = kkt.H.shape[0]
    rows = kkt.A.shape[0]
    M = np.zeros((n + rows, n + rows))
    M[:n, :n] = kkt.H
    M[:n, n:] = kkt.A.T
    M[n:, :n] = kkt.A
    rhs = np.concatenate([-kkt.r, -kkt.r_pri])
    if use_lstsq:
        # equilibrate first: barrier weights can lift the largest singular
        # value so far above the equality rows that a relative cutoff would
        # also drop directions the solution needs
        d = 1.0 / np.sqrt(np.maximum(np.abs(np.diag(M)), 1.0))
        sol = d * np.linalg.lstsq(d[:, None] * M * d, d * rhs, rcond=None)[0]
    else:
        try:
            sol = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise EliminationError(
                "global KKT matrix is singular; check equality rows for "
                "redundancy or run preprocessing"
            ) from exc
    resid = float(np.max(np.abs(M @ sol - rhs))) if sol.size else 0.0
    if resid > KKT_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(rhs), initial=0.0))):
        raise EliminationError(
            f"global KKT solve failed its residual check ({resid:.3e}); "
            "equality rows may be inconsistent"
        )
    return sol[:n], sol[n:]


def newton_direction(
    p: CoupledProblem,
    a: Assignment,
    tree: chordal.CliqueTree,
    x: np.ndarray,
    lam: Mapping[int, np.ndarray],
    v: Mapping[int, np.ndarray],
    t: float,
    use_lstsq: bool = False,
    soc: Mapping[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Global primal-dual Newton direction (dx, dv per clique, dlam)."""
    kkt = assemble_global(p, a, tree, x, lam, v, t, soc)
    dx, dv_stack = dense_kkt_solve(kkt, use_lstsq=use_lstsq)
    dv = {i: dv_stack[kkt.row_slices[i]].copy() for i in range(tree.q)}
    inv_t = 0.0 if math.isinf(t) else 1.0 / t
    dlam: dict[int, np.ndarray] = {}
    for k, sp in enumerate(p.subproblems):
        ev = eval_subproblem(sp, x[list(sp.J)])
        if ev.g.size == 0:
            dlam[k] = np.zeros(0)
            continue
        lk = lam[k]
        r_cent = _r_cent(lk, ev.g, inv_t, soc, k)
        dlam[k] = (r_cent - lk * (ev.jac @ dx[list(sp.J)])) / ev.g
    return dx, dv, dlam


def dual_residual(
    p: CoupledProblem,
    a: Assignment,
    tree: chordal.CliqueTree,
    x: np.ndarray,
    lam: Mapping[int, np.ndarray],
    v: Mapping[int, np.ndarray],
) -> np.ndarray:
    """Gradient of the Lagrangian, assembled globally."""
    w = np.zeros(p.n)
    for k, sp in enumerate(p.subproblems):
        cols = list(sp.J)
        ev = eval_subproblem(sp, x[cols])
        w[cols] += ev.grad + (ev.jac.T @ lam[k] if ev.g.size else 0.0)
    for i in range(tree.q):
        Ai, _ = a.local_eq[i]
        if Ai.shape[0]:
            w[list(tree.cliques[i])] += Ai.T @ v[i]
    return w


def primal_residual_sq(
    a: Assignment, tree: chordal.CliqueTree, x: np.ndarray
) -> float:
    total = 0.0
    for i in range(tree.q):
        Ai, bi = a.local_eq[i]
        if Ai.shape[0]:
            res = Ai @ x[list(tree.cliques[i])] - bi
            total += float(res @ res)
    return total


def surrogate_gap(
    p: CoupledProblem, x: np.ndarray, lam: Mapping[int, np.ndarray]
) -> float:
    total = 0.0
    for k, sp in enumerate(p.subproblems):
        xl = x[list(sp.J)]
        g = np.array([c.value(xl) for c in sp.inequalities])
        total += float(-(lam[k] @ g))
    return total


Direction = tuple[np.ndarray, dict[int, np.ndarray], dict[int, np.ndarray]]


def mehrotra_direction(
    p: CoupledProblem,
    a: Assignment,
    tree: chordal.CliqueTree,
    x: np.ndarray,
    lam: Mapping[int, np.ndarray],
    v: Mapping[int, np.ndarray],
    use_lstsq: bool = False,
) -> tuple[Direction, Direction, float, float]:
    """Mehrotra's affine and corrected directions from one point.

    Returns both ``(dx, dv, dlam)`` triples, the barrier weight ``t`` the
    corrector is built with and the surrogate gap ``eta_aff`` after the
    affine step that set it.
    """
    aff = newton_direction(p, a, tree, x, lam, v, math.inf, use_lstsq=use_lstsq)
    dx, _, dlam = aff
    # affine step to the boundary of lam >= 0 and g <= 0, where
    # g(x + a dx) = g + a J dx + a^2 dx'Q dx / 2 along the direction
    alpha_aff = 1.0
    soc = {}
    for k, sp in enumerate(p.subproblems):
        cols = list(sp.J)
        ev = eval_subproblem(sp, x[cols])
        if not ev.g.size:
            soc[k] = np.zeros(0)
            continue
        jdx = ev.jac @ dx[cols]
        curv = np.array([0.5 * dx[cols] @ Q @ dx[cols] for Q in ev.con_hess])
        for j, lj in enumerate(lam[k]):
            if dlam[k][j] < 0:
                alpha_aff = min(alpha_aff, -lj / dlam[k][j])
            disc = jdx[j] ** 2 - 4.0 * curv[j] * ev.g[j]
            if jdx[j] + math.sqrt(disc) > 0:
                alpha_aff = min(
                    alpha_aff, -2.0 * ev.g[j] / (jdx[j] + math.sqrt(disc))
                )
        soc[k] = dlam[k] * jdx
    lam_aff = {k: lam[k] + alpha_aff * dlam[k] for k in lam}
    eta_aff = surrogate_gap(p, x + alpha_aff * dx, lam_aff)
    t = _next_t(surrogate_gap(p, x, lam), eta_aff, p.m_total)
    corr = newton_direction(p, a, tree, x, lam, v, t, use_lstsq=use_lstsq, soc=soc)
    return aff, corr, t, eta_aff


@dataclass
class CentralizedResult:
    x: np.ndarray
    v: dict[int, np.ndarray]
    lam: dict[int, np.ndarray]
    objective: float
    converged: bool
    status: str
    iterations: int
    total_backtracks: int
    trace: ConvergenceTrace


def centralized_ipm(
    p: CoupledProblem,
    params: SolverParams | None = None,
    x0: np.ndarray | None = None,
    lam0: Mapping[int, np.ndarray] | float | None = None,
    v0: Mapping[int, np.ndarray] | float | None = None,
    tree: chordal.CliqueTree | None = None,
    assignment: Assignment | None = None,
    use_lstsq: bool = False,
) -> CentralizedResult:
    """Reference interior-point loop on the globally assembled system.

    Mirrors the distributed update rules (same Mehrotra predictor-corrector
    step, same two-stage line search) but computes everything from dense
    global matrices: each iteration makes one dense solve for the affine
    direction and one for the corrected direction.  With ``assignment``
    given, runs on those equality blocks as-is; by default it takes the
    blocks the distributed solver reduces, from :func:`ipm.prepare`.
    """
    params = params or SolverParams()
    p.validate()
    if x0 is None:
        raise NotStrictlyFeasibleError("x0 is required")
    x = np.asarray(x0, dtype=float).copy()
    worst = p.max_inequality(x)
    if worst >= 0:
        raise NotStrictlyFeasibleError(
            f"x0 violates strict feasibility (max g = {worst:.3e})"
        )
    if tree is None:
        _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
    if assignment is None:
        assignment = ipm.prepare(p, tree).assignment

    lam: dict[int, np.ndarray] = {}
    for k, sp in enumerate(p.subproblems):
        if isinstance(lam0, Mapping):
            lam[k] = np.asarray(lam0[k], dtype=float).copy()
        else:
            lam[k] = np.full(sp.m, 1.0 if lam0 is None else float(lam0))
    v: dict[int, np.ndarray] = {}
    for i in range(tree.q):
        rows = assignment.local_eq[i][0].shape[0]
        if isinstance(v0, Mapping):
            v[i] = np.asarray(v0[i], dtype=float).copy()
        else:
            v[i] = np.full(rows, 1.0 if v0 is None else float(v0))

    m_total = p.m_total
    scale = _step_scale(m_total)

    trace = ConvergenceTrace()
    total_backtracks = 0
    status = "max_iters"
    iterations = 0
    for it in range(1, params.max_iters + 1):
        iterations = it
        _, (dx, dv, dlam), t, eta_aff = mehrotra_direction(
            p, assignment, tree, x, lam, v, use_lstsq=use_lstsq
        )
        amax = 1.0
        for k, sp in enumerate(p.subproblems):
            d = dlam[k]
            mask = d < 0
            if mask.any():
                amax = min(amax, float(np.min(-lam[k][mask] / d[mask])))
        alpha = scale * amax
        w_old = dual_residual(p, assignment, tree, x, lam, v)
        p_old_sq = primal_residual_sq(assignment, tree, x)
        d_old_sq = float(w_old @ w_old)
        backtracks = 0
        while True:
            x_hat = x + alpha * dx
            ok = p.max_inequality(x_hat) < 0
            if ok:
                lam_hat = {k: lam[k] + alpha * dlam[k] for k in lam}
                v_hat = {i: v[i] + alpha * dv[i] for i in v}
                w_hat = dual_residual(p, assignment, tree, x_hat, lam_hat, v_hat)
                p_new_sq = primal_residual_sq(assignment, tree, x_hat)
                d_new_sq = float(w_hat @ w_hat)
                lhs = p_new_sq + d_new_sq
                rhs = (1.0 - params.gamma * alpha) ** 2 * (p_old_sq + d_old_sq)
                floor = params.eps_feas**2
                if lhs <= rhs or (p_new_sq <= floor and d_new_sq <= floor):
                    break
            alpha *= params.beta
            backtracks += 1
            if alpha < ALPHA_STALL:
                raise LineSearchStallError(
                    f"line search stalled at iteration {it} (alpha {alpha:.3e})"
                )
        x, lam, v = x_hat, lam_hat, v_hat
        eta = surrogate_gap(p, x, lam)
        trace.rows.append(
            TraceRow(
                it,
                math.sqrt(p_new_sq),
                math.sqrt(d_new_sq),
                eta,
                alpha,
                backtracks,
                t,
                0,
                eta_aff,
            )
        )
        total_backtracks += backtracks
        if (
            math.sqrt(p_new_sq) <= params.eps_feas
            and math.sqrt(d_new_sq) <= params.eps_feas
            and eta <= params.eps
        ):
            status = "converged"
            break
    return CentralizedResult(
        x=x,
        v=v,
        lam=lam,
        objective=p.objective_value(x),
        converged=status == "converged",
        status=status,
        iterations=iterations,
        total_backtracks=total_backtracks,
        trace=trace,
    )


def same_iterate_steps(
    p: CoupledProblem,
    params: SolverParams,
    x0: np.ndarray,
    iterations: int,
    tree: chordal.CliqueTree,
) -> list[tuple[float, float]]:
    """Distributed and centralized step sizes taken from the same iterates.

    Replays a distributed solve from ``x0`` one iteration at a time, each
    one-iteration solve starting from the ``(x, lam, v)`` the last one
    returned: the iteration carries no other state, so the replay retraces
    the free-running trajectory exactly.  From every iterate the
    centralized loop takes one step too.  Returns one ``(distributed,
    centralized)`` pair of step sizes per iteration.
    """
    one = replace(params, max_iters=1)
    x, lam, v = x0, None, None
    out = []
    for _ in range(iterations):
        step = ipm.solve(p, one, x, lam, v, tree=tree, record_log=False)
        ref = centralized_ipm(p, one, x, lam, v, tree=tree)
        out.append((step.trace.rows[0].alpha, ref.trace.rows[0].alpha))
        x, lam, v = step.x, step.lam, step.v
    return out


def parametric_min_oracle(
    Q: np.ndarray,
    q: np.ndarray,
    c: float,
    A: np.ndarray,
    b: np.ndarray,
    keep: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimise a constrained quadratic over all but the ``keep`` variables.

    Returns the coefficients of the reduced quadratic in the kept
    variables.  One dense solve, no tree recursion.
    """
    dim = Q.shape[0]
    keep = np.asarray(keep, dtype=int)
    free = np.array([i for i in range(dim) if i not in set(keep.tolist())], dtype=int)
    nf, nk, rows = free.size, keep.size, A.shape[0]
    K = np.zeros((nf + rows, nf + rows))
    K[:nf, :nf] = Q[np.ix_(free, free)]
    K[:nf, nf:] = A[:, free].T
    K[nf:, :nf] = A[:, free]
    rhs = np.zeros((nf + rows, nk + 1))
    rhs[:nf, :nk] = -Q[np.ix_(free, keep)]
    rhs[:nf, nk] = -q[free]
    rhs[nf:, :nk] = -A[:, keep]
    rhs[nf:, nk] = b
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise EliminationError("parametric minimisation is singular") from exc
    Z = sol[:nf, :nk]
    z0 = sol[:nf, nk]
    Qff = Q[np.ix_(free, free)]
    Qkf = Q[np.ix_(keep, free)]
    Qr = Q[np.ix_(keep, keep)] + Z.T @ Qff @ Z + Qkf @ Z + Z.T @ Qkf.T
    Qr = 0.5 * (Qr + Qr.T)
    qr = q[keep] + Z.T @ q[free] + Qkf @ z0 + Z.T @ (Qff @ z0)
    cr = c + 0.5 * float(z0 @ (Qff @ z0)) + float(q[free] @ z0)
    return Qr, qr, cr


def subtree_message_oracle(
    tree: chordal.CliqueTree,
    data: Mapping[int, treeqp.CliqueQpData],
    child: int,
) -> treeqp.QuadraticMessage:
    """Message a clique would send its parent, computed in one shot.

    Assembles the whole subtree's quadratic and equality rows over the
    union of its variables and minimises out everything but the separator.
    """
    par = tree.parent[child]
    if par is None:
        raise ValueError("the root sends no message")
    members = []
    stack = [child]
    while stack:
        i = stack.pop()
        members.append(i)
        stack.extend(tree.children[i])
    members.sort()
    varset = sorted({v for i in members for v in tree.cliques[i]})
    vmap = {v: t for t, v in enumerate(varset)}
    dim = len(varset)
    Q = np.zeros((dim, dim))
    q = np.zeros(dim)
    c = 0.0
    blocks_A = []
    blocks_b = []
    for i in members:
        d = data[i]
        cols = [vmap[v] for v in d.clique]
        Q[np.ix_(cols, cols)] += d.H
        q[cols] += d.r
        c += d.c
        if d.A.shape[0]:
            block = np.zeros((d.A.shape[0], dim))
            block[:, cols] = d.A
            blocks_A.append(block)
            blocks_b.append(d.beta)
    A = np.vstack(blocks_A) if blocks_A else np.zeros((0, dim))
    b = np.concatenate(blocks_b) if blocks_b else np.zeros(0)
    sep = tree.separator(child, par)
    keep = [vmap[v] for v in sep]
    Qr, qr, cr = parametric_min_oracle(Q, q, c, A, b, keep)
    return treeqp.QuadraticMessage(sep, Qr, qr, cr)
