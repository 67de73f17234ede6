"""Centralized reference implementations.

Everything here solves the same problems as the tree-structured solver but
by direct dense linear algebra on globally assembled matrices, through a
different factorization route (LAPACK LU / least squares instead of the
symmetric-indefinite solves used per clique).  Tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg

from treeipm import chordal, ipm, model, treeqp
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
from treeipm.model import Assignment, CoupledProblem, eval_subproblem


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
        rows = model.stack_inequalities(sp)
        ev = eval_subproblem(sp, rows, x[cols])
        if ev.g.size and ev.g.max() >= 0:
            raise NotStrictlyFeasibleError(
                f"point is not strictly feasible for subproblem {k}"
            )
        lk = lam[k]
        Hk = ev.hess.copy()
        for j, Qj in rows.quad:
            if Qj.any():
                Hk = Hk + lk[j] * Qj
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
    # the distributed eliminations' contract: a backward-stable solve passes
    # it however large the barrier weights make |M|
    if not treeqp.backward_ok(M, sol, rhs):
        raise EliminationError(
            "global KKT solve failed its backward error check "
            f"({np.linalg.norm(M @ sol - rhs):.3e}); equality rows may be inconsistent"
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
        ev = eval_subproblem(sp, model.stack_inequalities(sp), x[list(sp.J)])
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
        ev = eval_subproblem(sp, model.stack_inequalities(sp), x[cols])
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
        g = eval_subproblem(sp, model.stack_inequalities(sp), x[list(sp.J)]).g
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
        rows = model.stack_inequalities(sp)
        ev = eval_subproblem(sp, rows, x[cols])
        if not ev.g.size:
            soc[k] = np.zeros(0)
            continue
        jdx = ev.jac @ dx[cols]
        curv = np.zeros(sp.m)
        for j, Q in rows.quad:
            curv[j] = 0.5 * dx[cols] @ Q @ dx[cols]
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


def centralized_step(
    p: CoupledProblem,
    a: Assignment,
    tree: chordal.CliqueTree,
    params: SolverParams,
    x: np.ndarray,
    lam: Mapping[int, np.ndarray],
    v: Mapping[int, np.ndarray],
    it: int,
    use_lstsq: bool = False,
) -> tuple[TraceRow, np.ndarray, dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Iteration ``it`` of :func:`centralized_ipm` from ``(x, lam, v)``:
    its trace row and the accepted ``(x, lam, v)``."""
    _, (dx, dv, dlam), t, eta_aff = mehrotra_direction(
        p, a, tree, x, lam, v, use_lstsq=use_lstsq
    )
    amax = 1.0
    for k, sp in enumerate(p.subproblems):
        d = dlam[k]
        mask = d < 0
        if mask.any():
            amax = min(amax, float(np.min(-lam[k][mask] / d[mask])))
    alpha = _step_scale(p.m_total) * amax
    w_old = dual_residual(p, a, tree, x, lam, v)
    p_old_sq = primal_residual_sq(a, tree, x)
    d_old_sq = float(w_old @ w_old)
    backtracks = 0
    while True:
        x_hat = x + alpha * dx
        if p.max_inequality(x_hat) < 0:
            lam_hat = {k: lam[k] + alpha * dlam[k] for k in lam}
            v_hat = {i: v[i] + alpha * dv[i] for i in v}
            w_hat = dual_residual(p, a, tree, x_hat, lam_hat, v_hat)
            p_new_sq = primal_residual_sq(a, tree, x_hat)
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
    eta = surrogate_gap(p, x_hat, lam_hat)
    row = TraceRow(
        it, math.sqrt(p_new_sq), math.sqrt(d_new_sq), eta, alpha, backtracks, t, 0, eta_aff
    )
    return row, x_hat, lam_hat, v_hat


def centralized_ipm(
    p: CoupledProblem,
    params: SolverParams | None = None,
    x0: np.ndarray | None = None,
    tree: chordal.CliqueTree | None = None,
    assignment: Assignment | None = None,
    use_lstsq: bool = False,
) -> CentralizedResult:
    """Reference interior-point loop on the globally assembled system.

    Mirrors the distributed update rules (same Mehrotra predictor-corrector
    step, same two-stage line search) but computes everything from dense
    global matrices: each iteration makes one dense solve for the affine
    direction and one for the corrected direction.  Starts from ``x0``
    with all multipliers one.  With ``assignment`` given, runs on those
    equality blocks as-is; by default it takes the blocks the distributed
    solver reduces, from :func:`ipm.prepare`.
    """
    params = params or SolverParams()
    p.ensure_valid()
    if x0 is None:
        raise NotStrictlyFeasibleError("x0 is required")
    x = ipm.finite_vector(x0, p.n, "x0").copy()
    worst = p.max_inequality(x)
    if worst >= 0:
        raise NotStrictlyFeasibleError(
            f"x0 violates strict feasibility (max g = {worst:.3e})"
        )
    if tree is None:
        _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
    if assignment is None:
        assignment = ipm.prepare(p, tree).assignment
    lam = {k: np.ones(sp.m) for k, sp in enumerate(p.subproblems)}
    v = {i: np.ones(assignment.local_eq[i][0].shape[0]) for i in range(tree.q)}
    trace = ConvergenceTrace()
    status = "max_iters"
    for it in range(1, params.max_iters + 1):
        row, x, lam, v = centralized_step(p, assignment, tree, params, x, lam, v, it, use_lstsq)
        trace.rows.append(row)
        if row.converged(params):
            status = "converged"
            break
    return CentralizedResult(
        x=x,
        v=v,
        lam=lam,
        objective=p.objective_value(x),
        converged=status == "converged",
        status=status,
        iterations=len(trace),
        total_backtracks=sum(row.backtracks for row in trace.rows),
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

    Runs ``iterations`` distributed steps from ``x0``, the free-running
    trajectory, and from every iterate on it one centralized step too, on
    the equality blocks the distributed set-up reduced.  Returns one
    ``(distributed, centralized)`` pair of step sizes per iteration.
    """
    setup = ipm.prepare(p, tree)
    ref = ipm.start(setup, x0)
    out = []
    for it in range(1, iterations + 1):
        x, _, v, lam = ipm.iterate(setup)
        central = centralized_step(p, setup.assignment, setup.tree, params, x, lam, v, it)[0]
        row, ref, _ = ipm.step(setup, params, ref, it)
        out.append((row.alpha, central.alpha))
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
    data: Mapping[int, Sequence[np.ndarray]],
    child: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """``(Q, q, c)`` of the message a clique would send its parent, computed
    in one shot; ``data[i]`` is clique ``i``'s ``(H, r, A, beta)``.

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
    blocks_A = []
    blocks_b = []
    for i in members:
        H, r, A, beta = data[i]
        cols = [vmap[v] for v in tree.cliques[i]]
        Q[np.ix_(cols, cols)] += H
        q[cols] += r
        if A.shape[0]:
            block = np.zeros((A.shape[0], dim))
            block[:, cols] = A
            blocks_A.append(block)
            blocks_b.append(beta)
    A = np.vstack(blocks_A) if blocks_A else np.zeros((0, dim))
    b = np.concatenate(blocks_b) if blocks_b else np.zeros(0)
    keep = [vmap[v] for v in tree.separator(child, par)]
    return parametric_min_oracle(Q, q, 0.0, A, b, keep)


def block_ldl_check(
    tree: chordal.CliqueTree,
    data: Mapping[int, Sequence[np.ndarray]],
    messages: Mapping[int, treeqp.QuadraticMessage],
    n: int,
) -> float:
    """Consistency check: message passing equals a permuted block LDL'.

    ``data[i]`` is clique ``i``'s ``(H, r, A, beta)`` and ``messages[c]``
    the message child ``c`` sent.  Each clique's pivot block is rebuilt
    from its ``H`` and ``A`` with its children's messages folded in, in
    child order, as :func:`treeqp.eliminate_unit` builds it for each member
    of a pass unit.  Assembles the full KKT matrix of the tree QP, permutes
    it into per-clique blocks (private variables then local multipliers, in
    elimination order) and runs block Gaussian elimination with those pivot
    blocks.  Returns the Frobenius mismatch between the eliminated matrix
    and the block diagonal of the pivots, relative to the KKT matrix norm.
    """
    order = tree.post_order()
    # per clique, in elimination order: its private variables, then its rows
    col_of_var: dict[int, int] = {}
    blocks, pivots, size = {}, {}, 0
    for i in order:
        lay, (H, _, A, _) = model.clique_layout(tree, i), data[i]
        if set(lay.elim) & col_of_var.keys():
            raise EliminationError("private variable sets are not disjoint")
        col_of_var.update(zip(lay.elim, range(size, size + len(lay.elim))))
        blocks[i] = np.arange(size, size + len(lay.elim) + len(A))
        size += len(blocks[i])
        H = H.copy()
        for c in tree.children[i]:
            H[np.ix_(lay.child_pos[c], lay.child_pos[c])] += messages[c].Q
        Az = A[:, lay.zpos]
        pivots[i] = np.block([[H[np.ix_(lay.zpos, lay.zpos)], Az.T], [Az, np.zeros((len(A),) * 2)]])
    if len(col_of_var) != n:
        raise EliminationError("private variable sets do not cover all variables")

    kkt = np.zeros((size, size))
    for i in order:
        H, _, A, _ = data[i]
        cols = [col_of_var[v] for v in tree.cliques[i]]
        rows = blocks[i][len(blocks[i]) - len(A) :]
        kkt[np.ix_(cols, cols)] += H
        kkt[np.ix_(rows, cols)] += A
        kkt[np.ix_(cols, rows)] += A.T

    work = kkt.copy()
    done = np.zeros(size, dtype=bool)
    block_diag = np.zeros_like(kkt)
    for i in order:
        idx = blocks[i]
        done[idx] = True
        rest = np.flatnonzero(~done)
        if idx.size and rest.size:
            lower = work[np.ix_(rest, idx)]
            upper = work[np.ix_(idx, rest)]
            work[np.ix_(rest, rest)] -= lower @ scipy.linalg.solve(
                pivots[i], upper, assume_a="sym"
            )
            work[np.ix_(rest, idx)] = 0.0
            work[np.ix_(idx, rest)] = 0.0
        block_diag[np.ix_(idx, idx)] = pivots[i]
    kkt_norm = float(np.linalg.norm(kkt))
    return float(np.linalg.norm(work - block_diag) / (kkt_norm if kkt_norm > 0 else 1.0))
