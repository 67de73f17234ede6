"""Reference implementations: dense KKT assembly, one-shot messages."""

from __future__ import annotations

import numpy as np
import pytest

from treeipm import chordal, ipm, model, oracle, treeqp
from treeipm.errors import EliminationError, NotStrictlyFeasibleError

from conftest import interior_duals, random_loose_qp, random_tree_qp, tree_qp_passes


def test_dual_residual_is_lagrangian_gradient(rng):
    p, x0 = random_loose_qp(rng)
    setup = ipm.prepare(p)
    lam, v = interior_duals(rng, p, setup.assignment)
    w = oracle.dual_residual(p, setup.assignment, setup.tree, x0, lam, v)
    # finite differences of f + sum lam g + sum v (Ax - b)
    def lagrangian(x):
        total = p.objective_value(x)
        for k, sp in enumerate(p.subproblems):
            xl = x[list(sp.J)]
            for lk, c in zip(lam[k], sp.inequalities):
                total += lk * c.value(xl)
        for i in range(setup.tree.q):
            Ai, bi = setup.assignment.local_eq[i]
            if Ai.shape[0]:
                total += v[i] @ (Ai @ x[list(setup.tree.cliques[i])] - bi)
        return total

    num = np.zeros(p.n)
    for i in range(p.n):
        e = np.zeros(p.n)
        e[i] = 1e-6
        num[i] = (lagrangian(x0 + e) - lagrangian(x0 - e)) / 2e-6
    assert np.allclose(w, num, atol=1e-4)


def test_primal_residual_squares_clique_rows(rng):
    p, x0 = random_loose_qp(rng)
    setup = ipm.prepare(p)
    total = 0.0
    for i in range(setup.tree.q):
        Ai, bi = setup.assignment.local_eq[i]
        if Ai.shape[0]:
            res = Ai @ x0[list(setup.tree.cliques[i])] - bi
            total += res @ res
    assert np.isclose(
        oracle.primal_residual_sq(setup.assignment, setup.tree, x0), total
    )


def test_surrogate_gap_sign_convention(rng):
    p, x0 = random_loose_qp(rng)
    lam = {k: np.ones(sp.m) for k, sp in enumerate(p.subproblems)}
    eta = oracle.surrogate_gap(p, x0, lam)
    # strictly feasible x0 and positive lam make the gap positive
    if p.m_total:
        assert eta > 0
        assert np.isclose(eta, -p.inequality_values(x0).sum())
    else:
        assert eta == 0.0


def test_assemble_global_rejects_boundary_point(rng):
    p, x0 = random_loose_qp(rng)
    if p.m_total == 0:
        pytest.skip("no inequalities drawn")
    setup = ipm.prepare(p)
    lam = {k: np.ones(sp.m) for k, sp in enumerate(p.subproblems)}
    v = {i: np.zeros(setup.assignment.local_eq[i][0].shape[0]) for i in setup.assignment.local_eq}
    far = x0 + 1e4
    if p.max_inequality(far) >= 0:
        with pytest.raises(NotStrictlyFeasibleError):
            oracle.assemble_global(p, setup.assignment, setup.tree, far, lam, v, 1.0)


def test_newton_direction_solves_linearized_kkt(rng):
    p, x0 = random_loose_qp(rng)
    setup = ipm.prepare(p)
    lam, v = interior_duals(rng, p, setup.assignment)
    t = 25.0
    kkt = oracle.assemble_global(p, setup.assignment, setup.tree, x0, lam, v, t)
    dx, dv, dlam = oracle.newton_direction(
        p, setup.assignment, setup.tree, x0, lam, v, t
    )
    dv_stack = np.concatenate(
        [dv[i] for i in range(setup.tree.q)]
    ) if any(dv[i].size for i in dv) else np.zeros(0)
    assert np.allclose(kkt.H @ dx + kkt.A.T @ dv_stack, -kkt.r, atol=1e-7)
    assert np.allclose(kkt.A @ dx, -kkt.r_pri, atol=1e-7)
    # multiplier rows: diag(lam) Dg dx + diag(g) dlam = -lam g - 1/t
    for k, sp in enumerate(p.subproblems):
        ev = model.eval_subproblem(sp, model.stack_inequalities(sp), x0[list(sp.J)])
        if not ev.g.size:
            continue
        lhs = lam[k] * (ev.jac @ dx[list(sp.J)]) + ev.g * dlam[k]
        rhs = -lam[k] * ev.g - 1.0 / t
        assert np.allclose(lhs, rhs, atol=1e-8)


def test_dense_kkt_solve_reports_singularity():
    n = 2
    kkt = oracle.GlobalKkt(
        H=np.zeros((n, n)),
        A=np.zeros((0, n)),
        r=np.array([1.0, 0.0]),
        r_pri=np.zeros(0),
        row_slices={},
    )
    with pytest.raises(EliminationError):
        oracle.dense_kkt_solve(kkt)


def test_dense_kkt_lstsq_handles_redundant_rows():
    # duplicated equality row: singular saddle matrix, consistent system
    H = np.eye(2)
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    kkt = oracle.GlobalKkt(
        H=H,
        A=A,
        r=np.zeros(2),
        r_pri=np.array([-1.0, -1.0]),
        row_slices={0: slice(0, 2)},
    )
    with pytest.raises(EliminationError):
        oracle.dense_kkt_solve(kkt)
    dx, dv = oracle.dense_kkt_solve(kkt, use_lstsq=True)
    assert np.allclose(H @ dx + A.T @ dv, 0.0, atol=1e-10)
    assert np.allclose(A @ dx, [1.0, 1.0], atol=1e-10)


def stiff_kkt():
    """Saddle-point system whose barrier weights climb to 1e11 (condition ~1e14)."""
    rng = np.random.default_rng(0)
    n, rows = 8, 2
    J = rng.normal(size=(n, n))
    H = np.eye(n) + J.T @ (np.logspace(0, 11, n)[:, None] * J)
    A = rng.normal(size=(rows, n))
    kkt = oracle.GlobalKkt(
        H, A, rng.normal(size=n), rng.normal(size=rows), {0: slice(0, rows)}
    )
    M = np.block([[H, A.T], [A, np.zeros((rows, rows))]])
    return kkt, M, np.concatenate([-kkt.r, -kkt.r_pri])


def test_dense_kkt_solve_accepts_backward_stable_solve_under_stiff_barrier():
    kkt, M, rhs = stiff_kkt()
    dx, dv = oracle.dense_kkt_solve(kkt)
    sol = np.concatenate([dx, dv])
    assert np.array_equal(sol, np.linalg.solve(M, rhs))
    # the former absolute bound rejected this LU solution
    resid = np.abs(M @ sol - rhs).max()
    assert resid > 1e-10 * (1.0 + np.abs(rhs).max())
    assert treeqp.backward_ok(M, sol, rhs)


def test_dense_kkt_solve_rejects_a_perturbed_solution(monkeypatch):
    kkt, M, rhs = stiff_kkt()
    exact = np.linalg.solve
    sol = exact(M, rhs)
    # push the solution along M's strongest direction: backward error ~1e-5
    top = np.linalg.svd(M)[2][0]
    bad = sol + 1e-5 * np.linalg.norm(sol) * top
    scale = np.linalg.norm(M) * np.linalg.norm(bad) + np.linalg.norm(rhs) + 1.0
    assert np.linalg.norm(M @ bad - rhs) > 100 * treeqp.SOLVE_BACKWARD_TOL * scale
    monkeypatch.setattr(np.linalg, "solve", lambda m, b: bad.copy())
    with pytest.raises(EliminationError, match="backward error"):
        oracle.dense_kkt_solve(kkt)


# ---------------- centralized reference loop ----------------


def test_centralized_on_analytic_problem():
    # minimise 0.5 x^2 subject to x >= 1: optimum x* = 1, lam* = 1
    sp = model.Subproblem(
        (0,),
        model.QuadraticForm(np.eye(1), np.zeros(1)),
        [model.Constraint("affine", np.array([-1.0]), 1.0)],
    )
    p = model.CoupledProblem(1, [sp]).validate()
    res = oracle.centralized_ipm(p, x0=np.array([2.0]))
    assert res.converged
    assert np.isclose(res.x[0], 1.0, atol=1e-7)
    assert np.isclose(res.lam[0][0], 1.0, atol=1e-5)
    assert np.isclose(res.objective, 0.5, atol=1e-7)
    # trace rows mirror the distributed format
    assert len(res.trace) == res.iterations


def test_centralized_requires_feasible_start():
    sp = model.Subproblem(
        (0,),
        model.QuadraticForm(np.eye(1), np.zeros(1)),
        [model.Constraint("affine", np.array([-1.0]), 1.0)],
    )
    p = model.CoupledProblem(1, [sp]).validate()
    with pytest.raises(NotStrictlyFeasibleError):
        oracle.centralized_ipm(p)
    with pytest.raises(NotStrictlyFeasibleError):
        oracle.centralized_ipm(p, x0=np.array([0.5]))


# ---------------- one-shot elimination oracles ----------------


def test_same_iterate_replay_prepares_once(monkeypatch):
    # the replay prepares and starts once and steps from there; the
    # centralized steps run on the blocks that set-up reduced
    p, x0 = model.gen_flow(model.balanced_tree(1, 2), seed=0)
    _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
    calls = []
    prepare = ipm.prepare

    def counted(*args, **kwargs):
        calls.append(args[0])
        return prepare(*args, **kwargs)

    monkeypatch.setattr(ipm, "prepare", counted)
    steps = oracle.same_iterate_steps(p, ipm.SolverParams(), x0, 5, tree)
    assert len(steps) == 5
    assert len(calls) == 1


def test_parametric_min_oracle_quadratic_identity(rng):
    # reduced quadratic evaluates the true constrained partial minimum
    dim, rows = 5, 2
    m = rng.normal(size=(dim, dim))
    Q = m.T @ m + 0.5 * np.eye(dim)
    q = rng.normal(size=dim)
    A = rng.normal(size=(rows, dim))
    b = rng.normal(size=rows)
    keep = [1, 3]
    Qr, qr, cr = oracle.parametric_min_oracle(Q, q, 0.7, A, b, keep)
    free = [0, 2, 4]
    for _ in range(5):
        y = rng.normal(size=len(keep))
        # minimise over the free block with keep pinned at y
        Qff = Q[np.ix_(free, free)]
        kkt = np.block(
            [[Qff, A[:, free].T], [A[:, free], np.zeros((rows, rows))]]
        )
        rhs = np.concatenate(
            [-(q[free] + Q[np.ix_(free, keep)] @ y), b - A[:, keep] @ y]
        )
        sol = np.linalg.solve(kkt, rhs)
        z = sol[:len(free)]
        x = np.zeros(dim)
        x[free] = z
        x[keep] = y
        direct = 0.5 * x @ Q @ x + q @ x + 0.7
        reduced = 0.5 * y @ Qr @ y + qr @ y + cr
        assert np.isclose(direct, reduced, atol=1e-9)


def test_subtree_message_oracle_matches_qp_message_pass(rng):
    for _ in range(10):
        tree, data, _ = random_tree_qp(rng)
        _, messages = tree_qp_passes(tree, data)
        for child, msg in messages.items():
            if child == tree.root:
                continue
            Q, q, c = oracle.subtree_message_oracle(tree, data, child)
            assert msg.sep == tree.separator(child, tree.parent[child])
            assert np.abs(msg.Q - Q).max() <= 1e-9 * (1 + np.abs(Q).max())
            assert np.abs(msg.q - q).max() <= 1e-9 * (1 + np.abs(q).max())
            assert abs(msg.c - c) <= 1e-9 * (1 + abs(c))


def test_subtree_message_oracle_rejects_root(rng):
    tree, data, _ = random_tree_qp(rng)
    with pytest.raises(ValueError):
        oracle.subtree_message_oracle(tree, data, tree.root)
