"""Distributed interior-point loop against the dense reference path."""

from __future__ import annotations

import numpy as np
import pytest

from treeipm import ipm, model, oracle
from treeipm.errors import (
    InfeasibleProblemError,
    LineSearchStallError,
    NotStrictlyFeasibleError,
    ProblemFormatError,
)

from conftest import agent_directions, direction_gap, interior_duals, random_loose_qp


# ---------------- parameters and trace plumbing ----------------


def test_solver_params_ranges():
    ipm.SolverParams()  # defaults are legal
    with pytest.raises(ProblemFormatError):
        ipm.SolverParams(beta=0.0)
    with pytest.raises(ProblemFormatError):
        ipm.SolverParams(beta=1.0)
    with pytest.raises(ProblemFormatError):
        ipm.SolverParams(gamma=0.005)
    with pytest.raises(ProblemFormatError):
        ipm.SolverParams(gamma=0.2)
    with pytest.raises(ProblemFormatError):
        ipm.SolverParams(eps=0.0)
    with pytest.raises(ProblemFormatError):
        ipm.SolverParams(eps_feas=-1.0)
    with pytest.raises(ProblemFormatError):
        ipm.SolverParams(max_iters=0)


def test_trace_csv_round_trip(tmp_path):
    trace = ipm.ConvergenceTrace(
        [
            ipm.TraceRow(1, 0.5, 0.25, 3.0, 1.0, 0, 7.0, 12, 1.5),
            ipm.TraceRow(2, 1e-12, 2e-13, 1e-11, 0.99, 3, 2.1e11, 28, 3e-15),
        ]
    )
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = ipm.ConvergenceTrace.from_csv(path)
    assert len(back) == 2
    for a, b in zip(trace.rows, back.rows):
        assert a.as_tuple() == b.as_tuple()
    assert np.allclose(back.column("eta_hat"), [3.0, 1e-11])
    assert np.allclose(back.column("eta_aff"), [1.5, 3e-15])


def test_trace_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ProblemFormatError):
        ipm.ConvergenceTrace.from_csv(path)


# ---------------- state construction ----------------


def test_initial_state_shapes(rng):
    p, x0 = random_loose_qp(rng)
    setup = ipm.prepare(p)
    state = ipm.initial_state(setup, x0)
    for i in range(setup.tree.q):
        assert state.x[i].shape == (len(setup.tree.cliques[i]),)
        assert state.v[i].shape == (setup.locals[i].eq_A.shape[0],)
    for k, sp in enumerate(p.subproblems):
        assert np.all(state.lam[k] == 1.0)
    with pytest.raises(ProblemFormatError):
        ipm.initial_state(setup, x0[:-1])
    with pytest.raises(ProblemFormatError):
        ipm.initial_state(setup, x0, lam0=-1.0)


def test_step_scale_and_barrier_updates():
    assert ipm._step_scale(0) == 1.0
    assert ipm._step_scale(5) == 0.99
    # t = m / (sigma eta_hat) with sigma = (eta_aff / eta_hat)^3
    assert ipm._next_t(2.0, 1.0, 4) == 16.0
    assert ipm._next_t(2.0, 2.0, 4) == 2.0
    assert ipm._next_t(2.0, 0.0, 4) == np.inf
    assert ipm._next_t(1.0, 0.5, 0) == np.inf
    with pytest.raises(LineSearchStallError):
        ipm._next_t(0.0, 0.0, 4)


# ---------------- one iteration ----------------


ONE = ipm.SolverParams(max_iters=1)


def test_directions_match_dense_newton(rng):
    for _ in range(10):
        p, x0 = random_loose_qp(rng)
        setup = ipm.prepare(p)
        lam, v = interior_duals(rng, p, setup.assignment)
        res = ipm.solve(p, ONE, x0, lam, v, tree=setup.tree, record_log=False)
        aff, corr = agent_directions(res)
        aff_ref, corr_ref, _, _ = oracle.mehrotra_direction(
            p, setup.assignment, setup.tree, x0, lam, v
        )
        assert direction_gap(setup.tree, aff, aff_ref) < 1e-8
        assert direction_gap(setup.tree, corr, corr_ref) < 1e-8


def test_step_size_respects_interiority_and_decrease(rng):
    found = 0
    params = ipm.SolverParams()
    for _ in range(20):
        p, x0 = random_loose_qp(rng)
        if p.m_total == 0:
            continue
        res = ipm.solve(p, ONE, x0, record_log=False)
        found += 1
        a, tree = res.setup.assignment, res.setup.tree
        # multipliers stay positive and the accepted point strictly feasible
        assert all(np.all(lam > 0) for lam in res.lam.values())
        assert p.max_inequality(res.x) < 0
        # reported residuals are the oracle's at the accepted point, and
        # the squared decrease condition (or the floor) holds
        row = res.trace.rows[0]
        p_new = oracle.primal_residual_sq(a, tree, res.x)
        w_new = oracle.dual_residual(p, a, tree, res.x, res.lam, res.v)
        d_new = float(w_new @ w_new)
        assert np.isclose(row.r_primal_norm**2, p_new, rtol=1e-9, atol=1e-12)
        assert np.isclose(row.r_dual_norm**2, d_new, rtol=1e-9, atol=1e-12)
        lam0 = {k: np.ones(sp.m) for k, sp in enumerate(p.subproblems)}
        v0 = {i: np.ones(a.local_eq[i][0].shape[0]) for i in range(tree.q)}
        w_old = oracle.dual_residual(p, a, tree, x0, lam0, v0)
        old = oracle.primal_residual_sq(a, tree, x0) + float(w_old @ w_old)
        shrink = (1.0 - params.gamma * row.alpha) ** 2
        ok_decrease = p_new + d_new <= shrink * old * (1.0 + 1e-9)
        ok_floor = p_new <= params.eps_feas**2 and d_new <= params.eps_feas**2
        assert ok_decrease or ok_floor
    assert found >= 10


# ---------------- full solves ----------------


def test_equality_constrained_qp_converges_in_one_step(rng):
    # no inequalities: the first Newton step lands on the KKT point
    sp0 = model.Subproblem(
        (0, 1),
        model.QuadraticForm(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])),
        [],
        np.array([[1.0, 1.0]]),
        np.array([2.0]),
    )
    sp1 = model.Subproblem(
        (1, 2),
        model.QuadraticForm(np.array([[1.5, 0.0], [0.0, 1.0]]), np.zeros(2)),
        [],
    )
    p = model.CoupledProblem(3, [sp0, sp1]).validate()
    r = ipm.solve(p, x0=np.zeros(3))
    assert r.converged and r.iterations == 1
    assert r.trace.rows[0].alpha == 1.0
    # dense KKT reference
    Q = np.zeros((3, 3))
    Q[:2, :2] += sp0.objective.P
    Q[1:, 1:] += sp1.objective.P
    q = np.array([1.0, -1.0, 0.0])
    A = np.array([[1.0, 1.0, 0.0]])
    kkt = np.block([[Q, A.T], [A, np.zeros((1, 1))]])
    sol = np.linalg.solve(kkt, np.concatenate([-q, [2.0]]))
    assert np.allclose(r.x, sol[:3], atol=1e-9)
    assert np.isclose(r.objective, p.objective_value(r.x))


def test_solve_requires_strictly_feasible_start(rng):
    p, x0 = random_loose_qp(rng)
    with pytest.raises(NotStrictlyFeasibleError, match="phase_one"):
        ipm.solve(p)
    if p.m_total:
        bad = x0 + 1e3 * np.ones(p.n)
        if p.max_inequality(bad) >= 0:
            with pytest.raises(NotStrictlyFeasibleError, match="max g"):
                ipm.solve(p, x0=bad)


def test_flow_solve_matches_centralized(rng):
    p, x0 = model.gen_flow([-1, 0, 1, 1], seed=7)
    r = ipm.solve(p, x0=x0)
    assert r.converged
    ref = oracle.centralized_ipm(p, x0=x0)
    assert ref.converged
    assert np.abs(r.x - ref.x).max() <= 1e-6 * (1 + np.abs(ref.x).max())
    assert r.iterations == ref.iterations
    # separator copies agree bitwise across edges
    assert r.separator_gap() == 0.0
    # solution satisfies first-order conditions
    w = oracle.dual_residual(p, r.setup.assignment, r.setup.tree, r.x, r.lam, r.v)
    assert np.linalg.norm(w) <= 1e-6
    assert np.linalg.norm(p.equality_residual(r.x)) <= 1e-6
    assert p.max_inequality(r.x) < 0


def test_trace_reports_barrier_schedule(rng):
    p, x0 = model.gen_flow([-1, 0, 0], seed=1)
    params = ipm.SolverParams()
    r = ipm.solve(p, params, x0=x0)
    rows = r.trace.rows
    assert len(rows) == r.iterations
    assert [row.iteration for row in rows] == list(range(1, r.iterations + 1))
    # communication counter is cumulative and strictly increasing
    mp = [row.mp_steps_cum for row in rows]
    assert all(b > a for a, b in zip(mp, mp[1:]))
    assert mp[-1] == r.accounting.mp_steps
    # the barrier parameter of iteration l+1 is m / (sigma eta_hat(l)) with
    # sigma = (eta_aff(l+1) / eta_hat(l))^3; eta_hat(0) is the starting gap
    eta0 = oracle.surrogate_gap(
        p, x0, {k: np.ones(sp.m) for k, sp in enumerate(p.subproblems)}
    )
    for eta, row in zip([eta0] + [prev.eta_hat for prev in rows], rows):
        sigma = (row.eta_aff / eta) ** 3
        assert row.t * sigma * eta == pytest.approx(p.m_total, rel=1e-12)
        assert 0 < row.eta_aff


def test_max_iters_status(rng):
    p, x0 = model.gen_flow([-1, 0, 0, 1, 2], seed=0)
    r = ipm.solve(p, ipm.SolverParams(max_iters=2), x0=x0)
    assert not r.converged
    assert r.status == "max_iters"
    assert r.iterations == 2


# ---------------- phase one ----------------


def box_problem(lo, hi):
    # lo <= x <= hi in one variable
    cons = [
        model.Constraint("affine", np.array([1.0]), -hi),
        model.Constraint("affine", np.array([-1.0]), lo),
    ]
    sp = model.Subproblem((0,), model.QuadraticForm(np.eye(1), np.zeros(1)), cons)
    return model.CoupledProblem(1, [sp]).validate()


def test_phase_one_accepts_origin():
    p = box_problem(-1.0, 1.0)
    x, info = ipm.phase_one(p)
    assert info.pre_check and info.iterations == 0
    assert np.allclose(x, 0.0)
    assert np.isclose(info.margin, 1.0)


def test_phase_one_finds_interior_point():
    p = box_problem(1.0, 3.0)  # origin violates 1 <= x
    x, info = ipm.phase_one(p)
    assert not info.pre_check
    assert info.iterations > 0
    assert info.margin > 0
    assert p.max_inequality(x) < 0
    assert 1.0 < x[0] < 3.0


def test_phase_one_stops_at_first_interior_point():
    # {x >= 1} is unbounded above; solved to optimality, the auxiliary
    # barrier pushes x out without limit (to about 3e5 here), while the
    # first iterate with negative slacks is already strictly feasible
    sp = model.Subproblem(
        (0,),
        model.QuadraticForm(np.eye(1), np.zeros(1)),
        [model.Constraint("affine", np.array([-1.0]), 1.0)],
    )
    p = model.CoupledProblem(1, [sp]).validate()
    x, info = ipm.phase_one(p)
    assert p.max_inequality(x) < 0
    assert 1.0 < x[0] < 10.0
    assert info.optimum < 0


def test_solve_stops_when_watched_variables_are_negative():
    p = box_problem(-3.0, -1.0)
    r = ipm.solve(p, x0=np.array([-2.0]), stop_when_negative=[0])
    assert r.status == "negative" and not r.converged
    assert r.iterations == 1 and r.x[0] < 0
    full = ipm.solve(p, x0=np.array([-2.0]))
    assert full.converged and full.iterations > 1


def test_phase_one_certifies_infeasibility():
    p = box_problem(1.0, -1.0)  # x <= -1 and x >= 1
    with pytest.raises(InfeasibleProblemError) as exc:
        ipm.phase_one(p)
    # minimal total slack stays bounded away from the feasibility level
    assert exc.value.certificate is not None
    assert exc.value.certificate > 0.5


def test_phase_one_without_convergence_certifies_nothing():
    p = box_problem(1.0, -1.0)
    with pytest.raises(NotStrictlyFeasibleError, match="max_iters after 1"):
        ipm.phase_one(p, ipm.SolverParams(max_iters=1))


# ---------------- disconnected problems ----------------


def two_component_problem():
    spA = model.Subproblem(
        (0, 1),
        model.QuadraticForm(np.eye(2), np.array([0.0, -2.0])),
        [model.Constraint("affine", np.array([1.0, 0.0]), -5.0)],
        np.array([[1.0, -1.0]]),
        np.array([0.5]),
    )
    # second component needs phase one when started at +10
    spB = model.Subproblem(
        (2,),
        model.QuadraticForm(np.eye(1), np.zeros(1)),
        [
            model.Constraint("affine", np.array([1.0]), -3.0),
            model.Constraint("affine", np.array([-1.0]), 1.0),
        ],
    )
    return model.CoupledProblem(3, [spA, spB]).validate()


def test_solve_auto_handles_components():
    p = two_component_problem()
    runs = ipm.solve_auto(p)
    assert len(runs) == 2
    assert sorted(sum((r.variables for r in runs), [])) == [0, 1, 2]
    x = ipm.merge_solution(p, runs)
    assert np.linalg.norm(p.equality_residual(x)) <= 1e-7
    assert p.max_inequality(x) < 0
    # component B contains the box 1 <= x <= 3, so its minimum is at 1
    xb = x[2]
    assert np.isclose(xb, 1.0, atol=1e-6)
    # phase one ran only where the origin was infeasible
    infos = [r.phase_one for r in runs]
    assert any(i is not None for i in infos)


def test_solve_auto_uses_given_start_where_feasible():
    p = two_component_problem()
    x0 = np.array([0.0, 0.0, 2.0])
    runs = ipm.solve_auto(p, x0=x0)
    assert all(r.phase_one is None for r in runs)
