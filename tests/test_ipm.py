"""Distributed interior-point loop against the dense reference path."""

from __future__ import annotations

import copy
import functools
import math

import numpy as np
import pytest

from treeipm import chordal, ipm, model, netsim, oracle, treeqp
from treeipm.errors import (
    InfeasibleProblemError,
    LineSearchStallError,
    NotStrictlyFeasibleError,
    ProblemFormatError,
)

from conftest import (
    agent_directions,
    direction_gap,
    interior_duals,
    make_rooted_tree,
    random_loose_qp,
    tree_qp_passes,
)


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
    # non-finite tolerances and a non-integer iteration cap
    for bad in (math.nan, math.inf):
        with pytest.raises(ProblemFormatError, match="finite"):
            ipm.SolverParams(eps=bad)
        with pytest.raises(ProblemFormatError, match="finite"):
            ipm.SolverParams(eps_feas=bad)
    for bad in (2.5, 3.0, True):
        with pytest.raises(ProblemFormatError, match="integer"):
            ipm.SolverParams(max_iters=bad)
    assert ipm.SolverParams(max_iters=np.int64(3)).max_iters == 3


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
    ipm.start(setup, x0)
    lam = {}
    net = setup.network
    for i in range(setup.tree.q):
        assert net.get(i, "x").shape == (len(setup.tree.cliques[i]),)
        assert net.get(i, "v").shape == (setup.assignment.local_eq[i][0].shape[0],)
        lam.update(zip(setup.assignment.phi[i], net.get(i, "lam")))
    assert sorted(lam) == list(range(len(p.subproblems)))
    for k, sp in enumerate(p.subproblems):
        assert np.all(lam[k] == 1.0)
    with pytest.raises(ProblemFormatError):
        ipm.start(setup, x0[:-1])
    negative = {k: -np.ones(sp.m) for k, sp in enumerate(p.subproblems)}
    with pytest.raises(ProblemFormatError, match="must be positive"):
        ipm.start(setup, x0, lam0=negative)
    # a mapping missing an entry is malformed input, not a KeyError
    with pytest.raises(ProblemFormatError, match="lam0 has no entry for 1"):
        ipm.start(setup, x0, lam0={0: np.ones(p.subproblems[0].m)})
    with pytest.raises(ProblemFormatError, match="v0 has no entry for 0"):
        ipm.start(setup, x0, v0={})


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
        ipm.step(setup, ONE, ipm.start(setup, x0, lam, v), 1)
        aff, corr = agent_directions(setup)
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


def _check_each_accepted_step(monkeypatch, p, x0, params):
    """Solve, then check every decrease test the root made and every row.

    The reference of each test is recorded: in iteration 1 it must be the
    oracle's residual at ``x0`` with the start multipliers, later the
    previous row's, squared back.  Every row must also pass the decrease
    test against that reference or sit at the feasibility floor.
    """
    refs: list[float] = []
    accept = ipm._accept_test

    def recording(cand, ref, alpha, params):
        refs.append(ref["p"] + ref["d"])
        return accept(cand, ref, alpha, params)

    with monkeypatch.context() as m:
        m.setattr(ipm, "_accept_test", recording)
        res = ipm.solve(p, params, x0, record_log=False)
    a, tree = res.setup.assignment, res.setup.tree
    lam0 = {k: np.ones(sp.m) for k, sp in enumerate(p.subproblems)}
    v0 = {i: np.ones(a.local_eq[i][0].shape[0]) for i in range(tree.q)}
    w0 = oracle.dual_residual(p, a, tree, x0, lam0, v0)
    prev = oracle.primal_residual_sq(a, tree, x0) + float(w0 @ w0)
    rtol = 1e-9
    floor = params.eps_feas**2
    calls = iter(refs)
    for row in res.trace.rows:
        for _ in range(row.backtracks + 1):
            assert next(calls) == pytest.approx(prev, rel=rtol, abs=0.0), row
        p_sq, d_sq = row.r_primal_norm**2, row.r_dual_norm**2
        shrink = (1.0 - params.gamma * row.alpha) ** 2
        decrease = p_sq + d_sq <= shrink * prev * (1.0 + rtol)
        assert decrease or (p_sq <= floor and d_sq <= floor), row
        prev = p_sq + d_sq
        rtol = 1e-12
    assert next(calls, None) is None
    return res


def test_every_accepted_step_decreases_against_the_previous_iterate(
    rng, monkeypatch
):
    params = ipm.SolverParams()
    p, x0 = model.gen_flow([-1, 0, 0, 1, 2, 3, 4], seed=3)
    res = _check_each_accepted_step(monkeypatch, p, x0, params)
    assert res.iterations > 10 and res.total_backtracks > 10
    found = 0
    for _ in range(30):
        p, x0 = random_loose_qp(rng, eq_at_interior=True)
        quadratic = any(
            c.kind == "quadratic" for sp in p.subproblems for c in sp.inequalities
        )
        if quadratic:
            res = _check_each_accepted_step(monkeypatch, p, x0, params)
            found += res.iterations > 5 and res.total_backtracks > 0
    assert found >= 5


def test_wrong_shape_start_is_a_format_error():
    p, x0 = model.gen_flow([-1, 0, 0])
    for bad in (x0[:-1], np.r_[x0, 0.0]):
        with pytest.raises(ProblemFormatError, match="x0 must have shape"):
            ipm.solve(p, x0=bad)
        with pytest.raises(ProblemFormatError, match="x0 must have shape"):
            ipm.solve_auto(p, x0=bad)


def test_problem_format_is_checked_before_the_start():
    flow, x0 = model.gen_flow([-1, 0, 0])
    flow.subproblems[0].objective.q = np.zeros(flow.subproblems[0].dim + 1)
    # a problem is validated once, so the broken copy is a new, unchecked one
    p = model.CoupledProblem(flow.n, flow.subproblems)
    with pytest.raises(ProblemFormatError, match="objective dims"):
        ipm.solve(p)
    with pytest.raises(ProblemFormatError, match="objective dims"):
        ipm.solve(p, x0=x0[:-1])


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


def test_iteration_does_no_layout_work(rng, monkeypatch):
    # the layout, the stacked rows and the equality rank check are built in
    # prepare; once it returns, no pass looks up positions or takes an SVD
    armed = [False]

    def guard(fn):
        def call(*args, **kwargs):
            if armed[0]:
                raise AssertionError(f"{fn.__name__} called after prepare")
            return fn(*args, **kwargs)

        return call

    for mod in (chordal, model, netsim, treeqp, ipm, oracle):
        if hasattr(mod, "positions"):
            monkeypatch.setattr(mod, "positions", guard(mod.positions))
    monkeypatch.setattr(np.linalg, "svd", guard(np.linalg.svd))
    prepare = ipm.prepare

    def prepare_then_arm(*args, **kwargs):
        armed[0] = False
        setup = prepare(*args, **kwargs)
        armed[0] = True
        return setup

    monkeypatch.setattr(ipm, "prepare", prepare_then_arm)
    flow, x_flow = model.gen_flow([-1, 0, 0, 1, 2, 3, 4], seed=0)
    while True:
        loose, x_loose = random_loose_qp(rng, eq_at_interior=True)
        kinds = {c.kind for sp in loose.subproblems for c in sp.inequalities}
        if loose.p_total and "quadratic" in kinds:
            break
    for p, x0 in ((flow, x_flow), (loose, x_loose)):
        armed[0] = False
        r = ipm.solve(p, x0=x0)
        assert armed[0] and r.converged and r.iterations > 1
    # nor allocates a Hessian per constraint
    assert not hasattr(model.Constraint, "hess")


# ---------------- local steps and pass units ----------------
#
# The steps of a solve run probed: every local-step kernel and pass handler
# is checked, its output for a whole group or pass unit must be bitwise its
# output for each member alone, so nothing is reduced across members.


def bitwise_same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, np.ndarray) and a.dtype == object:
        return a.shape == np.shape(b) and bitwise_same(list(a.flat), list(b.flat))
    if isinstance(a, dict):
        return list(a) == list(b) and all(bitwise_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(bitwise_same(u, w) for u, w in zip(a, b))
    if isinstance(a, treeqp.QuadraticMessage):
        return a.sep == b.sep and bitwise_same((a.Q, a.q, a.c), (b.Q, b.q, b.c))
    return np.shape(a) == np.shape(b) and np.array_equal(a, b)


def rows(fields: dict, at) -> dict:
    """Copies of rows ``at`` of every group field."""
    return copy.deepcopy({k: netsim._take(v, at) for k, v in fields.items()})


def probe_kernel(setup, kernel):
    """``kernel``, checked against each member run as a group of one."""
    eq = setup.assignment.local_eq
    blocks = {
        i: (i, lay, *eq[i])
        for i, lay in enumerate(setup.layouts)
    }

    def run(group):
        before = copy.deepcopy(group._fields)
        kernel(group)
        for b, i in enumerate(group.ids):
            alone = rows(before, slice(b, b + 1))
            (solo,) = model.shape_groups([blocks[i]])
            kernel(netsim.Members(group.net, solo, alone, slice(None)))
            assert bitwise_same(alone, rows(group._fields, slice(b, b + 1))), (kernel, i)

    return run


def probe_handler(handler, down=False):
    """``handler``, checked against each member run as a unit of one."""

    def run(unit, inboxes):
        fields = unit._fields
        before = copy.deepcopy(fields)
        out = handler(unit, inboxes)
        # the fields themselves go back, as the agents' views point into
        # them, and the counters, as the solve's accounting checks them
        real, after = dict(fields), copy.deepcopy(fields)
        factorizations = copy.deepcopy(unit.net.factorizations)
        for b, i in enumerate(unit.ids):
            row = unit.spec.rows.start + b
            fields.clear()
            fields.update(copy.deepcopy(before))
            spec = model.pass_unit(unit.group, slice(row, row + 1))
            alone = handler(netsim.Members(unit.net, unit.group, fields, spec.rows, spec), inboxes[b : b + 1])
            got = [slot[b] for slot in out] if down else out[b]
            want = [slot[0] for slot in alone] if down else alone[0]
            assert bitwise_same(got, want), (handler, i)
            assert bitwise_same(rows(fields, row), rows(after, row)), (handler, i)
        fields.clear()
        fields.update(real)
        unit.net.factorizations = factorizations
        return out

    return run


def probe_steps(monkeypatch) -> list[int]:
    """Run every later ``ipm.start`` and ``ipm.step`` with its local steps
    and passes probed; returns the list that gets, per probed call, the
    largest pass unit."""
    sizes = []
    Network = netsim.Network
    run_local, run_up, run_down = Network.run_local, Network.run_up, Network.run_down
    for name in ("start", "step"):

        def probed(setup, *args, _original=getattr(ipm, name)):
            with monkeypatch.context() as m:
                m.setattr(Network, "run_local", lambda n, k: run_local(n, probe_kernel(setup, k)))
                m.setattr(Network, "run_up", lambda n, kind, h: run_up(n, kind, probe_handler(h)))
                m.setattr(
                    Network, "run_down", lambda n, kind, h: run_down(n, kind, probe_handler(h, True))
                )
                out = _original(setup, *args)
            sizes.append(max(len(unit.ids) for level in setup.network.units for unit in level))
            return out

        monkeypatch.setattr(ipm, name, probed)
    return sizes


TWO = ipm.SolverParams(max_iters=2)


def test_flow_tree_units_give_each_member_what_it_gets_alone(monkeypatch):
    p, x0 = model.gen_flow(model.balanced_tree(4, 2), seed=0)
    sizes = probe_steps(monkeypatch)
    ipm.solve(p, TWO, x0, record_log=False)
    assert len(sizes) == 3 and sizes[0] > 1


def test_phase_one_units_give_each_member_what_it_gets_alone(monkeypatch):
    # the auxiliary problem adds a slack row and a slack bound per
    # inequality, and its solve watches the slacks
    p, _ = model.gen_flow(model.balanced_tree(3, 2), seed=1)
    sizes = probe_steps(monkeypatch)
    try:
        ipm.phase_one(p, TWO)
    except (NotStrictlyFeasibleError, InfeasibleProblemError):
        pass
    assert len(sizes) >= 2 and sizes[0] > 1


def test_residual_units_report_each_members_own_negative_flag():
    # candidates whose signs alternate row by row, every variable watched:
    # a unit of leaves then holds members that disagree on ``negative``
    p, x0 = model.gen_flow(model.balanced_tree(3, 2), seed=1)
    setup = ipm.prepare(p)
    ipm.start(setup, x0)
    for members in setup.network.groups:
        X = members.get("x")
        sign = np.where(np.arange(len(X)) % 2, 1.0, -1.0)[:, None]
        members.put("cand", (sign * (np.abs(X) + 1.0),))
        members.put("watch", np.ones(X.shape, dtype=bool))
    probed, flags = probe_handler(functools.partial(ipm._residual_up, True)), []

    def run(unit, inboxes):
        out = probed(unit, inboxes)
        flags.append({o["negative"] for o in out})
        return out

    setup.network.run_up("residual-partial", run)
    assert {True, False} in flags


def rescaled(p: model.CoupledProblem, shift: int = 0) -> list[model.Subproblem]:
    """The subproblems of ``p`` with other numbers and the same shapes, their
    scopes shifted by ``shift``: the objective halved, each inequality
    tripled, each equality row doubled."""
    subs = []
    for sp in p.subproblems:
        cons = [
            model.Constraint(c.kind, 3.0 * c.a, 3.0 * c.b, None if c.Q is None else 3.0 * c.Q)
            for c in sp.inequalities
        ]
        obj = model.QuadraticForm(0.5 * sp.objective.P, 0.5 * sp.objective.q)
        J = tuple(v + shift for v in sp.J)
        subs.append(model.Subproblem(J, obj, cons, 2.0 * sp.eq_A, 2.0 * sp.eq_b))
    return subs


def twins(p: model.CoupledProblem, x0: np.ndarray):
    """``p`` and its :func:`rescaled` copy under one extra root clique: each
    clique and its twin sit on one level with one shape and one children's
    layout, so they share a pass unit.  Returns problem, start and tree."""
    n, tree = p.n, ipm.prepare(p).tree
    root = model.Subproblem(
        (2 * n,),
        model.QuadraticForm(np.eye(1), np.zeros(1)),
        [model.Constraint("affine", np.ones(1), -1.0)],
    )
    subs = list(p.subproblems) + rescaled(p, n) + [root]
    cliques, parents = [(2 * n,)], [-1]
    for shift, offset in ((0, 1), (n, 1 + tree.q)):
        cliques += [tuple(v + shift for v in c) for c in tree.cliques]
        parents += [0 if a is None else a + offset for a in map(tree.parent.get, range(tree.q))]
    both = model.CoupledProblem(2 * n + 1, subs)
    return both, np.r_[x0, x0, 0.0], make_rooted_tree(cliques, parents)


def test_loose_qp_units_give_each_member_what_it_gets_alone(monkeypatch):
    # random loose QPs rarely repeat a clique shape, so each clique runs
    # next to its twin; these seeds bring quadratic rows, a redundant
    # equality row and a clique that hosts no subproblem
    sizes = probe_steps(monkeypatch)
    for seed in (0, 6, 13):
        rng = np.random.default_rng(seed)
        p, x0 = random_loose_qp(rng, eq_redundancy=1, eq_at_interior=True)
        assert any(c.kind == "quadratic" for sp in p.subproblems for c in sp.inequalities)
        both, start, tree = twins(p, x0)
        res = ipm.solve(both, TWO, start, tree=tree, record_log=False)
        assert not all(res.setup.assignment.phi.values())
        assert sizes[-3:] == [2, 2, 2]


def test_unit_of_a_retry_and_a_factorization_gives_each_member_what_it_gets_alone(monkeypatch):
    # two leaves of one shape on one level: the first one's eliminated
    # variable is flat and free, so its pivot block fails dsytrf and takes
    # the pseudo-inverse retry, while its neighbour factorizes
    tree = make_rooted_tree([(0,), (0, 1), (0, 2)], [-1, 0, 0])
    none = np.zeros((0, 2))
    data = {
        0: (np.eye(1), np.ones(1), np.zeros((0, 1)), np.zeros(0)),
        1: (np.diag([1.0, 0.0]), np.zeros(2), none, np.zeros(0)),
        2: (np.diag([1.0, 2.0]), np.array([0.0, 1.0]), none, np.zeros(0)),
    }
    monkeypatch.setattr(ipm, "_dir_up", probe_handler(ipm._dir_up))
    net, _ = tree_qp_passes(tree, data)
    (unit,) = net.units[1]
    assert unit.ids == [1, 2]
    pinv, factored = unit.get("factor")
    assert isinstance(pinv, np.ndarray) and isinstance(factored, tuple) and len(factored) == 2


def test_eliminate_runs_once_per_clique_and_iteration(monkeypatch):
    # the benchmark's traced check counts calls of treeqp.eliminate, made
    # through the module attribute, against cliques x iterations
    calls = []
    eliminate = treeqp.eliminate
    monkeypatch.setattr(treeqp, "eliminate", lambda i, *args: calls.append(i) or eliminate(i, *args))
    p, x0 = model.gen_flow(model.balanced_tree(4, 2), seed=0)
    p_loose, x0_loose = random_loose_qp(np.random.default_rng(6), eq_redundancy=1, eq_at_interior=True)
    both, start, tree = twins(p_loose, x0_loose)
    for solve in (lambda: ipm.solve(p, x0=x0), lambda: ipm.solve(both, TWO, start, tree=tree)):
        calls.clear()
        res = solve()
        assert max(len(unit.ids) for level in res.network.units for unit in level) > 1
        assert sorted(calls) == sorted(list(range(res.setup.tree.q)) * res.iterations)


def test_batched_reads_are_each_agents_own():
    p, x0 = model.gen_flow(model.balanced_tree(3, 2), seed=2)
    res = ipm.solve(p, x0=x0)
    net = res.network
    reads = [e for e in net.events if e["type"] == "read"]
    assert reads and all(e["agent"] == e["owner"] for e in reads)
    # every agent reads its own x and lam between one qp-message pass and
    # the next (the candidate step), and after the last
    starts = sorted(
        {e["pass"] for e in net.events if e.get("kind") == "qp-message"}
    )
    assert len(starts) == res.iterations
    for lo, hi in zip(starts, starts[1:] + [math.inf]):
        seen = {(e["agent"], e["field"]) for e in reads if lo <= e["pass"] < hi}
        for i in range(res.setup.tree.q):
            assert (i, "x") in seen and (i, "lam") in seen
    # an injected cross-agent read is still the one violation
    net._activate(2, lambda: net.get(0, "x"))
    rep = netsim.audit_privacy(net)
    assert [(v["agent"], v["owner"]) for v in rep.violations] == [(2, 0)]


def test_setup_push_reads_each_cliques_own_block():
    p, x0 = model.gen_flow(model.balanced_tree(3, 2), seed=0)
    res = ipm.solve(p, x0=x0)
    q = res.setup.tree.q
    reads = [e for e in res.network.events if e["type"] == "read" and e["field"] == "eq"]
    assert [(e["phase"], e["pass"]) for e in reads] == [("setup", 1)] * q
    assert sorted((e["agent"], e["owner"]) for e in reads) == [(i, i) for i in range(q)]


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


def test_solve_auto_validates_each_problem_once(monkeypatch):
    # two components, each started by phase one's auxiliary solve: only the
    # input is checked; the components and the auxiliary problems are built
    # from its validated parts
    box = [
        model.Constraint("affine", np.array([1.0]), -3.0),
        model.Constraint("affine", np.array([-1.0]), 1.0),
    ]
    subs = [
        model.Subproblem((j,), model.QuadraticForm(np.eye(1), np.zeros(1)), box)
        for j in (0, 1)
    ]
    p = model.CoupledProblem(2, subs)
    flow, x0 = model.gen_flow([-1, 0, 0])
    calls = []
    validate = model.CoupledProblem.validate

    def counted(self):
        calls.append(self.n)
        return validate(self)

    monkeypatch.setattr(model.CoupledProblem, "validate", counted)
    runs = ipm.solve_auto(p)
    assert [r.phase_one.pre_check for r in runs] == [False, False]
    assert all(r.result.converged for r in runs)
    assert calls == [2]
    # a generated problem comes validated
    assert ipm.solve(flow, x0=x0).converged
    assert calls == [2]


def test_solve_auto_uses_given_start_where_feasible():
    p = two_component_problem()
    x0 = np.array([0.0, 0.0, 2.0])
    runs = ipm.solve_auto(p, x0=x0)
    assert all(r.phase_one is None for r in runs)
