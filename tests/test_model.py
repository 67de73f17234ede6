"""Problem containers, assignment, equality preprocessing, flow benchmark."""

from __future__ import annotations

import numpy as np
import pytest

from treeipm import chordal, ipm, model
from treeipm.errors import InfeasibleEqualityError, ProblemFormatError

from conftest import random_loose_qp


def num_grad(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return out


def test_positions_maps_sub_into_sup():
    pos = model.positions((1, 4), (0, 1, 3, 4, 6))
    assert pos.tolist() == [1, 3]
    with pytest.raises(ProblemFormatError):
        model.positions((2,), (0, 1, 3))


# ---------------- quadratic forms and constraints ----------------


def test_quadratic_form_value_and_grad(rng):
    d = 4
    m = rng.normal(size=(d, d))
    P = m.T @ m + np.eye(d)
    qf = model.QuadraticForm(P, rng.normal(size=d), 1.7)
    x = rng.normal(size=d)
    expected = 0.5 * x @ P @ x + qf.q @ x + 1.7
    assert np.isclose(qf.value(x), expected)
    assert np.allclose(qf.grad(x), num_grad(qf.value, x), atol=1e-5)


def test_quadratic_form_rejects_asymmetry_and_indefiniteness():
    bad = model.QuadraticForm(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ProblemFormatError):
        bad.validate(2, "obj")
    neg = model.QuadraticForm(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(ProblemFormatError):
        neg.validate(2, "obj")


def test_constraint_values_and_derivatives(rng):
    d = 3
    a = rng.normal(size=d)
    x = rng.normal(size=d)
    aff = model.Constraint("affine", a, 0.4)
    assert np.isclose(aff.value(x), a @ x + 0.4)
    assert np.allclose(aff.grad(x), a)
    assert np.allclose(aff.hess(d), np.zeros((d, d)))
    m = rng.normal(size=(d, d))
    Q = m.T @ m
    quad = model.Constraint("quadratic", a, -0.2, Q=Q)
    assert np.isclose(quad.value(x), 0.5 * x @ Q @ x + a @ x - 0.2)
    assert np.allclose(quad.grad(x), num_grad(quad.value, x), atol=1e-5)
    assert np.allclose(quad.hess(d), Q)


def test_constraint_validation_errors():
    with pytest.raises(ProblemFormatError):
        model.Constraint("cubic", np.ones(2), 0.0).validate(2, "c")
    with pytest.raises(ProblemFormatError):
        model.Constraint("affine", np.ones(3), 0.0).validate(2, "c")
    with pytest.raises(ProblemFormatError):
        model.Constraint("quadratic", np.ones(2), 0.0).validate(2, "c")
    with pytest.raises(ProblemFormatError):
        model.Constraint("affine", np.ones(2), 0.0, Q=np.eye(2)).validate(2, "c")


# ---------------- subproblems and the coupled container ----------------


def small_problem():
    sp0 = model.Subproblem(
        (0, 1),
        model.QuadraticForm(np.eye(2), np.array([1.0, 0.0])),
        [model.Constraint("affine", np.array([1.0, 0.0]), -2.0)],
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
    )
    sp1 = model.Subproblem(
        (1, 2),
        model.QuadraticForm(2 * np.eye(2), np.zeros(2), 0.5),
        [
            model.Constraint("affine", np.array([0.0, 1.0]), -3.0),
            model.Constraint(
                "quadratic", np.zeros(2), -4.0, Q=np.eye(2)
            ),
        ],
    )
    return model.CoupledProblem(3, [sp0, sp1]).validate()


def test_subproblem_counts():
    p = small_problem()
    sp0, sp1 = p.subproblems
    assert (sp0.dim, sp0.m, sp0.p) == (2, 1, 1)
    assert (sp1.dim, sp1.m, sp1.p) == (2, 2, 0)
    assert p.m_total == 3 and p.p_total == 1
    assert p.scopes() == [(0, 1), (1, 2)]


def test_coupled_values_stack_in_declaration_order():
    p = small_problem()
    x = np.array([1.0, 2.0, 3.0])
    f0 = 0.5 * (1 + 4) + 1.0
    f1 = 0.5 * 2 * (4 + 9) + 0.5
    assert np.isclose(p.objective_value(x), f0 + f1)
    g = p.inequality_values(x)
    assert np.allclose(g, [1 - 2, 3 - 3, 0.5 * (4 + 9) - 4])
    assert np.isclose(p.max_inequality(x), g.max())
    assert np.allclose(p.equality_residual(x), [1 + 2 - 1])


def test_validate_rejects_bad_problems():
    with pytest.raises(ProblemFormatError):
        model.CoupledProblem(0, []).validate()
    sp = model.Subproblem((0,), model.QuadraticForm(np.eye(1), np.zeros(1)))
    with pytest.raises(ProblemFormatError, match="not covered"):
        model.CoupledProblem(2, [sp]).validate()
    far = model.Subproblem((5,), model.QuadraticForm(np.eye(1), np.zeros(1)))
    with pytest.raises(ProblemFormatError):
        model.CoupledProblem(2, [far]).validate()


def test_eval_subproblem_matches_pieces(rng):
    p = small_problem()
    sp = p.subproblems[1]
    x = rng.normal(size=2)
    ev = model.eval_subproblem(sp, x)
    assert np.isclose(ev.f, sp.objective.value(x))
    assert np.allclose(ev.grad, sp.objective.grad(x))
    assert np.allclose(ev.hess, sp.objective.P)
    assert np.allclose(ev.g, [c.value(x) for c in sp.inequalities])
    assert np.allclose(ev.jac, np.vstack([c.grad(x) for c in sp.inequalities]))
    assert len(ev.con_hess) == sp.m


# ---------------- assignment ----------------


def test_assign_places_each_scope_on_lowest_cover():
    p = small_problem()
    _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
    a = model.assign(p, tree)
    for k, sp in enumerate(p.subproblems):
        home = a.clique_of(k)
        assert set(sp.J) <= set(tree.cliques[home])
        for i in range(home):
            assert not set(sp.J) <= set(tree.cliques[i])
    # equality rows land zero-padded on clique columns
    for i, (A, b) in a.local_eq.items():
        width = len(tree.cliques[i])
        assert A.shape[1] == width
        rows = sum(p.subproblems[k].p for k in a.phi[i])
        assert A.shape[0] == rows == b.size
    x = np.array([0.5, 0.5, 1.0])
    sp0 = p.subproblems[0]
    home = a.clique_of(0)
    A, b = a.local_eq[home]
    xc = x[list(tree.cliques[home])]
    assert np.allclose(A @ xc - b, sp0.eq_A @ x[list(sp0.J)] - sp0.eq_b)


def test_assign_rejects_uncovered_scope():
    p = small_problem()
    tree = chordal.CliqueTree(cliques=[(0, 1)], edges=frozenset())
    tree = chordal.root_min_height(tree)
    with pytest.raises(ProblemFormatError, match="not covered"):
        model.assign(p, tree)


# ---------------- equality reduction ----------------


def test_reduce_equality_block_rotation_preserves_solutions(rng):
    # clique (w, y, z): eliminate columns 0,1 and keep column 2
    elim = np.array([0, 1])
    keep = np.array([2])
    A = rng.normal(size=(3, 3))
    A[2] = A[0] + A[1]  # redundant over the eliminated part too
    x_star = rng.normal(size=3)
    b = A @ x_star
    kept_A, kept_b, push_A, push_b = model.reduce_equality_block(
        A, b, elim, keep, is_root=False
    )
    # full row rank over eliminated columns
    if kept_A.shape[0]:
        s = np.linalg.svd(kept_A[:, elim], compute_uv=False)
        assert s[-1] > 1e-10 * s[0]
    # the original solution still satisfies everything
    assert np.allclose(kept_A @ x_star, kept_b)
    assert np.allclose(push_A @ x_star[keep], push_b)
    # row spaces agree: rotated rows are combinations of the originals
    stacked = np.vstack([kept_A, np.hstack([np.zeros((push_A.shape[0], 2)), push_A])])
    rank_orig = np.linalg.matrix_rank(A)
    assert np.linalg.matrix_rank(np.vstack([A, stacked])) == rank_orig


def test_reduce_equality_block_no_elim_support():
    # row touching only the kept column migrates entirely
    A = np.array([[0.0, 0.0, 2.0]])
    b = np.array([4.0])
    kept_A, kept_b, push_A, push_b = model.reduce_equality_block(
        A, b, np.array([0, 1]), np.array([2]), is_root=False
    )
    assert kept_A.shape[0] == 0
    assert np.allclose(push_A, [[2.0]]) and np.allclose(push_b, [4.0])


def test_reduce_equality_block_root_detects_infeasibility():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([0.0, 1.0])
    with pytest.raises(InfeasibleEqualityError):
        model.reduce_equality_block(
            A, b, np.array([0, 1]), np.array([], dtype=int), is_root=True
        )


def global_eq_system(p):
    rows = []
    rhs = []
    for sp in p.subproblems:
        if sp.p == 0:
            continue
        block = np.zeros((sp.p, p.n))
        block[:, list(sp.J)] = sp.eq_A
        rows.append(block)
        rhs.append(sp.eq_b)
    if not rows:
        return np.zeros((0, p.n)), np.zeros(0)
    return np.vstack(rows), np.concatenate(rhs)


def assignment_eq_system(p, tree, a):
    rows = []
    rhs = []
    for i, (A, b) in a.local_eq.items():
        if A.shape[0] == 0:
            continue
        block = np.zeros((A.shape[0], p.n))
        block[:, list(tree.cliques[i])] = A
        rows.append(block)
        rhs.append(b)
    if not rows:
        return np.zeros((0, p.n)), np.zeros(0)
    return np.vstack(rows), np.concatenate(rhs)


def test_equality_push_preserves_feasible_set(rng):
    # the blocks the solver runs on, reduced by the eq-constraint-push pass
    for trial in range(12):
        p, _ = random_loose_qp(rng, eq_redundancy=2)
        if p.p_total == 0:
            continue
        _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
        a2 = ipm.prepare(p, tree).assignment
        A0, b0 = global_eq_system(p)
        A1, b1 = assignment_eq_system(p, tree, a2)
        # same affine solution set: particular solutions cross-satisfy
        # and row spaces have equal rank
        x0 = np.linalg.lstsq(A0, b0, rcond=None)[0]
        assert np.allclose(A1 @ x0, b1, atol=1e-8)
        if A1.shape[0]:
            x1 = np.linalg.lstsq(A1, b1, rcond=None)[0]
            assert np.allclose(A0 @ x1, b0, atol=1e-8)
            r0 = np.linalg.matrix_rank(A0)
            assert np.linalg.matrix_rank(A1) == r0
            assert np.linalg.matrix_rank(np.vstack([A0, A1])) == r0
        # per-clique blocks gained full row rank over eliminated columns
        for i, (A, _) in a2.local_eq.items():
            if A.shape[0] == 0:
                continue
            clique = tree.cliques[i]
            par = tree.parent[i]
            sep = set(tree.separator(i, par)) if par is not None else set()
            cols = [t for t, v in enumerate(clique) if v not in sep]
            sub = A[:, cols]
            s = np.linalg.svd(sub, compute_uv=False)
            assert s.size >= A.shape[0] and s[A.shape[0] - 1] > 1e-10 * max(
                1.0, s[0]
            )


# ---------------- flow benchmark ----------------


def test_balanced_tree_parent_array():
    assert model.balanced_tree(0, 2) == [-1]
    assert model.balanced_tree(1, 2) == [-1, 0, 0]
    assert model.balanced_tree(2, 2) == [-1, 0, 0, 1, 1, 2, 2]
    assert len(model.balanced_tree(3, 3)) == 1 + 3 + 9 + 27
    with pytest.raises(ProblemFormatError):
        model.balanced_tree(-1, 2)
    with pytest.raises(ProblemFormatError):
        model.balanced_tree(2, 0)


def test_gen_flow_shape_validation():
    with pytest.raises(ProblemFormatError):
        model.gen_flow([0, -1])
    with pytest.raises(ProblemFormatError):
        model.gen_flow([-1, 5])
    with pytest.raises(ProblemFormatError):
        model.gen_flow([])


def test_gen_flow_structure_and_start():
    shape = [-1, 0, 0, 1]
    q = len(shape)
    params = model.FlowParams(
        mu=np.array([1.0, 2.0, 3.0, 4.0]),
        rho=np.array([0.5, 1.0, 1.5, 2.0]),
        c=np.array([4.0, 6.0, 8.0, 10.0]),
        u=np.array([1.0, 2.0, 3.0, 4.0]),
        o_ref=5.0,
        sigma=2.0,
    )
    p, x0 = model.gen_flow(shape, params=params)
    assert p.n == 2 * q and p.m_total == 3 * q and p.p_total == q
    assert np.allclose(x0, np.concatenate([params.c / 2, np.ones(q)]))
    assert p.max_inequality(x0) < 0
    # local balance rows: leaves carry -u, inner nodes sum child flows
    for i, sp in enumerate(p.subproblems):
        kids = [k for k, par in enumerate(shape) if par == i and k != i]
        if kids:
            assert np.allclose(sp.eq_b, [0.0])
            assert set(sp.J) == {i, q + i} | {q + k for k in kids}
        else:
            assert np.allclose(sp.eq_b, [-params.u[i]])
            assert set(sp.J) == {i, q + i}
        # demand minus own feed, plus child feeds
        x = np.zeros(p.n)
        x[i] = 1.0
        assert np.isclose(sp.eq_A @ x[list(sp.J)], 1.0)
        x = np.zeros(p.n)
        x[q + i] = 1.0
        assert np.isclose(sp.eq_A @ x[list(sp.J)], -1.0)
    # root objective tracks the reference output
    root = p.subproblems[0]
    pos = {v: t for t, v in enumerate(root.J)}
    assert np.isclose(root.objective.P[pos[q], pos[q]], params.sigma)
    assert np.isclose(root.objective.q[pos[q]], -params.sigma * params.o_ref)
    assert np.isclose(root.objective.r, 0.5 * params.sigma * params.o_ref**2)
    # objective decomposition: each agent pays mu_i on demand and half
    # the line weight on every feed it sees
    x = np.arange(1.0, p.n + 1.0)
    total = 0.5 * params.mu @ x[:q] ** 2
    total += 0.5 * params.sigma * (x[q] - params.o_ref) ** 2
    for i in range(1, q):
        total += 0.5 * params.rho[i] * x[q + i] ** 2
    assert np.isclose(p.objective_value(x), total)


def test_gen_flow_seed_determinism():
    shape = model.balanced_tree(2, 2)
    p1, x1 = model.gen_flow(shape, seed=11)
    p2, x2 = model.gen_flow(shape, seed=11)
    assert np.allclose(x1, x2)
    assert np.isclose(
        p1.objective_value(np.ones(p1.n)), p2.objective_value(np.ones(p2.n))
    )
    p3, _ = model.gen_flow(shape, seed=12)
    assert not np.isclose(
        p1.objective_value(np.ones(p1.n)), p3.objective_value(np.ones(p3.n))
    )


# ---------------- JSON round trips ----------------


def test_problem_json_round_trip(rng):
    p, x = random_loose_qp(rng)
    doc = model.problem_to_json_dict(p)
    back = model.problem_from_json_dict(doc)
    assert back.n == p.n
    assert back.scopes() == p.scopes()
    xs = rng.normal(size=p.n)
    assert np.isclose(back.objective_value(xs), p.objective_value(xs))
    assert np.allclose(back.inequality_values(xs), p.inequality_values(xs))
    assert np.allclose(back.equality_residual(xs), p.equality_residual(xs))


def test_problem_file_round_trip(tmp_path, rng):
    p, _ = random_loose_qp(rng)
    path = tmp_path / "problem.json"
    model.save_problem(p, path)
    back = model.load_problem(path)
    assert back.n == p.n and back.m_total == p.m_total


def test_problem_json_missing_key():
    with pytest.raises(ProblemFormatError):
        model.problem_from_json_dict({"n": 2})


def test_load_problem_bad_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFormatError):
        model.load_problem(path)
