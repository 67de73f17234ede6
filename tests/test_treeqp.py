"""Tree-structured equality QP solver versus dense KKT algebra."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from treeipm import treeqp
from treeipm.errors import EliminationError
from treeipm.model import clique_layout

from conftest import make_rooted_tree, random_tree_qp


def layout(cliques, parents, i=1):
    """Layout of clique ``i`` of the tree with these cliques and parents."""
    return clique_layout(make_rooted_tree(cliques, parents), i)


def stacked(rec):
    """One record's solution as a stack of one, as the batched sweeps take it."""
    return treeqp.stack_solutions([rec.sol])


def recover_one(rec, y, offsets=None):
    """:func:`treeqp.recover_clique` for one clique; a second axis of ``y``
    and the offsets holds several right-hand sides, recovered as copies of
    the clique side by side."""
    lay, cols = rec.lay, y.ndim == 2
    k = y.shape[1] if cols else 1
    y = y.T if cols else y[None]
    if offsets is not None:
        offsets = tuple(o.T if cols else o[None] for o in offsets)
    solT = np.repeat(stacked(rec), k, axis=0)
    dx, dv = treeqp.recover_clique(lay.zpos, lay.ypos, solT, y, offsets)
    return (dx.T, dv.T) if cols else (dx[0], dv[0])


def rhs_one(rec, r, kids):
    """:func:`treeqp.eliminate_rhs` for one clique: ``(q, h1, h2)``."""
    lay = rec.lay
    child_q = [(lay.child_pos[c], q[None]) for c, q in kids]
    q, hT = treeqp.eliminate_rhs(
        lay.zpos, lay.ypos, [rec.factor], stacked(rec), r[None], child_q
    )
    h = hT[0].T
    return q[0], h[: len(lay.zpos)], h[len(lay.zpos) :]


def dense_kkt(tree, data, n):
    """Assemble the stacked KKT system in global coordinates."""
    Q = np.zeros((n, n))
    r = np.zeros(n)
    c = 0.0
    A_rows = []
    beta = []
    row_of = {}
    row = 0
    for i in sorted(data):
        d = data[i]
        cols = list(d.clique)
        Q[np.ix_(cols, cols)] += d.H
        r[cols] += d.r
        c += d.c
        if d.A.shape[0]:
            block = np.zeros((d.A.shape[0], n))
            block[:, cols] = d.A
            A_rows.append(block)
            beta.extend(d.beta)
            row_of[i] = (row, row + d.A.shape[0])
            row += d.A.shape[0]
        else:
            row_of[i] = (row, row)
    A = np.vstack(A_rows) if A_rows else np.zeros((0, n))
    b = np.array(beta)
    p = A.shape[0]
    kkt = np.block([[Q, A.T], [A, np.zeros((p, p))]])
    rhs = np.concatenate([-r, b])
    sol = np.linalg.solve(kkt, rhs)
    x = sol[:n]
    nu = sol[n:]
    val = 0.5 * x @ Q @ x + r @ x + c
    return x, nu, row_of, val


# ---------------- scalar worked example ----------------


def test_single_clique_elimination_by_hand():
    # minimise 0.5 z^2 over (y, z) subject to y + z = 1, then send the
    # parent the resulting quadratic in y, which is 0.5 (1 - y)^2
    data = treeqp.CliqueQpData(
        clique=(0, 1),
        H=np.array([[0.0, 0.0], [0.0, 1.0]]),
        r=np.zeros(2),
        A=np.array([[1.0, 1.0]]),
        beta=np.array([1.0]),
    )
    msg, rec = treeqp.eliminate(layout([(0,), (0, 1)], [-1, 0]), data, [])
    assert np.allclose(rec.O, [[1.0, 1.0], [1.0, 0.0]])
    assert np.allclose(rec.H1, [[-1.0]])
    assert np.allclose(rec.H2, [[1.0]])
    assert np.allclose(rec.h1, [1.0])
    assert np.allclose(rec.h2, [-1.0])
    assert np.allclose(msg.Q, [[1.0]])
    assert np.allclose(msg.q, [-1.0])
    assert np.isclose(msg.c, 0.5)
    for y in (-1.0, 0.0, 2.5):
        assert np.isclose(msg.value(np.array([y])), 0.5 * (1 - y) ** 2)
    # back-substitution satisfies the constraint and stationarity
    dx, dv = recover_one(rec, np.array([0.3]))
    assert np.isclose(dx[0], 0.3)
    assert np.isclose(dx[0] + dx[1], 1.0)
    assert np.isclose(dx[1] + dv[0], 0.0)


def test_message_folds_children_before_eliminating():
    # child message shifts the local quadratic seen by the parent
    data = treeqp.CliqueQpData(
        clique=(0, 1),
        H=np.diag([2.0, 1.0]),
        r=np.array([0.0, -1.0]),
        A=np.zeros((0, 2)),
        beta=np.zeros(0),
    )
    child = treeqp.QuadraticMessage((1,), np.array([[3.0]]), np.array([0.5]), 0.25)
    lay = layout([(0,), (0, 1), (1,)], [-1, 0, 1])
    msg, rec = treeqp.eliminate(lay, data, [(2, child)])
    # eliminating z from 0.5*(1+3) z^2 + (-1+0.5) z gives value -0.5^2/8
    assert np.isclose(msg.c, 0.25 - 0.5**2 / (2 * 4.0))
    assert np.allclose(msg.Q, [[2.0]])
    z = rec.H1 @ np.array([1.0]) + rec.h1
    assert np.isclose(z[0], 0.5 / 4.0)


# ---------------- random trees vs dense algebra ----------------


def test_tree_solution_matches_dense_kkt(rng):
    for _ in range(25):
        tree, data = random_tree_qp(rng)
        n = 1 + max(v for c in tree.cliques for v in c)
        x_ref, nu_ref, row_of, val_ref = dense_kkt(tree, data, n)
        sols, val = solve_and_stitch(tree, data, n)
        x, per_clique = sols
        assert np.allclose(x, x_ref, atol=1e-8), np.abs(x - x_ref).max()
        assert np.isclose(val, val_ref, atol=1e-8 * max(1, abs(val_ref)))
        for i, (dx, dv) in per_clique.items():
            lo, hi = row_of[i]
            assert np.allclose(dv, nu_ref[lo:hi], atol=1e-8)


def solve_and_stitch(tree, data, n):
    _, records = treeqp.upward_pass(tree, data)
    sols = treeqp.downward_pass(tree, records)
    val = records[tree.root].message.c
    x = np.full(n, np.nan)
    for i, (dx, dv) in sols.items():
        cols = list(tree.cliques[i])
        old = x[cols]
        # overlapping coordinates must agree bitwise
        both = ~np.isnan(old)
        assert np.array_equal(old[both], dx[both])
        x[cols] = dx
    assert not np.isnan(x).any()
    return (x, sols), val


def test_root_message_carries_optimal_value(rng):
    tree, data = random_tree_qp(rng)
    n = 1 + max(v for c in tree.cliques for v in c)
    _, records = treeqp.upward_pass(tree, data)
    root_msg = records[tree.root].message
    assert root_msg.sep == ()
    _, _, _, val_ref = dense_kkt(tree, data, n)
    assert np.isclose(root_msg.c, val_ref, atol=1e-8 * max(1, abs(val_ref)))


def rhs_sweep(tree, records, r):
    """Upward sweep of eliminate_rhs, then the downward pass with its offsets."""
    q, offsets = {}, {}
    for i in tree.post_order():
        kids = [(c, q[c]) for c in tree.children[i]]
        q[i], h1, h2 = rhs_one(records[i], r[i], kids)
        offsets[i] = (h1, h2)
    sols = {}
    for i in reversed(tree.post_order()):
        par = tree.parent[i]
        rec = records[i]
        y = (
            np.zeros((0,) + r[i].shape[1:])
            if par is None
            else sols[par][0][records[par].lay.child_pos[i]]
        )
        sols[i] = recover_one(rec, y, offsets[i])
    return q, sols


def test_rhs_sweep_matches_fresh_elimination(rng, monkeypatch):
    # new linear terms through the stored factors give what a full
    # elimination of the new data (with zero equality right-hand sides)
    # gives, column by column, without factorizing anything
    for _ in range(25):
        tree, data = random_tree_qp(rng)
        messages, records = treeqp.upward_pass(tree, data)
        r = {i: rng.normal(size=(len(d.clique), 2)) for i, d in data.items()}

        def refactorized(*args, **kwargs):
            raise AssertionError("the right-hand-side sweep factorized")

        with monkeypatch.context() as mp:
            mp.setattr(treeqp, "eliminate", refactorized)
            mp.setattr(treeqp.lapack, "dsytrf", refactorized)
            q, sols = rhs_sweep(tree, records, r)
        for col in range(2):
            fresh = {
                i: treeqp.CliqueQpData(
                    d.clique, d.H, r[i][:, col], d.A, np.zeros(d.A.shape[0])
                )
                for i, d in data.items()
            }
            fresh_msgs, fresh_recs = treeqp.upward_pass(tree, fresh)
            fresh_sols = treeqp.downward_pass(tree, fresh_recs)
            for i, msg in fresh_msgs.items():
                assert np.allclose(q[i][:, col], msg.q, atol=1e-9)
                assert np.allclose(msg.Q, messages[i].Q)
            for i, (dx, dv) in fresh_sols.items():
                assert np.allclose(sols[i][0][:, col], dx, atol=1e-9)
                assert np.allclose(sols[i][1][:, col], dv, atol=1e-9)


def test_rhs_sweep_reuses_least_squares_fallback():
    # the flat block is singular, so eliminate stored its pseudo-inverse;
    # a new right-hand side gets the minimum-norm solution from it too
    data = treeqp.CliqueQpData(
        clique=(0, 1),
        H=np.diag([0.0, 1.0]),
        r=np.zeros(2),
        A=np.zeros((0, 2)),
        beta=np.zeros(0),
    )
    _, rec = treeqp.eliminate(layout([(1,), (0, 1)], [-1, 0]), data, [])
    assert not isinstance(rec.factor, tuple)
    q, h1, h2 = rhs_one(rec, np.array([[0.0], [2.0]]), [])
    assert np.allclose(q, [[2.0]]) and np.allclose(h1, 0.0) and h2.size == 0


def test_stacked_sweeps_give_each_clique_what_it_gets_alone(rng):
    # the instance above next to one whose pivot is regular: stacked, the
    # least-squares member and the factorized one each get bitwise what
    # they get alone, in both the right-hand-side and the recovery sweep
    lay = layout([(1,), (0, 1)], [-1, 0])
    recs = []
    for h in (0.0, 2.0):
        data = treeqp.CliqueQpData((0, 1), np.diag([h, 1.0]), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
        recs.append(treeqp.eliminate(lay, data, [])[1])
    assert [isinstance(rec.factor, tuple) for rec in recs] == [False, True]
    factors = [rec.factor for rec in recs]
    solT = treeqp.stack_solutions([rec.sol for rec in recs])
    r, y = rng.normal(size=(2, 2, 2)), rng.normal(size=(2, 1))
    q, hT = treeqp.eliminate_rhs(lay.zpos, lay.ypos, factors, solT, r, [])
    dx, dv = treeqp.recover_clique(lay.zpos, lay.ypos, solT, y)
    for b, rec in enumerate(recs):
        q1, hT1 = treeqp.eliminate_rhs(lay.zpos, lay.ypos, [rec.factor], stacked(rec), r[b : b + 1], [])
        dx1, dv1 = treeqp.recover_clique(lay.zpos, lay.ypos, stacked(rec), y[b : b + 1])
        for got, alone in ((q, q1), (hT, hT1), (dx, dx1), (dv, dv1)):
            assert got[b].shape == alone[0].shape and np.array_equal(got[b], alone[0])


def test_block_ldl_check_near_zero(rng):
    for _ in range(5):
        tree, data = random_tree_qp(rng)
        n = 1 + max(v for c in tree.cliques for v in c)
        _, records = treeqp.upward_pass(tree, data)
        assert treeqp.block_ldl_check(tree, records, data, n) <= 1e-8


# ---------------- degeneracy handling ----------------


def test_rank_check_rejects_redundant_equality_rows():
    data = treeqp.CliqueQpData(
        clique=(0, 1, 2),
        H=np.eye(3),
        r=np.zeros(3),
        A=np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]),
        beta=np.zeros(2),
    )
    lay = layout([(2,), (0, 1, 2)], [-1, 0])
    with pytest.raises(EliminationError, match="preprocessing required"):
        treeqp.check_equality_rank(data.A[:, lay.zpos], lay.index)


def test_eliminate_rejects_unbounded_direction():
    # H vanishes on the eliminated variable, nothing pins it, and the
    # linear term drives it to -inf: the KKT system is inconsistent
    data = treeqp.CliqueQpData(
        clique=(0, 1),
        H=np.diag([0.0, 1.0]),
        r=np.array([1.0, 0.0]),
        A=np.zeros((0, 2)),
        beta=np.zeros(0),
    )
    with pytest.raises(EliminationError):
        treeqp.eliminate(layout([(1,), (0, 1)], [-1, 0]), data, [])


def test_eliminate_flat_but_consistent_direction():
    # no linear term on the flat variable: every value is optimal and the
    # minimum-norm representative is returned
    data = treeqp.CliqueQpData(
        clique=(0, 1),
        H=np.diag([0.0, 1.0]),
        r=np.zeros(2),
        A=np.zeros((0, 2)),
        beta=np.zeros(0),
    )
    msg, rec = treeqp.eliminate(layout([(1,), (0, 1)], [-1, 0]), data, [])
    assert np.allclose(rec.h1, 0.0)
    assert np.allclose(msg.Q, [[1.0]])
    assert np.isclose(msg.c, 0.0)


def test_upward_pass_names_offending_clique(rng):
    tree, data = random_tree_qp(rng)
    victim = tree.post_order()[0]
    d = data[victim]
    sep = tree.separator(victim, tree.parent[victim])
    elim = [v for v in d.clique if v not in set(sep)]
    if len(elim) < 1:
        pytest.skip("first clique fully shared")
    row = np.zeros((2, len(d.clique)))
    row[:, d.clique.index(elim[0])] = 1.0
    data[victim] = treeqp.CliqueQpData(
        d.clique, d.H, d.r, row, np.zeros(2), d.c
    )
    with pytest.raises(EliminationError, match=f"clique {victim}"):
        treeqp.upward_pass(tree, data)


def test_data_validation():
    with pytest.raises(Exception):
        treeqp.CliqueQpData(
            clique=(0, 1),
            H=np.eye(3),
            r=np.zeros(2),
            A=np.zeros((0, 2)),
            beta=np.zeros(0),
        )
