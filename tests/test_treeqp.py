"""Tree-structured equality QP solver versus dense KKT algebra.

The tree solves run through the solver's own ``qp-message`` and
``separator-solution`` passes (:func:`conftest.tree_qp_passes`); the
kernels are also called one clique at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

from treeipm import model, oracle, treeqp
from treeipm.errors import EliminationError
from treeipm.model import clique_layout

from conftest import make_rooted_tree, random_tree_qp, tree_qp_passes


def layout(cliques, parents, i=1):
    """Layout of clique ``i`` of the tree with these cliques and parents."""
    return clique_layout(make_rooted_tree(cliques, parents), i)


def group_of(lay, A, beta=None):
    """The one-member shape group of the clique ``lay`` with equality rows ``A``."""
    beta = np.zeros(len(A)) if beta is None else beta
    (grp,) = model.shape_groups([(lay.index, lay, A, beta)])
    return grp


def eliminate_one(lay, H, r, A, beta, child_msgs=()):
    """:func:`treeqp.eliminate_unit` of the piece ``(H, r, A, beta)`` as a
    stack of one, the messages of ``child_msgs`` in child order:
    ``(message, sol, factor)``."""
    grp, msgs = group_of(lay, A, beta), dict(child_msgs)
    kids = [[msgs.pop(c)] for c in lay.child_pos]
    assert not msgs
    (msg,), solT, (factor,) = treeqp.eliminate_unit(
        grp, grp.units[0], [lay.index], H[None], r[None], beta[None], kids
    )
    return msg, solT[0].T, factor


def stacked(sol):
    """One pivot solve as a stack of one, as the batched sweeps take it."""
    return treeqp.stack_solutions([sol])


def recover_one(lay, solT, y, offsets=None):
    """:func:`treeqp.recover_clique` for one clique, its pivot solve ``solT``
    stacked; a second axis of ``y`` and the offsets holds several
    right-hand sides, recovered as copies of the clique side by side."""
    cols = y.ndim == 2
    k = y.shape[1] if cols else 1
    y = y.T if cols else y[None]
    if offsets is not None:
        offsets = tuple(o.T if cols else o[None] for o in offsets)
    dx, dv = treeqp.recover_clique(lay.zpos, lay.ypos, np.repeat(solT, k, axis=0), y, offsets)
    return (dx.T, dv.T) if cols else (dx[0], dv[0])


def rhs_one(lay, factor, solT, r, kids):
    """:func:`treeqp.eliminate_rhs` for one clique: ``(q, h1, h2)``."""
    ix = group_of(lay, np.zeros((0, len(lay.clique)))).units[0].child_ix
    child_q = [(vec, q[None]) for (vec, _), (c, q) in zip(ix, kids, strict=True)]
    q, hT = treeqp.eliminate_rhs(lay.zpos, lay.ypos, [factor], solT, r[None], child_q)
    h = hT[0].T
    return q[0], h[: len(lay.zpos)], h[len(lay.zpos) :]


def dense_kkt(tree, data, consts, n):
    """Assemble the stacked KKT system in global coordinates."""
    Q = np.zeros((n, n))
    r = np.zeros(n)
    A_rows = []
    beta = []
    row_of = {}
    row = 0
    for i in sorted(data):
        H, r_i, A_i, beta_i = data[i]
        cols = list(tree.cliques[i])
        Q[np.ix_(cols, cols)] += H
        r[cols] += r_i
        if A_i.shape[0]:
            block = np.zeros((A_i.shape[0], n))
            block[:, cols] = A_i
            A_rows.append(block)
            beta.extend(beta_i)
            row_of[i] = (row, row + A_i.shape[0])
            row += A_i.shape[0]
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
    val = 0.5 * x @ Q @ x + r @ x + sum(consts.values())
    return x, nu, row_of, val


# ---------------- scalar worked example ----------------


def test_single_clique_elimination_by_hand():
    # minimise 0.5 z^2 over (y, z) subject to y + z = 1, then send the
    # parent the resulting quadratic in y, which is 0.5 (1 - y)^2
    lay = layout([(0,), (0, 1)], [-1, 0])
    H, A = np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]])
    msg, sol, _ = eliminate_one(lay, H, np.zeros(2), A, np.array([1.0]))
    # [H1 h1; H2 h2] solves the pivot block [[1, 1], [1, 0]]
    assert np.allclose(sol, [[-1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(msg.Q, [[1.0]])
    assert np.allclose(msg.q, [-1.0])
    assert np.isclose(msg.c, 0.5)
    for y in (-1.0, 0.0, 2.5):
        value = 0.5 * msg.Q[0, 0] * y * y + msg.q[0] * y + msg.c
        assert np.isclose(value, 0.5 * (1 - y) ** 2)
    # back-substitution satisfies the constraint and stationarity
    dx, dv = recover_one(lay, stacked(sol), np.array([0.3]))
    assert np.isclose(dx[0], 0.3)
    assert np.isclose(dx[0] + dx[1], 1.0)
    assert np.isclose(dx[1] + dv[0], 0.0)


def test_message_folds_children_before_eliminating():
    # child message shifts the local quadratic seen by the parent
    child = treeqp.QuadraticMessage((1,), np.array([[3.0]]), np.array([0.5]), 0.25)
    lay = layout([(0,), (0, 1), (1,)], [-1, 0, 1])
    H, r = np.diag([2.0, 1.0]), np.array([0.0, -1.0])
    msg, sol, _ = eliminate_one(lay, H, r, np.zeros((0, 2)), np.zeros(0), [(2, child)])
    # eliminating z from 0.5*(1+3) z^2 + (-1+0.5) z gives value -0.5^2/8
    assert np.isclose(msg.c, 0.25 - 0.5**2 / (2 * 4.0))
    assert np.allclose(msg.Q, [[2.0]])
    z = sol[:, :-1] @ np.array([1.0]) + sol[:, -1]
    assert np.isclose(z[0], 0.5 / 4.0)


# ---------------- random trees vs dense algebra ----------------


def test_tree_solution_matches_dense_kkt(rng):
    for _ in range(25):
        tree, data, consts = random_tree_qp(rng)
        n = 1 + max(v for c in tree.cliques for v in c)
        x_ref, nu_ref, row_of, val_ref = dense_kkt(tree, data, consts, n)
        net, messages = tree_qp_passes(tree, data)
        x = stitch(tree, net, n)
        val = messages[tree.root].c + sum(consts.values())
        assert np.allclose(x, x_ref, atol=1e-8), np.abs(x - x_ref).max()
        assert np.isclose(val, val_ref, atol=1e-8 * max(1, abs(val_ref)))
        for i in range(tree.q):
            lo, hi = row_of[i]
            assert np.allclose(net.get(i, "aff")[1], nu_ref[lo:hi], atol=1e-8)


def stitch(tree, net, n):
    """The agents' minimisers over all variables."""
    x = np.full(n, np.nan)
    for i in range(tree.q):
        dx = net.get(i, "aff")[0]
        cols = list(tree.cliques[i])
        old = x[cols]
        # overlapping coordinates must agree bitwise
        both = ~np.isnan(old)
        assert np.array_equal(old[both], dx[both])
        x[cols] = dx
    assert not np.isnan(x).any()
    return x


def test_root_message_carries_optimal_value(rng):
    tree, data, consts = random_tree_qp(rng)
    n = 1 + max(v for c in tree.cliques for v in c)
    _, messages = tree_qp_passes(tree, data)
    root_msg = messages[tree.root]
    assert root_msg.sep == ()
    _, _, _, val_ref = dense_kkt(tree, data, consts, n)
    val = root_msg.c + sum(consts.values())
    assert np.isclose(val, val_ref, atol=1e-8 * max(1, abs(val_ref)))


def rhs_sweep(tree, net, r):
    """Upward sweep of eliminate_rhs through the agents' factors, then the
    downward sweep with its offsets."""
    lays = [clique_layout(tree, i) for i in range(tree.q)]
    q, offsets = {}, {}
    for i in tree.post_order():
        kids = [(c, q[c]) for c in tree.children[i]]
        q[i], h1, h2 = rhs_one(lays[i], net.get(i, "factor"), net.get(i, "solT")[None], r[i], kids)
        offsets[i] = (h1, h2)
    sols = {}
    for i in reversed(tree.post_order()):
        par = tree.parent[i]
        y = (
            np.zeros((0,) + r[i].shape[1:])
            if par is None
            else sols[par][0][lays[par].child_pos[i]]
        )
        sols[i] = recover_one(lays[i], net.get(i, "solT")[None], y, offsets[i])
    return q, sols


def test_rhs_sweep_matches_fresh_elimination(rng, monkeypatch):
    # new linear terms through the stored factors give what a full
    # elimination of the new data (with zero equality right-hand sides)
    # gives, column by column, without factorizing anything
    for _ in range(25):
        tree, data, _ = random_tree_qp(rng)
        net, messages = tree_qp_passes(tree, data)
        r = {i: rng.normal(size=(len(tree.cliques[i]), 2)) for i in data}

        def refactorized(*args, **kwargs):
            raise AssertionError("the right-hand-side sweep factorized")

        with monkeypatch.context() as mp:
            mp.setattr(treeqp, "eliminate", refactorized)
            mp.setattr(treeqp.lapack, "dsytrf", refactorized)
            q, sols = rhs_sweep(tree, net, r)
        for col in range(2):
            fresh = {
                i: (H, r[i][:, col], A, np.zeros(A.shape[0])) for i, (H, _, A, _) in data.items()
            }
            fresh_net, fresh_msgs = tree_qp_passes(tree, fresh)
            for i, msg in fresh_msgs.items():
                assert np.allclose(q[i][:, col], msg.q, atol=1e-9)
                assert np.allclose(msg.Q, messages[i].Q)
            for i in range(tree.q):
                dx, dv = fresh_net.get(i, "aff")
                assert np.allclose(sols[i][0][:, col], dx, atol=1e-9)
                assert np.allclose(sols[i][1][:, col], dv, atol=1e-9)


def test_rhs_sweep_reuses_least_squares_fallback():
    # the flat block is singular, so eliminate stored its pseudo-inverse;
    # a new right-hand side gets the minimum-norm solution from it too
    lay = layout([(1,), (0, 1)], [-1, 0])
    _, sol, factor = eliminate_one(lay, np.diag([0.0, 1.0]), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
    assert not isinstance(factor, tuple)
    q, h1, h2 = rhs_one(lay, factor, stacked(sol), np.array([[0.0], [2.0]]), [])
    assert np.allclose(q, [[2.0]]) and np.allclose(h1, 0.0) and h2.size == 0


def test_stacked_sweeps_give_each_clique_what_it_gets_alone(rng):
    # the instance above next to one whose pivot is regular: stacked, the
    # least-squares member and the factorized one each get bitwise what
    # they get alone, in both the right-hand-side and the recovery sweep
    lay = layout([(1,), (0, 1)], [-1, 0])
    sols, factors = [], []
    for h in (0.0, 2.0):
        _, sol, factor = eliminate_one(lay, np.diag([h, 1.0]), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
        sols.append(sol)
        factors.append(factor)
    assert [isinstance(f, tuple) for f in factors] == [False, True]
    solT = treeqp.stack_solutions(sols)
    r, y = rng.normal(size=(2, 2, 2)), rng.normal(size=(2, 1))
    q, hT = treeqp.eliminate_rhs(lay.zpos, lay.ypos, factors, solT, r, [])
    dx, dv = treeqp.recover_clique(lay.zpos, lay.ypos, solT, y)
    for b, (sol, factor) in enumerate(zip(sols, factors)):
        q1, hT1 = treeqp.eliminate_rhs(lay.zpos, lay.ypos, [factor], stacked(sol), r[b : b + 1], [])
        dx1, dv1 = treeqp.recover_clique(lay.zpos, lay.ypos, stacked(sol), y[b : b + 1])
        for got, alone in ((q, q1), (hT, hT1), (dx, dx1), (dv, dv1)):
            assert got[b].shape == alone[0].shape and np.array_equal(got[b], alone[0])


def test_block_ldl_check_near_zero(rng):
    for _ in range(5):
        tree, data, _ = random_tree_qp(rng)
        n = 1 + max(v for c in tree.cliques for v in c)
        _, messages = tree_qp_passes(tree, data)
        assert oracle.block_ldl_check(tree, data, messages, n) <= 1e-8


# ---------------- degeneracy handling ----------------


def test_rank_check_rejects_redundant_equality_rows():
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    lay = layout([(2,), (0, 1, 2)], [-1, 0])
    with pytest.raises(EliminationError, match="preprocessing required"):
        treeqp.check_equality_rank(A[:, lay.zpos], lay.index)


def test_eliminate_rejects_unbounded_direction():
    # H vanishes on the eliminated variable, nothing pins it, and the
    # linear term drives it to -inf: the KKT system is inconsistent
    lay = layout([(1,), (0, 1)], [-1, 0])
    with pytest.raises(EliminationError):
        eliminate_one(lay, np.diag([0.0, 1.0]), np.array([1.0, 0.0]), np.zeros((0, 2)), np.zeros(0))


def test_eliminate_flat_but_consistent_direction():
    # no linear term on the flat variable: every value is optimal and the
    # minimum-norm representative is returned
    lay = layout([(1,), (0, 1)], [-1, 0])
    msg, sol, _ = eliminate_one(lay, np.diag([0.0, 1.0]), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
    assert np.allclose(sol[:1, -1], 0.0)
    assert np.allclose(msg.Q, [[1.0]])
    assert np.isclose(msg.c, 0.0)


def test_rank_check_names_offending_clique(rng):
    tree, data, _ = random_tree_qp(rng)
    victim = tree.post_order()[0]
    clique = tree.cliques[victim]
    sep = tree.separator(victim, tree.parent[victim])
    elim = [v for v in clique if v not in set(sep)]
    if len(elim) < 1:
        pytest.skip("first clique fully shared")
    row = np.zeros((2, len(clique)))
    row[:, clique.index(elim[0])] = 1.0
    data[victim] = (*data[victim][:2], row, np.zeros(2))
    with pytest.raises(EliminationError, match=f"clique {victim}"):
        tree_qp_passes(tree, data)
