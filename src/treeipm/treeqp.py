"""Kernels of quadratic message passing over a rooted clique tree.

Each clique holds an equality-constrained quadratic piece

    min 0.5 d' H d + r' d   subject to   A d = beta

over its variables.  On the upward pass each clique folds in its
children's messages, eliminates the variables absent from its parent
together with the local multipliers and sends the parent the resulting
parametric minimum, a quadratic in the separator variables: all once per
pass unit, on arrays stacked over its members (:func:`eliminate_unit`),
but the pivot solve, once per clique (:func:`eliminate`).  On the
downward pass :func:`recover_clique` recovers the minimiser by
back-substitution.  The whole procedure is a block LDL' factorization of
the assembled KKT matrix with a fixed, tree-structured pivot order.  The
passes are the solver's ``qp-message`` and ``separator-solution``
handlers (:mod:`treeipm.ipm`), run on the simulated network;
:func:`treeipm.oracle.block_ldl_check` checks them densely.

Each clique keeps the factors of its pivot block, so a further system with
the same matrix and new linear terms needs no factorization: an upward
sweep of :func:`eliminate_rhs` and a downward sweep of
:func:`recover_clique` with the offsets it returned.  The index data come
from the shape groups and their units, built once per tree; the equality
rows' rank is checked once per clique by :func:`check_equality_rank`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from treeipm.chordal import IndexSet
from treeipm.errors import EliminationError
from treeipm.model import ShapeGroup, Unit

EQ_RANK_TOL = 1e-10
SOLVE_BACKWARD_TOL = 1e-8


def _norm(a: np.ndarray) -> float:
    """Frobenius norm, computed as ``np.linalg.norm`` computes it."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def backward_ok(M: np.ndarray, sol: np.ndarray, rhs: np.ndarray) -> bool:
    """Normwise backward-error contract of a solve of ``M sol = rhs``:
    finite, and ``|M sol - rhs| <= SOLVE_BACKWARD_TOL (|M| |sol| + |rhs| + 1)``."""
    if not np.logical_and.reduce(np.isfinite(sol), axis=None):
        return False
    scale = _norm(M) * _norm(sol) + _norm(rhs) + 1.0
    return _norm(M @ sol - rhs) <= SOLVE_BACKWARD_TOL * scale


@dataclass
class QuadraticMessage:
    """Parametric minimum over a separator, ``0.5 y'Qy + q'y + c``: the
    payload of the ``qp-message`` pass."""

    sep: IndexSet
    Q: np.ndarray
    q: np.ndarray
    c: float


def stack_solutions(sols: Sequence[np.ndarray]) -> np.ndarray:
    """Pivot-block solutions of one shape, transposed, on a leading axis (a
    lone one viewed): ``.swapaxes(1, 2)`` views each as the solve left it
    (column-major), so in a batched product each makes its lone BLAS call."""
    if len(sols) == 1:
        return np.ascontiguousarray(sols[0].T)[None]
    return np.array([s.T for s in sols])


def _factor_solve(
    factor: tuple[np.ndarray, np.ndarray] | np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    if isinstance(factor, tuple):
        return lapack.dsytrs(*factor, rhs)[0]
    return factor @ rhs


def check_equality_rank(A_z: np.ndarray, clique_index: int) -> None:
    """Require full row rank of the equality rows ``A_z`` over a clique's
    eliminated variables.  They are never barrier-scaled, so a rank drop is
    structural (redundant rows), and one check before the first
    elimination covers every iteration."""
    p = A_z.shape[0]
    if p > 0:
        s = np.linalg.svd(A_z, compute_uv=False)
        if s.size < p or s[min(p, s.size) - 1] <= EQ_RANK_TOL * max(1.0, s[0]):
            raise EliminationError(
                f"clique {clique_index}: equality block is rank deficient "
                "over the eliminated variables; preprocessing required"
            )


def eliminate(
    index: int, O: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | np.ndarray | None]:
    """Solve clique ``index``'s pivot system ``O sol = rhs``; returns the
    solve and the pivot block's factor: symmetric-indefinite ``(ldu, ipiv)``,
    or the pseudo-inverse when symmetric pivoting failed the backward-error
    check; ``None`` for an empty block."""
    if not O.size:
        return np.zeros(rhs.shape), None
    ldu, ipiv, info = lapack.dsytrf(O)
    factor = (ldu, ipiv)
    sol = lapack.dsytrs(ldu, ipiv, rhs)[0] if info == 0 else None
    if sol is None or not backward_ok(O, sol, rhs):
        # extreme barrier weights can defeat the symmetric pivoting even
        # though the system is consistent; retry with the least-squares
        # solution before declaring the block singular, under the same
        # backward-error contract
        try:
            factor = np.linalg.pinv(O)
            retry = factor @ rhs
        except np.linalg.LinAlgError:
            retry = None
        if retry is not None and backward_ok(O, retry, rhs):
            sol = retry
        elif sol is None:
            raise EliminationError(
                f"clique {index}: singular elimination block; "
                "positive definiteness on the equality nullspace is violated"
            )
        else:
            resid = np.linalg.norm(O @ sol - rhs)
            raise EliminationError(
                f"clique {index}: elimination solve failed its "
                f"backward error check ({resid:.3e}); the block is "
                "numerically singular"
            )
    return sol, factor


def _child_terms(msgs: Sequence[QuadraticMessage]) -> tuple:
    """The members' ``Q`` and ``q`` at one child position, each raveled one
    after the other (a lone one viewed), and their ``c``."""
    if len(msgs) == 1:
        return msgs[0].Q.ravel(), msgs[0].q, (msgs[0].c,)
    Q, q, c = zip(*((msg.Q, msg.q, msg.c) for msg in msgs))
    return np.array(Q).ravel(), np.array(q).ravel(), c


def eliminate_unit(
    grp: ShapeGroup, unit: Unit, ids: Sequence[int], H: np.ndarray, r: np.ndarray,
    beta: np.ndarray, child_msgs: Sequence[Sequence[QuadraticMessage]],
) -> tuple[list[QuadraticMessage], np.ndarray, np.ndarray]:
    """Fold the children's messages (``child_msgs[k]``: the members' at child
    position ``k``) into the pieces ``min 0.5 d'H d + r'd`` subject to
    ``A d = beta`` of the cliques ``ids``, the members of ``unit`` in
    ``grp``, and eliminate their private parts.  Returns the messages for
    the parents, the pivot solves ``sol = [H1 h1; H2 h2]`` (separator
    columns, then the constant) as :func:`stack_solutions`, from which
    :func:`recover_clique` recovers the minimisers, and the factors."""
    (B, p), nz, ny = beta.shape, len(grp.zpos), len(grp.ypos)
    c = [0.0] * B
    if child_msgs:  # the children's terms are added to copies, child by child
        H, r = H.copy(), r.copy()
        flat_H, flat_r = H.reshape(-1), r.reshape(-1)
        for (vec, mat), msgs in zip(unit.child_ix, child_msgs):
            Q, q, c_child = _child_terms(msgs)
            flat_H[mat] += Q
            flat_r[vec] += q
            c = list(map(operator.add, c, c_child))

    Qzz, Qzy, Qyy = map(H.take, unit.blocks)
    qz, qy = r.take(grp.zpos, axis=1), r.take(grp.ypos, axis=1)
    Ay, O, rhs = unit.eq
    O = O.copy() if p else Qzz  # without equality rows the pivot block is Qzz
    rhs = rhs.copy()
    rhs[:, :nz, :ny] = -Qzy
    rhs[:, :nz, ny] = -qz
    if p:
        O[:, :nz, :nz] = Qzz
        rhs[:, nz:, ny] = beta

    sols, factors = [], np.empty(B, dtype=object)
    for b, i in enumerate(ids):
        sol, factors[b] = eliminate(i, O[b], rhs[b])
        sols.append(sol)
    solT = stack_solutions(sols)
    H1T, h1 = solT[:, :ny, :nz], solT[:, ny, :nz]

    # Schur complement of the pivot block: with Qzz H1 + Az' H2 = -Qzy,
    # Az H1 = -Ay and Az h1 = beta, the value of the parametric minimum
    # reduces to these terms, free of the cancellation between H1'Qzz H1
    # and H1'Qzy that large barrier weights in Qzz bring; without equality
    # rows the Az terms are +0.0, and no product is -0.0, so they are left out
    Qt = Qzy.swapaxes(1, 2) @ H1T.swapaxes(1, 2) + Qyy
    qt = np.matvec(H1T, qz) + qy
    if p:
        H2T = solT[:, :ny, nz:]
        Qt += Ay.swapaxes(1, 2) @ H2T.swapaxes(1, 2)
        qt -= np.matvec(H2T, beta)
    Qt = 0.5 * (Qt + Qt.swapaxes(1, 2))
    curv = np.vecdot(np.vecmat(0.5 * h1, Qzz), h1).tolist()
    ct = [(a + e) + f for a, e, f in zip(c, curv, np.vecdot(qz, h1).tolist())]  # c + curv + qz'h1
    return list(map(QuadraticMessage, unit.seps, Qt, qt, ct)), solT, factors


def eliminate_rhs(
    zpos: np.ndarray, ypos: np.ndarray, factors: Sequence, solT: np.ndarray, r: np.ndarray,
    child_q: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate cliques of equal ``zpos`` and ``ypos`` again for new linear
    terms ``r`` (one column per right-hand side, zero equality right-hand
    sides), solving with their ``factors``; ``solT`` is their records'
    :func:`stack_solutions`, ``child_q`` holds ``(indices, q)`` per child
    position, as the unit's ``child_ix``.  Returns the parent messages'
    linear terms ``q`` (the quadratic parts are unchanged) and the solves'
    :func:`stack_solutions`, whose rows ``[:nz]`` and ``[nz:]`` are the
    ``(h1, h2)`` offsets of :func:`recover_clique`.  Nothing is factorized."""
    if child_q:  # the children's terms are added to a copy
        r = r.copy()
    for ix, q in child_q:
        r.reshape(-1, r.shape[2])[ix] += q.reshape(len(ix), r.shape[2])
    nz = len(zpos)
    qz = r.take(zpos, axis=1)  # C-ordered, as a lone clique's
    rhs = np.zeros((len(r), solT.shape[2], r.shape[2]))
    np.negative(qz, out=rhs[:, :nz])
    if rhs[0].size:
        rhs = stack_solutions([_factor_solve(f, b) for f, b in zip(factors, rhs)])
    else:
        rhs = rhs.swapaxes(1, 2)
    # the messages' linear terms qy + H1'qz - H2'beta with beta = 0
    return r[:, ypos] + solT[:, :-1, :nz] @ qz, rhs


def recover_clique(
    zpos: np.ndarray, ypos: np.ndarray, solT: np.ndarray, y: np.ndarray,
    offsets: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Back-substitute cliques, as in :func:`eliminate_rhs`, given their
    separator values ``y``; ``offsets``, if given, are one column of the
    ``(h1, h2)`` of :func:`eliminate_rhs`."""
    nz = len(zpos)
    sol = solT.swapaxes(1, 2)
    h1, h2 = (sol[:, :nz, -1], sol[:, nz:, -1]) if offsets is None else offsets
    dz = np.matvec(sol[:, :nz, :-1], y)
    dv = np.matvec(sol[:, nz:, :-1], y)
    dx = np.empty((len(y), nz + len(ypos)))
    dx[:, zpos] = dz + h1
    dx[:, ypos] = y
    return dx, dv + h2
