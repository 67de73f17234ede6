"""Quadratic message passing over a rooted clique tree.

Each clique holds an equality-constrained quadratic piece

    min 0.5 d' H d + r' d + c   subject to   A d = beta

over its variables.  The upward pass eliminates, per clique, the variables
absent from the parent together with the local multipliers, and sends the
parent the resulting parametric minimum: a quadratic in the separator
variables.  The downward pass recovers the minimiser by back-substitution.
The whole procedure is a block LDL' factorization of the assembled KKT
matrix with a fixed, tree-structured pivot order.

Each clique keeps the factors of its pivot block, so a further system with
the same matrix and new linear terms needs no factorization: an upward
sweep of :func:`eliminate_rhs` and a downward sweep of
:func:`recover_clique` with the offsets it returned.  Every function reads
the clique's index data from its :class:`~treeipm.model.CliqueLayout`,
built once per tree; the equality rows' rank is checked once per clique by
:func:`check_equality_rank`, before any elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from treeipm.chordal import CliqueTree, IndexSet
from treeipm.errors import EliminationError
from treeipm.model import CliqueLayout, clique_layout

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


def equality_parts(lay: CliqueLayout, A: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(Ay, O, rhs)``: the rows over the separator, and the pivot block and
    right-hand side of :func:`eliminate` with only the ``A`` entries set."""
    nz, ny, p = len(lay.zpos), len(lay.ypos), A.shape[0]
    O = np.zeros((nz + p, nz + p))
    O[nz:, :nz] = A[:, lay.zpos]
    O[:nz, nz:] = O[nz:, :nz].T
    rhs = np.zeros((nz + p, ny + 1))
    rhs[nz:, :ny] = -A[:, lay.ypos]
    return A[:, lay.ypos], O, rhs


@dataclass
class CliqueQpData:
    """One clique's quadratic piece, ordered by ascending variable index;
    ``eq``, if set, is :func:`equality_parts` of ``A``, kept by the caller."""

    clique: IndexSet
    H: np.ndarray
    r: np.ndarray
    A: np.ndarray
    beta: np.ndarray
    c: float = 0.0
    eq: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        d = len(self.clique)
        self.H = np.asarray(self.H, dtype=float).reshape(d, d)
        self.r = np.asarray(self.r, dtype=float).reshape(d)
        self.A = np.asarray(self.A, dtype=float).reshape(-1, d)
        self.beta = np.asarray(self.beta, dtype=float).reshape(self.A.shape[0])
        self.c = float(self.c)


@dataclass
class QuadraticMessage:
    """Parametric minimum over a separator: ``0.5 y'Qy + q'y + c``."""

    sep: IndexSet
    Q: np.ndarray
    q: np.ndarray
    c: float

    def value(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        return float(0.5 * y @ self.Q @ y + self.q @ y + self.c)


@dataclass
class EliminationRecord:
    """Back-substitution data kept by one clique after its elimination:
    ``sol = [H1 h1; H2 h2]`` solves the pivot block ``O`` for the separator
    columns and the constant column."""

    lay: CliqueLayout
    sol: np.ndarray
    O: np.ndarray
    message: QuadraticMessage
    factor: tuple[np.ndarray, np.ndarray] | np.ndarray | None
    """Factors of ``O``: symmetric-indefinite ``(ldu, ipiv)``, or the
    pseudo-inverse when symmetric pivoting failed the backward-error check;
    ``None`` for an empty block."""

    sep = property(lambda self: self.lay.sep)
    elim = property(lambda self: self.lay.elim)
    H1 = property(lambda self: self.sol[: len(self.lay.zpos), :-1])
    H2 = property(lambda self: self.sol[len(self.lay.zpos) :, :-1])
    h1 = property(lambda self: self.sol[: len(self.lay.zpos), -1])
    h2 = property(lambda self: self.sol[len(self.lay.zpos) :, -1])


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
    lay: CliqueLayout,
    data: CliqueQpData,
    child_msgs: list[tuple[int, QuadraticMessage]],
) -> tuple[QuadraticMessage, EliminationRecord]:
    """Fold child messages into one clique and eliminate its private part.

    ``child_msgs`` holds ``(child, message)`` pairs.  Returns the message
    for the parent plus the record needed to recover the local minimiser
    once the separator values arrive.
    """
    H, r, c = data.H, data.r, data.c
    if child_msgs:  # the children's terms are added in place
        H = H.copy()
        r = r.copy()
        flat = H.ravel()
    for child, msg in child_msgs:
        flat[lay.child_ix[child]] += msg.Q
        r[lay.child_pos[child]] += msg.q
        c += msg.c

    Ay, O, rhs = data.eq or equality_parts(lay, data.A)
    nz, ny = len(lay.zpos), len(lay.ypos)
    Qzz = H.take(lay.zz)
    Qzy = H.take(lay.zy)
    Qyy = H.take(lay.yy)
    qz = r[lay.zpos]
    qy = r[lay.ypos]

    O = O.copy()
    O[:nz, :nz] = Qzz

    if O.size:
        rhs = rhs.copy()
        rhs[:nz, :ny] = -Qzy
        rhs[:nz, ny] = -qz
        rhs[nz:, ny] = data.beta

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
                    f"clique {lay.index}: singular elimination block; "
                    "positive definiteness on the equality nullspace is violated"
                )
            else:
                resid = np.linalg.norm(O @ sol - rhs)
                raise EliminationError(
                    f"clique {lay.index}: elimination solve failed its "
                    f"backward error check ({resid:.3e}); the block is "
                    "numerically singular"
                )
    else:
        factor = None
        sol = np.zeros((0, ny + 1))

    H1 = sol[:nz, :ny]
    H2 = sol[nz:, :ny]
    h1 = sol[:nz, ny]

    # Schur complement of the pivot block: with Qzz H1 + Az' H2 = -Qzy,
    # Az H1 = -Ay and Az h1 = beta, the value of the parametric minimum
    # reduces to these terms, free of the cancellation between H1'Qzz H1
    # and H1'Qzy that large barrier weights in Qzz bring
    Qt = Qyy + Qzy.T @ H1 + Ay.T @ H2
    Qt = 0.5 * (Qt + Qt.T)
    qt = qy + H1.T @ qz - H2.T @ data.beta
    ct = c + 0.5 * h1 @ Qzz @ h1 + qz @ h1

    msg = QuadraticMessage(lay.sep, Qt, qt, float(ct))
    return msg, EliminationRecord(lay, sol, O, msg, factor)


def eliminate_rhs(
    zpos: np.ndarray, ypos: np.ndarray, factors: Sequence, solT: np.ndarray, r: np.ndarray,
    child_q: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate cliques of equal ``zpos`` and ``ypos`` again for new linear
    terms ``r`` (one column per right-hand side, zero equality right-hand
    sides), solving with their ``factors``; ``solT`` is their records'
    :func:`stack_solutions`, ``child_q`` holds ``(positions, q)`` per child
    in child order.  Returns the parent messages' linear terms ``q`` (the
    quadratic parts are unchanged) and the solves' :func:`stack_solutions`,
    whose rows ``[:nz]`` and ``[nz:]`` are the ``(h1, h2)`` offsets of
    :func:`recover_clique`.  Nothing is factorized."""
    if child_q:  # the children's terms are added to a copy
        r = r.copy()
    for pos, q in child_q:
        r[:, pos] += q
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


def upward_pass(
    tree: CliqueTree, data: dict[int, CliqueQpData]
) -> tuple[dict[int, QuadraticMessage], dict[int, EliminationRecord]]:
    """Eliminate every clique bottom-up.

    Returns the messages keyed by sending clique (one per non-root
    clique) and the per-clique records.  Child messages fold in ascending
    child index order.  Each clique's equality rank is checked before it
    is eliminated.
    """
    messages: dict[int, QuadraticMessage] = {}
    records: dict[int, EliminationRecord] = {}
    for i in tree.post_order():
        lay = clique_layout(tree, i)
        check_equality_rank(data[i].A[:, lay.zpos], i)
        child_msgs = [(k, messages[k]) for k in tree.children[i]]
        msg, records[i] = eliminate(lay, data[i], child_msgs)
        if tree.parent[i] is not None:
            messages[i] = msg
    return messages, records


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


def downward_pass(
    tree: CliqueTree,
    records: dict[int, EliminationRecord],
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Recover per-clique minimisers and multipliers top-down.

    Separator values are copied from the parent's solution, never
    recomputed, so shared variables agree bitwise across cliques.
    """
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i in reversed(tree.post_order()):
        par = tree.parent[i]
        if par is None:
            y = np.zeros(0)
        else:
            y = out[par][0][records[par].lay.child_pos[i]]
        lay = records[i].lay
        dx, dv = recover_clique(lay.zpos, lay.ypos, stack_solutions([records[i].sol]), y[None])
        out[i] = dx[0], dv[0]
    return out


def block_ldl_check(
    tree: CliqueTree,
    records: dict[int, EliminationRecord],
    data: dict[int, CliqueQpData],
    n: int,
) -> float:
    """Consistency check: message passing equals a permuted block LDL'.

    Assembles the full KKT matrix of the tree QP, permutes it into
    per-clique blocks (private variables then local multipliers, in
    elimination order) and runs block Gaussian elimination using the
    recorded pivot blocks.  Returns the Frobenius mismatch between the
    eliminated matrix and the block diagonal of the recorded pivots,
    relative to the KKT matrix norm.
    """
    order = tree.post_order()
    p_rows = {i: data[i].A.shape[0] for i in order}
    n_rows = n + sum(p_rows.values())

    # permutation: for every clique, its private variables then its rows
    col_of_var = {}
    block_idx: dict[int, np.ndarray] = {}
    offset = 0
    row_offset = {}
    seen_vars: set[int] = set()
    for i in order:
        rec = records[i]
        if set(rec.elim) & seen_vars:
            raise EliminationError("private variable sets are not disjoint")
        seen_vars.update(rec.elim)
        idx = list(range(offset, offset + len(rec.elim) + p_rows[i]))
        for v, pos in zip(rec.elim, idx):
            col_of_var[v] = pos
        row_offset[i] = offset + len(rec.elim)
        block_idx[i] = np.array(idx, dtype=int)
        offset += len(idx)
    if len(seen_vars) != n:
        raise EliminationError("private variable sets do not cover all variables")

    kkt = np.zeros((n_rows, n_rows))
    for i in order:
        d = data[i]
        cols = np.array([col_of_var[v] for v in d.clique], dtype=int)
        kkt[np.ix_(cols, cols)] += d.H
        if p_rows[i]:
            rows = np.arange(row_offset[i], row_offset[i] + p_rows[i])
            kkt[np.ix_(rows, cols)] += d.A
            kkt[np.ix_(cols, rows)] += d.A.T
    kkt_norm = float(np.linalg.norm(kkt))

    work = kkt.copy()
    eliminated: list[int] = []
    for i in order:
        idx = block_idx[i]
        rest = np.setdiff1d(
            np.arange(n_rows), np.concatenate([block_idx[k] for k in eliminated + [i]])
        )
        pivot = records[i].O
        if idx.size and rest.size:
            lower = work[np.ix_(rest, idx)]
            upper = work[np.ix_(idx, rest)]
            work[np.ix_(rest, rest)] -= lower @ scipy.linalg.solve(
                pivot, upper, assume_a="sym"
            )
            work[np.ix_(rest, idx)] = 0.0
            work[np.ix_(idx, rest)] = 0.0
        eliminated.append(i)

    block_diag = np.zeros_like(kkt)
    for i in order:
        idx = block_idx[i]
        block_diag[np.ix_(idx, idx)] = records[i].O
    denom = kkt_norm if kkt_norm > 0 else 1.0
    return float(np.linalg.norm(work - block_diag) / denom)
