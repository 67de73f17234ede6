"""Distributed primal-dual interior-point method on a clique tree.

Each iteration, one :func:`step`, takes a Mehrotra predictor-corrector
step, run as a fixed schedule of synchronous passes:

1. upward (``qp-message``): per-clique barrier KKT pieces are eliminated
   into quadratic messages for the affine right-hand side (one
   factorization per agent);
2. downward (``separator-solution``): separator solutions propagate and
   each agent recovers its affine direction;
3. upward (``corrector-message``): the affine step bound, the coefficients
   of the surrogate gap along the affine direction, and right-hand-side
   messages for the centering and second-order terms aggregate to the
   root, which sets the barrier weight ``t = m / (sigma eta_hat)`` with
   ``sigma = (eta_aff / eta_hat)^3``;
4. downward (``corrector-solution``): ``t`` and the corrector's separator
   solutions propagate; each agent adds its corrector to the affine
   direction, reusing the factors of pass 1;
5. upward (``alpha-bound``): the multiplier-positivity step bound
   aggregates to the root;
6. downward (``alpha-broadcast``): the root broadcasts the candidate step;
7. upward (``residual-partial``): each agent forms its candidate point and
   keeps it; the candidate's residuals, interiority flags and surrogate
   gap aggregate, and the root either accepts (one final
   ``stop-broadcast``, on which every agent adopts its stored candidate)
   or shrinks the step and repeats 6-7.

Before passes 1, 3, 5 and each 7, a local step
(:meth:`netsim.Network.run_local`) does every agent's own arithmetic, one
kernel call per :class:`model.ShapeGroup`, whose fields hold the members'
iterates as arrays with one row each.  A pass calls each handler once per
:class:`model.Unit`: members of one group and tree level, whose arithmetic
runs stacked over them but for the solves with each one's pivot block,
and who fold the children's payloads into the same sums, in the same
order, as each would alone.

The decrease test compares a candidate's residuals with those of the
current iterate.  The root keeps them from the pass that accepted the
iterate; for the start point one ``residual-partial`` pass runs in the
set-up phase (:func:`start`), so every point is evaluated once.

Aggregation sums run in child-index order.  Residual norms are those of
the globally scattered residual vectors: scalar partial sums plus
separator-restricted vector pushes, so the root sees exactly the
centralized norm without any agent revealing local data beyond its
separators.
"""

from __future__ import annotations

import copy
import csv
import functools
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence, get_type_hints

import numpy as np

from treeipm import chordal, model, netsim, treeqp
from treeipm.errors import (
    InfeasibleProblemError,
    LineSearchStallError,
    NotStrictlyFeasibleError,
    ProblemFormatError,
)
from treeipm.model import Assignment, CoupledProblem, Subproblem

ALPHA_STALL = 1e-12
PHASE_ONE_PROX = 1e-6
PHASE_ONE_SLACK = 1e-3


@dataclass
class SolverParams:
    """Interior-point controls; ranges are enforced."""

    eps: float = 1e-10
    eps_feas: float = 1e-8
    beta: float = 0.5
    gamma: float = 0.05
    max_iters: int = 100

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ProblemFormatError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0.01 <= self.gamma <= 0.1:
            raise ProblemFormatError(
                f"gamma must lie in [0.01, 0.1], got {self.gamma}"
            )
        if not all(math.isfinite(tol) and tol > 0 for tol in (self.eps, self.eps_feas)):
            raise ProblemFormatError("tolerances must be finite and positive")
        if not model.is_integer(self.max_iters) or self.max_iters < 1:
            raise ProblemFormatError(f"max_iters must be an integer >= 1, got {self.max_iters}")


@dataclass
class TraceRow:
    """Per-iteration record; norms and the gap are at the accepted point.

    ``t`` is the barrier parameter the iteration's corrector was built
    with and ``eta_aff`` the surrogate gap after the affine step that set
    it; ``mp_steps_cum`` counts solve-phase communication rounds so far.
    """

    iteration: int
    r_primal_norm: float
    r_dual_norm: float
    eta_hat: float
    alpha: float
    backtracks: int
    t: float
    mp_steps_cum: int
    eta_aff: float

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def converged(self, params: SolverParams) -> bool:
        """Whether the accepted point meets the stopping tolerances."""
        feasible = self.r_primal_norm <= params.eps_feas and self.r_dual_norm <= params.eps_feas
        return feasible and self.eta_hat <= params.eps


# the trace CSV calls the iteration column "iter"
TRACE_COLUMNS = ("iter",) + tuple(f.name for f in fields(TraceRow))[1:]


@dataclass
class ConvergenceTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        idx = TRACE_COLUMNS.index(name)
        return np.array([row.as_tuple()[idx] for row in self.rows])

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for row in self.rows:
                writer.writerow([repr(v) for v in row.as_tuple()])

    @staticmethod
    def from_csv(path: str | Path) -> "ConvergenceTrace":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != TRACE_COLUMNS:
                raise ProblemFormatError(f"{path}: unexpected trace header {header}")
            hints = get_type_hints(TraceRow)
            casts = [hints[f.name] for f in fields(TraceRow)]
            rows = [
                TraceRow(*(cast(v) for cast, v in zip(casts, vals))) for vals in reader
            ]
        return ConvergenceTrace(rows)


# ------------------ static per-clique context ------------------


@dataclass
class SolverSetup:
    problem: CoupledProblem
    tree: chordal.CliqueTree
    assignment: Assignment
    layouts: list[model.CliqueLayout]
    network: netsim.Network


def prepare(
    p: CoupledProblem,
    tree: chordal.CliqueTree | None = None,
    record_log: bool = False,
) -> SolverSetup:
    """Tree, network, agent assignment, layouts, reduced equality blocks
    and shape groups.

    Each clique's :func:`model.clique_layout` is built once and holds every
    index the passes read; the shape groups carry them.  The equality
    blocks come from the ``eq-constraint-push`` pass, the network's
    first, while each clique is a group of its own: each agent stacks its
    field ``eq``, its rows of ``assignment.local_eq``, with those its
    children pushed up, keeps the rows it can pin down over its eliminated
    variables and pushes the rest to its parent over the separator.  The
    feasible set of the stacked system is preserved; an inconsistent
    system raises at the root.  The reduced blocks go back into
    ``assignment.local_eq``, and :func:`group_cliques` checks each once and
    groups the cliques for the local kernels and the passes.
    """
    p.ensure_valid()
    if tree is None:
        _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
    net = netsim.Network(tree, record_log=record_log)
    a = model.assign(p, tree)
    layouts = [
        model.clique_layout(tree, i, [(k, p.subproblems[k]) for k in a.phi[i]])
        for i in range(tree.q)
    ]

    def eq_push_up(unit: netsim.Members, inboxes: list) -> list:
        # the unit is one clique, a group of its own
        (i,), (kids,), (inbox,) = unit.ids, unit.kids, inboxes
        lay, root = layouts[i], tree.parent[i] is None
        (A,), (b,) = unit.get("eq")
        blocks_A, blocks_b = [A], [b]
        for c, push in zip(kids, inbox):
            block = np.zeros((push["A"].shape[0], len(lay.clique)))
            block[:, lay.child_pos[c]] = push["A"]
            blocks_A.append(block)
            blocks_b.append(push["b"])
        A, b, push_A, push_b = model.reduce_equality_block(
            np.vstack(blocks_A), np.concatenate(blocks_b), lay.zpos, lay.ypos, is_root=root
        )
        unit.put("eq", (A[None], b[None]))
        return [None if root else {"A": push_A, "b": push_b}]

    for i, members in enumerate(net.groups):
        members.put("eq", tuple(block[None] for block in a.local_eq[i]))
    net.run_up("eq-constraint-push", eq_push_up)
    a.local_eq = {i: tuple(blk[0] for blk in m.get("eq")) for i, m in enumerate(net.groups)}
    group_cliques(net, layouts, a.local_eq)
    return SolverSetup(p, tree, a, layouts, net)


def group_cliques(
    net: netsim.Network, layouts: Sequence[model.CliqueLayout], local_eq: Mapping
) -> None:
    """Check each clique's final equality block ``local_eq[i] = (A, b)`` for
    rank, in pass order, and set ``net``'s groups by
    :func:`model.shape_groups` of the clique layouts ``layouts[i]``, with a
    zero ``kkt = (H, r, beta)`` field.

    Every tree QP runs from here: write each clique's piece into its rows
    of ``kkt``, then run the ``qp-message`` pass with :func:`_dir_up` and
    the ``separator-solution`` pass with :func:`_dir_down`.
    """
    for level in reversed(net.levels):
        for i in level:
            treeqp.check_equality_rank(local_eq[i][0][:, layouts[i].zpos], i)
    net.set_groups(model.shape_groups((i, lay, *local_eq[i]) for i, lay in enumerate(layouts)))
    for members in net.groups:
        B, rows, d = members.group.eq_A.shape
        members.put("kkt", (np.zeros((B, d, d)), np.zeros((B, d)), np.zeros((B, rows))))


def finite_vector(value, size: int, name: str) -> np.ndarray:
    """``value`` as floats, checked to be a vector of ``size`` finite entries."""
    vec = np.asarray(value, dtype=float)
    if vec.shape != (size,) or not np.isfinite(vec).all():
        raise ProblemFormatError(f"{name} must have shape ({size},) and finite entries")
    return vec


def start_vector(
    given: Mapping[int, np.ndarray] | None, key: int, size: int, name: str
) -> np.ndarray:
    """A copy of ``given[key]``, a :func:`finite_vector`; all ones if none given."""
    if given is None:
        return np.ones(size)
    if key not in given:
        raise ProblemFormatError(f"{name} has no entry for {key}")
    return finite_vector(given[key], size, f"{name}[{key}]").copy()


def start(
    setup: SolverSetup,
    x0: np.ndarray | None,
    lam0: Mapping[int, np.ndarray] | None = None,
    v0: Mapping[int, np.ndarray] | None = None,
) -> dict:
    """Check the start, write each group's ``x``, ``v`` and ``lam``, evaluate
    the point and open the solve phase; returns the root's sums of that
    ``residual-partial`` pass, the first decrease-test reference.

    ``x0`` must be strictly feasible for the inequalities (equalities may
    start violated); obtain one via :func:`phase_one` if needed.  ``lam0``
    maps every subproblem to positive multipliers and ``v0`` every clique
    to its equality multipliers; each defaults to all ones.
    """
    p = setup.problem
    if x0 is None:
        raise NotStrictlyFeasibleError(
            "a strictly feasible x0 is required; obtain one via phase_one"
        )
    x0 = finite_vector(x0, p.n, "x0")
    lam = {}
    for k, sp in enumerate(p.subproblems):
        lam[k] = start_vector(lam0, k, sp.m, "lam0")
        if sp.m and lam[k].min() <= 0:
            raise ProblemFormatError(f"lam0[{k}] must be positive")
    net = setup.network
    for members in net.groups:
        grp = members.group
        members.put("x", x0[[list(setup.tree.cliques[i]) for i in members.ids]])
        v = [start_vector(v0, i, grp.eq_b.shape[1], "v0") for i in members.ids]
        members.put("v", np.array(v))
        members.put("lam", [np.array([lam[k] for k in ks]) for ks in zip(*grp.keys)])
    worst = p.max_inequality(x0)
    if worst >= 0:
        raise NotStrictlyFeasibleError(
            f"x0 violates strict feasibility (max g = {worst:.3e}); run phase_one"
        )
    net.run_local(_start_kernel)
    ref = net.run_up("residual-partial", functools.partial(_residual_up, False))
    net.begin_phase("solve")
    return ref


def _step_scale(m_total: int) -> float:
    # nothing to keep interior when there are no inequalities
    return 1.0 if m_total == 0 else 0.99


def _next_t(eta_hat: float, eta_aff: float, m_total: int) -> float:
    """Mehrotra's barrier weight ``t = m / (sigma eta_hat)``.

    ``sigma = (eta_aff / eta_hat)^3`` centers little when the affine step
    would close most of the surrogate gap ``eta_hat``.
    """
    if m_total == 0:
        return math.inf
    if eta_hat <= 0:
        raise LineSearchStallError(f"surrogate gap {eta_hat:.3e} is not positive")
    sigma = (eta_aff / eta_hat) ** 3
    return math.inf if sigma == 0 else m_total / (sigma * eta_hat)


# ------------------ local kernels ------------------
#
# A kernel does one local step for a model.ShapeGroup; each numpy call
# works row by row, so a member's result is bitwise the one it gets alone.
# Products keep the per-clique operand layouts (np.matvec for M @ x, on
# swapped axes for M.T @ x, np.vecmat for x @ M, np.vecdot for x @ y) and
# columns are taken C-ordered, so each row goes through the same BLAS call
# (a strided dot sums in another order).  A point is evaluated once: its
# kernel keeps per subproblem (g, jac, grad, lam), ``at`` once adopted.


def _eval_slot(s: model.SlotStack, X: np.ndarray):
    """``g``, its Jacobian and the objective gradient, as
    :func:`model.eval_subproblem` forms them."""
    XL = s.take(X)
    G = np.vecdot(s.A, XL[:, None, :])
    JAC = s.A.copy()
    for j, _, Q in s.quad:
        G[:, j] += np.vecdot(np.vecmat(0.5 * XL, Q), XL)
        JAC[:, j] = np.matvec(Q, XL) + s.A[:, j]
    return G + s.b, JAC, np.matvec(s.P, XL) + s.q


def _least_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # per row the least num / den where den > 0, else inf
    mask = den > 0
    return np.minimum.reduce(
        np.divide(num, den, out=None, where=mask), axis=1, where=mask, initial=np.inf
    )


def _qp_kernel(m: netsim.Members) -> None:
    """Each clique's barrier KKT piece for the affine (uncentered) step,
    written over the group's ``kkt = (H, r, beta)``; the point passed the
    start check or the acceptance test."""
    grp = m.group
    X, V = m.get("x"), m.get("v")
    H, R, BETA = m.get("kkt")
    H.fill(0.0)
    R.fill(0.0)
    for s, (G, JAC, GRAD, L) in zip(grp.slots, m.get("at")):
        Hk = s.P.copy()
        for j, nonzero, Q in s.quad:
            if nonzero:
                Hk = Hk + L[:, j, None, None] * Q
        if G.shape[1]:
            JT = JAC.swapaxes(1, 2)
            Hk = Hk - JT @ (JAC * (L / G)[:, :, None])
            r_cent = -L * G
            GRAD = GRAD + np.matvec(JT, L) + np.matvec(JT, r_cent / G)
        H[s.block] += Hk
        R[s.cols] += GRAD
    if grp.eq_A.shape[1]:
        R += np.matvec(grp.eq_A.swapaxes(1, 2), V)
    np.subtract(grp.eq_b, np.matvec(grp.eq_A, X), out=BETA)


def _corrector_kernel(m: netsim.Members) -> None:
    """Each agent's own share of the predictor step, kept as ``pred``.

    The affine multiplier direction is ``dlam = -lam - lam * J dx / g``.
    Along the affine direction ``g(x + a dx) = g + a J dx + a^2 c`` with
    ``c = dx'Q dx / 2``, so the surrogate gap ``-sum (lam + a dlam)'g(x + a dx)``
    is a cubic in ``a``.  ``pred``: the largest step keeping the own
    multipliers and ``g`` interior (``inf`` if none), the cubic's
    coefficients per subproblem with inequalities, the clique's centering
    and second-order right-hand sides as two columns, and ``dlam * J dx``.
    """
    DX = m.get("aff")[0]
    B, d = DX.shape
    amax = np.zeros(B) + np.inf
    gaps, socs = [], []
    R = np.zeros((B, d, 2))
    for s, (G, JAC, _, L) in zip(m.group.slots, m.get("at")):
        if G.shape[1] == 0:
            socs.append(G)
            continue
        DXK = s.take(DX)
        JDX = np.matvec(JAC, DXK)
        DK = (-L * G - L * JDX) / G
        CURV = np.zeros(G.shape)
        for j, _, Q in s.quad:
            CURV[:, j] = np.vecdot(np.vecmat(0.5 * DXK, Q), DXK)
        # ratios for lam + a dlam >= 0 and for the positive root of
        # g + a jdx + a^2 curv, the latter in the cancellation-free form
        root = _least_ratio(-2.0 * G, JDX + np.sqrt(JDX * JDX - 4.0 * CURV * G))
        amax = np.minimum(amax, np.minimum(_least_ratio(L, -DK), root))
        # rows (lam, dlam) times columns (g, jdx, curv) give the cubic
        rows = np.empty((B, 2, G.shape[1]))
        rows[:, 0], rows[:, 1] = L, DK
        cols = np.empty(G.shape + (3,))
        cols[:, :, 0], cols[:, :, 1], cols[:, :, 2] = G, JDX, CURV
        P = rows @ cols
        gap = np.empty((B, 4))
        gap[:, 0], gap[:, 1:3], gap[:, 3] = P[:, 0, 0], P[:, 0, 1:] + P[:, 1, :2], P[:, 1, 2]
        gaps.append(gap)
        socs.append(DK * JDX)
        terms = np.empty(G.shape + (2,))  # columns (1, soc) / g, as one stack
        terms[:, :, 0], terms[:, :, 1] = 1.0, socs[-1]
        terms /= G[:, :, None]
        R[s.cols] -= JAC.swapaxes(1, 2) @ terms
    m.put("pred", (amax, gaps, R, socs))


def _step_kernel(m: netsim.Members) -> None:
    """Each agent's ``dlam`` per subproblem for the corrected ``dx`` and the
    weights ``w = (1/t, 1)``, and its ``bound``: the largest step up to 1
    keeping its multipliers positive."""
    DX = m.get("dx")
    inv_t = m.get("w")[:, :1]
    bound = np.zeros(len(DX)) + 1.0
    dlams = []
    for s, (G, JAC, _, L), SOC in zip(m.group.slots, m.get("at"), m.get("pred")[3]):
        D = G
        if G.shape[1]:
            r_cent = -L * G - inv_t - SOC
            D = (r_cent - L * np.matvec(JAC, s.take(DX))) / G
            bound = np.minimum(bound, _least_ratio(L, -D))
        dlams.append(D)
    m.put("dlam", dlams)
    m.put("bound", bound)


def _residual_terms(grp: model.ShapeGroup, X, V, LAMS) -> tuple[tuple, list[tuple]]:
    """Each agent's ``own`` terms at ``(X, V, LAMS)``: whether its ``g`` is
    negative, its dual residual before the children's pushes, its squared
    primal residual and ``-lam'g`` per subproblem; and per subproblem
    ``(g, jac, grad, lam)`` there."""
    B, d = X.shape
    gmax = np.zeros(B) - np.inf
    W = np.zeros((B, d))
    ETA = np.empty((B, len(grp.slots)))
    evals = []
    for t, (s, L) in enumerate(zip(grp.slots, LAMS)):
        G, JAC, GRAD = _eval_slot(s, X)
        if G.shape[1]:
            gmax = np.fmax(gmax, np.maximum.reduce(G, axis=1))
            W[s.cols] += GRAD + np.matvec(JAC.swapaxes(1, 2), L)
        else:
            W[s.cols] += GRAD + 0.0
        ETA[:, t] = -np.vecdot(L, G)
        evals.append((G, JAC, GRAD, L))
    if grp.eq_A.shape[1]:
        W += np.matvec(grp.eq_A.swapaxes(1, 2), V)
    PR = np.matvec(grp.eq_A, X) - grp.eq_b
    return (~(gmax >= 0), W, np.vecdot(PR, PR), ETA), evals


def _start_kernel(m: netsim.Members) -> None:
    """:func:`_residual_terms` at the start point, kept as ``own`` and ``at``."""
    own, at = _residual_terms(m.group, m.get("x"), m.get("v"), m.get("lam"))
    m.put("own", own)
    m.put("at", at)


def _candidate_kernel(m: netsim.Members) -> None:
    """Each agent's candidate point at its step ``alpha_bar`` and
    :func:`_residual_terms` there; keeps ``own`` and, with the point, ``cand``."""
    alpha = m.get("alpha_bar")[:, None]
    X = m.get("x") + alpha * m.get("dx")
    V = m.get("v") + alpha * m.get("dv")
    LAMS = [L + alpha * D for L, D in zip(m.get("lam"), m.get("dlam"))]
    own, at = _residual_terms(m.group, X, V, LAMS)
    m.put("own", own)
    m.put("cand", (X, V, LAMS, at))


# ------------------ pass handlers ------------------
#
# A handler runs one pass unit.  The children's vector payloads are stacked
# child by child and scalars summed as Python floats per member, so every
# sum keeps the order a lone agent's has.


def _stacked(payloads: Sequence, key: str | None = None) -> np.ndarray:
    """The array payloads (or their ``key`` entries) on a member axis; a
    lone one is viewed, as every payload array is contiguous."""
    rows = payloads if key is None else [q[key] for q in payloads]
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _residual_up(watched: bool, unit: netsim.Members, inboxes: list) -> list[dict]:
    """Each member's share at a point: the squared residual norms and the
    gap ``-sum lam'g`` over its subtree, and ``push``, the dual residual on
    its separator; ``ok = False`` with zero sums outside the strict
    interior.  If ``watched``, also ``negative``: whether every watched
    variable of the subtree is negative at the candidate."""
    grp = unit.group
    refused = {"ok": False, "p": 0.0, "d": 0.0, "push": None, "eta": 0.0}
    ok, W, P, ETA = unit.get("own")
    ok, sums, flat_W = ok.tolist(), [(0.0, 0.0, 0.0)] * len(ok), W.reshape(-1)
    for (ix, _), pays in zip(unit.spec.child_ix, zip(*inboxes)):
        ok = [good and q["ok"] for good, q in zip(ok, pays)]
        sums = [(p + q["p"], d + q["d"], eta + q["eta"]) for (p, d, eta), q in zip(sums, pays)]
        flat_W[ix] += _stacked(pays, "push").ravel()
    own: Iterable = [None] * len(ok)
    if any(ok):
        own_w = W.take(grp.zpos, axis=1)
        squares = np.vecdot(own_w, own_w).tolist()
        own = zip(P.tolist(), squares, ETA.tolist(), W.take(grp.ypos, axis=1))
    out = []
    for good, (p, d, eta), terms in zip(ok, sums, own):
        if not good:
            out.append(dict(refused, push=np.zeros(len(grp.ypos))))
            continue
        own_p, own_d, own_eta, push = terms
        for e in own_eta:
            eta += e
        out.append({"ok": True, "p": p + own_p, "d": d + own_d, "push": push, "eta": eta})
    if watched:
        neg = np.all((unit.get("cand")[0] < 0) | ~unit.get("watch"), axis=1)
        for pays in zip(*inboxes):
            neg &= [q["negative"] for q in pays]
        out = [dict(o, negative=n) for o, n in zip(out, neg.tolist())]
    return out


def _dir_up(unit: netsim.Members, inboxes: list) -> list:
    """The unit's eliminations; keeps their pivot solves ``solT`` and factors ``factor``."""
    msgs, solT, factors = treeqp.eliminate_unit(
        unit.group, unit.spec, unit.ids, *unit.get("kkt"), list(zip(*inboxes))
    )
    unit.count_factorizations()
    unit.put("factor", factors)
    unit.put("solT", solT)
    return msgs


def _dir_down(unit: netsim.Members, payloads: list) -> list:
    grp = unit.group
    Y = np.zeros((1, 0)) if payloads[0] is None else _stacked(payloads)
    aff = treeqp.recover_clique(grp.zpos, grp.ypos, unit.get("solT"), Y)
    unit.put("aff", aff)
    return [aff[0].take(pos, axis=1) for pos in unit.spec.child_pos]


def _corr_up(unit: netsim.Members, inboxes: list) -> list[dict]:
    grp = unit.group
    amax_own, own_gaps, R, _ = unit.get("pred")
    amax, gap, child_q = [1.0] * len(amax_own), np.zeros((len(amax_own), 4)), []
    for (ix, _), pays in zip(unit.spec.child_ix, zip(*inboxes)):
        amax = [min(a, q["alpha"]) for a, q in zip(amax, pays)]
        gap += _stacked(pays, "gap")
        child_q.append((ix, _stacked(pays, "msg")))
    amax = [min(a, own) for a, own in zip(amax, amax_own.tolist())]
    for row in own_gaps:
        gap -= row
    factors = unit.get("factor")
    q, corrT = treeqp.eliminate_rhs(grp.zpos, grp.ypos, factors, unit.get("solT"), R, child_q)
    unit.put("corrT", corrT)
    return [{"alpha": a, "gap": g, "msg": m} for a, g, m in zip(amax, gap, q)]


def _corr_down(t_root: float, unit: netsim.Members, payloads: list) -> list:
    """The root's barrier weight ``t_root`` and the corrector's separator
    solutions go down; each member adds its corrector to ``aff``."""
    grp = unit.group
    root = payloads[0] is None
    t = [t_root] if root else [q["t"] for q in payloads]
    Y = np.zeros((1, 0)) if root else _stacked(payloads, "y")
    # corrector = centering column / t + second-order column
    w = np.array([(0.0 if math.isinf(a) else 1.0 / a, 1.0) for a in t])
    unit.put("w", w)
    h, nz = unit.get("corrT").swapaxes(1, 2), len(grp.zpos)
    offsets = (np.matvec(h[:, :nz], w), np.matvec(h[:, nz:], w))
    dx_c, dv_c = treeqp.recover_clique(grp.zpos, grp.ypos, unit.get("solT"), Y, offsets)
    dx_aff, dv_aff = unit.get("aff")
    unit.put("dx", dx_aff + dx_c)
    unit.put("dv", dv_aff + dv_c)
    return [
        [{"t": a, "y": y} for a, y in zip(t, dx_c.take(pos, axis=1))] for pos in unit.spec.child_pos
    ]


def _bound_up(scale: float, unit: netsim.Members, inboxes: list) -> list[float]:
    alpha = [scale * bound for bound in unit.get("bound").tolist()]
    for pays in zip(*inboxes):
        alpha = [min(a, q) for a, q in zip(alpha, pays)]
    return alpha


def _alpha_down(alpha_root: float, unit: netsim.Members, payloads: list) -> list:
    alpha = [alpha_root] if payloads[0] is None else payloads
    unit.put("alpha_bar", np.array(alpha))
    return [alpha] * len(unit.spec.child_pos)


def _accept_down(stop_root: bool, unit: netsim.Members, payloads: list) -> list:
    """Every member adopts its candidate and passes the root's stop flag on."""
    stop = [stop_root] if payloads[0] is None else payloads
    for name, value in zip(("x", "v", "lam", "at"), unit.get("cand")):
        unit.put(name, value)
    return [stop] * len(unit.spec.child_pos)


def _accept_test(
    cand: Mapping, ref: Mapping, alpha: float, params: SolverParams
) -> bool:
    """Strict interiority and the residual decrease against ``ref``."""
    if not cand["ok"]:
        return False
    lhs = cand["p"] + cand["d"]
    rhs = (1.0 - params.gamma * alpha) ** 2 * (ref["p"] + ref["d"])
    if lhs <= rhs:
        return True
    # both residuals already at the feasibility tolerance: forcing a further
    # decrease fights roundoff; only interiority matters from here on
    floor = params.eps_feas**2
    return cand["p"] <= floor and cand["d"] <= floor


# ------------------ the simulator-driven solver ------------------


@dataclass
class SolveResult:
    x: np.ndarray
    x_clique: dict[int, np.ndarray]
    v: dict[int, np.ndarray]
    lam: dict[int, np.ndarray]
    objective: float
    converged: bool
    status: str
    iterations: int
    total_backtracks: int
    trace: ConvergenceTrace
    accounting: netsim.StepAccounting
    network: netsim.Network
    setup: SolverSetup

    def separator_gap(self) -> float:
        """Largest disagreement of shared variables across tree edges."""
        worst = 0.0
        lays = self.setup.layouts
        for c, lay in enumerate(lays):
            par = self.setup.tree.parent[c]
            if par is not None and lay.sep:
                a = self.x_clique[c][lay.ypos]
                b = self.x_clique[par][lays[par].child_pos[c]]
                worst = max(worst, float(np.max(np.abs(a - b))))
        return worst


def step(
    setup: SolverSetup, params: SolverParams, ref: Mapping, it: int
) -> tuple[TraceRow, dict, str | None]:
    """Iteration ``it``: the pass schedule of the module docstring, once,
    the decrease test against ``ref``, the root's sums at the current point.

    Returns the trace row, the accepted candidate's sums (the next ``ref``)
    and the status the step ends the solve with, ``"converged"`` or
    ``"negative"`` (see :func:`solve`), else ``None``.
    """
    net = setup.network
    m_total = setup.problem.m_total
    watched = net.groups[0].has("watch")
    net.run_local(_qp_kernel)
    net.run_up("qp-message", _dir_up)
    net.run_down("separator-solution", _dir_down)
    net.run_local(_corrector_kernel)
    pred = net.run_up("corrector-message", _corr_up)
    alpha_aff = pred["alpha"]
    c0, c1, c2, c3 = pred["gap"].tolist()
    eta_aff = c0 + alpha_aff * (c1 + alpha_aff * (c2 + alpha_aff * c3))
    t = _next_t(c0, eta_aff, m_total)
    net.run_down("corrector-solution", functools.partial(_corr_down, t))
    net.run_local(_step_kernel)
    alpha = net.run_up("alpha-bound", functools.partial(_bound_up, _step_scale(m_total)))
    net.run_down("alpha-broadcast", functools.partial(_alpha_down, alpha))
    backtracks = 0
    while True:
        net.run_local(_candidate_kernel)
        cand = net.run_up("residual-partial", functools.partial(_residual_up, watched))
        if _accept_test(cand, ref, alpha, params):
            break
        alpha *= params.beta
        backtracks += 1
        if alpha < ALPHA_STALL:
            raise LineSearchStallError(
                f"line search stalled at iteration {it} (alpha {alpha:.3e})"
            )
        net.run_down("alpha-broadcast", functools.partial(_alpha_down, alpha))
    p_norm, d_norm = math.sqrt(cand["p"]), math.sqrt(cand["d"])
    row = TraceRow(it, p_norm, d_norm, cand["eta"], alpha, backtracks, t, 0, eta_aff)
    negative = watched and cand["negative"]
    status = "converged" if row.converged(params) else "negative" if negative else None
    net.run_down("stop-broadcast", functools.partial(_accept_down, status is not None))
    row.mp_steps_cum = net.mp_steps["solve"]
    return row, cand, status


def iterate(setup: SolverSetup) -> tuple[np.ndarray, dict, dict, dict]:
    """The agents' point: ``x`` over all variables, each entry from the clique that
    eliminates it, and views of their rows: ``x``, ``v`` per clique, ``lam`` per subproblem."""
    net, lays, agents = setup.network, setup.layouts, range(setup.tree.q)
    x_clique = {i: net.get(i, "x") for i in agents}
    v = {i: net.get(i, "v") for i in agents}
    lam: dict[int, np.ndarray] = {}
    x = np.zeros(setup.problem.n)
    for i in agents:
        lam.update(zip(setup.assignment.phi[i], net.get(i, "lam")))
        x[list(lays[i].elim)] = x_clique[i][lays[i].zpos]
    return x, x_clique, v, lam


def solve(
    p: CoupledProblem,
    params: SolverParams | None = None,
    x0: np.ndarray | None = None,
    tree: chordal.CliqueTree | None = None,
    record_log: bool = True,
    stop_when_negative: Iterable[int] = (),
) -> SolveResult:
    """Run the distributed interior-point method through the simulator:
    :func:`prepare`, :func:`start` from ``x0``, then :func:`step` until
    the point converges or ``params.max_iters`` is reached.

    With ``stop_when_negative`` given, the solve also ends, with status
    ``"negative"``, at the first accepted iterate where all those
    variables are negative; each agent checks the ones it owns.
    """
    params = params or SolverParams()
    setup = prepare(p, tree, record_log)
    ref = start(setup, x0)
    watched = set(stop_when_negative)
    if watched:
        for members in setup.network.groups:
            watch = np.zeros(members.get("x").shape, dtype=bool)
            for b, i in enumerate(members.ids):
                lay = setup.layouts[i]
                watch[b, [t for t, u in zip(lay.zpos, lay.elim) if u in watched]] = True
            members.put("watch", watch)
    trace = ConvergenceTrace()
    status = "max_iters"
    for it in range(1, params.max_iters + 1):
        row, ref, stop = step(setup, params, ref, it)
        trace.rows.append(row)
        if stop:
            status = stop
            break
    x, x_clique, v, lam = iterate(setup)
    iterations = len(trace)
    total_backtracks = sum(row.backtracks for row in trace.rows)
    report = netsim.accounting(setup.network, iterations, total_backtracks, strict=True)
    return SolveResult(
        x=x,
        x_clique=x_clique,
        v=v,
        lam=lam,
        objective=p.objective_value(x),
        converged=status == "converged",
        status=status,
        iterations=iterations,
        total_backtracks=total_backtracks,
        trace=trace,
        accounting=report,
        network=setup.network,
        setup=setup,
    )


# ------------------ phase one ------------------


@dataclass
class PhaseOneInfo:
    pre_check: bool
    optimum: float | None
    margin: float
    iterations: int


def phase_one(
    p: CoupledProblem,
    params: SolverParams | None = None,
) -> tuple[np.ndarray, PhaseOneInfo]:
    """Find a strictly feasible point, or certify none exists.

    Minimises the sum of per-constraint slacks, each bounded below by
    ``-PHASE_ONE_SLACK`` so the problem stays well posed, and stops at the
    first iterate whose slacks are all negative: that point is strictly
    feasible.  The auxiliary solve keeps no run log.  Once a slack
    reaches its bound, nothing but the barrier acts on the ``x`` that its
    constraint can move away from, so each subproblem also pays
    ``PHASE_ONE_PROX / 2 * ||x_J||^2``; without it such ``x`` drift without
    bound (to 1e11 and beyond on random loose QPs) and the main solve
    starts from there.  The origin is tried first; if every inequality is
    already strictly negative there no auxiliary solve happens.  Equality
    constraints are ignored here (the main solver starts
    equality-infeasible without trouble).  ``PhaseOneInfo.optimum`` is the
    slack sum where the solve ended.
    """
    params = params or SolverParams()
    p.ensure_valid()
    origin = np.zeros(p.n)
    worst = p.max_inequality(origin)
    if worst < 0:
        return origin, PhaseOneInfo(True, None, -worst, 0)

    n = p.n
    m_total = p.m_total
    offsets: list[int] = []
    off = 0
    for sp in p.subproblems:
        offsets.append(off)
        off += sp.m
    subs: list[Subproblem] = []
    for k, sp in enumerate(p.subproblems):
        d = sp.dim
        slack_ids = [n + offsets[k] + j for j in range(sp.m)]
        scope = tuple(list(sp.J) + slack_ids)
        dim = d + sp.m
        qvec = np.zeros(dim)
        qvec[d:] = 1.0
        cons: list[model.Constraint] = []
        for j, con in enumerate(sp.inequalities):
            a = np.zeros(dim)
            a[:d] = con.a
            a[d + j] = -1.0
            if con.kind == "affine":
                cons.append(model.Constraint("affine", a, con.b))
            else:
                Q = np.zeros((dim, dim))
                Q[:d, :d] = con.Q
                cons.append(model.Constraint("quadratic", a, con.b, Q=Q))
        for j in range(sp.m):
            a = np.zeros(dim)
            a[d + j] = -1.0
            cons.append(model.Constraint("affine", a, -PHASE_ONE_SLACK))
        P = np.diag(np.r_[np.full(d, PHASE_ONE_PROX), np.zeros(sp.m)])
        subs.append(Subproblem(scope, model.QuadraticForm(P, qvec), cons))
    # symmetric PSD blocks padded with zeros; the slacks cover n..n+m_total-1
    aux = CoupledProblem(n + m_total, subs, validated=True)

    s0 = np.empty(m_total)
    pos = 0
    for sp in p.subproblems:
        xl = origin[list(sp.J)]
        for con in sp.inequalities:
            s0[pos] = max(con.value(xl), -PHASE_ONE_SLACK) + 1.0
            pos += 1
    x_aux = np.concatenate([origin, s0])
    result = solve(
        aux,
        params,
        x_aux,
        record_log=False,
        stop_when_negative=range(n, n + m_total),
    )
    x_cand = result.x[:n]
    optimum = float(result.x[n:].sum())
    margin = -p.max_inequality(x_cand)
    if margin > 0:
        return x_cand, PhaseOneInfo(False, optimum, margin, result.iterations)
    found = (
        f"largest constraint value {-margin:.3e} at slack sum {optimum:.6e}"
    )
    if result.status != "converged":
        raise NotStrictlyFeasibleError(
            f"phase one ended ({result.status} after {result.iterations} "
            f"iterations) without a strictly feasible point: {found}"
        )
    raise InfeasibleProblemError(
        f"no strictly feasible point: the slack minimisation converged with "
        f"{found}",
        certificate=optimum,
    )


# ------------------ multi-component front end ------------------


@dataclass
class ComponentRun:
    variables: list[int]
    subproblems: list[int]
    phase_one: PhaseOneInfo | None
    result: SolveResult


@dataclass
class Component:
    """A coupling component renumbered as a problem of its own."""

    variables: list[int]
    subproblems: list[int]
    problem: CoupledProblem


def split_components(p: CoupledProblem) -> list[Component]:
    """Split ``p`` into the connected components of its sparsity graph."""
    p.ensure_valid()
    g = chordal.sparsity_graph(p.scopes(), p.n)
    out: list[Component] = []
    for comp in chordal.connected_components(g):
        var_map = {v: t for t, v in enumerate(comp)}
        sub_ids = [k for k, sp in enumerate(p.subproblems) if sp.J[0] in var_map]
        subs = [copy.deepcopy(p.subproblems[k]) for k in sub_ids]
        for sp in subs:
            sp.J = tuple(var_map[v] for v in sp.J)
        # copied from the validated p, the scopes renumbered in order
        sub_p = CoupledProblem(len(comp), subs, validated=True)
        out.append(Component(list(comp), sub_ids, sub_p))
    return out


def component_start(
    comp: Component, x0: np.ndarray | None, params: SolverParams
) -> tuple[np.ndarray, PhaseOneInfo | None]:
    """The component's slice of ``x0`` where strictly feasible, else phase one's."""
    if x0 is not None:
        start = np.asarray(x0, dtype=float)[comp.variables]
        if comp.problem.max_inequality(start) < 0:
            return start, None
    return phase_one(comp.problem, params)


def solve_auto(
    p: CoupledProblem,
    params: SolverParams | None = None,
    x0: np.ndarray | None = None,
    record_log: bool = True,
) -> list[ComponentRun]:
    """Split into coupling components, find starts, and solve each.

    A given ``x0``, a :func:`finite_vector`, is used where strictly
    feasible; otherwise phase one supplies the start for that component.
    """
    params = params or SolverParams()
    comps = split_components(p)
    if x0 is not None:
        x0 = finite_vector(x0, p.n, "x0")
    runs: list[ComponentRun] = []
    for comp in comps:
        start, info = component_start(comp, x0, params)
        result = solve(comp.problem, params, start, record_log=record_log)
        runs.append(ComponentRun(comp.variables, comp.subproblems, info, result))
    return runs


def merge_solution(p: CoupledProblem, runs: Sequence[ComponentRun]) -> np.ndarray:
    x = np.zeros(p.n)
    for run in runs:
        x[run.variables] = run.result.x
    return x
