"""Distributed primal-dual interior-point method on a clique tree.

Each iteration takes a Mehrotra predictor-corrector step, run as a fixed
schedule of synchronous passes:

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
kernel call per :class:`model.ShapeGroup`; the pass handlers only eliminate
and fold the children's payloads into the same sums, in the same order.

The decrease test compares a candidate's residuals with those of the
current iterate.  The root keeps them from the pass that accepted the
iterate; for the start point one ``residual-partial`` pass runs in the
set-up phase, so every point is evaluated once.

Aggregation sums run in child-index order.  Residual norms are those of
the globally scattered residual vectors: scalar partial sums plus
separator-restricted vector pushes, so the root sees exactly the
centralized norm without any agent revealing local data beyond its
separators.
"""

from __future__ import annotations

import copy
import csv
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
        if self.eps <= 0 or self.eps_feas <= 0:
            raise ProblemFormatError("tolerances must be positive")
        if self.max_iters < 1:
            raise ProblemFormatError("max_iters must be at least 1")


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
class CliqueLocal:
    """One agent's slice of the problem: its layout and equality block."""

    lay: model.CliqueLayout
    eq_A: np.ndarray
    eq_b: np.ndarray


@dataclass
class SolverSetup:
    problem: CoupledProblem
    tree: chordal.CliqueTree
    assignment: Assignment
    locals: dict[int, CliqueLocal]
    groups: list[model.ShapeGroup]
    network: netsim.Network


def prepare(
    p: CoupledProblem,
    tree: chordal.CliqueTree | None = None,
    record_log: bool = False,
) -> SolverSetup:
    """Tree, network, agent assignment, layouts, reduced equality blocks
    and shape groups.

    Each agent's :class:`CliqueLocal` is built once and stored as ``loc``;
    its :func:`model.clique_layout` holds every index the passes read.
    The blocks come from the ``eq-constraint-push`` pass, the network's
    first: each agent stacks its rows with those its children pushed up,
    keeps the rows it can pin down over its eliminated variables and
    pushes the rest to its parent over the separator.  The feasible set of
    the stacked system is preserved; an inconsistent system raises at the
    root.  Each reduced block's rank over the eliminated variables is then
    checked once, in pass order.  Each agent keeps its KKT piece as
    ``qp``, with equality parts built here, and the cliques are grouped by
    :func:`model.shape_groups` for the local kernels.
    """
    p.validate()
    if tree is None:
        _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
    net = netsim.Network(tree, record_log=record_log)
    raw = model.assign(p, tree)
    locs: dict[int, CliqueLocal] = {}
    for i in range(tree.q):
        agents = [(k, p.subproblems[k]) for k in raw.phi[i]]
        locs[i] = CliqueLocal(model.clique_layout(tree, i, agents), *raw.local_eq[i])
        net.agents[i].put("loc", locs[i])

    def pre_up(env: netsim.AgentEnv, inbox):
        loc = env.get("loc")
        blocks_A = [loc.eq_A]
        blocks_b = [loc.eq_b]
        for e in inbox:
            block = np.zeros((e.payload["A"].shape[0], len(loc.lay.clique)))
            block[:, loc.lay.child_pos[e.src]] = e.payload["A"]
            blocks_A.append(block)
            blocks_b.append(e.payload["b"])
        loc.eq_A, loc.eq_b, push_A, push_b = model.reduce_equality_block(
            np.vstack(blocks_A),
            np.concatenate(blocks_b),
            loc.lay.zpos,
            loc.lay.ypos,
            is_root=env.parent is None,
        )
        if env.parent is None:
            return None
        return {"A": push_A, "b": push_b}

    net.run_up("eq-constraint-push", pre_up)
    for level in reversed(net.levels):
        for i in level:
            treeqp.check_equality_rank(locs[i].eq_A[:, locs[i].lay.zpos], i)
    for i, loc in locs.items():
        d, rows = len(loc.lay.clique), loc.eq_A.shape[0]
        data = treeqp.CliqueQpData(
            loc.lay.clique, np.zeros((d, d)), np.zeros(d), loc.eq_A, np.zeros(rows)
        )
        data.eq = treeqp.equality_parts(loc.lay, loc.eq_A)
        net.agents[i].put("qp", data)
    groups = model.shape_groups((i, loc.lay, loc.eq_A, loc.eq_b) for i, loc in locs.items())
    local_eq = {i: (loc.eq_A, loc.eq_b) for i, loc in locs.items()}
    a = Assignment({i: list(m) for i, m in raw.phi.items()}, local_eq)
    return SolverSetup(p, tree, a, locs, groups, net)


def start_vector(
    given: Mapping[int, np.ndarray] | None, key: int, size: int, name: str
) -> np.ndarray:
    """``given[key]`` checked to have ``size`` entries; all ones if none given."""
    if given is None:
        return np.ones(size)
    if key not in given:
        raise ProblemFormatError(f"{name} has no entry for {key}")
    vec = np.asarray(given[key], dtype=float)
    if vec.shape != (size,):
        raise ProblemFormatError(f"{name}[{key}] must have shape ({size},)")
    return vec.copy()


def initial_state(
    setup: SolverSetup,
    x0: np.ndarray,
    lam0: Mapping[int, np.ndarray] | None = None,
    v0: Mapping[int, np.ndarray] | None = None,
) -> None:
    """Check the start and write each agent's ``x``, ``v`` and ``lam``.

    ``lam0`` maps every subproblem to positive multipliers and ``v0``
    every clique to its equality multipliers; each defaults to all ones.
    """
    p = setup.problem
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (p.n,):
        raise ProblemFormatError(f"x0 must have shape ({p.n},)")
    lam = {}
    for k, sp in enumerate(p.subproblems):
        lam[k] = start_vector(lam0, k, sp.m, "lam0")
        if sp.m and lam[k].min() <= 0:
            raise ProblemFormatError(f"lam0[{k}] must be positive")
    for i, env in setup.network.agents.items():
        env.put("x", x0[list(setup.tree.cliques[i])])
        env.put("v", start_vector(v0, i, setup.locals[i].eq_A.shape[0], "v0"))
        env.put("lam", {k: lam[k] for k in setup.assignment.phi[i]})


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
# A kernel does one local step for a model.ShapeGroup: the members' data
# are stacked on a leading axis and each numpy call works row by row, so a
# member's result is bitwise the one it gets alone.  Products keep the
# per-clique operand layouts (np.matvec for M @ x, on swapped axes for
# M.T @ x, np.vecmat for x @ M, np.vecdot for x @ y) and columns are taken
# C-ordered, so each row goes through the same BLAS call (a strided dot
# sums in another order).  A point is evaluated once: its kernel keeps per
# subproblem (g, jac, grad, lam), the agent's ``at`` once adopted.


def _stack(rows: Sequence[np.ndarray]) -> np.ndarray:
    # a lone row is viewed: every kept row is C-ordered, like a stack
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _slots(rows: Iterable) -> list[np.ndarray]:
    """The members' per-subproblem sequences stacked position by position."""
    return [_stack(r) for r in zip(*rows)]


def _rows(stacks: Sequence[np.ndarray], B: int) -> list[tuple]:
    """Each member's rows of ``stacks``: the inverse of :func:`_slots`."""
    return list(zip(*stacks)) if stacks else [()] * B


def _at(envs: list[netsim.AgentEnv]) -> list[list[np.ndarray]]:
    return [_slots(slot) for slot in zip(*[e.get("at") for e in envs])]


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


def _qp_kernel(grp: model.ShapeGroup, envs: list[netsim.AgentEnv]) -> None:
    """Each clique's barrier KKT piece for the affine (uncentered) step, into
    its ``qp``; the point passed the start check or the acceptance test."""
    X = _stack([e.get("x") for e in envs])
    V = _stack([e.get("v") for e in envs])
    B, d = X.shape
    H = np.zeros((B, d, d))
    R = np.zeros((B, d))
    for s, (G, JAC, GRAD, L) in zip(grp.slots, _at(envs)):
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
    for e, h, r, beta in zip(envs, H, R, grp.eq_b - np.matvec(grp.eq_A, X)):
        data = e.get("qp")
        data.H, data.r, data.beta = h, r, beta


def _corrector_kernel(grp: model.ShapeGroup, envs: list[netsim.AgentEnv]) -> None:
    """Each agent's own share of the predictor step, kept as ``pred``.

    The affine multiplier direction is ``dlam = -lam - lam * J dx / g``.
    Along the affine direction ``g(x + a dx) = g + a J dx + a^2 c`` with
    ``c = dx'Q dx / 2``, so the surrogate gap ``-sum (lam + a dlam)'g(x + a dx)``
    is a cubic in ``a``.  ``pred``: the largest step keeping the own
    multipliers and ``g`` interior (``inf`` if none), the cubic's
    coefficients per subproblem with inequalities, the clique's centering
    and second-order right-hand sides as two columns, and ``dlam * J dx``.
    """
    DX, _ = _slots([e.get("aff") for e in envs])
    B, d = DX.shape
    amax = np.zeros(B) + np.inf
    gaps, socs = [], []
    R = np.zeros((B, d, 2))
    for s, (G, JAC, _, L) in zip(grp.slots, _at(envs)):
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
    for e, a, gap, r, soc in zip(envs, amax.tolist(), _rows(gaps, B), R, _rows(socs, B)):
        e.put("pred", (a, gap, r, soc))


def _step_kernel(grp: model.ShapeGroup, envs: list[netsim.AgentEnv]) -> None:
    """Each agent's ``dlam`` per subproblem for the corrected ``dx`` and the
    weights ``w = (1/t, 1)``, and its ``bound``: the largest step up to 1
    keeping its multipliers positive."""
    DX = _stack([e.get("dx") for e in envs])
    inv_t = _stack([e.get("w") for e in envs])[:, :1]
    B = len(envs)
    bound = np.zeros(B) + 1.0
    dlams = []
    socs = _slots([e.get("pred")[3] for e in envs])
    for s, (G, JAC, _, L), SOC in zip(grp.slots, _at(envs), socs):
        D = G
        if G.shape[1]:
            r_cent = -L * G - inv_t - SOC
            D = (r_cent - L * np.matvec(JAC, s.take(DX))) / G
            bound = np.minimum(bound, _least_ratio(L, -D))
        dlams.append(D)
    for e, keys, a, dlam in zip(envs, grp.keys, bound.tolist(), _rows(dlams, B)):
        e.put("dlam", dict(zip(keys, dlam)))
        e.put("bound", a)


def _residual_terms(grp: model.ShapeGroup, envs: list[netsim.AgentEnv], X, V, LAMS):
    """Each agent's ``own`` terms at ``(X, V, LAMS)``: whether its ``g`` is
    negative, its dual residual before the children's pushes, its squared
    primal residual and ``-lam'g`` per subproblem.  Returns each member's
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
        evals.append(_rows((G, JAC, GRAD, L), B))
    if grp.eq_A.shape[1]:
        W += np.matvec(grp.eq_A.swapaxes(1, 2), V)
    PR = np.matvec(grp.eq_A, X) - grp.eq_b
    own = zip((~(gmax >= 0)).tolist(), W, np.vecdot(PR, PR).tolist(), ETA.tolist())
    for e, terms in zip(envs, own):
        e.put("own", terms)
    return _rows(evals, B)


def _start_kernel(grp: model.ShapeGroup, envs: list[netsim.AgentEnv]) -> None:
    """:func:`_residual_terms` at the start point, kept as ``at``."""
    X = _stack([e.get("x") for e in envs])
    V = _stack([e.get("v") for e in envs])
    LAMS = _slots([e.get("lam").values() for e in envs])
    for e, at in zip(envs, _residual_terms(grp, envs, X, V, LAMS)):
        e.put("at", at)


def _candidate_kernel(grp: model.ShapeGroup, envs: list[netsim.AgentEnv]) -> None:
    """Each agent's candidate point at its step ``alpha_bar`` and
    :func:`_residual_terms` there; keeps both as ``cand``."""
    alpha = np.array([e.get("alpha_bar") for e in envs])[:, None]
    X = _stack([e.get("x") for e in envs]) + alpha * _stack([e.get("dx") for e in envs])
    V = _stack([e.get("v") for e in envs]) + alpha * _stack([e.get("dv") for e in envs])
    lams = zip(*(_slots([e.get(k).values() for e in envs]) for k in ("lam", "dlam")))
    LAMS = [L + alpha * D for L, D in lams]
    evals = _residual_terms(grp, envs, X, V, LAMS)
    for e, keys, x, v, lam, at in zip(envs, grp.keys, X, V, _rows(LAMS, len(envs)), evals):
        e.put("cand", (x, v, dict(zip(keys, lam)), at))


def _residual_fold(lay: model.CliqueLayout, own: tuple, inbox: list[netsim.Envelope]) -> dict:
    """One agent's share at a point: the squared residual norms and the gap
    ``-sum lam'g`` over the subtree, and ``push``, the dual residual on the
    separator; ``ok = False`` with zero sums outside the strict interior."""
    ok, w, own_p, own_eta = own
    if not (ok and all([e.payload["ok"] for e in inbox])):
        return {"ok": False, "p": 0.0, "d": 0.0, "push": np.zeros(len(lay.sep)), "eta": 0.0}
    p_sq = d_sq = eta = 0.0
    for e in inbox:
        p_sq += e.payload["p"]
        d_sq += e.payload["d"]
        eta += e.payload["eta"]
        w[lay.child_pos[e.src]] += e.payload["push"]
    p_sq += own_p
    own_w = w[lay.zpos]
    d_sq += float(own_w @ own_w)
    for e in own_eta:
        eta += e
    return {"ok": True, "p": p_sq, "d": d_sq, "push": w[lay.ypos], "eta": eta}


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
        locs = self.setup.locals
        for c, loc in locs.items():
            par = self.setup.tree.parent[c]
            if par is not None and loc.lay.sep:
                a = self.x_clique[c][loc.lay.ypos]
                b = self.x_clique[par][locs[par].lay.child_pos[c]]
                worst = max(worst, float(np.max(np.abs(a - b))))
        return worst


def solve(
    p: CoupledProblem,
    params: SolverParams | None = None,
    x0: np.ndarray | None = None,
    lam0: Mapping[int, np.ndarray] | None = None,
    v0: Mapping[int, np.ndarray] | None = None,
    tree: chordal.CliqueTree | None = None,
    record_log: bool = True,
    stop_when_negative: Iterable[int] = (),
) -> SolveResult:
    """Run the distributed interior-point method through the simulator.

    ``x0`` must be strictly feasible for the inequalities (equalities may
    start violated); obtain one via :func:`phase_one` if needed.  With
    ``stop_when_negative`` given, the solve also ends, with status
    ``"negative"``, at the first accepted iterate where all those
    variables are negative; each agent checks the ones it owns.
    """
    params = params or SolverParams()
    setup = prepare(p, tree, record_log)
    if x0 is None:
        raise NotStrictlyFeasibleError(
            "a strictly feasible x0 is required; obtain one via phase_one"
        )
    initial_state(setup, x0, lam0, v0)
    worst = p.max_inequality(x0)
    if worst >= 0:
        raise NotStrictlyFeasibleError(
            f"x0 violates strict feasibility (max g = {worst:.3e}); run phase_one"
        )
    net = setup.network
    tree = setup.tree
    root = tree.root
    m_total = p.m_total
    scale = _step_scale(m_total)

    watched = set(stop_when_negative)
    if watched:
        for i, env in net.agents.items():
            lay = setup.locals[i].lay
            env.put("watch", [t for t, u in zip(lay.zpos, lay.elim) if u in watched])

    groups = setup.groups

    def residual_up(env, inbox):
        return _residual_fold(env.get("loc").lay, env.get("own"), inbox)

    # the start point's residuals, the first decrease-test reference; after
    # that the root keeps the accepted candidate's
    net.run_local(groups, _start_kernel)
    ref = net.run_up("residual-partial", residual_up)

    def dir_up(env, inbox):
        msg, rec = treeqp.eliminate(
            env.get("loc").lay, env.get("qp"), [(e.src, e.payload) for e in inbox]
        )
        env.put("rec", rec)
        env.count_factorization()
        return msg if env.parent is not None else None

    def dir_down(env, envelope):
        y = envelope.payload if envelope is not None else np.zeros(0)
        rec = env.get("rec")
        aff = treeqp.recover_clique(rec, y)
        env.put("aff", aff)
        return {c: aff[0][rec.lay.child_pos[c]] for c in env.children}

    def corr_up(env, inbox):
        amax_own, own_gaps, r, _ = env.get("pred")
        amax = 1.0
        gap = np.zeros(4)
        for e in inbox:
            amax = min(amax, e.payload["alpha"])
            gap += e.payload["gap"]
        amax = min(amax, amax_own)
        for row in own_gaps:
            gap -= row
        q, h1, h2 = treeqp.eliminate_rhs(
            env.get("rec"), r, [(e.src, e.payload["msg"]) for e in inbox]
        )
        env.put("corr", (h1, h2))
        return {"alpha": amax, "gap": gap, "msg": q}

    def corr_down(env, envelope):
        if envelope is None:
            t, y = env.get("t"), np.zeros(0)
        else:
            t, y = envelope.payload["t"], envelope.payload["y"]
        # corrector = centering column / t + second-order column
        w = np.array([0.0 if math.isinf(t) else 1.0 / t, 1.0])
        env.put("w", w)
        h1, h2 = env.get("corr")
        rec = env.get("rec")
        dx_c, dv_c = treeqp.recover_clique(rec, y, (h1 @ w, h2 @ w))
        dx_aff, dv_aff = env.get("aff")
        env.put("dx", dx_aff + dx_c)
        env.put("dv", dv_aff + dv_c)
        return {c: {"t": t, "y": dx_c[rec.lay.child_pos[c]]} for c in env.children}

    def bound_up(env, inbox):
        alpha = scale * env.get("bound")
        for e in inbox:
            alpha = min(alpha, e.payload)
        return alpha

    def alpha_down(env, envelope):
        a = envelope.payload if envelope is not None else env.get("alpha_bar")
        env.put("alpha_bar", a)
        return {c: a for c in env.children}

    def cand_up(env, inbox):
        out = _residual_fold(env.get("loc").lay, env.get("own"), inbox)
        if watched:
            out["negative"] = all(e.payload["negative"] for e in inbox) and bool(
                np.all(env.get("cand")[0][env.get("watch")] < 0)
            )
        return out

    def accept_down(env, envelope):
        stop = envelope.payload if envelope is not None else env.get("stop")
        x, v, lam, at = env.get("cand")
        env.put("x", x)
        env.put("v", v)
        env.put("lam", lam)
        env.put("at", at)
        return {c: stop for c in env.children}

    net.begin_phase("solve")
    trace = ConvergenceTrace()
    total_backtracks = 0
    status = "max_iters"
    iterations = 0
    for it in range(1, params.max_iters + 1):
        iterations = it
        net.run_local(groups, _qp_kernel)
        net.run_up("qp-message", dir_up)
        net.run_down("separator-solution", dir_down)
        net.run_local(groups, _corrector_kernel)
        pred = net.run_up("corrector-message", corr_up)
        alpha_aff = pred["alpha"]
        c0, c1, c2, c3 = pred["gap"].tolist()
        eta_aff = c0 + alpha_aff * (c1 + alpha_aff * (c2 + alpha_aff * c3))
        t = _next_t(c0, eta_aff, m_total)
        net.agents[root].put("t", t)
        net.run_down("corrector-solution", corr_down)
        net.run_local(groups, _step_kernel)
        alpha = net.run_up("alpha-bound", bound_up)
        net.agents[root].put("alpha_bar", alpha)
        net.run_down("alpha-broadcast", alpha_down)
        backtracks = 0
        while True:
            net.run_local(groups, _candidate_kernel)
            cand = net.run_up("residual-partial", cand_up)
            if _accept_test(cand, ref, alpha, params):
                break
            alpha *= params.beta
            backtracks += 1
            if alpha < ALPHA_STALL:
                raise LineSearchStallError(
                    f"line search stalled at iteration {it} (alpha {alpha:.3e})"
                )
            net.agents[root].put("alpha_bar", alpha)
            net.run_down("alpha-broadcast", alpha_down)
        eta = cand["eta"]
        stop = (
            math.sqrt(cand["p"]) <= params.eps_feas
            and math.sqrt(cand["d"]) <= params.eps_feas
            and eta <= params.eps
        )
        negative = bool(watched) and cand["negative"]
        net.agents[root].put("stop", stop or negative)
        net.run_down("stop-broadcast", accept_down)
        ref = cand
        trace.rows.append(
            TraceRow(
                it,
                math.sqrt(cand["p"]),
                math.sqrt(cand["d"]),
                eta,
                alpha,
                backtracks,
                t,
                net.mp_steps["solve"],
                eta_aff,
            )
        )
        total_backtracks += backtracks
        if stop or negative:
            status = "converged" if stop else "negative"
            break

    x_clique = {i: net.agents[i].get("x") for i in range(tree.q)}
    v_out = {i: net.agents[i].get("v") for i in range(tree.q)}
    lam_out: dict[int, np.ndarray] = {}
    for i in range(tree.q):
        lam_out.update(net.agents[i].get("lam"))
    x_global = np.zeros(p.n)
    for i in range(tree.q):
        lay = setup.locals[i].lay
        x_global[list(lay.elim)] = x_clique[i][lay.zpos]
    report = netsim.accounting(net, iterations, total_backtracks, strict=True)
    return SolveResult(
        x=x_global,
        x_clique=x_clique,
        v=v_out,
        lam=lam_out,
        objective=p.objective_value(x_global),
        converged=status == "converged",
        status=status,
        iterations=iterations,
        total_backtracks=total_backtracks,
        trace=trace,
        accounting=report,
        network=net,
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
    p.validate()
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
    aux = CoupledProblem(n + m_total, subs)  # validated by solve's prepare

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
    p.validate()
    g = chordal.sparsity_graph(p.scopes(), p.n)
    out: list[Component] = []
    for comp in chordal.connected_components(g):
        var_map = {v: t for t, v in enumerate(comp)}
        sub_ids = [k for k, sp in enumerate(p.subproblems) if sp.J[0] in var_map]
        subs = [copy.deepcopy(p.subproblems[k]) for k in sub_ids]
        for sp in subs:
            sp.J = tuple(var_map[v] for v in sp.J)
        # copied from the validated p; phase_one or prepare validates it next
        sub_p = CoupledProblem(len(comp), subs)
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

    A given ``x0`` is used where strictly feasible; otherwise phase one
    supplies the start for that component.
    """
    params = params or SolverParams()
    comps = split_components(p)
    if x0 is not None and np.shape(x0) != (p.n,):
        raise ProblemFormatError(f"x0 must have shape ({p.n},)")
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
