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
5. upward (``alpha-bound``): multiplier-positivity step bounds and current
   residual norms aggregate to the root;
6. downward (``alpha-broadcast``): the root broadcasts the candidate step;
7. upward (``residual-partial``): candidate-point residuals, interiority
   flags and the surrogate gap aggregate; the root either accepts (one
   final ``stop-broadcast``) or shrinks the step and repeats 6-7.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from treeipm import chordal, model, netsim, treeqp
from treeipm.errors import (
    InfeasibleProblemError,
    LineSearchStallError,
    NotStrictlyFeasibleError,
    ProblemFormatError,
)
from treeipm.model import (
    Assignment,
    CoupledProblem,
    Subproblem,
    eval_subproblem,
    positions,
)

ALPHA_STALL = 1e-12
PHASE_ONE_PROX = 1e-6


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


TRACE_COLUMNS = (
    "iter",
    "r_primal_norm",
    "r_dual_norm",
    "eta_hat",
    "alpha",
    "backtracks",
    "t",
    "mp_steps_cum",
    "eta_aff",
)


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
        return (
            self.iteration,
            self.r_primal_norm,
            self.r_dual_norm,
            self.eta_hat,
            self.alpha,
            self.backtracks,
            self.t,
            self.mp_steps_cum,
            self.eta_aff,
        )


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
            rows = [
                TraceRow(
                    int(vals[0]),
                    float(vals[1]),
                    float(vals[2]),
                    float(vals[3]),
                    float(vals[4]),
                    int(vals[5]),
                    float(vals[6]),
                    int(vals[7]),
                    float(vals[8]),
                )
                for vals in reader
            ]
        return ConvergenceTrace(rows)


# ------------------ static per-clique context ------------------


@dataclass
class CliqueLocal:
    """Everything one agent needs about its own slice of the problem."""

    index: int
    clique: chordal.IndexSet
    sep: chordal.IndexSet
    sep_pos: np.ndarray
    elim_pos: np.ndarray
    subs: list[tuple[int, Subproblem, np.ndarray]]
    eq_A: np.ndarray
    eq_b: np.ndarray
    child_sep_pos: dict[int, np.ndarray]


@dataclass
class SolverSetup:
    problem: CoupledProblem
    tree: chordal.CliqueTree
    assignment: Assignment
    locals: dict[int, CliqueLocal]
    m_total: int
    n: int


@dataclass
class IterateState:
    """Per-clique ``x`` and ``v`` slices and per-subproblem ``lam``."""

    x: dict[int, np.ndarray]
    v: dict[int, np.ndarray]
    lam: dict[int, np.ndarray]


def _build_locals(
    p: CoupledProblem, tree: chordal.CliqueTree, a: Assignment
) -> dict[int, CliqueLocal]:
    locs: dict[int, CliqueLocal] = {}
    for i in range(tree.q):
        clique = tree.cliques[i]
        par = tree.parent[i]
        sep = tree.separator(i, par) if par is not None else ()
        sep_set = set(sep)
        elim_pos = np.array(
            [t for t, v in enumerate(clique) if v not in sep_set], dtype=int
        )
        subs = [
            (k, p.subproblems[k], positions(p.subproblems[k].J, clique))
            for k in a.phi[i]
        ]
        eq_A, eq_b = a.local_eq[i]
        child_sep_pos = {
            c: positions(tree.separator(c, i), clique) for c in tree.children[i]
        }
        locs[i] = CliqueLocal(
            i,
            clique,
            sep,
            positions(sep, clique),
            elim_pos,
            subs,
            eq_A,
            eq_b,
            child_sep_pos,
        )
    return locs


def prepare(
    p: CoupledProblem,
    tree: chordal.CliqueTree | None = None,
    net: netsim.Network | None = None,
) -> SolverSetup:
    """Tree, agent assignment and the reduced equality blocks.

    The blocks come from the ``eq-constraint-push`` pass, run on ``net``
    (by default a fresh network without a run log): each agent stacks its
    rows with those its children pushed up, keeps the rows it can pin
    down over its eliminated variables and pushes the rest to its parent
    over the separator.  The feasible set of the stacked system is
    preserved; an inconsistent system raises at the root.
    """
    p.validate()
    if tree is None:
        _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
    if net is None:
        net = netsim.Network(tree, record_log=False)
    raw = model.assign(p, tree)
    for i in range(tree.q):
        env = net.agents[i]
        par = tree.parent[i]
        env.put("eq_raw", raw.local_eq[i])
        env.put("sep", tree.separator(i, par) if par is not None else ())

    def pre_up(env: netsim.AgentEnv, inbox):
        A, b = env.get("eq_raw")
        clique = env.clique
        blocks_A = [A]
        blocks_b = [b]
        for e in inbox:
            child_sep = e.payload["sep"]
            block = np.zeros((e.payload["A"].shape[0], len(clique)))
            block[:, positions(child_sep, clique)] = e.payload["A"]
            blocks_A.append(block)
            blocks_b.append(e.payload["b"])
        A = np.vstack(blocks_A)
        b = np.concatenate(blocks_b)
        sep = env.get("sep")
        sep_set = set(sep)
        elim_pos = np.array(
            [t for t, vv in enumerate(clique) if vv not in sep_set], dtype=int
        )
        keep_pos = positions(sep, clique)
        kept_A, kept_b, push_A, push_b = model.reduce_equality_block(
            A, b, elim_pos, keep_pos, is_root=env.parent is None
        )
        env.put("eq", (kept_A, kept_b))
        if env.parent is None:
            return None
        return {"A": push_A, "b": push_b, "sep": sep}

    net.run_up("eq-constraint-push", pre_up)
    local_eq = {i: net.agents[i].get("eq") for i in range(tree.q)}
    a = Assignment({i: list(m) for i, m in raw.phi.items()}, local_eq)
    return SolverSetup(p, tree, a, _build_locals(p, tree, a), p.m_total, p.n)


def initial_state(
    setup: SolverSetup,
    x0: np.ndarray,
    lam0: Mapping[int, np.ndarray] | float | None = None,
    v0: Mapping[int, np.ndarray] | float | None = None,
) -> IterateState:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (setup.n,):
        raise ProblemFormatError(f"x0 must have shape ({setup.n},)")
    x = {
        i: x0[list(setup.tree.cliques[i])].copy() for i in range(setup.tree.q)
    }
    lam: dict[int, np.ndarray] = {}
    for k, sp in enumerate(setup.problem.subproblems):
        if isinstance(lam0, Mapping):
            vec = np.asarray(lam0[k], dtype=float)
        else:
            vec = np.full(sp.m, 1.0 if lam0 is None else float(lam0))
        if vec.shape != (sp.m,) or (vec.size and vec.min() <= 0):
            raise ProblemFormatError(f"lam0[{k}] must be positive with shape ({sp.m},)")
        lam[k] = vec.copy()
    v: dict[int, np.ndarray] = {}
    for i in range(setup.tree.q):
        rows = setup.locals[i].eq_A.shape[0]
        if isinstance(v0, Mapping):
            vec = np.asarray(v0[i], dtype=float)
        else:
            vec = np.full(rows, 1.0 if v0 is None else float(v0))
        if vec.shape != (rows,):
            raise ProblemFormatError(f"v0[{i}] must have shape ({rows},)")
        v[i] = vec.copy()
    return IterateState(x, v, lam)


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


# ------------------ per-clique computations ------------------


def _clique_qp(
    loc: CliqueLocal,
    x: np.ndarray,
    v: np.ndarray,
    lam: Mapping[int, np.ndarray],
) -> tuple[treeqp.CliqueQpData, dict[int, model.SubproblemEval]]:
    """One clique's barrier KKT piece for the affine (uncentered) step."""
    d = len(loc.clique)
    H = np.zeros((d, d))
    r = np.zeros(d)
    evals: dict[int, model.SubproblemEval] = {}
    for k, sp, pos in loc.subs:
        ev = eval_subproblem(sp, x[pos])
        evals[k] = ev
        if ev.g.size and ev.g.max() >= 0:
            raise NotStrictlyFeasibleError(
                f"iterate left the strict interior at subproblem {k} "
                f"(max g = {ev.g.max():.3e})"
            )
        lk = lam[k]
        Hk = ev.hess.copy()
        for lj, Qj in zip(lk, ev.con_hess):
            if Qj.any():
                Hk = Hk + lj * Qj
        if ev.g.size:
            Hk = Hk - ev.jac.T @ (ev.jac * (lk / ev.g)[:, None])
            r_cent = -lk * ev.g
            rk = ev.grad + ev.jac.T @ lk + ev.jac.T @ (r_cent / ev.g)
        else:
            rk = ev.grad
        H[np.ix_(pos, pos)] += Hk
        r[pos] += rk
    if loc.eq_A.shape[0]:
        r += loc.eq_A.T @ v
    beta = loc.eq_b - loc.eq_A @ x
    return treeqp.CliqueQpData(loc.clique, H, r, loc.eq_A, beta), evals


def _clique_dlam(
    loc: CliqueLocal,
    evals: Mapping[int, model.SubproblemEval],
    lam: Mapping[int, np.ndarray],
    dx: np.ndarray,
    t: float,
    soc: Mapping[int, np.ndarray],
) -> dict[int, np.ndarray]:
    """Multiplier direction; ``soc`` is the corrector's second-order term."""
    inv_t = 0.0 if math.isinf(t) else 1.0 / t
    out: dict[int, np.ndarray] = {}
    for k, sp, pos in loc.subs:
        ev = evals[k]
        if ev.g.size == 0:
            out[k] = np.zeros(0)
            continue
        lk = lam[k]
        r_cent = -lk * ev.g - inv_t - soc[k]
        out[k] = (r_cent - lk * (ev.jac @ dx[pos])) / ev.g
    return out


def _corrector_local(
    loc: CliqueLocal,
    evals: Mapping[int, model.SubproblemEval],
    lam: Mapping[int, np.ndarray],
    dx_aff: np.ndarray,
    children: Sequence[tuple[int, dict]],
) -> tuple[dict, np.ndarray, dict[int, np.ndarray]]:
    """One agent's share of the predictor step and the corrector's data.

    The affine multiplier direction is ``dlam = -lam - lam * J dx / g``.
    Along the affine direction ``g(x + a dx) = g + a J dx + a^2 c`` with
    ``c = dx'Q dx / 2``, so the surrogate gap ``-sum (lam + a dlam)'g(x + a dx)``
    is a cubic in ``a``.  Returns the aggregate for the parent (the
    largest step keeping the multipliers and ``g`` interior, and the
    cubic's coefficients), the clique's linear terms for the centering and
    second-order right-hand sides as two columns, and the second-order
    term ``dlam * J dx`` per subproblem.
    """
    amax = 1.0
    gap = np.zeros(4)
    for _, pl in children:
        amax = min(amax, pl["alpha"])
        gap += pl["gap"]
    r = np.zeros((len(loc.clique), 2))
    soc: dict[int, np.ndarray] = {}
    for k, sp, pos in loc.subs:
        ev = evals[k]
        g = ev.g
        if g.size == 0:
            soc[k] = g
            continue
        lk = lam[k]
        dxk = dx_aff[pos]
        jdx = ev.jac @ dxk
        dk = (-lk * g - lk * jdx) / g
        curv = np.array(
            [
                0.5 * dxk @ c.Q @ dxk if c.kind == "quadratic" else 0.0
                for c in sp.inequalities
            ]
        )
        # ratios for lam + a dlam >= 0 and for the positive root of
        # g + a jdx + a^2 curv, the latter in the cancellation-free form
        num = np.concatenate([lk, -2.0 * g])
        den = np.concatenate([-dk, jdx + np.sqrt(jdx * jdx - 4.0 * curv * g)])
        mask = den > 0
        if mask.any():
            amax = min(amax, float(np.min(num[mask] / den[mask])))
        # rows (lam, dlam) times columns (g, jdx, curv) give the cubic
        P = np.stack([lk, dk]) @ np.stack([g, jdx, curv], axis=1)
        gap -= (P[0, 0], P[0, 1] + P[1, 0], P[0, 2] + P[1, 1], P[1, 2])
        soc[k] = dk * jdx
        r[pos] -= ev.jac.T @ (np.stack([np.ones_like(g), soc[k]], axis=1) / g[:, None])
    return {"alpha": amax, "gap": gap}, r, soc


def _dual_vector(
    loc: CliqueLocal,
    evals: Mapping[int, model.SubproblemEval],
    v: np.ndarray,
    lam: Mapping[int, np.ndarray],
) -> np.ndarray:
    w = np.zeros(len(loc.clique))
    for k, _, pos in loc.subs:
        ev = evals[k]
        w[pos] += ev.grad + (ev.jac.T @ lam[k] if ev.g.size else 0.0)
    if loc.eq_A.shape[0]:
        w += loc.eq_A.T @ v
    return w


def _stage1_local(
    loc: CliqueLocal,
    evals: Mapping[int, model.SubproblemEval],
    x: np.ndarray,
    v: np.ndarray,
    lam: Mapping[int, np.ndarray],
    dlam: Mapping[int, np.ndarray],
    children: Sequence[tuple[int, dict]],
    scale: float,
) -> dict:
    amax = 1.0
    for k, _, _ in loc.subs:
        d = dlam[k]
        mask = d < 0
        if mask.any():
            amax = min(amax, float(np.min(-lam[k][mask] / d[mask])))
    alpha = scale * amax
    for _, pl in children:
        alpha = min(alpha, pl["alpha"])
    w = _dual_vector(loc, evals, v, lam)
    p_sq = 0.0
    d_sq = 0.0
    for src, pl in children:
        p_sq += pl["p"]
        d_sq += pl["d"]
        w[loc.child_sep_pos[src]] += pl["push"]
    own_pr = loc.eq_A @ x - loc.eq_b
    p_sq += float(own_pr @ own_pr)
    own_w = w[loc.elim_pos]
    d_sq += float(own_w @ own_w)
    return {"alpha": alpha, "p": p_sq, "d": d_sq, "push": w[loc.sep_pos]}


def _candidate_local(
    loc: CliqueLocal,
    x: np.ndarray,
    v: np.ndarray,
    lam: Mapping[int, np.ndarray],
    dx: np.ndarray,
    dv: np.ndarray,
    dlam: Mapping[int, np.ndarray],
    alpha: float,
    children: Sequence[tuple[int, dict]],
) -> dict:
    dead = {
        "ok": False,
        "p": 0.0,
        "d": 0.0,
        "push": np.zeros(len(loc.sep)),
        "eta": 0.0,
    }
    if not all(pl["ok"] for _, pl in children):
        return dead
    x_hat = x + alpha * dx
    evals: dict[int, model.SubproblemEval] = {}
    for k, sp, pos in loc.subs:
        ev = eval_subproblem(sp, x_hat[pos])
        if ev.g.size and ev.g.max() >= 0:
            return dead
        evals[k] = ev
    v_hat = v + alpha * dv
    lam_hat = {k: lam[k] + alpha * dlam[k] for k, _, _ in loc.subs}
    w = _dual_vector(loc, evals, v_hat, lam_hat)
    p_sq = 0.0
    d_sq = 0.0
    eta = 0.0
    for src, pl in children:
        p_sq += pl["p"]
        d_sq += pl["d"]
        eta += pl["eta"]
        w[loc.child_sep_pos[src]] += pl["push"]
    own_pr = loc.eq_A @ x_hat - loc.eq_b
    p_sq += float(own_pr @ own_pr)
    own_w = w[loc.elim_pos]
    d_sq += float(own_w @ own_w)
    for k, _, _ in loc.subs:
        eta += float(-(lam_hat[k] @ evals[k].g))
    return {"ok": True, "p": p_sq, "d": d_sq, "push": w[loc.sep_pos], "eta": eta}


def _accept_test(
    cand: Mapping,
    alpha: float,
    p_old_sq: float,
    d_old_sq: float,
    params: SolverParams,
) -> bool:
    if not cand["ok"]:
        return False
    lhs = cand["p"] + cand["d"]
    rhs = (1.0 - params.gamma * alpha) ** 2 * (p_old_sq + d_old_sq)
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
        tree = self.setup.tree
        for i, j in tree.edges:
            sep = tree.separator(i, j)
            a = self.x_clique[i][positions(sep, tree.cliques[i])]
            b = self.x_clique[j][positions(sep, tree.cliques[j])]
            if sep:
                worst = max(worst, float(np.max(np.abs(a - b))))
        return worst


def solve(
    p: CoupledProblem,
    params: SolverParams | None = None,
    x0: np.ndarray | None = None,
    lam0: Mapping[int, np.ndarray] | float | None = None,
    v0: Mapping[int, np.ndarray] | float | None = None,
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
    p.validate()
    if x0 is None:
        raise NotStrictlyFeasibleError(
            "a strictly feasible x0 is required; obtain one via phase_one"
        )
    x0 = np.asarray(x0, dtype=float)
    worst = p.max_inequality(x0)
    if worst >= 0:
        raise NotStrictlyFeasibleError(
            f"x0 violates strict feasibility (max g = {worst:.3e}); run phase_one"
        )
    if tree is None:
        _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)

    net = netsim.Network(tree, record_log=record_log)
    setup = prepare(p, tree, net)
    state = initial_state(setup, x0, lam0, v0)
    root = tree.root
    scale = _step_scale(setup.m_total)

    watched = set(stop_when_negative)
    for i in range(tree.q):
        env = net.agents[i]
        loc = setup.locals[i]
        env.put("loc", loc)
        if watched:
            env.put("watch", [t for t in loc.elim_pos if loc.clique[t] in watched])
        env.put("x", state.x[i])
        env.put("v", state.v[i])
        env.put("lam", {k: state.lam[k] for k in setup.assignment.phi[i]})

    def dir_up(env, inbox):
        loc = env.get("loc")
        data, evals = _clique_qp(loc, env.get("x"), env.get("v"), env.get("lam"))
        env.put("evals", evals)
        msg, rec = treeqp.eliminate(
            data, [e.payload for e in inbox], loc.sep, clique_index=env.id
        )
        env.put("rec", rec)
        env.count_factorization()
        return msg if env.parent is not None else None

    def dir_down(env, envelope):
        loc = env.get("loc")
        y = envelope.payload if envelope is not None else np.zeros(0)
        aff = treeqp.recover_clique(env.get("rec"), y)
        env.put("aff", aff)
        return {c: aff[0][loc.child_sep_pos[c]] for c in env.children}

    def corr_up(env, inbox):
        loc = env.get("loc")
        rec = env.get("rec")
        agg, r, soc = _corrector_local(
            loc,
            env.get("evals"),
            env.get("lam"),
            env.get("aff")[0],
            [(e.src, e.payload) for e in inbox],
        )
        q, h1, h2 = treeqp.eliminate_rhs(rec, r, [e.payload["msg"] for e in inbox])
        env.put("corr", (h1, h2, soc))
        return {**agg, "msg": (loc.sep, q)}

    def corr_down(env, envelope):
        loc = env.get("loc")
        if envelope is None:
            t, y = env.get("t"), np.zeros(0)
        else:
            t, y = envelope.payload["t"], envelope.payload["y"]
        # corrector = centering column / t + second-order column
        w = np.array([0.0 if math.isinf(t) else 1.0 / t, 1.0])
        h1, h2, soc = env.get("corr")
        dx_c, dv_c = treeqp.recover_clique(env.get("rec"), y, (h1 @ w, h2 @ w))
        dx_aff, dv_aff = env.get("aff")
        dx = dx_aff + dx_c
        env.put("dx", dx)
        env.put("dv", dv_aff + dv_c)
        env.put(
            "dlam", _clique_dlam(loc, env.get("evals"), env.get("lam"), dx, t, soc)
        )
        return {
            c: {"t": t, "y": dx_c[loc.child_sep_pos[c]]} for c in env.children
        }

    def stage1_up(env, inbox):
        loc = env.get("loc")
        return _stage1_local(
            loc,
            env.get("evals"),
            env.get("x"),
            env.get("v"),
            env.get("lam"),
            env.get("dlam"),
            [(e.src, e.payload) for e in inbox],
            scale,
        )

    def alpha_down(env, envelope):
        a = envelope.payload if envelope is not None else env.get("alpha_bar")
        env.put("alpha_bar", a)
        return {c: a for c in env.children}

    def cand_up(env, inbox):
        loc = env.get("loc")
        x, dx, alpha = env.get("x"), env.get("dx"), env.get("alpha_bar")
        out = _candidate_local(
            loc,
            x,
            env.get("v"),
            env.get("lam"),
            dx,
            env.get("dv"),
            env.get("dlam"),
            alpha,
            [(e.src, e.payload) for e in inbox],
        )
        if watched:
            watch = env.get("watch")
            out["negative"] = all(e.payload["negative"] for e in inbox) and bool(
                np.all(x[watch] + alpha * dx[watch] < 0)
            )
        return out

    def accept_down(env, envelope):
        acc = envelope.payload if envelope is not None else env.get("accept")
        loc = env.get("loc")
        a = acc["alpha"]
        env.put("x", env.get("x") + a * env.get("dx"))
        env.put("v", env.get("v") + a * env.get("dv"))
        lam = env.get("lam")
        dlam = env.get("dlam")
        env.put("lam", {k: lam[k] + a * dlam[k] for k in lam})
        return {c: acc for c in env.children}

    net.begin_phase("solve")
    trace = ConvergenceTrace()
    total_backtracks = 0
    status = "max_iters"
    iterations = 0
    for it in range(1, params.max_iters + 1):
        iterations = it
        net.run_up("qp-message", dir_up)
        net.run_down("separator-solution", dir_down)
        pred = net.run_up("corrector-message", corr_up)
        alpha_aff = pred["alpha"]
        c0, c1, c2, c3 = pred["gap"].tolist()
        eta_aff = c0 + alpha_aff * (c1 + alpha_aff * (c2 + alpha_aff * c3))
        t = _next_t(c0, eta_aff, setup.m_total)
        net.agents[root].put("t", t)
        net.run_down("corrector-solution", corr_down)
        st1 = net.run_up("alpha-bound", stage1_up)
        alpha = st1["alpha"]
        p_old_sq, d_old_sq = st1["p"], st1["d"]
        net.agents[root].put("alpha_bar", alpha)
        net.run_down("alpha-broadcast", alpha_down)
        backtracks = 0
        while True:
            cand = net.run_up("residual-partial", cand_up)
            if _accept_test(cand, alpha, p_old_sq, d_old_sq, params):
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
        net.agents[root].put("accept", {"alpha": alpha, "stop": stop or negative})
        net.run_down("stop-broadcast", accept_down)
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
        loc = setup.locals[i]
        owned = [loc.clique[t] for t in loc.elim_pos]
        x_global[owned] = x_clique[i][loc.elim_pos]
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
    eps_slack: float = 1e-3,
    record_log: bool = False,
) -> tuple[np.ndarray, PhaseOneInfo]:
    """Find a strictly feasible point, or certify none exists.

    Minimises the sum of per-constraint slacks, bounded below so the
    problem stays well posed, and stops at the first iterate whose slacks
    are all negative: that point is strictly feasible.  Once a slack
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
            cons.append(model.Constraint("affine", a, -eps_slack))
        P = np.diag(np.r_[np.full(d, PHASE_ONE_PROX), np.zeros(sp.m)])
        subs.append(Subproblem(scope, model.QuadraticForm(P, qvec), cons))
    aux = CoupledProblem(n + m_total, subs).validate()

    s0 = np.empty(m_total)
    pos = 0
    for sp in p.subproblems:
        xl = origin[list(sp.J)]
        for con in sp.inequalities:
            s0[pos] = max(con.value(xl), -eps_slack) + 1.0
            pos += 1
    x_aux = np.concatenate([origin, s0])
    result = solve(
        aux,
        params,
        x_aux,
        record_log=record_log,
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
        sub_p = CoupledProblem(len(comp), subs).validate()
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
    runs: list[ComponentRun] = []
    for comp in split_components(p):
        start, info = component_start(comp, x0, params)
        result = solve(comp.problem, params, start, record_log=record_log)
        runs.append(ComponentRun(comp.variables, comp.subproblems, info, result))
    return runs


def merge_solution(p: CoupledProblem, runs: Sequence[ComponentRun]) -> np.ndarray:
    x = np.zeros(p.n)
    for run in runs:
        x[run.variables] = run.result.x
    return x
