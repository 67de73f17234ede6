"""Problem containers, agent assignment, equality preprocessing, benchmarks.

A coupled problem is a list of subproblems, each owning a scope ``J`` of
global variable indices, a convex quadratic objective, convex inequality
constraints and affine equality constraints, all expressed over the local
scope.  Subproblems become agents; agents are grouped onto the cliques of
a chordal embedding of the shared-variable graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg

from treeipm.chordal import CliqueTree, IndexSet, index_set
from treeipm.errors import (
    InfeasibleEqualityError,
    ProblemFormatError,
)

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-9
RANK_TOL = 1e-10
ROOT_EQ_TOL = 1e-8


def positions(sub: Sequence[int], sup: Sequence[int]) -> np.ndarray:
    """Index positions of ``sub`` inside the sorted container ``sup``."""
    sup_arr = np.asarray(sup, dtype=int)
    sub_arr = np.asarray(sub, dtype=int)
    pos = np.searchsorted(sup_arr, sub_arr)
    if sub_arr.size and (
        pos.max(initial=-1) >= sup_arr.size or np.any(sup_arr[pos] != sub_arr)
    ):
        raise ProblemFormatError(f"{list(sub)} is not contained in {list(sup)}")
    return pos


def _check_symmetric(mat: np.ndarray, label: str) -> np.ndarray:
    gap = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    if gap > SYMMETRY_TOL:
        raise ProblemFormatError(f"{label}: matrix not symmetric (gap {gap:.3e})")
    return 0.5 * (mat + mat.T)


def _check_psd(mat: np.ndarray, label: str) -> None:
    if mat.size == 0:
        return
    w = np.linalg.eigvalsh(mat)
    if w[0] < -PSD_TOL:
        raise ProblemFormatError(
            f"{label}: matrix not positive semidefinite (min eig {w[0]:.3e})"
        )


@dataclass
class QuadraticForm:
    """``0.5 x'Px + q'x + r`` over a local scope."""

    P: np.ndarray
    q: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        self.P = np.atleast_2d(np.asarray(self.P, dtype=float))
        self.q = np.asarray(self.q, dtype=float).ravel()
        self.r = float(self.r)

    @property
    def dim(self) -> int:
        return self.q.size

    def value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.P @ x + self.q @ x + self.r)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.P @ x + self.q

    def validate(self, dim: int, label: str) -> None:
        if self.P.shape != (dim, dim) or self.q.shape != (dim,):
            raise ProblemFormatError(
                f"{label}: objective dims {self.P.shape}/{self.q.shape} "
                f"do not match scope size {dim}"
            )
        self.P = _check_symmetric(self.P, label)
        _check_psd(self.P, label)


@dataclass
class Constraint:
    """One convex inequality ``g(x) <= 0`` over a local scope.

    ``kind`` is ``"affine"`` (``a'x + b``) or ``"quadratic"``
    (``0.5 x'Qx + a'x + b`` with PSD ``Q``).
    """

    kind: str
    a: np.ndarray
    b: float
    Q: np.ndarray | None = None

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float).ravel()
        self.b = float(self.b)
        if self.Q is not None:
            self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))

    def value(self, x: np.ndarray) -> float:
        if self.kind == "affine":
            return float(self.a @ x + self.b)
        return float(0.5 * x @ self.Q @ x + self.a @ x + self.b)

    def grad(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "affine":
            return self.a.copy()
        return self.Q @ x + self.a

    def hess(self, dim: int) -> np.ndarray:
        if self.kind == "affine":
            return np.zeros((dim, dim))
        return self.Q

    def validate(self, dim: int, label: str) -> None:
        if self.kind not in ("affine", "quadratic"):
            raise ProblemFormatError(f"{label}: unknown constraint kind {self.kind!r}")
        if self.a.shape != (dim,):
            raise ProblemFormatError(
                f"{label}: gradient size {self.a.shape} does not match scope {dim}"
            )
        if self.kind == "quadratic":
            if self.Q is None or self.Q.shape != (dim, dim):
                raise ProblemFormatError(f"{label}: missing or misshaped Q")
            self.Q = _check_symmetric(self.Q, label)
            _check_psd(self.Q, label)
        elif self.Q is not None:
            raise ProblemFormatError(f"{label}: affine constraint carries a Q block")


@dataclass
class Subproblem:
    """One agent: scope, objective, inequalities, equalities (all local)."""

    J: IndexSet
    objective: QuadraticForm
    inequalities: list[Constraint] = field(default_factory=list)
    eq_A: np.ndarray | None = None
    eq_b: np.ndarray | None = None

    def __post_init__(self):
        self.J = index_set(self.J)
        d = len(self.J)
        if self.eq_A is None:
            self.eq_A = np.zeros((0, d))
        self.eq_A = np.atleast_2d(np.asarray(self.eq_A, dtype=float))
        if self.eq_A.size == 0:
            self.eq_A = self.eq_A.reshape(0, d)
        if self.eq_b is None:
            self.eq_b = np.zeros(0)
        self.eq_b = np.asarray(self.eq_b, dtype=float).ravel()

    @property
    def dim(self) -> int:
        return len(self.J)

    @property
    def m(self) -> int:
        return len(self.inequalities)

    @property
    def p(self) -> int:
        return self.eq_A.shape[0]

    def validate(self, n: int, label: str) -> None:
        self.J = index_set(self.J, n)
        d = self.dim
        if d == 0:
            raise ProblemFormatError(f"{label}: empty scope")
        self.objective.validate(d, f"{label}/objective")
        for c_idx, con in enumerate(self.inequalities):
            con.validate(d, f"{label}/inequalities/{c_idx}")
        if self.eq_A.shape[1] != d or self.eq_b.shape != (self.eq_A.shape[0],):
            raise ProblemFormatError(f"{label}/equalities: inconsistent dimensions")


@dataclass
class SubproblemEval:
    """Objective and constraint data of one agent at a local point."""

    f: float
    grad: np.ndarray
    hess: np.ndarray
    g: np.ndarray
    jac: np.ndarray
    con_hess: list[np.ndarray]


def eval_subproblem(sp: Subproblem, x_local: np.ndarray) -> SubproblemEval:
    x_local = np.asarray(x_local, dtype=float)
    d = sp.dim
    g = np.array([c.value(x_local) for c in sp.inequalities])
    jac = (
        np.vstack([c.grad(x_local) for c in sp.inequalities])
        if sp.inequalities
        else np.zeros((0, d))
    )
    return SubproblemEval(
        f=sp.objective.value(x_local),
        grad=sp.objective.grad(x_local),
        hess=sp.objective.P,
        g=g,
        jac=jac,
        con_hess=[c.hess(d) for c in sp.inequalities],
    )


@dataclass
class CoupledProblem:
    """A loosely coupled convex program over ``n`` shared variables."""

    n: int
    subproblems: list[Subproblem]

    @property
    def m_total(self) -> int:
        return sum(sp.m for sp in self.subproblems)

    @property
    def p_total(self) -> int:
        return sum(sp.p for sp in self.subproblems)

    def scopes(self) -> list[IndexSet]:
        return [sp.J for sp in self.subproblems]

    def validate(self) -> "CoupledProblem":
        if self.n <= 0:
            raise ProblemFormatError("/n: must be positive")
        covered: set[int] = set()
        for k, sp in enumerate(self.subproblems):
            sp.validate(self.n, f"/subproblems/{k}")
            covered.update(sp.J)
        if covered != set(range(self.n)):
            missing = sorted(set(range(self.n)) - covered)
            raise ProblemFormatError(f"variables not covered by any scope: {missing}")
        return self

    def objective_value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return sum(sp.objective.value(x[list(sp.J)]) for sp in self.subproblems)

    def inequality_values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals: list[float] = []
        for sp in self.subproblems:
            xl = x[list(sp.J)]
            vals.extend(c.value(xl) for c in sp.inequalities)
        return np.array(vals)

    def max_inequality(self, x: np.ndarray) -> float:
        vals = self.inequality_values(x)
        return float(vals.max()) if vals.size else -np.inf

    def equality_residual(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        parts = [
            sp.eq_A @ x[list(sp.J)] - sp.eq_b
            for sp in self.subproblems
            if sp.p
        ]
        return np.concatenate(parts) if parts else np.zeros(0)


# ------------------ agent-to-clique assignment ------------------


@dataclass
class Assignment:
    """Which agents live on which clique, plus per-clique equality blocks.

    ``local_eq[i]`` stacks the equality rows of the agents in ``phi[i]``,
    columns permuted to the ascending ordering of clique ``i``.
    """

    phi: dict[int, list[int]]
    local_eq: dict[int, tuple[np.ndarray, np.ndarray]]

    def clique_of(self, k: int) -> int:
        for i, members in self.phi.items():
            if k in members:
                return i
        raise ProblemFormatError(f"subproblem {k} is not assigned")


def assign(p: CoupledProblem, tree: CliqueTree) -> Assignment:
    """Place every agent on the lowest-indexed clique covering its scope."""
    clique_sets = [set(c) for c in tree.cliques]
    phi: dict[int, list[int]] = {i: [] for i in range(tree.q)}
    for k, sp in enumerate(p.subproblems):
        home = None
        for i, cs in enumerate(clique_sets):
            if set(sp.J) <= cs:
                home = i
                break
        if home is None:
            raise ProblemFormatError(
                f"scope {list(sp.J)} of subproblem {k} is not covered by any clique"
            )
        phi[home].append(k)
    local_eq = {
        i: _stack_local_eq(p, tree.cliques[i], phi[i]) for i in range(tree.q)
    }
    return Assignment(phi, local_eq)


def _stack_local_eq(
    p: CoupledProblem, clique: IndexSet, members: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    width = len(clique)
    rows = [np.zeros((0, width))]
    rhs = [np.zeros(0)]
    for k in members:
        sp = p.subproblems[k]
        if sp.p == 0:
            continue
        block = np.zeros((sp.p, width))
        block[:, positions(sp.J, clique)] = sp.eq_A
        rows.append(block)
        rhs.append(sp.eq_b)
    return np.vstack(rows), np.concatenate(rhs)


# ------------------ equality preprocessing ------------------


def reduce_equality_block(
    A: np.ndarray,
    b: np.ndarray,
    elim_pos: np.ndarray,
    keep_pos: np.ndarray,
    is_root: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonally reduce one clique's equality rows.

    Rotates the rows so that the block over the eliminated columns has
    full row rank; rows with no support there are returned separately so
    the caller can push them towards the parent (restricted to the kept
    columns).  At the root any leftover row must be ``0 = 0`` within
    ``ROOT_EQ_TOL``, otherwise the stacked system is infeasible.
    """
    rows = A.shape[0]
    if rows == 0:
        return A.copy(), b.copy(), np.zeros((0, keep_pos.size)), np.zeros(0)
    A1 = A[:, elim_pos]
    if A1.size:
        sigma_max = float(np.linalg.svd(A1, compute_uv=False)[0])
    else:
        sigma_max = 0.0
    # rank threshold is scaled by the whole block, not just its eliminated
    # columns: a row whose eliminated part is roundoff noise next to its
    # separator part must migrate, not stay
    sigma_ref = max(sigma_max, float(np.linalg.norm(A, 2)))
    if sigma_max <= RANK_TOL * sigma_ref or sigma_max == 0.0:
        rank = 0
        At, bt = A.copy(), b.copy()
    else:
        Q, R, _ = scipy.linalg.qr(A1, mode="full", pivoting=True)
        diag = np.abs(np.diag(R[: min(A1.shape), :]))
        rank = int(np.sum(diag > RANK_TOL * sigma_ref))
        At = Q.T @ A
        bt = Q.T @ b
        At[rank:, elim_pos] = 0.0
    kept_A, kept_b = At[:rank], bt[:rank]
    rest_A, rest_b = At[rank:], bt[rank:]
    if is_root:
        if rest_b.size and float(np.max(np.abs(rest_b))) > ROOT_EQ_TOL:
            raise InfeasibleEqualityError(
                "infeasible equality system: residual "
                f"{float(np.max(np.abs(rest_b))):.3e} after elimination"
            )
        return kept_A, kept_b, np.zeros((0, keep_pos.size)), np.zeros(0)
    push_A, push_b = rest_A[:, keep_pos], rest_b
    if push_A.shape[0]:
        # rows annihilated by the rotation leave roundoff remnants; a
        # remnant with a real right-hand side still travels up so the
        # root can flag infeasibility
        row_norm = np.linalg.norm(push_A, axis=1) if push_A.size else np.zeros(
            push_A.shape[0]
        )
        live = (row_norm > RANK_TOL * max(sigma_ref, 1.0)) | (
            np.abs(push_b) > ROOT_EQ_TOL
        )
        push_A, push_b = push_A[live], push_b[live]
    return kept_A, kept_b, push_A, push_b


# ------------------ flow benchmark ------------------


@dataclass
class FlowParams:
    """Coefficients of a supply-tree benchmark instance.

    Agent ``i`` owns a demand ``d_i = x[i]`` and an incoming flow
    ``f_i = x[q+i]``.  Non-root agents pay ``0.5*(rho_i/2)*f_i^2`` on their
    feed line; the root tracks a reference output level instead.
    """

    mu: np.ndarray
    rho: np.ndarray
    c: np.ndarray
    u: np.ndarray
    o_ref: float
    sigma: float

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.o_ref = float(self.o_ref)
        self.sigma = float(self.sigma)


def sample_flow_params(q: int, rng: np.random.Generator) -> FlowParams:
    return FlowParams(
        mu=rng.uniform(0.0, 10.0, q),
        rho=rng.uniform(0.0, 5.0, q),
        c=rng.uniform(0.0, 15.0, q),
        u=rng.uniform(0.0, 20.0, q),
        o_ref=rng.uniform(0.0, 20.0),
        sigma=rng.uniform(0.0, 50.0),
    )


def balanced_tree(height: int, branching: int) -> list[int]:
    """Parent array of a balanced tree (root 0, BFS numbering, parent[0] = -1)."""
    if height < 0 or branching < 1:
        raise ProblemFormatError("height must be >= 0 and branching >= 1")
    parents = [-1]
    level = [0]
    for _ in range(height):
        nxt = []
        for node in level:
            for _ in range(branching):
                parents.append(node)
                nxt.append(len(parents) - 1)
        level = nxt
    return parents


def gen_flow(
    tree_shape: Sequence[int],
    params: FlowParams | None = None,
    seed: int | None = None,
) -> tuple[CoupledProblem, np.ndarray]:
    """Build a supply-tree benchmark over ``2q`` variables.

    ``tree_shape`` is a parent array (entry -1 marks the root).  Returns
    the problem and the standard strictly feasible start
    ``(c/2, ..., 1, ...)``.
    """
    parents = [int(v) for v in tree_shape]
    q = len(parents)
    if q == 0 or parents.count(-1) != 1 or parents[0] != -1:
        raise ProblemFormatError("tree_shape must have exactly one root at index 0")
    children: dict[int, list[int]] = {i: [] for i in range(q)}
    for i, par in enumerate(parents):
        if i == 0:
            continue
        if not 0 <= par < q or par == i:
            raise ProblemFormatError(f"bad parent {par} for agent {i}")
        children[par].append(i)
    if params is None:
        params = sample_flow_params(q, np.random.default_rng(seed))
    n = 2 * q
    subs: list[Subproblem] = []
    for i in range(q):
        scope = index_set([i, q + i] + [q + k for k in children[i]])
        d = len(scope)
        pos = {v: t for t, v in enumerate(scope)}
        P = np.zeros((d, d))
        qvec = np.zeros(d)
        r = 0.0
        P[pos[i], pos[i]] = params.mu[i]
        if i == 0:
            P[pos[q + i], pos[q + i]] = params.sigma
            qvec[pos[q + i]] = -params.sigma * params.o_ref
            r = 0.5 * params.sigma * params.o_ref**2
        else:
            P[pos[q + i], pos[q + i]] = params.rho[i] / 2.0
        for k in children[i]:
            P[pos[q + k], pos[q + k]] = params.rho[k] / 2.0
        cons = []
        a = np.zeros(d)
        a[pos[i]] = 1.0
        cons.append(Constraint("affine", a, -params.c[i]))
        a = np.zeros(d)
        a[pos[i]] = -1.0
        cons.append(Constraint("affine", a, -params.c[i]))
        a = np.zeros(d)
        a[pos[q + i]] = -1.0
        cons.append(Constraint("affine", a, 0.0))
        row = np.zeros((1, d))
        row[0, pos[i]] = 1.0
        row[0, pos[q + i]] = -1.0
        rhs = np.zeros(1)
        if children[i]:
            for k in children[i]:
                row[0, pos[q + k]] = 1.0
        else:
            rhs[0] = -params.u[i]
        subs.append(
            Subproblem(scope, QuadraticForm(P, qvec, r), cons, row, rhs)
        )
    problem = CoupledProblem(n, subs).validate()
    x0 = np.concatenate([params.c / 2.0, np.ones(q)])
    return problem, x0


# ------------------ JSON input/output ------------------


def problem_to_json_dict(p: CoupledProblem) -> dict:
    subs = []
    for sp in p.subproblems:
        cons = []
        for c in sp.inequalities:
            entry = {"kind": c.kind, "a": c.a.tolist(), "b": c.b}
            if c.kind == "quadratic":
                entry = {"kind": c.kind, "Q": c.Q.tolist(), "a": c.a.tolist(), "b": c.b}
            cons.append(entry)
        subs.append(
            {
                "J": list(sp.J),
                "objective": {
                    "P": sp.objective.P.tolist(),
                    "q": sp.objective.q.tolist(),
                    "r": sp.objective.r,
                },
                "inequalities": cons,
                "equalities": {"A": sp.eq_A.tolist(), "b": sp.eq_b.tolist()},
            }
        )
    return {"n": p.n, "subproblems": subs}


def save_problem(p: CoupledProblem, path: str | Path) -> None:
    Path(path).write_text(json.dumps(problem_to_json_dict(p), indent=2) + "\n")


def _require(doc: Mapping, key: str, where: str):
    if key not in doc:
        raise ProblemFormatError(f"{where}: missing key {key!r}")
    return doc[key]


def problem_from_json_dict(doc: Mapping) -> CoupledProblem:
    n = _require(doc, "n", "/")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ProblemFormatError("/n: must be an integer")
    raw_subs = _require(doc, "subproblems", "/")
    subs = []
    for k, raw in enumerate(raw_subs):
        where = f"/subproblems/{k}"
        scope = index_set(_require(raw, "J", where), n)
        obj_doc = _require(raw, "objective", where)
        obj = QuadraticForm(
            np.array(_require(obj_doc, "P", f"{where}/objective"), dtype=float),
            np.array(_require(obj_doc, "q", f"{where}/objective"), dtype=float),
            float(_require(obj_doc, "r", f"{where}/objective")),
        )
        cons = []
        for c_idx, c_doc in enumerate(raw.get("inequalities", [])):
            cwhere = f"{where}/inequalities/{c_idx}"
            kind = _require(c_doc, "kind", cwhere)
            a = np.array(_require(c_doc, "a", cwhere), dtype=float)
            b = float(_require(c_doc, "b", cwhere))
            if kind == "affine":
                cons.append(Constraint("affine", a, b))
            elif kind == "quadratic":
                Q = np.array(_require(c_doc, "Q", cwhere), dtype=float)
                cons.append(Constraint("quadratic", a, b, Q=Q))
            else:
                raise ProblemFormatError(f"{cwhere}: unknown kind {kind!r}")
        eq_doc = raw.get("equalities", {"A": [], "b": []})
        eq_A = np.array(eq_doc.get("A", []), dtype=float)
        eq_b = np.array(eq_doc.get("b", []), dtype=float)
        if eq_A.size == 0:
            eq_A = np.zeros((0, len(scope)))
        subs.append(Subproblem(scope, obj, cons, eq_A, eq_b))
    return CoupledProblem(n, subs).validate()


def load_problem(path: str | Path) -> CoupledProblem:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from exc
    return problem_from_json_dict(doc)
