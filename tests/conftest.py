"""Shared generators and the acceptance-report hook.

The random-problem builders here are deliberately independent of the
library's own generators: they construct raw matrices and hand them to
the public API, so tests cross-check rather than echo the code under
test.
"""

from __future__ import annotations

import numpy as np
import pytest

from treeipm import chordal, model

# acceptance criteria register their one-line verdicts here; a terminal
# summary hook prints them even when individual criteria fail
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


# ---------------- random problem builders ----------------


def chain_scopes(rng: np.random.Generator, q: int) -> tuple[list[list[int]], int]:
    """Overlapping variable blocks along a random tree of subproblems.

    Consecutive scopes share 1-2 variables so the coupling graph is
    connected but loose.
    """
    scopes: list[list[int]] = []
    nxt = 0
    for k in range(q):
        fresh = int(rng.integers(1, 5))
        if k == 0:
            scope = list(range(fresh + 1))
            nxt = fresh + 1
        else:
            host = scopes[int(rng.integers(0, k))]
            take = int(rng.integers(1, min(2, len(host)) + 1))
            shared = [int(v) for v in rng.choice(host, size=take, replace=False)]
            scope = sorted(set(shared) | set(range(nxt, nxt + fresh)))
            nxt += fresh
        scopes.append(scope)
    return scopes, nxt


def random_loose_qp(
    rng: np.random.Generator,
    q_max: int = 8,
    with_quadratic: bool = True,
    with_eq: bool = True,
    eq_redundancy: int = 0,
    eq_at_interior: bool = False,
) -> tuple[model.CoupledProblem, np.ndarray]:
    """Loosely coupled strictly feasible QP plus an interior point.

    Every subproblem gets a positive definite objective block; inequality
    right-hand sides are anchored at a drawn interior point with a real
    margin, and equality rows all evaluate one shared target so the
    stacked system is consistent.  ``eq_redundancy`` appends that many
    linearly dependent equality rows (for preprocessing tests).  With
    ``eq_at_interior`` the equality target is the interior point itself,
    which guarantees the whole problem admits a strictly feasible
    solution (the offset default only guarantees a consistent equality
    system, so full solves may legitimately fail to converge).
    """
    q = int(rng.integers(2, q_max + 1))
    scopes, n = chain_scopes(rng, q)
    x_int = rng.normal(0.0, 0.8, size=n)
    x_eq = x_int + rng.normal(0.0, 0.3, size=n)
    subs = []
    for scope in scopes:
        d = len(scope)
        m_loc = rng.normal(size=(d, d))
        P = m_loc.T @ m_loc + 0.3 * np.eye(d)
        qvec = rng.normal(size=d)
        obj = model.QuadraticForm(P, qvec, float(rng.normal()))
        xl = x_int[scope]
        cons = []
        for _ in range(int(rng.integers(0, 4))):
            a = rng.normal(size=d)
            margin = float(rng.uniform(0.2, 1.5))
            # offset b chosen so g(x_int) = -margin < 0
            if with_quadratic and rng.random() < 0.35:
                mq = rng.normal(size=(d, d)) * 0.4
                Qc = mq.T @ mq
                val = 0.5 * xl @ Qc @ xl + a @ xl
                cons.append(model.Constraint("quadratic", a, -val - margin, Q=Qc))
            else:
                cons.append(model.Constraint("affine", a, -float(a @ xl) - margin))
        eq_A = None
        eq_b = None
        if with_eq and d >= 2 and rng.random() < 0.6:
            rows = int(rng.integers(1, 3))
            eq_A = rng.normal(size=(rows, d))
            eq_b = eq_A @ (xl if eq_at_interior else x_eq[scope])
        subs.append(model.Subproblem(tuple(scope), obj, cons, eq_A, eq_b))
    if eq_redundancy:
        subs = _inject_redundant_rows(rng, subs, eq_redundancy)
    problem = model.CoupledProblem(n, subs).validate()
    return problem, x_int


def _inject_redundant_rows(rng, subs, count):
    """Duplicate or linearly combine equality rows inside subproblems."""
    out = list(subs)
    carriers = [k for k, sp in enumerate(out) if sp.eq_A is not None]
    if not carriers:
        return out
    for _ in range(count):
        k = int(rng.choice(carriers))
        sp = out[k]
        A, b = sp.eq_A, sp.eq_b
        w = rng.normal(size=A.shape[0])
        new_A = np.vstack([A, w @ A])
        new_b = np.concatenate([b, [w @ b]])
        out[k] = model.Subproblem(sp.J, sp.objective, sp.inequalities, new_A, new_b)
    return out


def interior_duals(
    rng: np.random.Generator, p: model.CoupledProblem, a: model.Assignment
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    lam = {
        k: rng.uniform(0.5, 1.5, size=sp.m) for k, sp in enumerate(p.subproblems)
    }
    v = {
        i: rng.normal(size=a.local_eq[i][0].shape[0]) for i in a.local_eq
    }
    return lam, v


def agent_directions(res):
    """Affine and corrected directions the agents took in a solve's last iteration.

    Read from each agent's store as ``(dx, dv, dlam)`` with ``dx`` and
    ``dv`` per clique and ``dlam`` per subproblem; agents keep no affine
    multiplier direction, so the affine ``dlam`` is empty.
    """
    envs = res.network.agents.values()
    aff = (
        {env.id: env.get("aff")[0] for env in envs},
        {env.id: env.get("aff")[1] for env in envs},
        {},
    )
    corr = (
        {env.id: env.get("dx") for env in envs},
        {env.id: env.get("dv") for env in envs},
        {k: d for env in envs for k, d in env.get("dlam").items()},
    )
    return aff, corr


def direction_gap(tree: chordal.CliqueTree, got, ref) -> float:
    """Largest entry gap of per-agent directions to a dense ``(dx, dv, dlam)``.

    Every clique's copy of ``dx`` is compared; the gap is relative to
    ``1 + max |dx|`` of the reference.
    """
    dx, dv, dlam = got
    dx_ref, dv_ref, dlam_ref = ref
    gaps = [np.abs(dx[i] - dx_ref[list(tree.cliques[i])]).max() for i in dx]
    gaps += [np.abs(dv[i] - dv_ref[i]).max() for i in dv if dv[i].size]
    gaps += [np.abs(dlam[k] - dlam_ref[k]).max() for k in dlam if dlam[k].size]
    return max(gaps) / (1.0 + np.abs(dx_ref).max())


# ---------------- random tree-structured QP data ----------------


def make_rooted_tree(cliques: list[tuple[int, ...]], parents: list[int]) -> chordal.CliqueTree:
    """Build a CliqueTree directly from cliques plus a parent array."""
    edges = frozenset(
        (min(i, pa), max(i, pa)) for i, pa in enumerate(parents) if pa >= 0
    )
    q = len(cliques)
    children = {i: [] for i in range(q)}
    parent: dict[int, int | None] = {}
    for i, pa in enumerate(parents):
        parent[i] = pa if pa >= 0 else None
        if pa >= 0:
            children[pa].append(i)
    depth = {}
    for i in range(q):
        d = 0
        j = i
        while parent[j] is not None:
            j = parent[j]
            d += 1
        depth[i] = d
    return chordal.CliqueTree(
        cliques=[tuple(sorted(c)) for c in cliques],
        edges=edges,
        root=0,
        parent=parent,
        children=children,
        depth=depth,
        height=max(depth.values()) if depth else 0,
    )


def random_tree_qp(rng: np.random.Generator, q_max: int = 10):
    """Random rooted clique tree with per-clique PD quadratic data.

    Returns (tree, data) suitable for treeqp.upward_pass; the implied
    global KKT matrix is nonsingular by construction (PD Hessian blocks,
    full-row-rank local equalities over eliminated variables).
    """
    from treeipm import treeqp

    q = int(rng.integers(2, q_max + 1))
    parents = [-1] + [int(rng.integers(0, i)) for i in range(1, q)]
    cliques: list[list[int]] = []
    nxt = 0
    for i in range(q):
        if i == 0:
            own = list(range(int(rng.integers(2, 5))))
            nxt = len(own)
            cliques.append(own)
        else:
            host = cliques[parents[i]]
            take = int(rng.integers(1, min(2, len(host)) + 1))
            shared = sorted(int(v) for v in rng.choice(host, size=take, replace=False))
            fresh = list(range(nxt, nxt + int(rng.integers(1, 4))))
            nxt += len(fresh)
            cliques.append(sorted(shared + fresh))
    tree = make_rooted_tree([tuple(c) for c in cliques], parents)
    data = {}
    for i, c in enumerate(tree.cliques):
        d = len(c)
        m_loc = rng.normal(size=(d, d))
        H = m_loc.T @ m_loc + 0.5 * np.eye(d)
        r = rng.normal(size=d)
        sep = tree.separator(i, tree.parent[i]) if tree.parent[i] is not None else ()
        n_elim = d - len(sep)
        rows = int(rng.integers(0, n_elim + 1)) if n_elim else 0
        A = rng.normal(size=(rows, d)) if rows else np.zeros((0, d))
        beta = rng.normal(size=rows) if rows else np.zeros(0)
        data[i] = treeqp.CliqueQpData(c, H, r, A, beta, float(rng.normal()))
    return tree, data


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
