"""Seeded random loosely coupled QPs for the ``loose-qp`` workload.

Modelled on the test suite's ``random_loose_qp`` generator but written
against the public ``treeipm.model`` containers only, so the benchmark
does not import test code.  Every instance has:

- ``components`` independent coupling components, each a random tree of
  ``subproblems`` agents whose scopes overlap in one or two variables;
- positive definite objective blocks, and a mix of affine and convex
  quadratic inequalities anchored at a drawn interior point ``x_int`` with
  a real margin;
- equality rows whose targets are taken at ``x_int``, plus linearly
  dependent copies of some rows, so equality preprocessing has rank to
  remove;
- one anchor inequality per component that the origin violates, so
  ``ipm.solve_auto`` without a start must run phase one on every
  component.

``x_int`` is strictly feasible for every instance; the benchmark hands it
to the dense oracle only, never to the distributed solver.
"""

from __future__ import annotations

import numpy as np

from treeipm import model

COMPONENTS = 2
SUBPROBLEMS = 20
REDUNDANT_ROWS = 2


def _component_scopes(rng: np.random.Generator, q: int, first: int) -> tuple[list[list[int]], int]:
    """Scopes along a random tree of ``q`` agents, numbered from ``first``."""
    scopes: list[list[int]] = []
    nxt = first
    for k in range(q):
        fresh = int(rng.integers(1, 5))
        if k == 0:
            scope = list(range(nxt, nxt + fresh + 1))
            nxt += fresh + 1
        else:
            host = scopes[int(rng.integers(0, k))]
            take = int(rng.integers(1, min(2, len(host)) + 1))
            shared = [int(v) for v in rng.choice(host, size=take, replace=False)]
            scope = sorted(set(shared) | set(range(nxt, nxt + fresh)))
            nxt += fresh
        scopes.append(scope)
    return scopes, nxt


def _subproblem(rng: np.random.Generator, scope: list[int], xl: np.ndarray, anchor: bool) -> model.Subproblem:
    d = len(scope)
    m_loc = rng.normal(size=(d, d))
    P = m_loc.T @ m_loc + 0.3 * np.eye(d)
    obj = model.QuadraticForm(P, rng.normal(size=d), float(rng.normal()))
    cons = []
    for _ in range(int(rng.integers(1, 4))):
        a = rng.normal(size=d)
        margin = float(rng.uniform(0.2, 1.5))
        if rng.random() < 0.35:
            mq = rng.normal(size=(d, d)) * 0.4
            Qc = mq.T @ mq
            val = 0.5 * xl @ Qc @ xl + a @ xl
            cons.append(model.Constraint("quadratic", a, -val - margin, Q=Qc))
        else:
            cons.append(model.Constraint("affine", a, -float(a @ xl) - margin))
    if anchor:
        # a = -xl/|xl| and b = |xl|/2 give g(x_int) = -|xl|/2 < 0 < g(0)
        norm = float(np.linalg.norm(xl))
        cons.append(model.Constraint("affine", -xl / norm, 0.5 * norm))
    eq_A = eq_b = None
    if d >= 2 and rng.random() < 0.6:
        rows = int(rng.integers(1, 3))
        eq_A = rng.normal(size=(rows, d))
        eq_b = eq_A @ xl
    return model.Subproblem(tuple(scope), obj, cons, eq_A, eq_b)


def _add_redundant_rows(rng: np.random.Generator, subs: list[model.Subproblem], count: int) -> None:
    """Append linear combinations of existing rows inside carrier agents."""
    carriers = [k for k, sp in enumerate(subs) if sp.p]
    for _ in range(count if carriers else 0):
        k = int(rng.choice(carriers))
        sp = subs[k]
        w = rng.normal(size=sp.p)
        subs[k] = model.Subproblem(
            sp.J,
            sp.objective,
            sp.inequalities,
            np.vstack([sp.eq_A, w @ sp.eq_A]),
            np.concatenate([sp.eq_b, [w @ sp.eq_b]]),
        )


def generate(seed: int) -> tuple[model.CoupledProblem, np.ndarray]:
    """One instance and its strictly feasible interior point."""
    rng = np.random.default_rng(seed)
    subs: list[model.Subproblem] = []
    n = 0
    x_int = np.zeros(0)
    for _ in range(COMPONENTS):
        scopes, n_next = _component_scopes(rng, SUBPROBLEMS, n)
        x_int = np.concatenate([x_int, rng.normal(0.0, 0.8, size=n_next - n)])
        comp = [
            _subproblem(rng, scope, x_int[scope], anchor=(k == 0))
            for k, scope in enumerate(scopes)
        ]
        _add_redundant_rows(rng, comp, REDUNDANT_ROWS)
        subs.extend(comp)
        n = n_next
    return model.CoupledProblem(n, subs).validate(), x_int
