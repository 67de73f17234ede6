"""The three benchmark workloads: instance sets, set-up and one solve each.

A workload turns ``--seed`` into a fixed list of instances.  One
repetition solves every instance of the list once, in order, from a
single caller (closed loop, one client).  Set-up (the chordal pipeline)
is run before the solves and timed on its own; the trees it produces are
inputs to the solve, like a plan.

- ``flow-h8``: the 511-agent balanced binary supply tree of acceptance
  criterion 6.  Seed 0 is that instance exactly; any other seed scales
  each of its coefficients by an independent factor in [0.999, 1.001], so
  every seed is a distinct input of the same size and difficulty.
- ``flow-suite``: 50 seven-agent two-chain supply instances over
  consecutive seeds ``50*seed .. 50*seed+49``, as in criterion 4, each
  solved with the run log on and followed by the privacy audit and the
  step accounting.
- ``loose-qp``: ``LOOSE_QP_INSTANCES`` random loosely coupled QPs (see
  ``loose_qp.py``) over consecutive seeds, solved by ``ipm.solve_auto``
  with no start, so component splitting and phase one run.  The split
  into components is made with the instance list, so set-up times only
  ``chordal.clique_tree_for``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import loose_qp
from treeipm import chordal, ipm, model, netsim

SUITE_SHAPE = [-1, 0, 0, 1, 2, 3, 4]
SUITE_INSTANCES = 50
LOOSE_QP_INSTANCES = 24
H8_JITTER = 0.001


@dataclass
class Instance:
    label: str
    problem: model.CoupledProblem
    x0: np.ndarray | None
    """Start handed to the solver; ``None`` lets ``solve_auto`` find one."""
    x_ref: np.ndarray | None
    """Strictly feasible start for the dense oracle; ``None`` skips it."""
    pieces: list[tuple[list[int], list[tuple[int, ...]]]]
    """Variables and locally numbered scopes of each component set-up builds a tree for."""


@dataclass
class SetupResult:
    """Chordal pipeline output of one instance, one entry per component."""

    graphs: list[chordal.UndirectedGraph]
    embedded: list[chordal.UndirectedGraph]
    trees: list[chordal.CliqueTree]


@dataclass
class Outcome:
    """Everything one solve of one instance returned."""

    runs: list[tuple[list[int], ipm.SolveResult]]
    solve_s: float
    audits: list[netsim.PrivacyReport] = field(default_factory=list)
    accounting: list[netsim.StepAccounting] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    make: Callable[[int], list[Instance]]
    params: ipm.SolverParams
    record_log: bool
    audit: bool
    auto: bool
    """Solve through ``ipm.solve_auto`` (components and phase one)."""


def _whole(p: model.CoupledProblem) -> list[tuple[list[int], list[tuple[int, ...]]]]:
    """A flow instance is one component: ``ipm.solve`` takes a single tree."""
    return [(list(range(p.n)), p.scopes())]


def _h8_instances(seed: int) -> list[Instance]:
    shape = model.balanced_tree(8, 2)
    params = model.sample_flow_params(len(shape), np.random.default_rng(0))
    if seed != 0:
        rng = np.random.default_rng(seed)

        def jitter(v):
            return v * (1.0 + H8_JITTER * rng.uniform(-1.0, 1.0, np.shape(v)))

        params = model.FlowParams(
            jitter(params.mu),
            jitter(params.rho),
            jitter(params.c),
            jitter(params.u),
            jitter(params.o_ref),
            jitter(params.sigma),
        )
    p, x0 = model.gen_flow(shape, params=params)
    # the dense oracle takes about as long as the solve here; skip it
    return [Instance(f"h8/{seed}", p, x0, None, _whole(p))]


def _suite_instances(seed: int) -> list[Instance]:
    out = []
    for s in range(SUITE_INSTANCES * seed, SUITE_INSTANCES * (seed + 1)):
        p, x0 = model.gen_flow(SUITE_SHAPE, seed=s)
        out.append(Instance(f"suite/{s}", p, x0, x0, _whole(p)))
    return out


def _loose_instances(seed: int) -> list[Instance]:
    out = []
    for s in range(LOOSE_QP_INSTANCES * seed, LOOSE_QP_INSTANCES * (seed + 1)):
        p, x_int = loose_qp.generate(s)
        out.append(Instance(f"loose/{s}", p, None, x_int, components(p)))
    return out


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "flow-h8",
            _h8_instances,
            ipm.SolverParams(max_iters=200),
            record_log=False,
            audit=False,
            auto=False,
        ),
        Workload(
            "flow-suite",
            _suite_instances,
            ipm.SolverParams(),
            record_log=True,
            audit=True,
            auto=False,
        ),
        Workload(
            "loose-qp",
            _loose_instances,
            ipm.SolverParams(),
            record_log=True,
            audit=False,
            auto=True,
        ),
    ]
}


def components(p: model.CoupledProblem) -> list[tuple[list[int], list[tuple[int, ...]]]]:
    """Variables of each coupling component and its scopes renumbered locally.

    Mirrors the split ``ipm.solve_auto`` makes, so set-up is timed on the
    same graphs the solver builds its trees for.
    """
    comps = chordal.connected_components(chordal.sparsity_graph(p.scopes(), p.n))
    out = []
    for comp in comps:
        local = {v: t for t, v in enumerate(comp)}
        scopes = [tuple(local[v] for v in J) for J in p.scopes() if J[0] in local]
        out.append((comp, scopes))
    return out


def setup(inst: Instance) -> SetupResult:
    """The chordal pipeline: one clique tree per component (one for flows)."""
    res = SetupResult([], [], [])
    for comp, scopes in inst.pieces:
        g, emb, tree = chordal.clique_tree_for(scopes, len(comp))
        res.graphs.append(g)
        res.embedded.append(emb)
        res.trees.append(tree)
    return res


def solve(wl: Workload, inst: Instance, prepared: SetupResult) -> Outcome:
    """One solve of one instance, as a user of the package would run it."""
    p = inst.problem
    t0 = time.perf_counter()
    if wl.auto:
        runs = ipm.solve_auto(p, wl.params, record_log=wl.record_log)
        return Outcome([(r.variables, r.result) for r in runs], time.perf_counter() - t0)
    res = ipm.solve(
        p,
        wl.params,
        inst.x0,
        tree=prepared.trees[0],
        record_log=wl.record_log,
    )
    out = Outcome([(list(range(p.n)), res)], time.perf_counter() - t0)
    if wl.audit:
        out.audits.append(netsim.audit_privacy(res.network))
        out.accounting.append(
            netsim.accounting(res.network, res.iterations, res.total_backtracks)
        )
    return out
