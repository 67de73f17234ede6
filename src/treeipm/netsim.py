"""Deterministic multi-agent simulation over a rooted clique tree.

One agent per clique.  Communication happens in synchronous passes: an
upward pass activates agents deepest level first, each non-root agent
handing exactly one envelope to its parent; a downward pass runs root
first, each agent handing one envelope to every child.  Handlers receive
only their own environment plus delivered envelopes, so an honest handler
cannot observe remote state; every read of agent-local storage is logged
and audited after the run.  A local step runs the agents' own work, one
kernel call per group of agents, and logs each read as the owner's.

Counters track message-passing steps (one per tree level per pass),
per-agent factorizations and per-agent envelope traffic.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from treeipm.chordal import CliqueTree
from treeipm.errors import AccountingError, TopologyError

ENVELOPE_KINDS = frozenset(
    {
        "qp-message",
        "separator-solution",
        "corrector-message",
        "corrector-solution",
        "alpha-bound",
        "residual-partial",
        "alpha-broadcast",
        "stop-broadcast",
        "eq-constraint-push",
    }
)


@dataclass
class Envelope:
    src: int
    dst: int
    kind: str
    payload: Any


def _summarize(payload: Any) -> Any:
    if isinstance(payload, np.ndarray):
        return f"array{payload.shape}"
    if isinstance(payload, dict):
        return {k: _summarize(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return f"seq[{len(payload)}]"
    if isinstance(payload, (int, float, bool, str)) or payload is None:
        return payload
    return type(payload).__name__


class AgentEnv:
    """Per-agent storage; reads are logged for the privacy audit."""

    def __init__(self, net: "Network", agent_id: int):
        self.net = net
        self.id = agent_id
        tree = net.tree
        self.clique = tree.cliques[agent_id]
        self.parent = tree.parent[agent_id]
        self.children = list(tree.children[agent_id])
        self.depth = tree.depth[agent_id]
        self._store: dict[str, Any] = {}

    @property
    def degree(self) -> int:
        return len(self.children) + (0 if self.parent is None else 1)

    def put(self, name: str, value: Any) -> None:
        self._store[name] = value

    def get(self, name: str) -> Any:
        net = self.net
        if net.events is not None and (net._local or net._active is not None):
            net._record_read(self.id, name)
        return self._store[name]

    def has(self, name: str) -> bool:
        return name in self._store

    def count_factorization(self) -> None:
        self.net.factorizations[self.net.phase][self.id] += 1


UpHandler = Callable[[AgentEnv, list[Envelope]], Any]
DownHandler = Callable[[AgentEnv, Envelope | None], dict[int, Any] | None]
LocalKernel = Callable[[Any, list[AgentEnv]], None]


class Network:
    """Synchronous message passing with accounting over a rooted tree."""

    def __init__(self, tree: CliqueTree, record_log: bool = True):
        if not tree.is_rooted:
            raise TopologyError("network requires a rooted clique tree")
        self.tree = tree
        self.height = tree.height or 0
        self.levels = tree.levels()
        self.agents = {i: AgentEnv(self, i) for i in range(tree.q)}
        self.phase = "setup"
        self.mp_steps: dict[str, int] = defaultdict(int)
        self.half_passes: dict[str, int] = defaultdict(int)
        self.factorizations: dict[str, dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.sent: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.received: dict[str, dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.events: list[dict] | None = [] if record_log else None
        self._active: int | None = None
        self._local = False
        self._pass_counter = 0

    # ---- phases and counters ----

    def begin_phase(self, name: str) -> None:
        self.phase = name

    def _finish_pass(self) -> None:
        self.mp_steps[self.phase] += self.height
        self.half_passes[self.phase] += 1

    def _record_read(self, owner: int, name: str) -> None:
        self.events.append(
            {
                "type": "read",
                "phase": self.phase,
                "pass": self._pass_counter,
                "agent": owner if self._local else self._active,
                "owner": owner,
                "field": name,
            }
        )

    def _record_delivery(self, env: Envelope, level: int) -> None:
        self.sent[self.phase][env.src] += 1
        self.received[self.phase][env.dst] += 1
        if self.events is not None:
            self.events.append(
                {
                    "type": "deliver",
                    "phase": self.phase,
                    "pass": self._pass_counter,
                    "level": level,
                    "src": env.src,
                    "dst": env.dst,
                    "kind": env.kind,
                    "payload": _summarize(env.payload),
                }
            )

    def _activate(self, agent_id: int, fn: Callable, *args) -> Any:
        self._active = agent_id
        try:
            return fn(self.agents[agent_id], *args)
        finally:
            self._active = None

    # ---- local steps and passes ----

    def run_local(self, groups: Iterable, kernel: LocalKernel) -> None:
        """``kernel(group, envs)`` once per group, ``envs`` those of
        ``group.members``; nothing is sent and no round counted.  A kernel
        computes each member's result from that member's data alone, so
        its reads are logged as their owners'."""
        self._local = True
        try:
            for group in groups:
                kernel(group, list(map(self.agents.__getitem__, group.members)))
        finally:
            self._local = False

    def run_up(self, kind: str, handler: UpHandler) -> Any:
        """Leaves to root; every non-root agent sends one envelope up.

        Returns the root handler's return value.
        """
        if kind not in ENVELOPE_KINDS:
            raise TopologyError(f"unknown envelope kind {kind!r}")
        self._pass_counter += 1
        pending: dict[int, Envelope] = {}
        result = None
        for level in range(len(self.levels) - 1, -1, -1):
            for i in self.levels[level]:
                inbox = [pending.pop(c) for c in self.tree.children[i]]
                out = self._activate(i, handler, inbox)
                parent = self.tree.parent[i]
                if parent is None:
                    result = out
                else:
                    if out is None:
                        raise TopologyError(
                            f"agent {i} produced no payload on an upward pass"
                        )
                    env = Envelope(i, parent, kind, out)
                    pending[i] = env
                    self._record_delivery(env, level)
        self._finish_pass()
        return result

    def run_down(self, kind: str, handler: DownHandler) -> None:
        """Root to leaves; every agent sends one envelope to each child."""
        if kind not in ENVELOPE_KINDS:
            raise TopologyError(f"unknown envelope kind {kind!r}")
        self._pass_counter += 1
        pending: dict[int, Envelope] = {}
        for level in range(len(self.levels)):
            for i in self.levels[level]:
                inbox = pending.pop(i, None)
                out = self._activate(i, handler, inbox) or {}
                children = self.tree.children[i]
                if set(out) != set(children):
                    raise TopologyError(
                        f"agent {i} must address exactly its children {children}, "
                        f"got {sorted(out)}"
                    )
                for c in children:
                    env = Envelope(i, c, kind, out[c])
                    pending[c] = env
                    self._record_delivery(env, level)
        self._finish_pass()

    # ---- log export ----

    def to_jsonl(self, path: str | Path) -> None:
        if self.events is None:
            raise AccountingError("run log disabled; nothing to export")
        with open(path, "w") as fh:
            for event in self.events:
                fh.write(json.dumps(event) + "\n")


# ---- privacy audit ----


@dataclass
class PrivacyReport:
    ok: bool
    skipped: bool
    violations: list[dict]
    n_reads: int
    n_deliveries: int

    def __str__(self) -> str:
        if self.skipped:
            return "privacy audit skipped: no run log (global computation)"
        status = "clean" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"privacy audit: {status} over {self.n_reads} reads "
            f"and {self.n_deliveries} deliveries"
        )


def audit_privacy(net: Network | None) -> PrivacyReport:
    """Check that every agent only read its own local data.

    Envelope payloads are delivered explicitly and tree-edge locality is
    enforced structurally, so the audit reduces to read ownership.  A
    network without a run log (or a purely centralized computation) is
    reported as skipped.
    """
    if net is None or net.events is None:
        return PrivacyReport(True, True, [], 0, 0)
    violations = []
    n_reads = 0
    n_deliveries = 0
    for event in net.events:
        if event["type"] == "read":
            n_reads += 1
            if event["agent"] != event["owner"]:
                violations.append(event)
        elif event["type"] == "deliver":
            n_deliveries += 1
    return PrivacyReport(not violations, False, violations, n_reads, n_deliveries)


# ---- step accounting ----


@dataclass
class StepAccounting:
    """Counter report for one phase of a run.

    ``mp_steps`` counts sequential communication rounds: one per tree
    level per pass, so a full solve obeys
    ``mp_steps = 2 * height * (backtracks + 4 * iterations)``.
    ``comm_events`` is the number of passes each agent took part in.
    """

    phase: str
    height_edges: int
    height_levels: int
    iterations: int
    backtracks: int
    mp_steps: int
    expected_mp_steps: int
    comm_events: int
    expected_comm_events: int
    factorizations: dict[int, int]
    envelopes: dict[int, int]
    degree: dict[int, int]
    identity_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "phase": self.phase,
            "height_edges": self.height_edges,
            "height_levels": self.height_levels,
            "iterations": self.iterations,
            "backtracks": self.backtracks,
            "mp_steps": self.mp_steps,
            "expected_mp_steps": self.expected_mp_steps,
            "comm_events": self.comm_events,
            "expected_comm_events": self.expected_comm_events,
            "factorizations": {str(k): v for k, v in sorted(self.factorizations.items())},
            "envelopes": {str(k): v for k, v in sorted(self.envelopes.items())},
            "degree": {str(k): v for k, v in sorted(self.degree.items())},
            "identity_ok": self.identity_ok,
        }


def accounting(
    net: Network,
    iterations: int,
    backtracks: int,
    strict: bool = False,
) -> StepAccounting:
    """Build the solve phase's counter report and check the schedule identity.

    The schedule is four up-and-down passes per iteration (affine
    direction, corrector, step bound, first candidate and acceptance) plus
    one per extra line-search candidate, each pass costing one step per
    level, and exactly one factorization per agent per iteration.  With
    ``strict`` set, a mismatch between recorded counters and the schedule
    raises.
    """
    phase = "solve"
    L = net.height
    mp = net.mp_steps.get(phase, 0)
    expected = 2 * L * (backtracks + 4 * iterations)
    halves = net.half_passes.get(phase, 0)
    expected_halves = 2 * (backtracks + 4 * iterations)
    facts = {i: net.factorizations.get(phase, {}).get(i, 0) for i in net.agents}
    degree = {i: net.agents[i].degree for i in net.agents}
    envelopes = {
        i: net.sent.get(phase, {}).get(i, 0) + net.received.get(phase, {}).get(i, 0)
        for i in net.agents
    }
    ok = (
        mp == expected
        and halves == expected_halves
        and all(v == iterations for v in facts.values())
        and all(envelopes[i] == halves * degree[i] for i in net.agents)
    )
    report = StepAccounting(
        phase=phase,
        height_edges=L,
        height_levels=L + 1,
        iterations=iterations,
        backtracks=backtracks,
        mp_steps=mp,
        expected_mp_steps=expected,
        comm_events=halves,
        expected_comm_events=expected_halves,
        factorizations=facts,
        envelopes=envelopes,
        degree=degree,
        identity_ok=ok,
    )
    if strict and not ok:
        raise AccountingError(
            f"schedule identity violated: mp_steps {mp} != {expected} "
            f"(L={L}, K={iterations}, B={backtracks})"
        )
    return report
