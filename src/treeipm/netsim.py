"""Deterministic multi-agent simulation over a rooted clique tree.

One agent per clique.  Communication happens in synchronous passes: an
upward pass runs deepest level first, each non-root agent handing exactly
one payload to its parent; a downward pass runs root first, each agent
handing one payload to every child.  Agents keep no private store: their
data lives in groups, each field of a group an array with one row per
member (or a list or tuple of such arrays); an agent is its row of its
group.  A pass calls its handler once per *pass unit*, members of a group
on one tree level, and a local step calls its kernel once per group;
either computes each member's result from that member's rows and
payloads alone.  While it runs, its members are the *reader*: every read
is logged, a member's own row as its own read and any other row as a
read by the reader's first member, which the privacy audit flags.

Counters track message-passing steps (one per tree level per pass),
per-agent factorizations and the payloads each agent sent and received.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Sequence

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


def _take(value: Any, rows: int | slice) -> Any:
    """``rows`` of a group field: of each array in it, keeping its nesting."""
    if type(value) is np.ndarray:
        return value[rows]
    out = [_take(v, rows) for v in value]
    return out if type(value) is list else tuple(out)


def _put(old: Any, rows: slice, size: int, value: Any) -> Any:
    """Field ``old`` of ``size`` rows (or ``None``) with ``rows`` set to ``value``."""
    if type(value) is not np.ndarray:
        olds = [None] * len(value) if old is None else old
        out = [_put(o, rows, size, v) for o, v in zip(olds, value)]
        return out if type(value) is list else tuple(out)
    if old is None:
        old = np.empty((size,) + value.shape[1:], value.dtype)
    old[rows] = value
    return old


class Members:
    """Agents of one group and their ``rows`` of its fields: a pass unit
    (``spec`` the group's description of it) or the whole group."""

    def __init__(self, net: "Network", group: Any, fields: dict, rows: slice, spec: Any = None):
        self.net, self.group, self.spec, self._fields = net, group, spec, fields
        self.ids = group.members[rows]
        self.kids = [net.tree.children[i] for i in self.ids]
        # members that are the whole group read and write whole fields
        self._rows = None if len(self.ids) == len(group.members) else rows

    def get(self, name: str) -> Any:
        """The members' rows of field ``name``, each read logged."""
        self.net._log_reads(self.ids, name)
        value = self._fields[name]
        return value if self._rows is None else _take(value, self._rows)

    def has(self, name: str) -> bool:
        return name in self._fields

    def count_factorizations(self) -> None:
        """One factorization for each member."""
        for i in self.ids:
            self.net.factorizations[self.net.phase][i] += 1

    def put(self, name: str, value: Any) -> None:
        """Write the members' rows of field ``name``."""
        if self._rows is None:
            self._fields[name] = value
        else:
            size = len(self.group.members)
            self._fields[name] = _put(self._fields.get(name), self._rows, size, value)


UpHandler = Callable[[Members, list[list[Any]]], Sequence[Any]]
DownHandler = Callable[[Members, list[Any]], Sequence[Sequence[Any]]]
LocalKernel = Callable[[Members], None]


class Network:
    """Synchronous message passing with accounting over a rooted tree."""

    def __init__(self, tree: CliqueTree, record_log: bool = True):
        if not tree.is_rooted:
            raise TopologyError("network requires a rooted clique tree")
        self.tree = tree
        self.height = tree.height or 0
        self.levels = tree.levels()
        # each level's children, in the order a downward pass sends to them
        self._below = [[c for i in level for c in tree.children[i]] for level in self.levels]
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
        # the member ids of the running unit or group, or of an activated agent
        self._reader: list[int] | None = None
        self._pass_counter = 0
        # each agent its own group until the caller sets groups
        depth = tree.depth
        self.set_groups(
            SimpleNamespace(members=[i], units=[(depth[i], slice(0, 1))]) for i in range(tree.q)
        )

    def set_groups(self, groups: Iterable) -> None:
        """Store agents by group, each with ``members`` and ``units``
        ``(depth, rows, ...)``: its members' rows on one tree level."""
        self.groups: list[Members] = []
        self.units: list[list[Members]] = [[] for _ in self.levels]
        # each agent's group fields and its row of them
        self._home: dict[int, tuple[dict, int]] = {}
        for group in groups:
            fields: dict[str, Any] = {}
            self.groups.append(Members(self, group, fields, slice(None)))
            self._home.update((i, (fields, row)) for row, i in enumerate(group.members))
            for spec in group.units:
                self.units[spec[0]].append(Members(self, group, fields, spec[1], spec))

    # ---- phases and counters ----

    def get(self, agent: int, name: str) -> Any:
        """``agent``'s row of its group's field ``name``, the read logged."""
        fields, row = self._home[agent]
        self._log_reads([agent], name)
        return _take(fields[name], row)

    def begin_phase(self, name: str) -> None:
        self.phase = name

    def _start_pass(self, kind: str) -> None:
        if kind not in ENVELOPE_KINDS:
            raise TopologyError(f"unknown envelope kind {kind!r}")
        self._pass_counter += 1

    def _finish_pass(self) -> None:
        self.mp_steps[self.phase] += self.height
        self.half_passes[self.phase] += 1

    def _log_reads(self, owners: list[int], name: str) -> None:
        """Log the reader's read of the ``owners``' rows of field ``name``;
        outside a pass, a local step or an activation nothing is logged."""
        reader = self._reader
        if reader is None or self.events is None:
            return
        events, phase, pass_id = self.events, self.phase, self._pass_counter
        # a unit or group reading its own rows needs no membership test
        for i in owners:
            events.append(
                {
                    "type": "read",
                    "phase": phase,
                    "pass": pass_id,
                    "agent": i if owners is reader or i in reader else reader[0],
                    "owner": i,
                    "field": name,
                }
            )

    def _deliver(self, kind: str, level: int, items: list[tuple[int, int, Any]]) -> None:
        """Count and log one level's ``(src, dst, payload)`` items, in order."""
        sent, received = self.sent[self.phase], self.received[self.phase]
        for src, dst, _ in items:
            sent[src] += 1
            received[dst] += 1
        if self.events is not None:
            self.events.extend(
                {
                    "type": "deliver",
                    "phase": self.phase,
                    "pass": self._pass_counter,
                    "level": level,
                    "src": src,
                    "dst": dst,
                    "kind": kind,
                    "payload": _summarize(payload),
                }
                for src, dst, payload in items
            )

    def _activate(self, agent: int, fn: Callable[[], Any]) -> Any:
        """``fn()`` with ``agent`` as the reader."""
        self._reader = [agent]
        try:
            return fn()
        finally:
            self._reader = None

    # ---- local steps and passes ----

    def run_local(self, kernel: LocalKernel) -> None:
        """``kernel(group)`` once per group; nothing is sent and no round counted."""
        try:
            for group in self.groups:
                self._reader = group.ids
                kernel(group)
        finally:
            self._reader = None

    def run_up(self, kind: str, handler: UpHandler) -> Any:
        """Leaves to root; every non-root agent sends one payload up.
        ``handler(unit, inboxes)`` gets each member's children's payloads
        in child order (``unit.kids`` names the children) and returns each
        member's payload.  Returns the root's."""
        self._start_pass(kind)
        parent, pending = self.tree.parent, {}
        try:
            for level in range(len(self.levels) - 1, 0, -1):
                for unit in self.units[level]:
                    self._reader = unit.ids
                    payloads = handler(unit, [[pending.pop(c) for c in kids] for kids in unit.kids])
                    for i, payload in zip(unit.ids, payloads, strict=True):
                        if payload is None:
                            raise TopologyError(
                                f"agent {i} produced no payload on an upward pass"
                            )
                        pending[i] = payload
                self._deliver(kind, level, [(i, parent[i], pending[i]) for i in self.levels[level]])
            (root,) = self.units[0]
            self._reader = root.ids
            result = handler(root, [[pending.pop(c) for c in kids] for kids in root.kids])[0]
        finally:
            self._reader = None
        self._finish_pass()
        return result

    def run_down(self, kind: str, handler: DownHandler) -> None:
        """Root to leaves; every agent sends one payload to each child.
        ``handler(unit, payloads)`` gets each member's parent's payload
        (``None`` at the root) and returns, per child position, each
        member's payload for its child there."""
        self._start_pass(kind)
        parent, pending = self.tree.parent, {}
        try:
            for level, units in enumerate(self.units):
                for unit in units:
                    self._reader = unit.ids
                    slots = handler(unit, [pending.pop(i, None) for i in unit.ids])
                    for b, (i, kids) in enumerate(zip(unit.ids, unit.kids)):
                        if len(slots) != len(kids):
                            raise TopologyError(
                                f"agent {i} must address exactly its children {kids}, "
                                f"got {len(slots)} payloads"
                            )
                        for c, slot in zip(kids, slots):
                            pending[c] = slot[b]
                self._deliver(kind, level, [(parent[c], c, pending[c]) for c in self._below[level]])
        finally:
            self._reader = None
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

    Payloads are delivered explicitly and tree-edge locality is
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
    tree, agents = net.tree, range(net.tree.q)
    facts = {i: net.factorizations.get(phase, {}).get(i, 0) for i in agents}
    degree = {i: len(tree.children[i]) + (tree.parent[i] is not None) for i in agents}
    envelopes = {
        i: net.sent.get(phase, {}).get(i, 0) + net.received.get(phase, {}).get(i, 0)
        for i in agents
    }
    ok = (
        mp == expected
        and halves == expected_halves
        and all(v == iterations for v in facts.values())
        and all(envelopes[i] == halves * degree[i] for i in agents)
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
