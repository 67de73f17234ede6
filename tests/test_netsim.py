"""Synchronous tree network: passes, privacy audit, step accounting."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from treeipm import chordal, ipm, model, netsim
from treeipm.errors import AccountingError, TopologyError

from conftest import make_rooted_tree


def chain_tree(length):
    # cliques (0,1), (1,2), ... rooted at 0: edge-height = length - 1
    cliques = [(i, i + 1) for i in range(length)]
    parents = [-1] + list(range(length - 1))
    return make_rooted_tree(cliques, parents)


def star_tree(leaves):
    cliques = [tuple(range(leaves + 1))] + [(i,) for i in range(leaves)]
    # leaf cliques each share variable i with the hub
    cliques = [tuple(range(leaves))] + [(i, leaves + i) for i in range(leaves)]
    parents = [-1] + [0] * leaves
    return make_rooted_tree(cliques, parents)


# ---------------- pass mechanics ----------------


def test_run_up_aggregates_and_orders_inbox():
    tree = star_tree(3)
    net = netsim.Network(tree)
    # each agent is a group of its own until groups are set
    for i, group in enumerate(net.groups):
        group.put("val", np.array([i + 1]))

    seen = {}

    def up(unit, inboxes):
        # a payload names its sender next to its subtree's sum
        out = []
        for i, val, inbox in zip(unit.ids, unit.get("val"), inboxes):
            seen[i] = [src for src, _ in inbox]
            out.append((i, val + sum(s for _, s in inbox)))
        return out

    _, total = net.run_up("qp-message", up)
    assert total == sum(i + 1 for i in range(tree.q))
    assert seen[tree.root] == [1, 2, 3]  # ascending child order
    assert all(seen[i] == [] for i in (1, 2, 3))


def test_run_up_requires_payloads():
    net = netsim.Network(chain_tree(3))

    def up(unit, inboxes):
        return [None if i == 2 else 1.0 for i in unit.ids]

    with pytest.raises(TopologyError, match="agent 2 produced no payload"):
        net.run_up("qp-message", up)


def test_run_up_rejects_unknown_kind():
    net = netsim.Network(chain_tree(2))
    with pytest.raises(TopologyError, match="unknown envelope kind"):
        net.run_up("gossip", lambda unit, inboxes: [1.0] * len(unit.ids))


def test_run_down_broadcast_and_addressing():
    tree = star_tree(3)
    net = netsim.Network(tree)
    net.groups[tree.root].put("word", np.array(["go"]))
    got = {}

    def down(unit, payloads):
        (i,), (kids,), (payload,) = unit.ids, unit.kids, payloads
        w = payload if payload is not None else unit.get("word")[0]
        got[i] = w
        return [[w] for _ in kids]

    net.run_down("stop-broadcast", down)
    assert got == {i: "go" for i in range(tree.q)}

    def bad(unit, payloads):
        return []  # hub fails to address its children

    with pytest.raises(TopologyError, match="must address exactly its children"):
        net.run_down("stop-broadcast", bad)


def test_network_requires_rooted_tree():
    unrooted = chordal.mwst_clique_tree([(0, 1), (1, 2)])
    with pytest.raises(TopologyError):
        netsim.Network(unrooted)


def test_mp_steps_count_levels_per_pass():
    net = netsim.Network(chain_tree(4))  # edge-height 3
    net.begin_phase("solve")
    net.run_up("qp-message", lambda unit, inboxes: [0.0] * len(unit.ids))
    net.run_down("stop-broadcast", lambda unit, payloads: [[0]] * len(unit.kids[0]))
    assert net.mp_steps["solve"] == 2 * 3
    assert net.half_passes["solve"] == 2
    assert net.mp_steps.get("setup", 0) == 0


# ---------------- run log and privacy ----------------


def test_run_log_export(tmp_path):
    tree = star_tree(2)
    net = netsim.Network(tree)
    for i, group in enumerate(net.groups):
        group.put("val", np.array([float(i)]))

    def up(unit, inboxes):
        return [val + sum(inbox) for val, inbox in zip(unit.get("val"), inboxes)]

    net.run_up("residual-partial", up)
    path = tmp_path / "log.jsonl"
    net.to_jsonl(path)
    events = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = {e["type"] for e in events}
    assert kinds == {"read", "deliver"}
    deliver = [e for e in events if e["type"] == "deliver"]
    assert len(deliver) == 2  # one envelope per non-root agent
    assert all(e["kind"] == "residual-partial" for e in deliver)
    assert all(e["dst"] == tree.root for e in deliver)


def test_a_logged_solve_delivers_every_envelope_kind():
    p, x0 = model.gen_flow([-1, 0, 0, 1, 2], seed=4)
    net = ipm.solve(p, x0=x0).network
    deliver = [e for e in net.events if e["type"] == "deliver"]
    assert {e["kind"] for e in deliver} == netsim.ENVELOPE_KINDS
    # the step bound travels alone; set-up holds the equality push and the
    # start point's residual pass
    bounds = [e["payload"] for e in deliver if e["kind"] == "alpha-bound"]
    assert bounds and all(isinstance(b, float) for b in bounds)
    setup = {e["kind"] for e in deliver if e["phase"] == "setup"}
    assert setup == {"eq-constraint-push", "residual-partial"}
    assert net.half_passes["setup"] == 2


def test_run_log_disabled_raises(tmp_path):
    net = netsim.Network(chain_tree(2), record_log=False)
    with pytest.raises(AccountingError, match="run log disabled"):
        net.to_jsonl(tmp_path / "log.jsonl")


def test_privacy_audit_clean_solve():
    p, x0 = model.gen_flow([-1, 0, 0, 1], seed=4)
    r = ipm.solve(p, x0=x0)
    rep = netsim.audit_privacy(r.network)
    assert rep.ok and not rep.skipped
    assert rep.violations == []
    assert rep.n_reads > 0 and rep.n_deliveries > 0
    assert "clean" in str(rep)


def test_privacy_audit_skipped_without_log():
    assert netsim.audit_privacy(None).skipped
    net = netsim.Network(chain_tree(2), record_log=False)
    rep = netsim.audit_privacy(net)
    assert rep.skipped and rep.ok
    assert "skipped" in str(rep)


def test_privacy_audit_flags_cross_agent_read():
    tree = chain_tree(3)
    net = netsim.Network(tree)
    net.groups[0].put("secret", np.array([42]))
    # agent 2 reaches into agent 0's row: exactly one violation
    leaked = net._activate(2, lambda: net.get(0, "secret"))
    assert leaked == 42
    rep = netsim.audit_privacy(net)
    assert not rep.ok
    assert len(rep.violations) == 1
    event = rep.violations[0]
    assert event["agent"] == 2 and event["owner"] == 0
    assert event["field"] == "secret"
    assert "violation" in str(rep)


def test_local_step_sends_nothing_and_logs_owner_reads():
    tree = star_tree(3)
    net = netsim.Network(tree)
    net.set_groups(
        [
            SimpleNamespace(members=[1, 3], units=[(1, slice(0, 2))]),
            SimpleNamespace(members=[0, 2], units=[(0, slice(0, 1)), (1, slice(1, 2))]),
        ]
    )
    for group in net.groups:
        group.put("val", np.array(group.ids, dtype=float))
    net.run_up("qp-message", lambda unit, inboxes: [0.0] * len(unit.ids))
    before = (dict(net.mp_steps), dict(net.half_passes), net._pass_counter)
    n_events = len(net.events)
    calls = []

    def kernel(group):
        calls.append(group.ids)
        group.put("twice", group.get("val") * 2.0)

    net.run_local(kernel)
    assert calls == [[1, 3], [0, 2]]
    assert [net.get(i, "twice") for i in range(4)] == [0.0, 2.0, 4.0, 6.0]
    assert (dict(net.mp_steps), dict(net.half_passes), net._pass_counter) == before
    new = net.events[n_events:]
    assert [(e["type"], e["agent"], e["owner"]) for e in new] == [
        ("read", i, i) for i in (1, 3, 0, 2)
    ]
    # outside a pass or a local step nothing is logged
    net.get(0, "val")
    assert len(net.events) == n_events + 4


def test_reads_outside_the_running_members_are_charged_to_the_reader():
    # an up pass, a down pass and a local step each read one row of an
    # agent that is not running; the audit reports exactly those reads, each
    # by the running unit's or group's first member
    tree = star_tree(3)
    net = netsim.Network(tree)
    net.set_groups(
        [
            SimpleNamespace(members=[1, 3], units=[(1, slice(0, 2))]),
            SimpleNamespace(members=[0, 2], units=[(0, slice(0, 1)), (1, slice(1, 2))]),
        ]
    )
    for group in net.groups:
        group.put("val", np.array(group.ids, dtype=float))

    def up(unit, inboxes):
        if unit.ids == [1, 3]:
            net.get(3, "val")  # a member's own row, read by agent 3
            net.get(2, "val")
        return [0.0] * len(unit.ids)

    def down(unit, payloads):
        if unit.ids == [0]:
            net.get(3, "val")
        return [[0] * len(unit.ids)] * len(unit.kids[0])

    def kernel(group):
        if group.ids == [0, 2]:
            net.get(1, "val")

    net.run_up("qp-message", up)
    net.run_down("stop-broadcast", down)
    net.run_local(kernel)
    rep = netsim.audit_privacy(net)
    assert rep.n_reads == 4
    assert [(e["pass"], e["agent"], e["owner"]) for e in rep.violations] == [
        (1, 1, 2), (2, 0, 3), (2, 0, 1)
    ]


def interleaved_tree():
    """Root 0; children 1-4; grandchildren 5 and 6 under 1, 7 under 2, 8
    and 9 under 3, 10 under 4."""
    cliques = [(0, 1, 2, 3)] + [(i, 10 + i) for i in range(4)]
    cliques += [(10, 20), (10, 21), (11, 22), (12, 23), (12, 24), (13, 25)]
    return make_rooted_tree(cliques, [-1, 0, 0, 0, 0, 1, 1, 2, 3, 3, 4])


def test_pass_units_keep_delivery_order_and_counts():
    # two groups interleaved by agent id on every level: the handlers run
    # group by group, the payloads go out as a one-agent-per-call pass
    # sends them, and the counters count what was handed over
    tree = interleaved_tree()
    net = netsim.Network(tree)
    net.set_groups(
        [
            SimpleNamespace(members=[1, 3, 5, 7, 9], units=[(1, slice(0, 2)), (2, slice(2, 5))]),
            SimpleNamespace(
                members=[0, 2, 4, 6, 8, 10],
                units=[(0, slice(0, 1)), (1, slice(1, 3)), (2, slice(3, 6))],
            ),
        ]
    )
    net.begin_phase("solve")
    calls, inboxes_seen = [], {}

    def up(unit, inboxes):
        calls.append(unit.ids)
        for i, inbox in zip(unit.ids, inboxes):
            inboxes_seen[i] = [int(src) for src in inbox]
        return [float(i) for i in unit.ids]

    def down(unit, payloads):
        calls.append(unit.ids)
        return [list(unit.ids)] * len(unit.kids[0])

    net.run_up("residual-partial", up)
    assert calls == [[5, 7, 9], [6, 8, 10], [1, 3], [2, 4], [0]]
    assert inboxes_seen == {
        0: [1, 2, 3, 4], 1: [5, 6], 2: [7], 3: [8, 9], 4: [10],
        **{i: [] for i in range(5, 11)},
    }
    net.run_down("alpha-broadcast", down)
    delivered = [(e["src"], e["dst"]) for e in net.events if e["type"] == "deliver"]
    up_order = [(i, tree.parent[i]) for i in (5, 6, 7, 8, 9, 10, 1, 2, 3, 4)]
    down_order = [(0, c) for c in (1, 2, 3, 4)] + [
        (1, 5), (1, 6), (2, 7), (3, 8), (3, 9), (4, 10)
    ]
    assert delivered == up_order + down_order
    levels = [e["level"] for e in net.events if e["type"] == "deliver"]
    assert levels == [2] * 6 + [1] * 4 + [0] * 4 + [1] * 6
    agents = range(tree.q)
    sent = {i: sum(src == i for src, _ in delivered) for i in agents}
    received = {i: sum(dst == i for _, dst in delivered) for i in agents}
    assert {i: net.sent["solve"].get(i, 0) for i in agents} == sent
    assert {i: net.received["solve"].get(i, 0) for i in agents} == received


# ---------------- step accounting ----------------


def test_accounting_identity_on_a_real_solve():
    p, x0 = model.gen_flow([-1, 0, 1, 1, 2], seed=9)
    r = ipm.solve(p, x0=x0)
    rep = netsim.accounting(r.network, r.iterations, r.total_backtracks, strict=True)
    L = r.setup.tree.height
    K, B = r.iterations, r.total_backtracks
    assert rep.identity_ok
    assert rep.mp_steps == 2 * L * (B + 4 * K) == rep.expected_mp_steps
    assert rep.comm_events == 2 * (B + 4 * K)
    assert all(v == K for v in rep.factorizations.values())
    for i, env_count in rep.envelopes.items():
        assert env_count == rep.comm_events * rep.degree[i]
    doc = rep.to_json_dict()
    assert doc["identity_ok"] is True
    assert doc["mp_steps"] == rep.mp_steps
    json.dumps(doc)  # serializable


def test_accounting_formula_reference_values():
    # height-3 schedule: 14 iterations with 7 extra candidates cost 378
    net = netsim.Network(chain_tree(4))
    rep = netsim.accounting(net, 14, 7)
    assert rep.height_edges == 3
    assert rep.expected_mp_steps == 2 * 3 * (7 + 4 * 14) == 378
    # height-14 schedule: 27 iterations with 21 extra candidates cost 3612
    net = netsim.Network(chain_tree(15))
    rep = netsim.accounting(net, 27, 21)
    assert rep.expected_mp_steps == 2 * 14 * (21 + 4 * 27) == 3612


def test_accounting_strict_raises_on_mismatch():
    net = netsim.Network(chain_tree(3))
    with pytest.raises(AccountingError, match="schedule identity violated"):
        netsim.accounting(net, 5, 0, strict=True)


def test_env_degree_and_store():
    tree = star_tree(2)
    net = netsim.Network(tree)
    degree = netsim.accounting(net, 0, 0).degree
    assert degree[tree.root] == 2
    assert degree[1] == 1
    net.groups[tree.root].put("k", np.array([7]))
    assert net.groups[tree.root].has("k") and not net.groups[1].has("k")
    assert net.get(tree.root, "k") == 7
