"""Acceptance gate: eleven shipping criteria, one verdict line each.

Every test measures first, registers its verdict line (printed by the
terminal summary hook in conftest), and only then asserts, so a red
criterion still reports its numbers.  Criteria that compare against
independent oracles reuse the generators from conftest.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import conftest
from conftest import (
    agent_directions,
    direction_gap,
    interior_duals,
    make_rooted_tree,
    random_loose_qp,
    random_tree_qp,
    tree_qp_passes,
)
from treeipm import chordal, ipm, model, netsim, oracle
from treeipm.errors import TreeIpmError

TWO_CHAIN = [-1, 0, 0, 1, 2, 3, 4]


def record(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"criterion {num:2d} {verdict}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def flow_suite():
    """Fifty supply-tree instances solved distributed and centralized.

    Shared by criteria 4, 5, 9, 10 and 11; the distributed wall time is
    measured separately because criterion 4 budgets it.
    """
    params = ipm.SolverParams()
    runs = []
    dist_time = 0.0
    for seed in range(50):
        p, x0 = model.gen_flow(TWO_CHAIN, seed=seed)
        t0 = time.perf_counter()
        dist = ipm.solve(p, params, x0)
        dist_time += time.perf_counter() - t0
        cent = oracle.centralized_ipm(p, params, x0)
        runs.append((seed, p, dist, cent))
    return runs, dist_time, params


def test_criterion_1_directions_match_dense_newton():
    rng = np.random.default_rng(1)
    one = ipm.SolverParams(max_iters=1)
    t0 = time.perf_counter()
    worst_aff = worst_corr = 0.0
    for _ in range(100):
        p, x0 = random_loose_qp(rng)
        setup = ipm.prepare(p)
        lam, v = interior_duals(rng, p, setup.assignment)
        ipm.step(setup, one, ipm.start(setup, x0, lam, v), 1)
        aff, corr = agent_directions(setup)
        aff_ref, corr_ref, _, _ = oracle.mehrotra_direction(
            p, setup.assignment, setup.tree, x0, lam, v
        )
        worst_aff = max(worst_aff, direction_gap(setup.tree, aff, aff_ref))
        worst_corr = max(worst_corr, direction_gap(setup.tree, corr, corr_ref))
    elapsed = time.perf_counter() - t0
    ok = worst_aff <= 1e-8 and worst_corr <= 1e-8 and elapsed <= 10.0
    record(
        1,
        ok,
        f"100 random coupled QPs: max relative gap of the agents' directions "
        f"vs dense Newton {worst_aff:.2e} affine, {worst_corr:.2e} corrected "
        f"(tol 1e-8) in {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_upward_messages_match_subtree_minimization():
    rng = np.random.default_rng(2)
    worst = 0.0
    sep_mismatches = 0
    for _ in range(50):
        tree, data, _ = random_tree_qp(rng)
        _, messages = tree_qp_passes(tree, data)
        for child, msg in messages.items():
            par = tree.parent[child]
            if par is None:
                continue
            if msg.sep != tree.separator(child, par):
                sep_mismatches += 1
                continue
            Q, q, c = oracle.subtree_message_oracle(tree, data, child)
            worst = max(
                worst,
                np.abs(msg.Q - Q).max() / (1.0 + np.abs(Q).max()),
                np.abs(msg.q - q).max() / (1.0 + np.abs(q).max()),
                abs(msg.c - c) / (1.0 + abs(c)),
            )
    ok = sep_mismatches == 0 and worst <= 1e-9
    record(
        2,
        ok,
        f"50 random clique trees: every upward message equals the direct "
        f"subtree minimization, max gap {worst:.2e} (tol 1e-9)",
    )


def test_criterion_3_edge_side_sets_partition_everything():
    rng = np.random.default_rng(3)
    graphs = 0
    edges_checked = 0
    bad = 0
    for _ in range(100):
        q = int(rng.integers(2, 8))
        scopes, n = conftest.chain_scopes(rng, q)
        assert n <= 30
        _, _, tree = chordal.clique_tree_for(scopes, n)
        bad += not chordal.check_cip(tree)
        phi = {i: [] for i in range(tree.q)}
        for k, scope in enumerate(scopes):
            host = next(
                i for i, c in enumerate(tree.cliques) if set(scope) <= set(c)
            )
            phi[host].append(k)
        all_vars = set().union(*map(set, tree.cliques))
        for i, j in sorted(tree.edges):
            left = chordal.tree_sets(tree, i, j, phi)
            right = chordal.tree_sets(tree, j, i, phi)
            checks = (
                set(left.w_side) | set(right.w_side) == set(range(tree.q)),
                not set(left.w_side) & set(right.w_side),
                set(left.v_side) & set(right.v_side) == set(left.sep),
                set(left.v_side) | set(right.v_side) == all_vars,
                set(left.sep) == set(tree.cliques[i]) & set(tree.cliques[j]),
                set(left.subproblems) | set(right.subproblems)
                == set(range(len(scopes))),
                not set(left.subproblems) & set(right.subproblems),
            )
            bad += sum(not c for c in checks)
            edges_checked += 1
        graphs += 1
    ok = bad == 0
    record(
        3,
        ok,
        f"{graphs} random coupling graphs (<=30 vars): clique/variable/agent "
        f"side sets partition correctly on all {edges_checked} tree edges, "
        f"{bad} identity violations",
    )


def test_criterion_4_flow_suite_matches_centralized_within_budget(flow_suite):
    runs, dist_time, _ = flow_suite
    x_gap = 0.0
    worst_iter, worst_seed = 0, None
    all_converged = True
    for seed, p, dist, cent in runs:
        all_converged &= dist.converged and cent.converged
        x_gap = max(
            x_gap, np.abs(dist.x - cent.x).max() / (1.0 + np.abs(cent.x).max())
        )
        if dist.iterations > worst_iter:
            worst_iter, worst_seed = dist.iterations, seed
    ok = all_converged and x_gap <= 1e-6 and worst_iter <= 30 and dist_time <= 30.0
    record(
        4,
        ok,
        f"50-seed two-branch supply suite: max solution gap vs centralized "
        f"{x_gap:.2e} (tol 1e-6), distributed wall time {dist_time:.1f}s "
        f"(budget 30s), worst iteration count {worst_iter} at seed "
        f"{worst_seed} (bound 30)",
    )


def chain_net(length: int) -> netsim.Network:
    cliques = [(i, i + 1) for i in range(length)]
    parents = [-1] + list(range(length - 1))
    return netsim.Network(make_rooted_tree(cliques, parents))


def test_criterion_5_message_accounting_identity(flow_suite):
    runs, _, _ = flow_suite
    bad = 0
    for _, _, dist, _ in runs:
        rep = dist.accounting
        L = dist.setup.tree.height
        K, B = dist.iterations, dist.total_backtracks
        expected = 2 * L * (B + 4 * K)
        if not (rep.identity_ok and rep.mp_steps == expected == rep.expected_mp_steps):
            bad += 1
        if any(v != K for v in rep.factorizations.values()):
            bad += 1
        if any(
            rep.envelopes[i] != rep.comm_events * rep.degree[i]
            for i in rep.envelopes
        ):
            bad += 1
    ref1 = netsim.accounting(chain_net(4), 14, 7).expected_mp_steps
    ref2 = netsim.accounting(chain_net(15), 27, 21).expected_mp_steps
    ok = bad == 0 and ref1 == 378 and ref2 == 3612
    record(
        5,
        ok,
        f"message-count identity held on all 50 solves ({bad} mismatches); "
        f"reference schedules give {ref1} (expect 378) and {ref2} "
        f"(expect 3612) passes",
    )


def test_criterion_6_large_balanced_tree_within_budget():
    p, x0 = model.gen_flow(model.balanced_tree(8, 2), seed=0)
    params = ipm.SolverParams(max_iters=200)
    t0 = time.perf_counter()
    res = ipm.solve(p, params, x0, record_log=False)
    elapsed = time.perf_counter() - t0
    ok = res.converged and res.iterations <= 40 and elapsed <= 60.0
    record(
        6,
        ok,
        f"511-agent balanced binary tree: {res.status} after "
        f"{res.iterations} iterations (bound 40) in {elapsed:.1f}s "
        f"(budget 60s)",
    )


def test_criterion_7_block_factorization_reconstructs_kkt():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        tree, data, _ = random_tree_qp(rng)
        n = 1 + max(v for c in tree.cliques for v in c)
        _, messages = tree_qp_passes(tree, data)
        worst = max(worst, oracle.block_ldl_check(tree, data, messages, n))
    ok = worst <= 1e-8
    record(
        7,
        ok,
        f"25 random trees: worst block-factorization reconstruction "
        f"residual {worst:.2e} (tol 1e-8)",
    )


def test_criterion_8_redundant_equalities_are_reduced_and_solved():
    rng = np.random.default_rng(8)
    params = ipm.SolverParams(max_iters=150)
    instances = 0
    rank_bad = 0
    solver_failures = 0
    x_gap = 0.0
    all_converged = True
    while instances < 50:
        p, x_int = random_loose_qp(rng, eq_redundancy=2, eq_at_interior=True)
        if p.p_total == 0:
            continue
        instances += 1
        _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
        raw = model.assign(p, tree)
        for i, (A, _) in ipm.prepare(p, tree).assignment.local_eq.items():
            if A.shape[0] == 0:
                continue
            par = tree.parent[i]
            sep = set(tree.separator(i, par)) if par is not None else set()
            cols = [t for t, v in enumerate(tree.cliques[i]) if v not in sep]
            s = np.linalg.svd(A[:, cols], compute_uv=False)
            if s.size < A.shape[0] or s[A.shape[0] - 1] <= 1e-10 * max(1.0, s[0]):
                rank_bad += 1
        try:
            # distributed path reduces the blocks; the reference runs on
            # the raw dependent rows via least squares, so agreement
            # certifies the reduction preserved the feasible set
            dist = ipm.solve(p, params, x_int, record_log=False)
            cent = oracle.centralized_ipm(
                p, params, x_int, tree=tree, assignment=raw, use_lstsq=True
            )
        except TreeIpmError:
            solver_failures += 1
            continue
        all_converged &= dist.converged and cent.converged
        x_gap = max(
            x_gap, np.abs(dist.x - cent.x).max() / (1.0 + np.abs(cent.x).max())
        )
    ok = (
        rank_bad == 0
        and solver_failures == 0
        and all_converged
        and x_gap <= 1e-6
    )
    record(
        8,
        ok,
        f"50 instances with dependent equality rows: all reduced blocks have "
        f"full row rank over eliminated columns ({rank_bad} exceptions), "
        f"{solver_failures} solver failures, max solution gap vs dense "
        f"least-squares reference {x_gap:.2e} (tol 1e-6)",
    )


def test_criterion_9_step_sizes_agree_per_iteration(flow_suite):
    """Distributed and centralized step sizes agree iteration for iteration.

    The free-running trajectories of both solvers are compared step by
    step.  Each distributed step is also compared with the centralized
    step from the same iterate, replayed by ``oracle.same_iterate_steps``;
    the replay must retrace the distributed trajectory exactly.
    """
    runs, _, params = flow_suite
    worst = 0.0
    same_iterate = 0.0
    steps = 0
    count_mismatches = 0
    replay_mismatches = 0
    for seed, p, dist, cent in runs:
        if dist.iterations != cent.iterations:
            count_mismatches += 1
        for a, b in zip(dist.trace.rows, cent.trace.rows):
            worst = max(worst, abs(a.alpha - b.alpha))
        x0 = model.gen_flow(TWO_CHAIN, seed=seed)[1]
        pairs = oracle.same_iterate_steps(
            p, params, x0, dist.iterations, dist.setup.tree
        )
        for row, (alpha, ref) in zip(dist.trace.rows, pairs):
            replay_mismatches += alpha != row.alpha
            same_iterate = max(same_iterate, abs(alpha - ref))
            steps += 1
    ok = (
        count_mismatches == 0
        and worst <= 1e-12
        and replay_mismatches == 0
        and same_iterate <= 1e-12
    )
    record(
        9,
        ok,
        f"distributed and centralized step sizes agree iteration for "
        f"iteration: max gap {worst:.2e} (tol 1e-12), "
        f"{count_mismatches} iteration-count mismatches over 50 runs; "
        f"from the same iterate max gap {same_iterate:.2e} (tol 1e-12) over "
        f"{steps} steps, {replay_mismatches} replay mismatches",
    )


def test_criterion_10_privacy_audit_clean_and_sharp(flow_suite):
    runs, _, _ = flow_suite
    violations = sum(
        len(netsim.audit_privacy(dist.network).violations)
        for _, _, dist, _ in runs
    )
    p, x0 = model.gen_flow([-1, 0, 0, 1], seed=4)
    res = ipm.solve(p, x0=x0)
    net = res.network
    clean_before = netsim.audit_privacy(net).ok
    # reach across agent boundaries on purpose; the audit must pin it
    net._activate(2, lambda: net.get(0, "x"))
    rep = netsim.audit_privacy(net)
    injected_pinned = (
        not rep.ok
        and len(rep.violations) == 1
        and rep.violations[0]["agent"] == 2
        and rep.violations[0]["owner"] == 0
    )
    ok = violations == 0 and clean_before and injected_pinned
    record(
        10,
        ok,
        f"{violations} cross-agent reads in 50 audited solves; an injected "
        f"out-of-scope read is reported as exactly one violation with the "
        f"right agent and owner",
    )


def test_criterion_11_trace_monotonicity_and_barrier_schedule(flow_suite):
    runs, _, params = flow_suite
    bad_decrease = 0
    bad_schedule = 0
    for _, p, dist, _ in runs:
        rows = dist.trace.rows
        m = p.m_total
        for prev, nxt in zip(rows, rows[1:]):
            s_prev = prev.r_primal_norm**2 + prev.r_dual_norm**2
            s_next = nxt.r_primal_norm**2 + nxt.r_dual_norm**2
            at_floor = (
                nxt.r_primal_norm <= params.eps_feas
                and nxt.r_dual_norm <= params.eps_feas
            )
            if not (s_next <= s_prev or at_floor):
                bad_decrease += 1
            # Mehrotra: t = m / (sigma eta_hat), sigma = (eta_aff / eta_hat)^3
            sigma = (nxt.eta_aff / prev.eta_hat) ** 3
            if abs(nxt.t * sigma * prev.eta_hat - m) > 1e-12 * m:
                bad_schedule += 1
    ok = bad_decrease == 0 and bad_schedule == 0
    record(
        11,
        ok,
        f"across all 50 traces: accepted iterates never increase the "
        f"residual norm ({bad_decrease} exceptions, feasibility floor "
        f"excepted) and the barrier weight follows its update rule to "
        f"1e-12 ({bad_schedule} exceptions)",
    )
