"""Graph and clique-tree layer, cross-checked against networkx."""

from __future__ import annotations

import hashlib
import itertools
import json
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeipm import chordal, model
from treeipm.errors import DisconnectedGraphError, ProblemFormatError

# a small coupled structure used as the worked example throughout:
# six variable scopes over eight variables whose sparsity graph is
# already chordal, with five maximal cliques
SCOPES = [(0, 2), (0, 1, 3), (3, 4), (2, 3), (2, 5, 6), (2, 7)]
N_VARS = 8
EXPECTED_CLIQUES = {
    frozenset({0, 1, 3}),
    frozenset({0, 2, 3}),
    frozenset({3, 4}),
    frozenset({2, 5, 6}),
    frozenset({2, 7}),
}


def to_nx(g: chordal.UndirectedGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def tree_to_nx(tree: chordal.CliqueTree) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(tree.q))
    h.add_edges_from(tree.edges)
    return h


# ---------------- primitives ----------------


def test_index_set_normalises_and_validates():
    assert chordal.index_set([3, 1, 2]) == (1, 2, 3)
    assert chordal.index_set([]) == ()
    with pytest.raises(ProblemFormatError):
        chordal.index_set([1, 1])
    with pytest.raises(ProblemFormatError):
        chordal.index_set([-1, 2])
    with pytest.raises(ProblemFormatError):
        chordal.index_set([0, 5], n=5)


def test_make_graph_canonicalises_edges():
    g = chordal.make_graph(4, [(2, 0), (0, 2), (1, 3)])
    assert g.edges == frozenset({(0, 2), (1, 3)})
    assert g.has_edge(2, 0) and g.has_edge(0, 2)
    assert not g.has_edge(0, 1)
    adj = g.adjacency()
    assert adj[0] == {2} and adj[3] == {1}


def test_sparsity_graph_joins_scope_members():
    g = chordal.sparsity_graph(SCOPES, N_VARS)
    expected = set()
    for scope in SCOPES:
        expected |= {tuple(sorted(e)) for e in itertools.combinations(scope, 2)}
    assert g.edges == frozenset(expected)


def test_connected_components_matches_networkx():
    g = chordal.make_graph(7, [(0, 1), (1, 2), (4, 5)])
    mine = {frozenset(c) for c in chordal.connected_components(g)}
    ref = {frozenset(c) for c in nx.connected_components(to_nx(g))}
    assert mine == ref


# ---------------- chordal embedding ----------------


def test_embedding_of_chordal_graph_adds_no_fill():
    g = chordal.sparsity_graph(SCOPES, N_VARS)
    embedded, cliques = chordal.chordal_embed(g)
    assert embedded.edges == g.edges
    assert {frozenset(c) for c in cliques} == EXPECTED_CLIQUES


def test_embedding_of_cycle_is_chordal():
    # 5-cycle needs fill edges
    g = chordal.make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    embedded, cliques = chordal.chordal_embed(g)
    assert nx.is_chordal(to_nx(embedded))
    assert g.edges <= embedded.edges
    ref = {frozenset(c) for c in nx.find_cliques(to_nx(embedded))}
    assert {frozenset(c) for c in cliques} == ref


# ---------------- clique tree construction ----------------


def brute_force_max_weight(cliques) -> int:
    """Best total separator weight over all spanning trees."""
    sets = [set(c) for c in cliques]
    q = len(sets)
    nodes = range(q)
    all_edges = [
        (i, j, len(sets[i] & sets[j]))
        for i, j in itertools.combinations(nodes, 2)
        if sets[i] & sets[j]
    ]
    best = -1
    for combo in itertools.combinations(all_edges, q - 1):
        h = nx.Graph()
        h.add_nodes_from(nodes)
        h.add_weighted_edges_from(combo)
        if nx.is_connected(h):
            best = max(best, sum(w for _, _, w in combo))
    return best


def test_mwst_weight_is_optimal_on_example():
    cliques = [tuple(sorted(c)) for c in EXPECTED_CLIQUES]
    tree = chordal.mwst_clique_tree(cliques)
    sets = [set(c) for c in tree.cliques]
    got = sum(len(sets[i] & sets[j]) for i, j in tree.edges)
    assert got == brute_force_max_weight(cliques)
    assert len(tree.edges) == len(cliques) - 1
    assert nx.is_connected(tree_to_nx(tree))
    assert chordal.check_cip(tree)


def test_mwst_single_clique():
    tree = chordal.mwst_clique_tree([(1, 4, 2)])
    assert tree.cliques == [(1, 2, 4)]
    assert tree.edges == frozenset()


def test_mwst_disconnected_raises_with_components():
    with pytest.raises(DisconnectedGraphError) as exc:
        chordal.mwst_clique_tree([(0, 1), (1, 2), (5, 6)])
    comps = {frozenset(c) for c in exc.value.components}
    assert comps == {frozenset({0, 1}), frozenset({2})}


def test_root_min_height_is_a_centre():
    g, embedded, tree = chordal.clique_tree_for(SCOPES, N_VARS)
    h = tree_to_nx(tree)
    # rooted height equals the graph-theoretic minimum over all roots
    best = min(nx.eccentricity(h).values())
    assert tree.height == best
    assert tree.depth[tree.root] == 0
    for i in range(tree.q):
        par = tree.parent[i]
        if par is None:
            assert i == tree.root
        else:
            assert tree.depth[i] == tree.depth[par] + 1
            assert i in tree.children[par]


def test_post_order_children_before_parents():
    _, _, tree = chordal.clique_tree_for(SCOPES, N_VARS)
    order = tree.post_order()
    assert sorted(order) == list(range(tree.q))
    seen = set()
    for i in order:
        for ch in tree.children[i]:
            assert ch in seen
        seen.add(i)
    assert order[-1] == tree.root


def test_levels_partition_by_depth():
    _, _, tree = chordal.clique_tree_for(SCOPES, N_VARS)
    levels = tree.levels()
    for d, level in enumerate(levels):
        for i in level:
            assert tree.depth[i] == d
    assert sorted(i for level in levels for i in level) == list(range(tree.q))


# ---------------- worked example: separators and side sets ----------------


def example_tree():
    _, _, tree = chordal.clique_tree_for(SCOPES, N_VARS)
    return tree


def clique_index(tree, members) -> int:
    target = tuple(sorted(members))
    return tree.cliques.index(target)


def forced_owners(tree):
    """Each scope here fits exactly one clique, so ownership is forced."""
    phi = {i: [] for i in range(tree.q)}
    for k, scope in enumerate(SCOPES):
        hosts = [
            i for i, c in enumerate(tree.cliques) if set(scope) <= set(c)
        ]
        assert len(hosts) == 1, scope
        phi[hosts[0]].append(k)
    return phi


def test_example_edge_separator_is_forced():
    tree = example_tree()
    a = clique_index(tree, {0, 1, 3})
    b = clique_index(tree, {0, 2, 3})
    # {0,3} lives in exactly these two cliques, so the running
    # intersection property forces a direct edge between them
    assert (min(a, b), max(a, b)) in tree.edges
    assert tree.separator(a, b) == (0, 3)


def test_example_side_sets():
    tree = example_tree()
    a = clique_index(tree, {0, 1, 3})
    b = clique_index(tree, {0, 2, 3})
    phi = forced_owners(tree)
    left = chordal.tree_sets(tree, b, a, phi)
    right = chordal.tree_sets(tree, a, b, phi)
    # cliques split two ways, no overlap
    assert set(left.w_side) | set(right.w_side) == set(range(tree.q))
    assert set(left.w_side) & set(right.w_side) == set()
    assert b in left.w_side and a in right.w_side
    # variable sides overlap exactly on the separator
    assert set(left.v_side) & set(right.v_side) == {0, 3}
    assert set(left.v_side) | set(right.v_side) == set(range(N_VARS))
    # cliques {2,5,6} and {2,7} share variable 2 with {0,2,3} only,
    # so they must sit on its side
    assert clique_index(tree, {2, 5, 6}) in left.w_side
    assert clique_index(tree, {2, 7}) in left.w_side
    # scope ownership splits with the cliques
    assert set(left.subproblems) | set(right.subproblems) == set(
        range(len(SCOPES))
    )
    assert set(left.subproblems) & set(right.subproblems) == set()
    for k in (0, 3, 4, 5):  # the scopes containing variable 2
        assert k in left.subproblems


def test_tree_sets_rejects_non_edges():
    tree = example_tree()
    a = clique_index(tree, {0, 1, 3})
    c = clique_index(tree, {2, 7})
    with pytest.raises(ProblemFormatError):
        chordal.tree_sets(tree, a, c)


def test_check_cip_detects_violation():
    # a "tree" where the shared variable 7 skips the middle node
    bad = chordal.CliqueTree(
        cliques=[(0, 7), (1, 2), (2, 7)],
        edges=frozenset({(0, 1), (1, 2)}),
    )
    assert not chordal.check_cip(bad)


def pairwise_cip(tree) -> bool:
    """The definition: a spanning tree whose paths keep every pairwise intersection."""
    if tree.q <= 1:
        return True
    h = tree_to_nx(tree)
    if len(tree.edges) != tree.q - 1 or not nx.is_connected(h):
        return False
    for a, b in itertools.combinations(range(tree.q), 2):
        common = set(tree.cliques[a]) & set(tree.cliques[b])
        if any(not common <= set(tree.cliques[k]) for k in nx.shortest_path(h, a, b)):
            return False
    return True


@st.composite
def labelled_trees(draw):
    """Random cliques on a random tree, with an edge sometimes moved off it."""
    q = draw(st.integers(1, 7))
    cliques = [
        tuple(sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=4))))
        for _ in range(q)
    ]
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, q)}
    if q > 2 and draw(st.booleans()):
        edges.remove(draw(st.sampled_from(sorted(edges))))
        i, j = draw(st.sampled_from(list(itertools.combinations(range(q), 2))))
        edges.add((i, j))
    return chordal.CliqueTree(cliques, frozenset(edges))


@settings(max_examples=300, deadline=None)
@given(labelled_trees())
def test_check_cip_agrees_with_pairwise_definition(tree):
    assert chordal.check_cip(tree) == pairwise_cip(tree)


# ---------------- property tests ----------------


@st.composite
def scope_lists(draw):
    n = draw(st.integers(4, 12))
    q = draw(st.integers(2, 6))
    scopes = []
    for _ in range(q):
        size = draw(st.integers(1, min(4, n)))
        scopes.append(
            tuple(
                sorted(
                    draw(
                        st.sets(
                            st.integers(0, n - 1), min_size=size, max_size=size
                        )
                    )
                )
            )
        )
    return n, scopes


@settings(max_examples=60, deadline=None)
@given(scope_lists())
def test_pipeline_properties(case):
    n, scopes = case
    covered = {v for s in scopes for v in s}
    try:
        g, embedded, tree = chordal.clique_tree_for(scopes, n)
    except DisconnectedGraphError:
        # only uncovered variables or genuinely split couplings may raise
        h = to_nx(chordal.sparsity_graph(scopes, n))
        whole = covered == set(range(n)) and (
            n <= 1 or nx.is_connected(h)
        )
        assert not whole
        return
    hx = to_nx(embedded)
    assert nx.is_chordal(hx)
    assert g.edges <= embedded.edges
    # every returned clique is maximal in the embedding
    maximal = {frozenset(c) for c in nx.find_cliques(hx)}
    for c in tree.cliques:
        assert frozenset(c) in maximal, c
    # every scope fits inside some clique
    for scope in scopes:
        if len(scope) == 0:
            continue
        assert any(set(scope) <= set(c) for c in tree.cliques), scope
    assert chordal.check_cip(tree)
    th = tree_to_nx(tree)
    assert nx.is_tree(th)
    assert tree.height == min(nx.eccentricity(th).values())
    # separator identity on every edge
    for i, j in tree.edges:
        ts = chordal.tree_sets(tree, i, j)
        ot = chordal.tree_sets(tree, j, i)
        sep = set(tree.cliques[i]) & set(tree.cliques[j])
        assert set(ts.sep) == sep
        assert set(ts.v_side) & set(ot.v_side) == sep
        assert set(ts.w_side) | set(ot.w_side) == set(range(tree.q))


# ---------------- tie-breaks of the embedding and the spanning tree ----------------


def reference_embed(g):
    """Minimum degree, lowest index first; returns the fill edges and the cliques."""
    adj = g.adjacency()
    active = set(range(g.n))
    fill, cliques = set(), []
    while active:
        v = min(active, key=lambda u: (len(adj[u]), u))
        for a, b in itertools.combinations(sorted(adj[v]), 2):
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                fill.add((a, b))
        cand = adj[v] | {v}
        if not any(cand <= set(c) for c in cliques):
            cliques = [c for c in cliques if not set(c) < cand]
            cliques.append(tuple(sorted(cand)))
        for u in adj[v]:
            adj[u].discard(v)
        active.remove(v)
    return fill, cliques


def reference_prim(cliques):
    """Prim from clique 0: heaviest crossing edge, smallest ``(i, j)`` on ties.

    Returns the tree edges, or the components of the intersection graph
    when the cliques cannot be spanned.
    """
    sets = [set(c) for c in cliques]
    q = len(sets)
    in_tree, edges = {0}, set()
    while len(in_tree) < q:
        keys = [
            (-len(sets[i] & sets[j]), (min(i, j), max(i, j)), j)
            for i in in_tree
            for j in range(q)
            if j not in in_tree and sets[i] & sets[j]
        ]
        if not keys:
            h = nx.Graph()
            h.add_nodes_from(range(q))
            h.add_edges_from(
                (i, j) for i, j in itertools.combinations(range(q), 2) if sets[i] & sets[j]
            )
            return None, sorted(sorted(c) for c in nx.connected_components(h))
        _, edge, j = min(keys)
        edges.add(edge)
        in_tree.add(j)
    return frozenset(edges), None


def assert_prim_matches(cliques):
    edges, components = reference_prim(cliques)
    if edges is None:
        with pytest.raises(DisconnectedGraphError) as exc:
            chordal.mwst_clique_tree(cliques)
        assert exc.value.components == components
    else:
        assert chordal.mwst_clique_tree(cliques).edges == edges


@st.composite
def connected_scope_lists(draw):
    """Scopes that cover ``0..n-1``, mostly joined, sometimes split."""
    n = draw(st.integers(2, 16))
    scopes = [
        tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=5))))
        for _ in range(draw(st.integers(1, 10)))
    ]
    covered = {v for s in scopes for v in s}
    scopes += [(v,) for v in range(n) if v not in covered]
    return n, scopes


@settings(max_examples=300, deadline=None)
@given(st.one_of(scope_lists(), connected_scope_lists()))
def test_embedding_and_tree_keep_the_reference_tie_breaks(case):
    n, scopes = case
    g = chordal.sparsity_graph(scopes, n)
    embedded, cliques = chordal.chordal_embed(g)
    fill, ref_cliques = reference_embed(g)
    assert embedded.edges - g.edges == fill
    assert cliques == ref_cliques
    assert_prim_matches(cliques)
    assert_prim_matches(scopes)


# sha256 of the sorted-key JSON of the criterion-6 tree (flow seed 0, 511 agents)
H8_TREE_SHA256 = "35d32eeb5ff68c3d2a7641ff9309bdf30156e19032e648718975ad3c4aa3eef4"


def test_criterion_6_tree_is_pinned():
    p, _ = model.gen_flow(model.balanced_tree(8, 2), seed=0)
    _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
    assert (tree.q, tree.height) == (574, 11)
    doc = json.dumps(tree.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == H8_TREE_SHA256


def test_clique_tree_for_scales_to_1023_agents():
    p, _ = model.gen_flow(model.balanced_tree(9, 2), seed=0)
    start = time.perf_counter()
    _, _, tree = chordal.clique_tree_for(p.scopes(), p.n)
    assert time.perf_counter() - start < 2.0
    assert tree.q == 1150
    assert chordal.check_cip(tree)
