"""Coupling graphs, chordal embeddings and clique trees.

Variables are integers ``0..n-1``.  Index sets (variable scopes, cliques)
are kept as strictly increasing tuples so that set algebra stays cheap and
every derived object is deterministic for a given input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from treeipm.errors import DisconnectedGraphError, ProblemFormatError

IndexSet = tuple[int, ...]


def index_set(items: Iterable[int], n: int | None = None) -> IndexSet:
    """Normalise ``items`` into a strictly increasing tuple of ints.

    Raises on duplicates, negative entries, and (when ``n`` is given)
    out-of-range entries.
    """
    values = [int(v) for v in items]
    out = tuple(sorted(values))
    if len(set(out)) != len(out):
        raise ProblemFormatError(f"duplicate indices in {values}")
    if out and out[0] < 0:
        raise ProblemFormatError(f"negative index in {values}")
    if n is not None and out and out[-1] >= n:
        raise ProblemFormatError(f"index {out[-1]} out of range for n={n}")
    return out


def _canon(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class UndirectedGraph:
    """A simple undirected graph on vertices ``0..n-1``."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ProblemFormatError(f"bad edge ({u}, {v}) for n={self.n}")

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return _canon(u, v) in self.edges

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> UndirectedGraph:
    canon = set()
    for u, v in edges:
        if u == v:
            raise ProblemFormatError(f"self loop at vertex {u}")
        canon.add(_canon(int(u), int(v)))
    return UndirectedGraph(n, frozenset(canon))


def sparsity_graph(index_sets: Sequence[Iterable[int]], n: int) -> UndirectedGraph:
    """Graph on variables: an edge joins two variables sharing a scope."""
    edges = set()
    for raw in index_sets:
        scope = index_set(raw, n)
        for a_pos in range(len(scope)):
            for b_pos in range(a_pos + 1, len(scope)):
                edges.add((scope[a_pos], scope[b_pos]))
    return UndirectedGraph(n, frozenset(edges))


def coupling_graph(index_sets: Sequence[Iterable[int]]) -> UndirectedGraph:
    """Graph on agents: an edge joins two scopes with a common variable."""
    scopes = [frozenset(index_set(raw)) for raw in index_sets]
    q = len(scopes)
    edges = set()
    for i in range(q):
        for j in range(i + 1, q):
            if scopes[i] & scopes[j]:
                edges.add((i, j))
    return UndirectedGraph(q, frozenset(edges))


def connected_components(g: UndirectedGraph) -> list[list[int]]:
    adj = g.adjacency()
    seen = [False] * g.n
    comps: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in sorted(adj[u]):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def chordal_embed(g: UndirectedGraph) -> tuple[UndirectedGraph, list[IndexSet]]:
    """Greedy minimum-degree triangulation of ``g``.

    Repeatedly eliminates a minimum-degree vertex (ties broken by lowest
    index), connecting its remaining neighbours.  Returns the filled graph
    together with its maximal cliques in discovery order.

    The output graph is chordal, contains ``g``, and the returned cliques
    are exactly its maximal complete subgraphs.
    """
    adj = g.adjacency()
    active = set(range(g.n))
    fill: set[tuple[int, int]] = set()
    cliques: list[IndexSet] = []

    while active:
        v = min(active, key=lambda u: (len(adj[u]), u))
        neigh = sorted(adj[v])
        cand = frozenset([v, *neigh])
        # connect the eliminated vertex's neighbourhood
        for a_pos in range(len(neigh)):
            for b_pos in range(a_pos + 1, len(neigh)):
                a, b = neigh[a_pos], neigh[b_pos]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    fill.add(_canon(a, b))
        stored = [frozenset(c) for c in cliques]
        if not any(cand <= s for s in stored):
            # drop earlier cliques that the new one absorbs
            cliques = [c for c, s in zip(cliques, stored) if not (s < cand)]
            cliques.append(tuple(sorted(cand)))
        for u in neigh:
            adj[u].discard(v)
        adj[v].clear()
        active.remove(v)

    embedded = UndirectedGraph(g.n, frozenset(g.edges | fill))
    return embedded, cliques


@dataclass
class CliqueTree:
    """A tree over cliques; optionally rooted.

    ``edges`` hold canonical ``(i, j)`` pairs of clique indices.  Rooted
    trees additionally carry parent/children maps, per-clique depths and
    the edge-count height.
    """

    cliques: list[IndexSet]
    edges: frozenset[tuple[int, int]]
    root: int | None = None
    parent: dict[int, int | None] = field(default_factory=dict)
    children: dict[int, list[int]] = field(default_factory=dict)
    depth: dict[int, int] = field(default_factory=dict)
    height: int | None = None

    @property
    def q(self) -> int:
        return len(self.cliques)

    @property
    def is_rooted(self) -> bool:
        return self.root is not None

    def neighbors(self, i: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)

    def separator(self, i: int, j: int) -> IndexSet:
        if _canon(i, j) not in self.edges:
            raise ProblemFormatError(f"({i}, {j}) is not a tree edge")
        return tuple(sorted(set(self.cliques[i]) & set(self.cliques[j])))

    def post_order(self) -> list[int]:
        """Clique indices with every child before its parent."""
        if not self.is_rooted:
            raise ProblemFormatError("tree is not rooted")
        out: list[int] = []
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                out.append(node)
            else:
                stack.append((node, True))
                for c in reversed(self.children[node]):
                    stack.append((c, False))
        return out

    def levels(self) -> list[list[int]]:
        """Cliques grouped by depth, root first."""
        if not self.is_rooted:
            raise ProblemFormatError("tree is not rooted")
        out: list[list[int]] = [[] for _ in range((self.height or 0) + 1)]
        for i in range(self.q):
            out[self.depth[i]].append(i)
        return [sorted(level) for level in out]

    def to_json_dict(self) -> dict:
        return {
            "cliques": [list(c) for c in self.cliques],
            "edges": [list(e) for e in sorted(self.edges)],
            "root": self.root,
            "height": self.height,
        }


def tree_from_json(doc: Mapping) -> CliqueTree:
    cliques = [index_set(c) for c in doc["cliques"]]
    edges = frozenset(_canon(int(i), int(j)) for i, j in doc["edges"])
    tree = CliqueTree(cliques, edges)
    if doc.get("root") is not None:
        tree = _root_at(tree, int(doc["root"]))
    return tree


def _tree_adjacency(tree: CliqueTree) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(tree.q)]
    for i, j in tree.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _root_at(tree: CliqueTree, root: int) -> CliqueTree:
    adj = _tree_adjacency(tree)
    parent: dict[int, int | None] = {root: None}
    children: dict[int, list[int]] = {i: [] for i in range(tree.q)}
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in sorted(adj[u]):
            if w not in parent:
                parent[w] = u
                children[u].append(w)
                depth[w] = depth[u] + 1
                queue.append(w)
    if len(parent) != tree.q:
        missing = [i for i in range(tree.q) if i not in parent]
        raise DisconnectedGraphError([sorted(parent), missing])
    height = max(depth.values()) if depth else 0
    return CliqueTree(
        list(tree.cliques), tree.edges, root, parent, children, depth, height
    )


def mwst_clique_tree(cliques: Sequence[Iterable[int]]) -> CliqueTree:
    """Maximum-weight spanning tree over clique intersection sizes.

    Grows the tree greedily from clique 0; at each step the heaviest
    crossing edge wins, with ties broken by the smallest ``(i, j)`` pair.
    Cliques with pairwise empty intersections cannot be joined, so a
    disconnected intersection structure raises.
    """
    sets = [frozenset(index_set(c)) for c in cliques]
    q = len(sets)
    if q == 0:
        raise ProblemFormatError("no cliques given")
    if q == 1:
        return CliqueTree([tuple(sorted(sets[0]))], frozenset())

    in_tree = {0}
    edges: set[tuple[int, int]] = set()
    while len(in_tree) < q:
        best: tuple[int, tuple[int, int]] | None = None
        for i in in_tree:
            for j in range(q):
                if j in in_tree:
                    continue
                w = len(sets[i] & sets[j])
                if w == 0:
                    continue
                key = (-w, _canon(i, j))
                if best is None or key < best:
                    best = key
        if best is None:
            inter_edges = {
                (i, j)
                for i in range(q)
                for j in range(i + 1, q)
                if sets[i] & sets[j]
            }
            inter = UndirectedGraph(q, frozenset(inter_edges))
            raise DisconnectedGraphError(connected_components(inter))
        i, j = best[1]
        edges.add((i, j))
        in_tree.add(j if i in in_tree else i)

    return CliqueTree([tuple(sorted(s)) for s in sets], frozenset(edges))


def _bfs_far(adj: list[set[int]], start: int) -> tuple[int, dict[int, int], dict[int, int]]:
    dist = {start: 0}
    par: dict[int, int] = {}
    queue = deque([start])
    far = start
    while queue:
        u = queue.popleft()
        if dist[u] > dist[far] or (dist[u] == dist[far] and u < far):
            far = u
        for w in sorted(adj[u]):
            if w not in dist:
                dist[w] = dist[u] + 1
                par[w] = u
                queue.append(w)
    return far, dist, par


def root_min_height(tree: CliqueTree) -> CliqueTree:
    """Root the tree at a centre, minimising the edge-count height.

    A tree has one or two centre nodes; when there are two, the one with
    the smaller clique index becomes the root.
    """
    if tree.q == 1:
        return _root_at(tree, 0)
    adj = _tree_adjacency(tree)
    if sum(len(a) for a in adj) != 2 * (tree.q - 1):
        raise ProblemFormatError("edge count does not match a spanning tree")
    u, dist0, _ = _bfs_far(adj, 0)
    if len(dist0) != tree.q:
        missing = [i for i in range(tree.q) if i not in dist0]
        raise DisconnectedGraphError([sorted(dist0), missing])
    w, _, par = _bfs_far(adj, u)
    path = [w]
    while path[-1] != u:
        path.append(par[path[-1]])
    diam = len(path) - 1
    if diam % 2 == 0:
        root = path[diam // 2]
    else:
        root = min(path[diam // 2], path[diam // 2 + 1])
    return _root_at(tree, root)


@dataclass(frozen=True)
class TreeSets:
    """Side sets of a directed tree edge ``(i, j)``.

    ``w_side``: cliques reachable from ``i`` without crossing to ``j``;
    ``v_side``: the variables those cliques cover; ``sep``: the edge
    separator; ``subproblems``: agents owned by the ``i`` side when an
    assignment map is supplied.
    """

    w_side: IndexSet
    v_side: IndexSet
    sep: IndexSet
    subproblems: IndexSet | None = None


def tree_sets(
    tree: CliqueTree,
    i: int,
    j: int,
    phi: Mapping[int, Sequence[int]] | None = None,
) -> TreeSets:
    if _canon(i, j) not in tree.edges:
        raise ProblemFormatError(f"({i}, {j}) is not a tree edge")
    adj = _tree_adjacency(tree)
    side = {i}
    queue = deque([i])
    while queue:
        u = queue.popleft()
        for t in sorted(adj[u]):
            if t == j and u == i:
                continue
            if t not in side:
                side.add(t)
                queue.append(t)
    w_side = tuple(sorted(side))
    v_vars: set[int] = set()
    for k in w_side:
        v_vars.update(tree.cliques[k])
    sep = tree.separator(i, j)
    subs = None
    if phi is not None:
        owned: set[int] = set()
        for k in w_side:
            owned.update(phi[k])
        subs = tuple(sorted(owned))
    return TreeSets(w_side, tuple(sorted(v_vars)), sep, subs)


def check_cip(tree: CliqueTree) -> bool:
    """Clique intersection property: pairwise intersections survive along paths."""
    q = tree.q
    if q <= 1:
        return True
    if len(tree.edges) != q - 1:
        return False
    adj = _tree_adjacency(tree)
    # paths via BFS parent maps from every source
    for a in range(q):
        par: dict[int, int] = {a: -1}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for t in adj[u]:
                if t not in par:
                    par[t] = u
                    queue.append(t)
        if len(par) != q:
            return False
        for b in range(a + 1, q):
            common = set(tree.cliques[a]) & set(tree.cliques[b])
            if not common:
                continue
            node = b
            while node != a:
                if not common <= set(tree.cliques[node]):
                    return False
                node = par[node]
    return True


def clique_tree_for(
    index_sets: Sequence[Iterable[int]], n: int
) -> tuple[UndirectedGraph, UndirectedGraph, CliqueTree]:
    """Full pipeline: sparsity graph, chordal embedding, rooted clique tree."""
    g = sparsity_graph(index_sets, n)
    embedded, cliques = chordal_embed(g)
    tree = root_min_height(mwst_clique_tree(cliques))
    return g, embedded, tree
