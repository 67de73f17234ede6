"""Solve a tree-structured equality-constrained QP by message passing.

Three cliques form a chain over four variables, one agent each on a
simulated network.  The solver's own ``qp-message`` pass sends each
leaf-to-root message, the exact parametric minimum of a subtree as a
quadratic in the separator variable, so the root ends up with a
one-dimensional problem whose value equals the global optimum; its
``separator-solution`` pass sends the separator values back down.  The
result is checked against the dense saddle-point system.

    python3 demos/02_message_passing.py
"""

import numpy as np

from treeipm import chordal, ipm, model, netsim, oracle


def build_chain():
    """Cliques (0,1), (1,2), (2,3) rooted at the first one."""
    cliques = [(0, 1), (1, 2), (2, 3)]
    parents = [-1, 0, 1]
    children = {0: [1], 1: [2], 2: []}
    parent = {i: (p if p >= 0 else None) for i, p in enumerate(parents)}
    depth = {0: 0, 1: 1, 2: 2}
    tree = chordal.CliqueTree(
        cliques=cliques,
        edges=frozenset({(0, 1), (1, 2)}),
        root=0,
        parent=parent,
        children=children,
        depth=depth,
        height=2,
    )
    # per clique (H, r, A, beta): 0.5 d'H d + r'd subject to A d = beta
    data = {
        0: (np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, 0.0]),
            np.zeros((0, 2)), np.zeros(0)),
        1: (np.array([[1.0, 0.2], [0.2, 3.0]]), np.array([0.0, -1.0]),
            np.array([[1.0, 1.0]]), np.array([2.0])),
        2: (np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([0.5, 1.0]),
            np.zeros((0, 2)), np.zeros(0)),
    }
    return tree, data


def dense_reference(tree, data, n=4):
    """Assemble the global KKT system and solve it in one shot."""
    Q = np.zeros((n, n))
    r = np.zeros(n)
    rows, rhs = [], []
    for i, (H, r_i, A, beta) in data.items():
        cols = list(tree.cliques[i])
        Q[np.ix_(cols, cols)] += H
        r[cols] += r_i
        for k in range(A.shape[0]):
            row = np.zeros(n)
            row[cols] = A[k]
            rows.append(row)
            rhs.append(beta[k])
    A = np.array(rows)
    p = len(rows)
    kkt = np.block([[Q, A.T], [A, np.zeros((p, p))]])
    sol = np.linalg.solve(kkt, np.concatenate([-r, rhs]))
    x = sol[:n]
    return x, float(0.5 * x @ Q @ x + r @ x)


def message_passing(tree, data):
    """Run the solver's two passes on the tree QP; returns the messages by
    sending clique and the network, whose agents keep ``aff = (dx, dv)``."""
    net = netsim.Network(tree, record_log=False)
    layouts = [model.clique_layout(tree, i) for i in range(tree.q)]
    local_eq = {i: (A, beta) for i, (_, _, A, beta) in data.items()}
    ipm.group_cliques(net, layouts, local_eq)
    for members in net.groups:
        H, r, beta = members.get("kkt")
        for b, i in enumerate(members.ids):
            H[b], r[b], _, beta[b] = data[i]
    messages = {}

    def up(unit, inboxes):
        msgs = ipm._dir_up(unit, inboxes)
        messages.update(zip(unit.ids, msgs))
        return msgs

    net.run_up("qp-message", up)
    net.run_down("separator-solution", ipm._dir_down)
    return messages, net


def main():
    tree, data = build_chain()
    print("chain of cliques:", tree.cliques)
    print("local equality on clique 1: x1 + x2 = 2\n")

    messages, net = message_passing(tree, data)
    value = messages.pop(tree.root).c
    for child in sorted(messages, reverse=True):
        msg = messages[child]
        print(f"message from clique {child} to its parent, "
              f"quadratic in separator {msg.sep}:")
        print(f"  Q = {msg.Q.ravel()}, q = {msg.q}, c = {msg.c:.6f}")

    print("\nper-clique minimisers (separator entries copied from parent):")
    for i in tree.post_order():
        y, v = net.get(i, "aff")
        mult = f", multipliers {v}" if v.size else ""
        print(f"  clique {i} {tree.cliques[i]}: y = {y}{mult}")

    x = np.empty(4)
    for i in data:
        x[list(tree.cliques[i])] = net.get(i, "aff")[0]
    x_ref, value_ref = dense_reference(tree, data)
    print(f"\nstitched solution   x = {x}")
    print(f"dense KKT solution  x = {x_ref}")
    print(f"optimal value: message passing {value:.10f}, dense {value_ref:.10f}")
    print(f"max difference: {np.abs(x - x_ref).max():.2e}")

    n = 4
    resid = oracle.block_ldl_check(tree, data, messages, n)
    print(f"\nblock factorization reconstruction residual: {resid:.2e}")


if __name__ == "__main__":
    np.set_printoptions(precision=6, suppress=True)
    main()
