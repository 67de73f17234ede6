"""Solve a tree-structured equality-constrained QP by message passing.

Three cliques form a chain over four variables.  Each leaf-to-root
message is the exact parametric minimum of a subtree as a quadratic in
the separator variable, so the root ends up with a one-dimensional
problem whose value equals the global optimum.  The result is checked
against the dense saddle-point system.

    python3 demos/02_message_passing.py
"""

import numpy as np

from treeipm import chordal, treeqp


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
    data = {
        0: treeqp.CliqueQpData((0, 1), np.array([[2.0, 0.5], [0.5, 1.0]]),
                               np.array([1.0, 0.0]), np.zeros((0, 2)), np.zeros(0)),
        1: treeqp.CliqueQpData((1, 2), np.array([[1.0, 0.2], [0.2, 3.0]]),
                               np.array([0.0, -1.0]),
                               np.array([[1.0, 1.0]]), np.array([2.0])),
        2: treeqp.CliqueQpData((2, 3), np.array([[1.0, 0.0], [0.0, 2.0]]),
                               np.array([0.5, 1.0]), np.zeros((0, 2)), np.zeros(0)),
    }
    return tree, data


def dense_reference(tree, data, n=4):
    """Assemble the global KKT system and solve it in one shot."""
    Q = np.zeros((n, n))
    r = np.zeros(n)
    c = 0.0
    rows, rhs = [], []
    for i, d in data.items():
        cols = list(d.clique)
        Q[np.ix_(cols, cols)] += d.H
        r[cols] += d.r
        c += d.c
        for k in range(d.A.shape[0]):
            row = np.zeros(n)
            row[cols] = d.A[k]
            rows.append(row)
            rhs.append(d.beta[k])
    A = np.array(rows)
    p = len(rows)
    kkt = np.block([[Q, A.T], [A, np.zeros((p, p))]])
    sol = np.linalg.solve(kkt, np.concatenate([-r, rhs]))
    x = sol[:n]
    return x, float(0.5 * x @ Q @ x + r @ x + c)


def main():
    tree, data = build_chain()
    print("chain of cliques:", tree.cliques)
    print("local equality on clique 1: x1 + x2 = 2\n")

    messages, records = treeqp.upward_pass(tree, data)
    for child in sorted(messages, reverse=True):
        msg = messages[child]
        print(f"message from clique {child} to its parent, "
              f"quadratic in separator {msg.sep}:")
        print(f"  Q = {msg.Q.ravel()}, q = {msg.q}, c = {msg.c:.6f}")

    sols = treeqp.downward_pass(tree, records)
    value = records[tree.root].message.c
    print("\nper-clique minimisers (separator entries copied from parent):")
    for i in tree.post_order():
        y, v = sols[i]
        mult = f", multipliers {v}" if v.size else ""
        print(f"  clique {i} {tree.cliques[i]}: y = {y}{mult}")

    x = np.empty(4)
    for i, d in data.items():
        x[list(d.clique)] = sols[i][0]
    x_ref, value_ref = dense_reference(tree, data)
    print(f"\nstitched solution   x = {x}")
    print(f"dense KKT solution  x = {x_ref}")
    print(f"optimal value: message passing {value:.10f}, dense {value_ref:.10f}")
    print(f"max difference: {np.abs(x - x_ref).max():.2e}")

    n = 4
    resid = treeqp.block_ldl_check(tree, records, data, n)
    print(f"\nblock factorization reconstruction residual: {resid:.2e}")


if __name__ == "__main__":
    np.set_printoptions(precision=6, suppress=True)
    main()
