"""Audit what the agents exchanged and prove they exchanged nothing else.

The simulation harness logs every payload and every read of agent state
during a solve.  Afterwards we can count communication rounds against the
closed-form schedule and audit that no agent ever read another agent's
private state.  A deliberately injected cross-read shows the audit
catching a violation.

    python3 demos/04_privacy_accounting.py
"""

import warnings

import scipy.linalg

from treeipm import ipm, model, netsim

warnings.filterwarnings("ignore", category=scipy.linalg.LinAlgWarning)


def main():
    p, x0 = model.gen_flow([-1, 0, 0, 1, 1], seed=2)
    result = ipm.solve(p, x0=x0)
    net = result.network
    print(f"solved 5-agent supply tree: {result.status} after "
          f"{result.iterations} iterations\n")

    rep = result.accounting
    K, B, L = rep.iterations, rep.backtracks, rep.height_edges
    print("communication accounting")
    print(f"  tree height (edges)           {L}")
    print(f"  iterations K                  {K}")
    print(f"  extra candidates B            {B}")
    print(f"  half-sweeps 2(B + 4K)         {rep.comm_events}")
    print(f"  rounds 2L(B + 4K)             {rep.mp_steps}")
    print(f"  schedule predicts             {rep.expected_mp_steps}")
    print(f"  identity holds                {rep.identity_ok}")
    print("  local factorizations per agent "
          + str(sorted(set(rep.factorizations.values()))))
    print("  envelopes per agent (degree * half-sweeps):")
    for i in sorted(rep.envelopes):
        print(f"    agent {i}: {rep.envelopes[i]:>4} "
              f"(degree {rep.degree[i]})")

    audit = netsim.audit_privacy(net)
    print(f"\nprivacy audit over {len(net.events)} logged events: "
          f"{'clean' if audit.ok else 'VIOLATIONS'}")

    # now reach into agent 0's rows from agent 2, on purpose
    net._activate(2, lambda: net.get(0, "x"))
    audit = netsim.audit_privacy(net)
    print(f"after an injected cross-read: ok={audit.ok}, "
          f"{len(audit.violations)} violation(s)")
    for event in audit.violations:
        print(f"  agent {event['agent']} read field {event['field']!r} "
              f"owned by agent {event['owner']}")


if __name__ == "__main__":
    main()
