"""Distributed primal-dual interior-point solver for loosely coupled convex programs.

The package is organised around a clique tree built from the coupling
structure of the problem:

- :mod:`treeipm.chordal` -- coupling graphs, chordal embeddings, clique trees
- :mod:`treeipm.model`   -- problem containers, agent assignment, the
  reduction of one clique's equality rows, the flow benchmark generator,
  JSON input/output
- :mod:`treeipm.treeqp`  -- quadratic message passing (per-clique elimination,
  upward/downward passes, the block-factorization consistency check)
- :mod:`treeipm.ipm`     -- the distributed primal-dual interior-point method:
  set-up with the equality reduction pass, the per-agent handlers that are
  its only implementation, phase one, the split into coupling components
- :mod:`treeipm.oracle`  -- centralized dense reference implementations, the
  one independent check on the handlers
- :mod:`treeipm.netsim`  -- deterministic multi-agent simulator with step
  accounting and a privacy audit
- :mod:`treeipm.cli`     -- command line front end
"""

from treeipm import chordal, model, treeqp, ipm, oracle, netsim

__all__ = ["chordal", "model", "treeqp", "ipm", "oracle", "netsim"]
__version__ = "0.1.0"
