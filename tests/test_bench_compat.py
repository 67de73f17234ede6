"""The solver keeps what the benchmark in ``bench/`` relies on.

The benchmark is kept frozen and wraps the solver from outside: it
replaces ``Network.run_up`` and ``run_down`` with ``run(net, kind,
handler)``, counts ``treeqp.eliminate`` calls through the module attribute
against cliques x iterations, and checks solutions, the privacy audit and
the step accounting.  A traced run reports any mismatch as a problem.
"""

from __future__ import annotations

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness

    return harness


def test_traced_flow_suite_reports_no_problem(harness, tmp_path):
    import workloads

    wl = workloads.WORKLOADS["flow-suite"]
    metrics, detail, problems = harness.traced(wl, wl.make(0)[:4], 0, tmp_path)
    assert problems == []
    assert detail["failures"] == {}
    assert metrics["treeqp.eliminate.calls"][0] > 0
    assert metrics["netsim.qp-message.passes"][0] > 0
