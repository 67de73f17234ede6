"""Per-layer tracing by wrapping public treeipm functions from outside.

``Tracer.install()`` replaces module and class attributes with timing
wrappers and ``uninstall()`` puts the originals back.  The solver looks
these names up at call time, so its own calls go through the wrappers;
nothing inside ``src/`` changes.  Every wrapped call becomes a frame on a
stack: its time is added to its layer's total, its duration is charged
to its parent frame, and self time is duration minus the time of its
children.  Calls at pass granularity and above are kept as spans (name,
start, end, parent) and written out when the run ends; the hot calls
(handlers, eliminations, back-substitutions) are only aggregated, since
the 511-agent solve makes hundreds of thousands of them.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

from treeipm import chordal, ipm, model, netsim, treeqp

PASS_KINDS = (
    "qp-message",
    "separator-solution",
    "alpha-bound",
    "alpha-broadcast",
    "residual-partial",
    "stop-broadcast",
    "gap-partial",
    "eq-constraint-push",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # ---- frames ----

    def _enter(self, name: str, keep: bool) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, name, time.perf_counter(), 0.0, parent, keep]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        fid, name, start, child, parent, keep = frame
        dt = end - start
        self.total_s[name] += dt
        self.self_s[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += dt
        if keep:
            self.spans.append((fid, name, start - self.t0, end - self.t0, parent))

    @contextlib.contextmanager
    def span(self, name: str, keep: bool = True):
        frame = self._enter(name, keep)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn, keep: bool, after=None):
        def wrapped(*args, **kwargs):
            frame = self._enter(name, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, out)
            return out

        return wrapped

    # ---- patching ----

    def _patch(self, owner, attr: str, name: str, keep: bool, after=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, keep, after))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        self._patch(chordal, "clique_tree_for", "chordal.clique_tree_for", True)
        self._patch(chordal, "sparsity_graph", "chordal.sparsity_graph", True)
        self._patch(chordal, "chordal_embed", "chordal.embed", True)
        self._patch(chordal, "mwst_clique_tree", "chordal.clique_tree", True)
        self._patch(chordal, "root_min_height", "chordal.root", True)
        self._patch(
            model, "reduce_equality_block", "model.reduce_equality_block", True,
            after=self._count_eq_rows,
        )
        self._patch(treeqp, "eliminate", "treeqp.eliminate", False)
        self._patch(treeqp, "recover_clique", "treeqp.recover_clique", False)
        self._patch(netsim, "audit_privacy", "netsim.audit", True)
        self._patch(netsim, "accounting", "netsim.accounting", True)
        self._patch(ipm, "solve_auto", "ipm.solve_auto", True, after=self._count_components)
        self._patch(ipm, "phase_one", "ipm.phase_one", True)
        self._patch(ipm, "solve", "ipm.solve", True)
        self._patch_passes()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _count_eq_rows(self, args, out) -> None:
        self.counts["model.eq_rows_in"] += args[0].shape[0]
        self.counts["model.eq_rows_kept"] += out[0].shape[0]

    def _count_components(self, args, out) -> None:
        self.counts["ipm.components"] += len(out)

    def _patch_passes(self) -> None:
        tracer = self
        for attr in ("run_up", "run_down"):
            original = getattr(netsim.Network, attr)
            self._saved.append((netsim.Network, attr, original))

            def run(net, kind, handler, _original=original):
                timed = tracer.wrap("ipm.handler", handler, keep=False)
                frame = tracer._enter(f"netsim.{kind}", True)
                try:
                    return _original(net, kind, timed)
                finally:
                    tracer._exit(frame)

            setattr(netsim.Network, attr, run)

    # ---- output ----

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for fid, name, start, end, parent in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": fid, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
