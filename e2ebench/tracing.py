"""Spans around calls into the library's modules, for the traced pass.

The traced pass installs pass-through wrappers on module and class
attributes (:func:`layer_patches`) for the duration of one call.  Each
wrapper records a span — name, start, end and parent span — into a
:class:`Recorder`; the library itself is unchanged.  Self time is a
span's duration minus the time its child spans cover, so the self times
of all spans under a call add up to the call's traced wall time.

Work inside pool worker processes is seen only as the enclosing
``pool.run_games`` (or ``fabric.run_round``) span: the workers were
forked before the wrappers were installed.  Only the thread that created
the recorder records spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time

__all__ = [
    "Recorder",
    "Span",
    "check_spans",
    "chrome_trace",
    "dispatch_split",
    "layer_patches",
    "patched",
    "self_times",
]


class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: int | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Recorder:
    """Spans and counters of one traced call, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        # Handed to beta_partition_ampc(phases=...) by the partition span.
        self.phases: dict[str, float] = {}
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def open(self, name: str) -> int | None:
        if threading.get_ident() != self._thread:
            return None
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(index)
        return index

    def close(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def peak(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen for counter ``name``."""
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, fn, name: str, on_result=None, inject_phases=False):
        """A pass-through wrapper of ``fn`` that records span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inject_phases and kwargs.get("phases") is None:
                kwargs["phases"] = self.phases
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced


@contextlib.contextmanager
def patched(patches):
    """Set ``owner.attr = value`` for each ``(owner, attr, value)``;
    restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _peak_local_rounds(counter: str):
    def record(rec: Recorder, result) -> None:
        rec.peak(counter, result.local_rounds)

    return record


def layer_patches(rec: Recorder) -> list[tuple]:
    """The wrappers of one traced call, one per module boundary.

    Functions the pipeline imports by name are wrapped where the
    pipeline looks them up (``repro.coloring.pipeline``); methods are
    wrapped on their class.
    """
    from repro.ampc.messaging import MessageFabric
    from repro.ampc.pool import CoinGamePool
    from repro.ampc.simulator import AMPCSimulator
    from repro.graphs.graph import Graph

    # By module path: ``repro.core`` re-exports the function
    # ``beta_partition_ampc`` under its module's name.
    pipeline = importlib.import_module("repro.coloring.pipeline")
    beta_partition_ampc = importlib.import_module("repro.core.beta_partition_ampc")
    columnar_rounds = importlib.import_module("repro.core.columnar_rounds")
    table = (
        (pipeline, "degeneracy", "graphs.degeneracy", {}),
        (Graph, "induced_subgraph", "graphs.induced_subgraph", {}),
        (pipeline, "beta_partition_ampc", "partition", {"inject_phases": True}),
        (AMPCSimulator, "round_vectorized", "simulator.round", {}),
        (beta_partition_ampc, "residual_csr", "rounds.residual_csr", {}),
        (beta_partition_ampc, "lca_round_kernel", "rounds.lca_round", {}),
        (columnar_rounds, "play_coin_game", "rounds.escape", {}),
        (CoinGamePool, "run_games", "pool.run_games", {}),
        (MessageFabric, "run_round", "fabric.run_round", {}),
        (pipeline, "orient_by_partition", "orientation", {}),
        (pipeline, "arb_linial_coloring", "arb_linial",
         {"on_result": _peak_local_rounds("arb_linial.local_rounds")}),
        (pipeline, "linial_undirected_coloring", "linial",
         {"on_result": _peak_local_rounds("linial.local_rounds")}),
        (pipeline, "kw_color_reduction", "kw",
         {"on_result": _peak_local_rounds("kw.local_rounds")}),
        (pipeline, "greedy_recolor_by_layers", "recolor", {}),
        (pipeline, "is_proper_coloring", "validate", {}),
    )
    return [
        (owner, attr, rec.wrap(getattr(owner, attr), name, **options))
        for owner, attr, name, options in table
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their sum
    is the time they cover.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def dispatch_split(spans: list[Span]) -> tuple[int, int]:
    """``(measured, pooled)`` lca rounds: a round is pooled when it handed
    its games to the process pool or the message fabric, whose work the
    in-process ``phases`` timers do not see."""
    dispatching = set()
    for span in spans:
        if span.name in ("pool.run_games", "fabric.run_round"):
            parent = span.parent
            while parent is not None:
                if spans[parent].name == "rounds.lca_round":
                    dispatching.add(parent)
                    break
                parent = spans[parent].parent
    rounds = sum(1 for span in spans if span.name == "rounds.lca_round")
    return rounds - len(dispatching), len(dispatching)


def check_spans(spans: list[Span], tolerance: float = 1e-6) -> list[str]:
    """Errors when a span leaves its parent's interval, or when the self
    times under the root do not add up to the root's duration."""
    if not spans:
        return ["no spans recorded"]
    errors = []
    for index, span in enumerate(spans[1:], start=1):
        if span.parent is None:
            errors.append(f"span {index} ({span.name}) has no parent")
            continue
        outer = spans[span.parent]
        if span.start < outer.start or span.end > outer.end:
            errors.append(f"span {index} ({span.name}) leaves {outer.name}")
    root = spans[0]
    gap = abs(sum(self_times(spans)) - (root.end - root.start))
    if gap > tolerance:
        errors.append(f"self times miss the call's wall time by {gap:.3g} s")
    return errors


def chrome_trace(calls: list[tuple[dict, list[Span]]]) -> str:
    """Chrome trace-event JSON of the traced calls (opens in Perfetto).

    ``calls`` pairs each call's labels (shown as the root span's args)
    with its spans.  Times are microseconds from the first span.
    """
    origin = min((spans[0].start for _, spans in calls if spans), default=0.0)
    events = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": "e2ebench"},
    }]
    for labels, spans in calls:
        base = len(events)
        for index, span in enumerate(spans):
            args = {"span": base + index}
            if span.parent is not None:
                args["parent"] = base + span.parent
            if index == 0:
                args.update(labels)
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "args": args,
            })
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
