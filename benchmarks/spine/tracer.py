"""Benchmark-side spans around the program's public layer boundaries.

The traced run installs plain-function wrappers as instance, class or
module attributes (``Tracer.wrap``) and removes them again on
``Tracer.restore`` — nothing under ``src/`` is edited and the program's
own ``TraceContext`` is not consulted.  A span records name, layer,
group, wall start/end, the parent span, the request id current when it
opened, and the acting client's simulated clock at both edges.  Spans
stay in memory; ``write_jsonl`` dumps them when the run is over.

Wrappers only *read* the clock, so a traced run charges exactly the
simulated time an untraced one does (the runner asserts it).
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Callable

from repro.core.merge import TopKMerger
from repro.mutation.rebuild import ShadowRebuild
import repro.core.engine as build_module
import repro.serving.executor as executor_module

__all__ = ["Span", "Tracer"]

#: A leaf span (a transport verb or a clock charge) is billed to the
#: nearest enclosing span of one of these groups, else to its own group:
#: a READ under ``writer.insert`` is writer time, under a search it is
#: fetch time; the routing compute charge is route time.
STICKY_GROUPS = ("route", "writer", "rebuild", "build")


class Span:
    """One timed call.  ``sim_*`` are NaN for spans without a clock."""

    __slots__ = ("index", "name", "layer", "group", "leaf", "parent",
                 "request", "start", "end", "sim_start", "sim_end", "count")

    def __init__(self, index: int, name: str, layer: str, group: str,
                 leaf: bool, parent: "Span | None", request: int) -> None:
        self.index = index
        self.name = name
        self.layer = layer
        self.group = group
        self.leaf = leaf
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0
        self.sim_start = self.sim_end = float("nan")
        self.count = 0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def sim_us(self) -> float:
        delta = self.sim_end - self.sim_start
        return delta if delta == delta else 0.0  # NaN -> 0

    def billed_group(self) -> str:
        """The group this span's self time counts towards."""
        if self.leaf:
            ancestor = self.parent
            while ancestor is not None:
                if ancestor.group in STICKY_GROUPS:
                    return ancestor.group
                ancestor = ancestor.parent
        return self.group


class Tracer:
    """Installs wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Request id stamped on spans as they open: batch index, front
        #: door wave index, or write index (set by the workload loops).
        self.request = -1
        #: Cleared around benchmark-side audits so their calls through the
        #: class-level wrappers leave no spans.
        self.enabled = True
        self._current: Span | None = None
        self._undo: list[tuple[object, str, bool, object]] = []

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, layer: str,
             group: str, clock=None, leaf: bool = False,
             count_arg: int | None = None,
             dynamic: "Callable[[tuple], tuple[str, object]] | None" = None
             ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``clock`` is the simulated clock read at the span's edges;
        ``count_arg`` stores that positional argument as the span's
        count (distance evaluations of a compute charge); ``dynamic``
        derives ``(name, clock)`` from the call's arguments for
        class-level wrappers that serve many clients.
        """
        inner = getattr(owner, attr)
        spans = self.spans
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return inner(*args, **kwargs)
            span_name, span_clock = name, clock
            if dynamic is not None:
                span_name, span_clock = dynamic(args)
            span = Span(len(spans), span_name, layer, group, leaf,
                        self._current, self.request)
            spans.append(span)
            self._current = span
            if count_arg is not None:
                span.count = args[count_arg]
            if span_clock is not None:
                span.sim_start = span_clock.now_us
            span.start = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                span.end = perf()
                if span_clock is not None:
                    span.sim_end = span_clock.now_us
                self._current = span.parent

        had_own = attr in vars(owner)
        self._undo.append((owner, attr, had_own,
                           vars(owner)[attr] if had_own else None))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- what to wrap ----------------------------------------------------
    def install_shared(self) -> None:
        """Class- and module-level seams shared by every client."""
        self.wrap(executor_module, "search_cluster_entry",
                  "executor.search_cluster", "hnsw.csr", "compute")
        self.wrap(TopKMerger, "add", "merger.add", "core.merge", "merge")
        self.wrap(ShadowRebuild, "step", "rebuild.step", "mutation.rebuild",
                  "rebuild",
                  dynamic=lambda args: (f"rebuild.{args[0].state}",
                                        args[0].host.node.clock))

    def install_build(self) -> None:
        """The builder's stages (set-up phase)."""
        for attr, name in (("MetaHnsw", "build.meta_hnsw"),
                           ("assign_partitions", "build.assign_partitions"),
                           ("build_sub_hnsws", "build.sub_hnsws"),
                           ("serialize_cluster", "build.serialize_cluster")):
            self.wrap(build_module, attr, name, "core.engine", "build")
        connect = build_module.connect_transport

        def connect_traced(*args, **kwargs):
            transport = connect(*args, **kwargs)
            self.wrap(transport, "write", "build.load_write", "transport",
                      "build", clock=transport.clock)
            return transport

        self._undo.append((build_module, "connect_transport", True, connect))
        build_module.connect_transport = connect_traced

    def install_client(self, client) -> None:
        """One client's serving and mutation seams (its own clock)."""
        clock = client.node.clock
        engine = client.engine
        for owner, attr, name, layer, group in (
                (client, "search_batch", "engine.search_batch",
                 "serving.engine", "engine"),
                (engine, "_search_batch_once", "engine.attempt",
                 "serving.engine", "engine"),
                (engine.planner, "route", "planner.route",
                 "core.meta_index", "route"),
                (engine.planner, "plan", "planner.plan",
                 "core.query_planner", "plan"),
                (engine.decoder, "decode_extent", "decoder.decode_extent",
                 "serving.decoder", "decode"),
                (engine.executor, "run_wave_compute",
                 "executor.run_wave_compute", "serving.executor", "compute"),
                (engine.merger, "finalize", "merger.finalize",
                 "core.merge", "merge"),
                (client, "insert", "writer.insert", "mutation.writer",
                 "writer"),
                (client, "delete", "writer.delete", "mutation.writer",
                 "writer")):
            self.wrap(owner, attr, name, layer, group, clock=clock)
        for verb in ("read", "read_batch", "read_batch_async", "poll",
                     "write", "write_batch", "cas", "faa"):
            self.wrap(client.transport, verb, f"transport.{verb}",
                      "transport", "fetch", clock=clock, leaf=True)
        self.wrap(client.node, "charge_compute", "node.charge_compute",
                  "serving.executor", "compute", clock=clock, leaf=True,
                  count_arg=0)
        self.wrap(client.node, "charge_time", "node.charge_time",
                  "serving.decoder", "decode", clock=clock, leaf=True)

    def install_door(self, door) -> None:
        self.wrap(door, "run", "frontdoor.run", "frontdoor", "frontdoor",
                  clock=door.clock)

    # -- reading the spans -------------------------------------------------
    def self_times(self) -> tuple[list[float], list[float]]:
        """Per-span ``(wall_s, sim_us)`` self time: the span's own
        duration minus what its direct children cover."""
        wall = [span.wall_s for span in self.spans]
        sim = [span.sim_us for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                wall[span.parent.index] -= span.wall_s
                sim[span.parent.index] -= span.sim_us
        return wall, sim

    def write_jsonl(self, path: pathlib.Path) -> None:
        wall, _ = self.self_times()
        with path.open("w") as out:
            for span, self_s in zip(self.spans, wall):
                row = {"id": span.index, "name": span.name,
                       "layer": span.layer, "group": span.billed_group(),
                       "parent": (span.parent.index
                                  if span.parent is not None else None),
                       "request": span.request,
                       "start_s": span.start, "end_s": span.end,
                       "self_s": self_s}
                if span.sim_start == span.sim_start:
                    row["sim_start_us"] = span.sim_start
                    row["sim_end_us"] = span.sim_end
                if span.count:
                    row["count"] = span.count
                out.write(json.dumps(row) + "\n")
