"""Per-layer metrics of a traced run: spans for time, result fields for counts.

Layers are this repo's modules.  ``*.wall_share`` is span self time over
the traced window's wall (the sum of its root spans), so the shares of
one workload add up to 1; ``*.sim_us_per_query`` is the simulated self
time of the same spans, read from the acting client's clock at the span
edges.  Counts come from ``BatchResult`` / ``RdmaStats`` / ``LoadReport``
/ ``MutationStats`` / ``BuildReport`` fields collected by the workload.
A layer the workload does not exercise reads 0.

Which end-to-end metric each of these should move, on which workload, is
written down in ``README.md`` — before any optimisation is measured.
"""

from __future__ import annotations

from benchmarks.spine.tracer import Tracer
from benchmarks.spine.workloads import NPROBE, SCALES, Window

__all__ = ["PER_LAYER", "layer_metrics"]

REBUILD_STEPS = ("acquire", "snapshot", "build", "write", "cutover")
#: Every group a window span can be billed to; their shares sum to 1.
SHARE_GROUPS = ("route", "plan", "fetch", "decode", "compute", "merge",
                "engine", "frontdoor", "writer", "rebuild")
DOOR_FIELDS = (
    ("queue_wait_p50_us", "us", "lower"),
    ("queue_wait_p99_us", "us", "lower"),
    ("mean_occupancy", "count", "higher"),
    ("waves", "count", "lower"),
    ("service_us_per_wave_p50", "us", "lower"),
    ("shed_admission", "count", "lower"),
    ("shed_deadline", "count", "lower"),
    ("degraded", "count", "lower"),
    ("deadline_missed", "count", "lower"),
    ("sim_latency_p99_us", "us", "lower"),
    ("self_wall_us_per_request", "us", "lower"),
)

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("route.wall_share", "fraction", "lower"),
    ("route.sim_us_per_query", "us", "lower"),
    ("route.meta_evals_per_query", "count", "lower"),
    ("plan.wall_share", "fraction", "lower"),
    ("plan.waves_per_batch", "count", "lower"),
    ("plan.dup_pruned_share", "fraction", "higher"),
    ("fetch.wall_share", "fraction", "lower"),
    ("fetch.sim_us_per_query", "us", "lower"),
    ("transport.round_trips_per_query", "count", "lower"),
    ("transport.bytes_read_per_query", "B", "lower"),
    ("transport.clusters_fetched_per_batch", "count", "lower"),
    ("transport.overlapped_us_per_query", "us", "higher"),
    ("transport.retries", "count", "lower"),
    ("cache.hit_rate", "fraction", "higher"),
    ("cache.evictions_per_batch", "count", "lower"),
    ("cache.invalidations", "count", "lower"),
    ("cache.bytes_end", "B", "lower"),
    ("decode.wall_share", "fraction", "lower"),
    ("decode.sim_us_per_query", "us", "lower"),
    ("decode.clusters_per_batch", "count", "lower"),
    ("compute.wall_share", "fraction", "lower"),
    ("compute.sim_us_per_query", "us", "lower"),
    ("compute.sub_evals_per_query", "count", "lower"),
    ("compute.wall_ns_per_eval", "ns", "lower"),
    ("compute.sim_ns_per_eval", "ns", "lower"),
    ("merge.wall_share", "fraction", "lower"),
    ("engine.self_wall_share", "fraction", "lower"),
    ("engine.stale_read_retries", "count", "lower"),
    ("frontdoor.self_wall_share", "fraction", "lower"),
    ("frontdoor.max_rate_in_slo_qps", "1/s", "higher"),
    *((f"frontdoor.{field}.r{rate}", unit, better)
      for rate in SCALES["full"].door_rates
      for field, unit, better in DOOR_FIELDS),
    ("writer.self_wall_share", "fraction", "lower"),
    ("writer.wall_ms_per_write_p50", "ms", "lower"),
    ("writer.wall_writes_per_s", "1/s", "higher"),
    ("writer.sim_us_per_write_p50", "us", "lower"),
    ("writer.sim_us_per_write_p99", "us", "lower"),
    ("writer.cas_failures", "count", "lower"),
    ("writer.sealed_retries", "count", "lower"),
    ("writer.rebuild_trigger_share", "fraction", "lower"),
    ("rebuild.wall_share", "fraction", "lower"),
    ("rebuild.count", "count", "lower"),
    ("rebuild.wall_s_per_rebuild", "s", "lower"),
    ("rebuild.sim_us_per_rebuild", "us", "lower"),
    *((f"rebuild.step_wall_share.{step}", "fraction", "lower")
      for step in REBUILD_STEPS),
    ("rebuild.records_migrated", "count", "lower"),
    ("reclaim.bytes", "B", "higher"),
    ("reclaim.pending_bytes_end", "B", "lower"),
    ("reclaim.region_tail_bytes_end", "B", "lower"),
    ("build.partition_wall_s", "s", "lower"),
    ("build.sub_build_wall_s", "s", "lower"),
    ("build.serialize_wall_s", "s", "lower"),
    ("build.load_wall_s", "s", "lower"),
    ("build.wall_ms_per_vector", "ms", "lower"),
    ("build.registered_bytes", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: Window, untraced: Window, tracer: Tracer,
                  window_start: int, deployment) -> dict[str, float]:
    """Values for every name in :data:`PER_LAYER`.

    ``window_start`` is the index of the first span of the measured
    window; earlier spans belong to the set-up (the build).
    """
    spans = tracer.spans
    wall_self, sim_self = tracer.self_times()
    wall = dict.fromkeys(SHARE_GROUPS, 0.0)
    sim = dict.fromkeys(SHARE_GROUPS, 0.0)
    names: dict[str, list] = {}
    for span in spans[window_start:]:
        group = span.billed_group()
        wall[group] += wall_self[span.index]
        sim[group] += sim_self[span.index]
        names.setdefault(span.name, []).append(span)
    window_wall = sum(span.wall_s for span in spans[window_start:]
                      if span.parent is None)

    count = traced.counters.get
    queries = count("read_queries", 0)
    batches = count("read_batches", 0)
    meta_evals = sum(span.count for span in names.get(
        "node.charge_compute", ()) if span.billed_group() == "route")
    sub_evals = count("sub_evals", 0)
    lookups = count("cache_hits", 0) + count("clusters_fetched", 0)

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for group in ("route", "plan", "fetch", "decode", "compute", "merge"):
        out[f"{group}.wall_share"] = ratio(wall[group], window_wall)
    for group in ("route", "fetch", "decode", "compute"):
        out[f"{group}.sim_us_per_query"] = ratio(sim[group], queries)
    out["engine.self_wall_share"] = ratio(wall["engine"], window_wall)
    out["frontdoor.self_wall_share"] = ratio(wall["frontdoor"], window_wall)
    out["writer.self_wall_share"] = ratio(wall["writer"], window_wall)
    out["rebuild.wall_share"] = ratio(wall["rebuild"], window_wall)

    out["route.meta_evals_per_query"] = ratio(meta_evals, queries)
    out["plan.waves_per_batch"] = ratio(count("waves", 0), batches)
    out["plan.dup_pruned_share"] = ratio(
        count("duplicate_requests_pruned", 0), queries * NPROBE)
    out["transport.round_trips_per_query"] = ratio(count("round_trips", 0),
                                                   queries)
    out["transport.bytes_read_per_query"] = ratio(count("bytes_read", 0),
                                                  queries)
    out["transport.clusters_fetched_per_batch"] = ratio(
        count("clusters_fetched", 0), batches)
    out["transport.overlapped_us_per_query"] = ratio(
        count("overlap_saved_us", 0), queries)
    out["transport.retries"] = count("retries", 0)
    out["cache.hit_rate"] = ratio(count("cache_hits", 0), lookups)
    out["cache.evictions_per_batch"] = ratio(count("cache_evictions", 0),
                                             batches)
    out["cache.invalidations"] = count("cache_invalidations", 0)
    out["cache.bytes_end"] = count("cache_bytes_end", 0)
    out["decode.clusters_per_batch"] = ratio(
        len(names.get("decoder.decode_extent", ())), batches)
    out["compute.sub_evals_per_query"] = ratio(sub_evals, queries)
    # The sim<->wall calibration: what a distance evaluation costs this
    # Python process next to what the cost model charges for it.
    out["compute.wall_ns_per_eval"] = ratio(wall["compute"] * 1e9, sub_evals)
    out["compute.sim_ns_per_eval"] = ratio(sim["compute"] * 1e3, sub_evals)
    out["engine.stale_read_retries"] = (
        len(names.get("engine.attempt", ()))
        - len(names.get("engine.search_batch", ())))

    out["frontdoor.max_rate_in_slo_qps"] = traced.sim.get(
        "max_rate_in_slo_qps", 0.0)
    for rate, fields in traced.door.items():
        for field, _, _ in DOOR_FIELDS:
            out[f"frontdoor.{field}.r{rate}"] = fields[field]

    writes = count("writes", 0)
    if writes:
        out["writer.wall_ms_per_write_p50"] = traced.wall[
            "wall_ms_per_write_p50"]
        out["writer.wall_writes_per_s"] = traced.wall["wall_writes_per_s"]
        out["writer.sim_us_per_write_p50"] = traced.sim[
            "sim_us_per_write_p50"]
        out["writer.sim_us_per_write_p99"] = traced.sim[
            "sim_us_per_write_p99"]
    out["writer.cas_failures"] = count("cas_failures", 0)
    out["writer.sealed_retries"] = count("sealed_retries", 0)
    out["writer.rebuild_trigger_share"] = ratio(count("rebuild_triggers", 0),
                                                writes)
    rebuilds = count("rebuilds_led", 0)
    steps = {step: names.get(f"rebuild.{step}", ())
             for step in REBUILD_STEPS}
    rebuild_wall = sum(span.wall_s for group in steps.values()
                       for span in group)
    out["rebuild.count"] = rebuilds
    out["rebuild.wall_s_per_rebuild"] = ratio(rebuild_wall, rebuilds)
    out["rebuild.sim_us_per_rebuild"] = ratio(
        sum(span.sim_us for group in steps.values() for span in group),
        rebuilds)
    for step, group in steps.items():
        out[f"rebuild.step_wall_share.{step}"] = ratio(
            sum(span.wall_s for span in group), rebuild_wall)
    out["rebuild.records_migrated"] = count("records_migrated", 0)
    out["reclaim.bytes"] = count("reclaimed_bytes", 0)
    out["reclaim.pending_bytes_end"] = count("reclaim_pending_bytes_end", 0)
    out["reclaim.region_tail_bytes_end"] = count("region_tail_bytes_end", 0)

    build: dict[str, float] = {}
    for span in spans[:window_start]:
        build[span.name] = build.get(span.name, 0.0) + span.wall_s
    report = deployment.build_report
    out["build.partition_wall_s"] = (build.get("build.meta_hnsw", 0.0)
                                     + build.get("build.assign_partitions",
                                                 0.0))
    out["build.sub_build_wall_s"] = build.get("build.sub_hnsws", 0.0)
    out["build.serialize_wall_s"] = build.get("build.serialize_cluster", 0.0)
    out["build.load_wall_s"] = build.get("build.load_write", 0.0)
    out["build.wall_ms_per_vector"] = (deployment.build_wall_s * 1e3
                                       / report.num_vectors)
    out["build.registered_bytes"] = report.region_capacity_bytes

    out["trace.spans"] = len(spans)
    out["trace.overhead_share"] = (
        traced.wall["window_wall_s"] / untraced.wall["window_wall_s"] - 1.0)
    return {name: float(value) for name, value in out.items()}
