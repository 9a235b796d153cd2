"""Per-layer metrics of a traced run, and the layer table.

Each metric is read at the boundary where the work happens: span times
and counts from :class:`tracer.LayerTracer`, component counters from the
objects the :class:`workloads.Observer` captured.  Which end-to-end metric
each one should move, on which workload, is set out in RATIONALE.md.
"""

from __future__ import annotations

import statistics

from tracer import (
    CONVOLVE,
    CONVOLVE_ALL,
    HARNESS,
    LAYERS,
    OTHER,
    RESTORE,
    SAMPLE,
    SNAPSHOT,
)

#: Per-layer metrics declared in BENCHMARK.json: name -> unit.
PER_LAYER = {
    "sim.events": "count",
    "sim.scheduled": "count",
    "sim.fired_ratio": "ratio",
    "sim.self_s": "s",
    "sim.us_per_event": "us",
    "net.messages": "count",
    "net.messages_per_op": "count",
    "net.payload_ratio": "ratio",
    "net.drop_ratio": "ratio",
    "net.self_s": "s",
    "groups.heartbeats": "count",
    "groups.acks": "count",
    "groups.acks_per_data": "ratio",
    "groups.view_changes": "count",
    "groups.self_s": "s",
    "core.state.snapshots": "count",
    "core.state.snapshot_s": "s",
    "core.state.snapshot_kb": "kB",
    "core.state.self_s": "s",
    "core.handlers.lazy_updates": "count",
    "core.handlers.state_transfers": "count",
    "core.handlers.self_s": "s",
    "core.replica.reads_served": "count",
    "core.replica.deferred_ratio": "ratio",
    "core.replica.self_s": "s",
    "core.client.retries": "count",
    "core.client.hedges": "count",
    "core.client.self_s": "s",
    "core.prediction.calls": "count",
    "core.prediction.cache_hit_ratio": "ratio",
    "core.prediction.self_s": "s",
    "core.selection.calls": "count",
    "core.selection.self_s": "s",
    "stats.sample_calls": "count",
    "stats.convolve_calls": "count",
    "stats.self_s": "s",
    "obs.trace_records": "count",
    "obs.self_s": "s",
    "workloads.batches": "count",
    "workloads.modeled_reads_per_batch": "count",
    "workloads.self_s": "s",
    "trace_overhead_ratio": "ratio",
}
# ``groups.detect_s_p50``/``_max`` (s) and ``stats.sample_ns_per_value``
# (ns) are in the table and the result file but not declared: they are 0
# by construction on a workload without crashes or without the fluid
# tier, and each declared workload lacks one of the two.

#: Count metrics shown beside each layer in the table.
_TABLE_COUNTS = {
    "sim": ("sim.events", "sim.scheduled"),
    "net": ("net.messages", "net.payload_ratio"),
    "groups": (
        "groups.heartbeats", "groups.acks", "groups.view_changes",
        "groups.detect_s_p50", "groups.detect_s_max",
    ),
    "core.state": ("core.state.snapshots", "core.state.snapshot_kb"),
    "core.handlers": ("core.handlers.lazy_updates", "core.handlers.state_transfers"),
    "core.replica": ("core.replica.reads_served", "core.replica.deferred_ratio"),
    "core.client": ("core.client.retries", "core.client.hedges"),
    "core.prediction": ("core.prediction.calls", "core.prediction.cache_hit_ratio"),
    "core.selection": ("core.selection.calls",),
    "stats": ("stats.sample_calls", "stats.sample_ns_per_value", "stats.convolve_calls"),
    "obs": ("obs.trace_records",),
    "workloads": ("workloads.batches", "workloads.modeled_reads_per_batch"),
}

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def detection_delays(observer) -> list[float]:
    """Simulated seconds from each injected crash to the first view that
    excludes the crashed node (crashes healed before that are skipped)."""
    exclusions: list[tuple[float, str]] = []
    members: dict[str, tuple[str, ...]] = {}
    for when, group, view in observer.views:
        exclusions.extend(
            (when, gone) for gone in members.get(group, ()) if gone not in view
        )
        members[group] = view
    delays = []
    for engine in observer.engines:
        for event in engine.events:
            if event.kind != "crash":
                continue
            seen = [
                when for when, node in exclusions
                if node == event.target and when >= event.time
                and (event.until is None or when <= event.until)
            ]
            if seen:
                delays.append(min(seen) - event.time)
    return delays


def layer_metrics(tracer, observer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, read at the end of the run
    (before the drain), ahead of the cross-pass summary."""
    counts, fn_ns, fn_calls = tracer.counts, tracer.fn_ns, tracer.fn_calls
    spans, self_ns = tracer.spans, tracer.self_ns
    events = sum(tb.sim.events_processed for tb in observer.testbeds)
    traces = [tb.trace for tb in observer.testbeds if tb.trace.enabled]
    replicas = [h for tb in observer.testbeds for h in tb.service.all_replicas()]
    clients = [c for tb in observer.testbeds for c in tb.service.clients.values()]
    networks = [tb.network for tb in observer.testbeds]
    recovery = [c.recovery_stats() for c in clients]
    cache = [c.prediction_cache_stats() for c in clients]
    hits = sum(c["hits"] for c in cache)
    reads_served = sum(h.reads_served for h in replicas)
    batches = sum(p.stats.batches for p in observer.pools)
    delays = detection_delays(observer)

    metrics = {
        "sim.events": events,
        "sim.scheduled": tracer.scheduled,
        "sim.fired_ratio": _ratio(events, tracer.scheduled),
        "net.messages": counts["net.sent"],
        "net.messages_per_op": _ratio(counts["net.sent"], len(observer.ops)),
        "net.payload_ratio": _ratio(counts["net.protocol"], counts["net.sent"]),
        "net.drop_ratio": _ratio(
            sum(n.messages_dropped for n in networks),
            sum(n.messages_sent for n in networks),
        ),
        "groups.heartbeats": counts["groups.heartbeats"],
        "groups.acks": counts["groups.acks"],
        "groups.acks_per_data": _ratio(counts["groups.acks"], counts["groups.data"]),
        "groups.view_changes": sum(1 for when, _, _ in observer.views if when > 0),
        "groups.detect_s_p50": statistics.median(delays) if delays else 0.0,
        "groups.detect_s_max": max(delays, default=0.0),
        "core.state.snapshots": counts["core.state.snapshots"],
        "core.state.snapshot_s": (fn_ns[SNAPSHOT] + fn_ns[RESTORE]) / 1e9,
        "core.state.snapshot_kb": _ratio(
            counts["core.state.snapshot_bytes"], counts["core.state.snapshots"]
        ) / 1000.0,
        "core.handlers.lazy_updates": sum(
            getattr(h, "lazy_updates_sent", 0) for h in replicas
        ),
        "core.handlers.state_transfers": sum(
            getattr(h, "state_transfers_completed", 0) for h in replicas
        ),
        "core.replica.reads_served": reads_served,
        "core.replica.deferred_ratio": _ratio(
            sum(h.deferred_reads_served for h in replicas), reads_served
        ),
        "core.client.retries": sum(r["retries_sent"] for r in recovery),
        "core.client.hedges": sum(r["hedges_sent"] for r in recovery),
        "core.prediction.calls": spans["core.prediction"],
        "core.prediction.cache_hit_ratio": _ratio(
            hits, hits + sum(c["misses"] for c in cache)
        ),
        "core.selection.calls": spans["core.selection"],
        "stats.sample_calls": fn_calls[SAMPLE],
        "stats.sample_ns_per_value": _ratio(fn_ns[SAMPLE], counts["stats.sample_values"]),
        "stats.convolve_calls": fn_calls[CONVOLVE] + fn_calls[CONVOLVE_ALL],
        "obs.trace_records": sum(len(t.records) + t.dropped for t in traces),
        "workloads.batches": batches,
        "workloads.modeled_reads_per_batch": _ratio(
            sum(p.stats.reads_modeled for p in observer.pools), batches
        ),
    }
    for layer in LAYERS + (OTHER, HARNESS):
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
        metrics[f"{layer}.spans"] = spans[layer]
    return metrics


def summarize(traced: list[dict], untraced_wall: float) -> dict[str, float]:
    """Medians over the traced passes, plus the untraced-wall ratios."""
    names = traced[0]["layers"].keys()
    summary = {
        name: statistics.median(p["layers"][name] for p in traced) for name in names
    }
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    summary["traced_wall_s"] = traced_wall
    summary["sim.us_per_event"] = _ratio(untraced_wall, summary["sim.events"]) * 1e6
    summary["trace_overhead_ratio"] = traced_wall / untraced_wall - 1.0
    return summary


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.3g}"


def table(workload: str, summary: dict[str, float]) -> str:
    """Layer, self time, share of traced wall, spans and key counts."""
    wall = summary["traced_wall_s"]
    lines = [
        f"layer table: {workload} (traced wall {wall:.3f} s)",
        f"{'layer':<16}{'self_s':>9}{'share':>8}{'spans':>11}  counts",
    ]
    for layer in LAYERS + (OTHER, HARNESS):
        self_s = summary[f"{layer}.self_s"]
        counts = ", ".join(
            f"{name.rsplit('.', 1)[1]}={_fmt(summary[name])}"
            for name in _TABLE_COUNTS.get(layer, ())
        )
        lines.append(
            f"{layer:<16}{self_s:>9.3f}{self_s / wall:>8.1%}"
            f"{int(summary[f'{layer}.spans']):>11}  {counts}"
        )
    lines.append(
        f"trace_overhead_ratio {summary['trace_overhead_ratio']:.3f}  "
        f"sim.us_per_event {summary['sim.us_per_event']:.2f} (untraced)"
    )
    return "\n".join(lines)
