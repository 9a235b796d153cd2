"""The one driver behind the seeded fault campaigns.

The chaos, overload, gray and adaptive campaigns audit the paper's claims
(§3 GSN order, §4 staleness ≤ ``a``, §5 timeliness) under seeded faults.
They share one skeleton, which lives here once:

* seeds are ``seed_for(base, name, i)``; ``--quick`` swaps in a small
  (seeds, duration) shape;
* the suite runs every ``(seed, mode)`` cell, seed-major, through
  :func:`repro.experiments.runner.run_cells`, so ``--jobs N`` is
  bit-identical to ``--jobs 1``;
* a violating cell dumps its forensics into ``--trace-dir``
  (:func:`dump_trace`), from inside the cell so it works in a worker;
* the summary table, the ``--save`` JSON, the ``--metrics-out`` JSONL
  artifact (the campaign's records, then one merged timeline per mode)
  and the exit code.

A campaign module describes itself with one :class:`Campaign` value: its
name, modes and defaults, a module-level cell function, the summary
columns, and the record and violation builders.  The functions below
take that value as their first argument; the module binds them to its
spec (``run_overload_suite``, ``summarize``, ``write_metrics_artifact``,
``add_arguments``, ``run``).

The cells also share their testbed core (:func:`build_campaign_testbed`,
:func:`chaos_targets`) and the nearest-rank :func:`percentile` their
p99 gates are judged with.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.core.service import ServiceConfig, Testbed, build_testbed
from repro.experiments.report import (
    add_output_arguments,
    format_table,
    merge_timelines,
    render_report,
    save_results,
    write_experiment_artifact,
)
from repro.experiments.runner import CellSpec, add_jobs_option, run_cells
from repro.net.chaos import ChaosConfig, ChaosTargets
from repro.obs.metrics import MetricsRegistry
from repro.sim.rng import Normal, seed_for
from repro.sim.tracing import Trace


def cell_violations(results: Sequence[Any]) -> list[str]:
    """Every cell's own violations, tagged with its seed (and mode)."""
    return [
        f"seed {r.seed}{_mode_tag(r)}: {v}"
        for r in results
        for v in r.violations
    ]


def _mode_tag(result: Any) -> str:
    mode = getattr(result, "mode", None)
    return "" if mode is None else f" [{mode}]"


@dataclass(frozen=True)
class Campaign:
    """What one campaign declares; everything else is the driver's.

    ``cell`` is a module-level function (it is pickled by reference for
    ``--jobs``) called as ``cell(seed=, duration=, trace_dir=, **options)``
    plus ``mode=`` when the campaign has modes.  ``modes`` of ``(None,)``
    means one cell per seed and results without a ``mode`` field.

    ``columns`` are the summary-table columns (header, value of a result),
    before the shared verdict column; ``report`` renders the text under
    the table.  ``records`` builds the artifact's cell and pooled records;
    the driver appends one merged timeline per ``timeline_modes`` entry
    (default: ``modes``).  ``violations`` is the suite gate.

    A ``strict`` campaign fails on any violation even without ``--check``,
    and its ``--save`` meta carries no suite verdict: it has no cross-cell
    gate, so every violation is already in its cell's saved result.
    """

    name: str
    cell: Callable[..., Any]
    seeds: int
    duration: float
    quick: tuple[int, float]
    title: str
    columns: tuple[tuple[str, Callable[[Any], Any]], ...]
    report: Callable[[list], str]
    records: Callable[[list], list[dict]]
    violations: Callable[[list], list[str]] = cell_violations
    modes: tuple[Optional[str], ...] = (None,)
    timeline_modes: Optional[tuple[Optional[str], ...]] = None
    strict: bool = False


# ---------------------------------------------------------------------------
# Suite, summary, artifact
# ---------------------------------------------------------------------------
def run_suite(
    campaign: Campaign,
    seeds: Sequence[int],
    duration: Optional[float] = None,
    jobs: int = 1,
    trace_dir: Optional[str | Path] = None,
    **options: Any,
) -> list:
    """Every ``(seed, mode)`` cell, seed-major; results in that order."""
    duration = campaign.duration if duration is None else duration
    specs = []
    for seed in seeds:
        for mode in campaign.modes:
            kwargs = {
                "seed": seed, "duration": duration, "trace_dir": trace_dir,
                **options,
            }
            if mode is not None:
                kwargs["mode"] = mode
            specs.append(CellSpec((seed, mode), campaign.cell, kwargs))
    return run_cells(specs, jobs=jobs, progress=True, label=campaign.name)


def of_mode(results: Sequence[Any], mode: Optional[str]) -> list:
    """The results of one mode (``None``: results without modes)."""
    return [r for r in results if getattr(r, "mode", None) == mode]


def summarize(campaign: Campaign, results: Sequence[Any]) -> str:
    """The per-cell table with a verdict column, then ``campaign.report``."""
    rows = [
        [value(r) for _, value in campaign.columns]
        + ["CLEAN" if r.clean else f"{len(r.violations)} VIOLATIONS"]
        for r in results
    ]
    headers = [header for header, _ in campaign.columns] + ["verdict"]
    table = format_table(headers, rows, title=campaign.title)
    return f"{table}\n\n{campaign.report(results)}"


def cell_records(results: Sequence[Any], fields: Sequence[str]) -> list[dict]:
    """One ``cell`` artifact record per result: the named attributes."""
    return [
        {"event": "cell", **{name: getattr(r, name) for name in fields}}
        for r in results
    ]


def pooled_records(
    results: Sequence[Any],
    modes: Sequence[str],
    stats: Callable[[list], dict],
) -> list[dict]:
    """One ``pooled`` artifact record per mode: ``stats`` of its cells."""
    return [
        {"event": "pooled", "mode": mode, **stats(of_mode(results, mode))}
        for mode in modes
    ]


def telemetry_report(
    results: Sequence[Any], title: str, recovery: bool = False
) -> str:
    """Merged metrics of ``results`` (plus summed recovery counters)."""
    merged = MetricsRegistry.merge(*(r.metrics for r in results if r.metrics))
    totals: dict[str, int] = {}
    if recovery:
        for r in results:
            for key, value in r.recovery.items():
                totals[key] = totals.get(key, 0) + value
    return render_report(metrics=merged, recovery=totals, title=title)


def write_artifact(
    campaign: Campaign, path: str, results: list, seeds: Sequence[int]
) -> None:
    """JSONL artifact: the campaign's records, then per-mode merged
    timelines (``repro dash`` input)."""
    records = campaign.records(results)
    for mode in campaign.timeline_modes or campaign.modes:
        merged = merge_timelines(r.timeline for r in of_mode(results, mode))
        if merged is not None:
            tag = {"kind": "merged"} if mode is None else {"mode": mode}
            records.append(
                {"event": "timeline", **tag, "timeline": merged.to_dict()}
            )
    write_experiment_artifact(path, campaign.name, records, seeds=seeds)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------
def add_arguments(campaign: Campaign, parser: argparse.ArgumentParser) -> None:
    """The flags every campaign takes."""
    count, duration = campaign.quick
    parser.add_argument(
        "--seeds", type=int, default=campaign.seeds, metavar="N",
        help=f"campaigns per mode (default {campaign.seeds})",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--duration", type=float, default=campaign.duration, metavar="SECONDS",
        help=f"fault window per campaign (default {campaign.duration:g})",
    )
    parser.add_argument(
        "--quick", action="store_true", help=f"{count} seeds x {duration:g}s"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero on any invariant or acceptance violation",
    )
    add_jobs_option(parser)
    add_output_arguments(parser)
    parser.add_argument(
        "--trace-dir", metavar="DIR",
        help="dump the full trace of any violating cell here",
    )


def run(campaign: Campaign, args: argparse.Namespace, **options: Any) -> int:
    """Run the suite the parsed flags ask for; returns the exit code.

    ``options`` are extra keyword arguments for every cell."""
    count, duration = (
        campaign.quick if args.quick else (args.seeds, args.duration)
    )
    seeds = [seed_for(args.seed, campaign.name, i) for i in range(count)]
    results = run_suite(
        campaign, seeds, duration, jobs=args.jobs, trace_dir=args.trace_dir,
        **options,
    )
    print(summarize(campaign, results))

    violations = campaign.violations(results)
    for line in violations:
        print(f"VIOLATION {line}", file=sys.stderr)

    if args.save:
        meta: dict = {
            "experiment": campaign.name, "seeds": seeds, "duration": duration
        }
        if not campaign.strict:
            meta["violations"] = violations
        save_results(args.save, [r.__dict__ for r in results], meta=meta)
    if args.metrics_out:
        write_artifact(campaign, args.metrics_out, results, seeds)
        print(f"telemetry written to {args.metrics_out}")
    return 1 if violations and (args.check or campaign.strict) else 0


# ---------------------------------------------------------------------------
# Cell helpers
# ---------------------------------------------------------------------------
def build_campaign_testbed(
    seed: int, trace: Trace, metrics: MetricsRegistry, **overrides: Any
) -> Testbed:
    """The testbed core every fault campaign runs on.

    Three serving primaries and three secondaries, reads served in
    ~N(20 ms, 5 ms), 100 ms heartbeats with 350 ms suspicion, a 150 ms
    GSN wait, and a membership service on the same cadence.  ``overrides``
    are the campaign's own :class:`ServiceConfig` fields.
    """
    config = ServiceConfig(
        name="svc",
        num_primaries=3,
        num_secondaries=3,
        read_service_time=Normal(0.020, 0.005, floor=0.002),
        heartbeat_interval=0.1,
        suspect_timeout=0.35,
        gsn_wait_timeout=0.15,
        **overrides,
    )
    return build_testbed(
        config,
        seed=seed,
        trace=trace,
        metrics=metrics,
    )


def chaos_targets(service: Any, **extra: Any) -> ChaosTargets:
    """Every serving replica may be faulted except the first primary,
    which stays up so the audits always have ground truth."""
    return ChaosTargets(
        primaries=tuple(p.name for p in service.primaries),
        secondaries=tuple(s.name for s in service.secondaries),
        protected=(service.primaries[0].name,),
        **extra,
    )


def storm_chaos_config(
    duration: float, storm_factor: tuple[float, float]
) -> ChaosConfig:
    """A storm-only fault mix (no crashes, partitions, or loss): seeded
    1-2.5 s traffic bursts multiplying arrival rates by ``storm_factor``."""
    return ChaosConfig(
        duration=duration,
        mean_interval=1.0,
        crash_weight=0.0,
        partition_weight=0.0,
        overload_weight=0.0,
        loss_weight=0.0,
        load_storm_weight=1.0,
        storm_window=(1.0, 2.5),
        storm_factor=storm_factor,
    )


def counter_sum(snapshot: dict, name: str) -> int:
    """Total of counter ``name`` over all its label sets in a snapshot."""
    total = 0
    for series, entry in snapshot.items():
        if entry.get("type") != "counter":
            continue
        if series == name or series.startswith(name + "{"):
            total += entry["value"]
    return int(total)


def event_lines(engine: Any) -> list[str]:
    """One ``t=<time> <kind> <target>`` line per injected fault."""
    return [f"t={e.time:.3f} {e.kind} {e.target}" for e in engine.events]


def dump_trace(
    trace_dir: Optional[str | Path],
    stem: str,
    trace: Trace,
    violations: Sequence[str],
    label: str,
    lines: Sequence[Any],
) -> None:
    """Write a violating cell's forensics into ``trace_dir``.

    ``<stem>.trace`` holds one ``VIOLATION`` line per violation, one
    ``<label>`` line per entry of ``lines`` (``EVENT`` faults or
    ``DECISION`` controller epochs), then every trace record;
    ``<stem>.jsonl`` is its machine-readable twin.  A clean cell, or no
    directory, writes nothing.
    """
    if not violations or trace_dir is None:
        return
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / f"{stem}.trace").open("w") as fh:
        for line in violations:
            fh.write(f"VIOLATION {line}\n")
        for line in lines:
            fh.write(f"{label} {line}\n")
        for record in trace.records:
            fh.write(
                f"{record.time:.6f} {record.category} "
                f"{record.actor} {record.detail}\n"
            )
    (directory / f"{stem}.jsonl").write_text(trace.to_jsonl())


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]; +inf for an empty sample.

    Not :func:`repro.stats.summary.percentile`, which interpolates
    linearly with ``q`` in [0, 100]: the campaigns' p99 gates are defined
    on an observed sample value, and switching would move them.
    """
    if not values:
        return float("inf")
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def effective_latency(outcome: Any, deadline: float) -> float:
    """Latency a caller *experienced*: late or lost reads cost 2x the
    deadline, so percentiles cannot be flattered by dropped replies."""
    if outcome.value is not None and outcome.response_time is not None:
        return outcome.response_time
    return 2.0 * deadline
