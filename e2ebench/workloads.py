"""The four canonical runs, and the observer that collects their outcomes.

Each workload is one call into the library at a fixed size, driven by the
seed alone.  The :class:`Observer` records what the run exposes, without
changing it: every request a client gateway is asked for (through
``ClientHandler.invoke``), every outcome delivered back, the testbeds,
chaos engines and aggregated pools that were built, and every membership
view installed.  Nothing it does draws a random number or schedules an
event, so a run with the observer is the run without it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.core.client import ClientHandler
from repro.core.requests import RequestKind
from repro.core.service import Testbed
from repro.experiments.adaptive import run_adaptive_cell
from repro.experiments.chaos import run_campaign
from repro.experiments.scale import run_scale_cell
from repro.net.chaos import ChaosEngine
from repro.workloads.aggregate import AggregatedClientPool
from repro.workloads.scenarios import build_paper_scenario


def paper6(seed: int, requests: float) -> list[str]:
    """§6 testbed: two closed-loop clients, alternating requests each."""
    build_paper_scenario(total_requests=int(requests), seed=seed).run()
    return []


def opmix_surge(seed: int, duration: float) -> list[str]:
    """Login/cart/browse mix, closed-loop controller, two x20 write surges."""
    return run_adaptive_cell(seed, "controller", duration=duration).violations


def fluid1m(seed: int, duration: float) -> list[str]:
    """A 1M-user aggregated-tier cell (the first 10 s are warm-up)."""
    run_scale_cell(users=1_000_000, mode="aggregate", seed=seed, duration=duration)
    return []


def chaos(seed: int, duration: float) -> list[str]:
    """A seeded fault campaign with retry and hedging on."""
    return run_campaign(seed, duration=duration).violations


@dataclass(frozen=True)
class Workload:
    """A run at its canonical size, and a short size for quick tests.

    Calling it returns the library's own audit findings for the run.
    """

    run: Callable[[int, float], list[str]]
    size: float
    short: float

    def __call__(self, seed: int, size: Optional[float] = None) -> list[str]:
        return self.run(seed, self.size if size is None else size)


WORKLOADS: dict[str, Workload] = {
    "paper6": Workload(paper6, size=1000, short=100),
    "opmix_surge": Workload(opmix_surge, size=24.0, short=6.0),
    "fluid1m": Workload(fluid1m, size=60.0, short=12.0),
    "chaos": Workload(chaos, size=120.0, short=20.0),
}


@dataclass
class Op:
    """One request a client application issued, and what came back."""

    client: str
    read: bool
    issued_at: float
    outcomes: list = field(default_factory=list)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Observer:
    """Records one run's requests, outcomes and components (see module doc)."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.stream: list[tuple] = []  # outcomes in delivery order
        self.testbeds: list[Testbed] = []
        self.engines: list[ChaosEngine] = []
        self.pools: list[AggregatedClientPool] = []
        self.views: list[tuple[float, str, tuple[str, ...]]] = []
        self._patches = Patches()

    def __enter__(self) -> "Observer":
        self._capture(Testbed, self.testbeds, self._watch_views)
        self._capture(ChaosEngine, self.engines)
        self._capture(AggregatedClientPool, self.pools)
        self._patches.set(ClientHandler, "invoke", self._invoke_wrapper())
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def _capture(self, cls, into: list, then: Optional[Callable] = None) -> None:
        init = cls.__init__

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            into.append(obj)
            if then is not None:
                then(obj)

        self._patches.set(cls, "__init__", __init__)

    def _watch_views(self, testbed: Testbed) -> None:
        sim = testbed.sim
        testbed.membership.observe(
            lambda view: self.views.append((sim.now, view.group, view.members))
        )

    def _invoke_wrapper(self):
        invoke = ClientHandler.invoke
        ops, stream = self.ops, self.stream

        def wrapped(handler, method, args=(), qos=None, callback=None):
            read = handler.registry.kind_of(method) is RequestKind.READ
            op = Op(handler.name, read, handler.now)
            ops.append(op)

            def deliver(outcome):
                op.outcomes.append(outcome)
                stream.append((handler.now, op.client, op.issued_at) + _fields(outcome))
                if callback is not None:
                    callback(outcome)

            return invoke(handler, method, args, qos, deliver)

        return wrapped

    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Run every testbed on until any request still pending has been
        answered or garbage-collected."""
        for testbed in self.testbeds:
            sim = testbed.sim
            sim.run(until=sim.now + testbed.service.config.gc_timeout + 1.0)

    def fingerprint(self) -> str:
        """SHA-256 over the outcome stream (request ids excluded: they come
        from a process-wide counter) and any aggregated-tier accounting."""
        digest = hashlib.sha256()
        for entry in self.stream:
            digest.update(repr(entry).encode())
        for pool in self.pools:
            stats = pool.stats
            digest.update(stats.response_hist.tobytes())
            digest.update(repr((
                stats.reads_modeled, stats.failures_modeled,
                stats.deferred_modeled, stats.selected_modeled,
                stats.unresolved, stats.updates_modeled, stats.batches,
            )).encode())
        return digest.hexdigest()

    def check(self) -> tuple[int, list[str]]:
        """Correctness checks: returns (failed operations, findings)."""
        failed = 0
        findings: list[str] = []
        for op in self.ops:
            n = len(op.outcomes)
            if (op.read and n != 1) or (not op.read and n > 1):
                failed += 1
                if len(findings) < 10:
                    kind = "read" if op.read else "update"
                    findings.append(
                        f"{kind} by {op.client} at t={op.issued_at:.6f} "
                        f"resolved {n} times"
                    )
        for testbed in self.testbeds:
            diverged = _primary_divergence(testbed)
            failed += len(diverged)
            findings.extend(diverged)
        for pool in self.pools:
            handler = pool.handler
            if handler.reads_issued != handler.reads_resolved:
                failed += handler.reads_issued - handler.reads_resolved
                findings.append(
                    f"{handler.name}: {handler.reads_issued} reads issued, "
                    f"{handler.reads_resolved} resolved"
                )
        return failed, findings


def _fields(outcome) -> tuple:
    return tuple(
        getattr(outcome, name)
        for name in type(outcome).__slots__
        if name != "request_id"
    )


def _primary_divergence(testbed: Testbed) -> list[str]:
    """Live serving primaries must hold the same committed state."""
    service, network = testbed.service, testbed.network
    view = testbed.membership.view_of(service.groups.primary)
    live = [
        h
        for h in service.primaries
        if network.is_up(h.name)
        and h.name in view
        and h.name != view.leader
        and not getattr(h, "_recovering", False)
    ]
    if not live:
        return []
    ref = live[0]
    return [
        f"primary {h.name} (csn {h.my_csn}) differs from {ref.name} "
        f"(csn {ref.my_csn})"
        for h in live[1:]
        if h.my_csn != ref.my_csn or h.app.__dict__ != ref.app.__dict__
    ]


# ---------------------------------------------------------------------------
# Modeled (simulated-time) metrics
# ---------------------------------------------------------------------------
def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) * 1000.0 if values.size else 0.0


def _hist_percentile(hist: np.ndarray, quantum: float, extra: np.ndarray, q: float) -> float:
    """Percentile of grid-binned samples plus exact extra samples.

    Bin ``i`` holds samples rounded to ``i * quantum``; within a bin the
    samples are taken as evenly spread over ``[(i - 1/2) q, (i + 1/2) q)``.
    """
    edges = (np.arange(hist.size + 1) - 0.5) * quantum
    counts = hist.astype(float)
    if extra.size:
        counts = counts + np.histogram(extra, bins=edges)[0]
    cum = np.cumsum(counts)
    target = q / 100.0 * cum[-1]
    i = int(np.searchsorted(cum, target))
    before = cum[i - 1] if i else 0.0
    share = (target - before) / counts[i] if counts[i] else 0.0
    return float(edges[i] + share * quantum) * 1000.0


def modeled_metrics(observer: Observer) -> dict[str, Any]:
    """The paper's client-side view: latency, failures, replicas per read."""
    reads = [op for op in observer.ops if op.read]
    updates = [op for op in observer.ops if not op.read]
    read_times = np.array([
        op.outcomes[0].response_time
        for op in reads
        if op.outcomes and op.outcomes[0].response_time is not None
    ])
    read_failed = sum(
        1 for op in reads if not op.outcomes or op.outcomes[0].timing_failure
    )
    selected = sum(op.outcomes[0].replicas_selected for op in reads if op.outcomes)
    update_times = np.array([op.outcomes[0].response_time for op in updates if op.outcomes])
    reads_issued = len(reads)

    if observer.pools:
        # Modeled reads never pass through a gateway call; the pool's own
        # accounting covers them (probe reads were recorded above).
        hist = sum(p.stats.response_hist for p in observer.pools)
        quantum = observer.pools[0].stats.quantum
        modeled = sum(p.stats.reads_modeled for p in observer.pools)
        reads_issued += modeled
        read_failed += sum(p.stats.failures_modeled for p in observer.pools)
        selected += sum(p.stats.selected_modeled for p in observer.pools)
        read_resolved = int(hist.sum()) + read_times.size
        p50 = _hist_percentile(hist, quantum, read_times, 50)
        p99 = _hist_percentile(hist, quantum, read_times, 99)
    else:
        read_resolved = read_times.size
        p50 = _percentile(read_times, 50)
        p99 = _percentile(read_times, 99)

    return {
        "reads": reads_issued,
        "updates": len(updates),
        "read_p50_ms": p50,
        "read_p99_ms": p99,
        "read_samples": read_resolved,
        "update_p50_ms": _percentile(update_times, 50),
        "update_p90_ms": _percentile(update_times, 90),
        "update_samples": int(update_times.size),
        "read_timely_ratio": 1.0 - read_failed / reads_issued if reads_issued else 0.0,
        "read_fail_ratio": read_failed / reads_issued if reads_issued else 0.0,
        "update_fail_ratio": (
            (len(updates) - update_times.size) / len(updates) if updates else 0.0
        ),
        "replicas_per_read": selected / reads_issued if reads_issued else 0.0,
    }
