"""End-to-end benchmark: one canonical run, timed and checked.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload paper6 --seed 1 --seconds 50 --trace 0

The workload runs in this single-threaded process, repeatedly and with the
same seed, until ``--seconds`` have passed (at least once).  Every pass
must produce the same outcome fingerprint and pass the correctness checks.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` traced and untraced passes
alternate and the JSON carries the per-layer metrics, after a layer table.
A full record, with an environment stamp, goes to
``e2ebench/results/<workload>-seed<seed>-trace<t>.json``.

Set-up time is measured in fresh interpreters (``--setup-probe``): imports
plus building the workload, up to its first simulation event.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_PROBES = 5
PROBE_TIMEOUT = 60.0

#: End-to-end metrics: name -> unit (see BENCHMARK.json for directions).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "reads_per_s": "1/s",
    "peak_rss_mb": "MB",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "read_timely_ratio": "ratio",
    "replicas_per_read": "count",
}


def _import_path() -> None:
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# Set-up probe (runs in a child interpreter)
# ---------------------------------------------------------------------------
class _FirstEvent(Exception):
    pass


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from the first import to the workload's first event."""
    start = time.perf_counter()
    _import_path()
    import workloads
    from repro.sim.kernel import Simulator

    def stop(*args, **kwargs):
        raise _FirstEvent

    Simulator.run = Simulator.step = stop
    try:
        workloads.WORKLOADS[workload](seed)
    except _FirstEvent:
        return time.perf_counter() - start
    raise RuntimeError(f"workload {workload!r} never started its simulation")


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------
def run_pass(workload: str, seed: int, tracer=None, size: float | None = None) -> dict:
    """One run of the workload; returns its wall time, outcomes and checks."""
    import workloads

    run = workloads.WORKLOADS[workload]
    with workloads.Observer() as observer:
        gc.collect()
        start = time.perf_counter()
        if tracer is None:
            violations = run(seed, size)
        else:
            with tracer:
                violations = tracer.root(run, seed, size)
        wall = time.perf_counter() - start
        if tracer is not None:
            import layers

            per_layer = layers.layer_metrics(tracer, observer)
        observer.drain()
    failed, findings = observer.check()
    failed += len(violations)
    modeled = workloads.modeled_metrics(observer)
    result = {
        "wall_s": wall,
        "fingerprint": observer.fingerprint(),
        "attempted": modeled["reads"] + modeled["updates"],
        "failed": failed,
        "findings": list(violations) + findings,
        "modeled": modeled,
    }
    if tracer is not None:
        result["layers"] = per_layer
    return result


def run_passes(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Rounds of one untraced pass (plus one traced pass with ``traced``)
    until another round would overrun ``seconds``; at least one round."""
    import tracer

    passes: list[dict] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed))
        if traced:
            passes.append(run_pass(workload, seed, tracer.LayerTracer()))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return passes


def summarize(passes: list[dict]) -> tuple[bool, int, int, list[str]]:
    """Correctness over all passes: checks plus identical fingerprints."""
    reference = passes[0]["fingerprint"]
    attempted = sum(p["attempted"] for p in passes)
    failed = 0
    findings: list[str] = []
    for i, p in enumerate(passes):
        failed += p["failed"]
        findings.extend(p["findings"])
        if p["fingerprint"] != reference:
            failed += p["attempted"]
            findings.append(f"pass {i}: outcome fingerprint differs from pass 0")
    return failed == 0, attempted, failed, findings


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------
def calibration_s() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` if there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "calibration_s": calibration_s(),
    }


# ---------------------------------------------------------------------------
def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    modeled = passes[0]["modeled"]
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "reads_per_s": modeled["reads"] / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in END_TO_END:
        if name in modeled:
            metrics[name] = modeled[name]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    _import_path()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    setup = measure_setup(args.workload, args.seed)
    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    correct, attempted, failed, findings = summarize(passes)
    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    e2e = end_to_end(untraced, setup)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "fingerprint": passes[0]["fingerprint"],
        "end_to_end": e2e,
        "modeled": passes[0]["modeled"],
        "setup_samples_s": setup,
        "pass_walls_s": [p["wall_s"] for p in untraced],
        "correct": correct,
        "failed": failed,
        "findings": findings,
    }
    if args.trace:
        import layers

        per_layer = layers.summarize(traced, e2e["wall_s"])
        record["per_layer"] = per_layer
        record["traced_walls_s"] = [p["wall_s"] for p in traced]
        print(layers.table(args.workload, per_layer))
        metrics = {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit in layers.PER_LAYER.items()
        }
    else:
        for name, unit in END_TO_END.items():
            print(f"{name:>18} {e2e[name]:14.6g} {unit}")
        modeled = passes[0]["modeled"]
        for name in ("read_samples", "update_samples", "read_fail_ratio", "update_fail_ratio"):
            print(f"{name:>18} {modeled[name]:14.6g}  (modeled, not gated)")
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for line in findings[:20]:
        print(f"FAILED CHECK: {line}")
    print(f"fingerprint {record['fingerprint']}  passes {len(passes)}")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
