"""JSONL artifact checks run by the CI smoke matrix.

Usage: ``python .github/smoke_checks.py <check> <artifact.jsonl>...``
where ``<check>`` is one of metrics, overload, adaptive, gray, which
assert the shape and the headline verdict of one smoke artifact, or
figure4_parity, which takes the ``--jobs 1`` and ``--jobs 2`` artifacts
of the same sweep and requires them to be equal.
"""

import json
import sys


def metrics(records):
    assert records[0]["event"] == "meta", records[0]
    merged = records[-1]["metrics"]
    for prefix in ("client_reads_issued", "replica_reads_served",
                   "net_messages_delivered", "predictor_evaluations"):
        total = sum(e["value"] for s, e in merged.items()
                    if s.startswith(prefix) and e["type"] == "counter")
        assert total > 0, f"no activity under {prefix}"
    assert records[-1]["calibration"]["strategies"]["state-based"]
    print(f"ok: {len(merged)} series, counters nonzero")


def overload(records):
    assert records[0]["event"] == "meta", records[0]
    cells = [r for r in records if r["event"] == "cell"]
    pooled = {r["mode"]: r["vip_p99"]
              for r in records if r["event"] == "pooled"}
    assert any(c["mode"] == "shed" and c["storms"] > 0 for c in cells)
    assert pooled["shed"] < pooled["unbounded"], pooled
    print(f"ok: {len(cells)} cells, shed p99 {pooled['shed']:.4f}s "
          f"< unbounded {pooled['unbounded']:.4f}s")


def adaptive(records):
    assert records[0]["event"] == "meta", records[0]
    cells = [r for r in records if r["event"] == "cell"]
    pooled = {r["mode"]: r["score"]
              for r in records if r["event"] == "pooled"}
    logs = [r for r in records if r["event"] == "controller"]
    assert all(c["violations"] == [] for c in cells)
    assert any(c["mode"] == "chaos" and c["rollbacks"] > 0
               for c in cells)
    assert logs and all(r["decisions"] for r in logs)
    statics = {m: s for m, s in pooled.items()
               if m.startswith("static-")}
    assert all(pooled["controller"] > s for s in statics.values()), pooled
    print(f"ok: {len(cells)} cells, controller score "
          f"{pooled['controller']:.4f} > best static "
          f"{max(statics.values()):.4f}")


def gray(records):
    assert records[0]["event"] == "meta", records[0]
    cells = [r for r in records if r["event"] == "cell"]
    pooled = {r["mode"]: r for r in records if r["event"] == "pooled"}
    det = [c for c in cells if c["mode"] == "detector"]
    assert det and all(c["gray_faults"] > 0 for c in det)
    assert all(c["still_suspected"] == [] for c in det)
    assert all(c["detection"] is not None for c in det)
    assert pooled["detector"]["p99"] < pooled["baseline"]["p99"], pooled
    assert (pooled["detector"]["sla_rate"]
            >= pooled["baseline"]["sla_rate"]), pooled
    print(f"ok: {len(cells)} cells, detector p99 "
          f"{pooled['detector']['p99']:.4f}s < baseline "
          f"{pooled['baseline']['p99']:.4f}s")


#: Figure-3 selection overhead is timed with the host's wall clock, so it
#: is the one series allowed to differ between two runs of the same sweep.
WALLCLOCK_PREFIX = "client_selection_overhead_seconds"


def _drop_wallclock(value):
    if isinstance(value, dict):
        return {k: _drop_wallclock(v) for k, v in value.items()
                if not k.startswith(WALLCLOCK_PREFIX)}
    if isinstance(value, list):
        return [_drop_wallclock(v) for v in value]
    return value


def figure4_parity(serial, parallel):
    # Compare JSON text, not parsed values: 0 == 0.0 in Python, but an int
    # turned float on its way through a worker is a parity break.
    assert len(serial) == len(parallel), (len(serial), len(parallel))
    for i, (a, b) in enumerate(zip(serial, parallel)):
        assert (json.dumps(_drop_wallclock(a))
                == json.dumps(_drop_wallclock(b))), (
            f"record {i} ({a.get('event')}) differs between --jobs levels")
    print(f"ok: {len(serial)} records equal across --jobs levels")


CHECKS = {"metrics": metrics, "overload": overload, "adaptive": adaptive,
          "gray": gray, "figure4_parity": figure4_parity}

if __name__ == "__main__":
    check, *paths = sys.argv[1:]
    CHECKS[check](*[[json.loads(line) for line in open(path)]
                    for path in paths])
