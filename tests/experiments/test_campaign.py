"""The shared campaign driver: helpers every fault campaign relies on."""

from __future__ import annotations

import json

import pytest

from repro.experiments import campaign
from repro.experiments.campaign import (
    Campaign,
    build_campaign_testbed,
    cell_violations,
    chaos_targets,
    dump_trace,
    percentile,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.tracing import Trace
from repro.stats import summary


def test_nearest_rank_percentile_differs_from_the_interpolated_one():
    """The campaigns' p99 gates use the nearest-rank percentile on
    ``q`` in [0, 1]; ``stats.summary`` interpolates on ``q`` in [0, 100].
    Pinned on one sample so neither silently turns into the other."""
    sample = [4.0, 1.0, 3.0, 2.0]
    assert percentile(sample, 0.5) == 2.0
    assert summary.percentile(sample, 50) == pytest.approx(2.5)
    assert percentile(sample, 0.9) == 4.0
    assert summary.percentile(sample, 90) == pytest.approx(3.7)
    assert percentile(sample, 0.0) == 1.0
    assert summary.percentile(sample, 0) == 1.0
    assert percentile([], 0.99) == float("inf")
    with pytest.raises(ValueError):
        summary.percentile([], 99)


def test_cell_violations_tag_seed_and_mode():
    class Moded:
        seed, mode, violations = 3, "shed", ["queue-bound: x"]

    class Plain:
        seed, violations = 4, ["order: y"]

    assert cell_violations([Moded(), Plain()]) == [
        "seed 3 [shed]: queue-bound: x",
        "seed 4: order: y",
    ]


def test_dump_trace_writes_only_for_violations(tmp_path):
    trace = Trace(enabled=True)
    trace.emit(0.5, "chaos.start", "engine")
    dump_trace(tmp_path, "x-seed1", trace, [], "EVENT", ["t=1 crash p1"])
    dump_trace(None, "x-seed1", trace, ["bad"], "EVENT", [])
    assert not list(tmp_path.iterdir())

    dump_trace(
        tmp_path / "sub", "x-seed1-mode", trace, ["bad"], "DECISION",
        [{"epoch": 1}],
    )
    lines = (tmp_path / "sub" / "x-seed1-mode.trace").read_text().splitlines()
    assert lines[0] == "VIOLATION bad"
    assert lines[1] == "DECISION {'epoch': 1}"
    assert "chaos.start" in lines[2]
    twin = (tmp_path / "sub" / "x-seed1-mode.jsonl").read_text().splitlines()
    assert [json.loads(line)["category"] for line in twin] == ["chaos.start"]


def test_campaign_testbed_core_and_targets():
    testbed = build_campaign_testbed(
        7, Trace(enabled=False), MetricsRegistry(), lazy_update_interval=0.3
    )
    config = testbed.service.config
    assert (config.num_primaries, config.num_secondaries) == (3, 3)
    assert config.lazy_update_interval == 0.3
    assert (
        config.heartbeat_interval, config.suspect_timeout,
        config.gsn_wait_timeout,
    ) == (0.1, 0.35, 0.15)
    membership = testbed.membership.config
    assert (membership.heartbeat_interval, membership.suspect_timeout) == (
        0.1, 0.35,
    )
    targets = chaos_targets(testbed.service, sequencer="seq")
    primaries = [p.name for p in testbed.service.primaries]
    assert targets.primaries == tuple(primaries)
    assert targets.protected == (primaries[0],)
    assert targets.sequencer == "seq"
    assert primaries[0] not in targets.crashable()


def _toy_cell(seed, mode, duration, trace_dir):
    return _Toy(seed, mode, [] if mode == "a" else [f"{duration:g}s"])


class _Toy:
    def __init__(self, seed, mode, violations):
        self.seed, self.mode, self.violations = seed, mode, violations
        self.metrics, self.timeline = {}, None

    @property
    def clean(self):
        return not self.violations


TOY = Campaign(
    name="toy",
    cell=_toy_cell,
    seeds=2,
    duration=1.0,
    quick=(1, 0.5),
    modes=("a", "b"),
    title="toy campaign",
    columns=(("seed", lambda r: r.seed), ("mode", lambda r: r.mode)),
    report=lambda results: "report",
    records=lambda results: [{"event": "cell", "n": len(results)}],
)


def test_suite_is_seed_major_and_summary_has_a_verdict():
    results = campaign.run_suite(TOY, [5, 6])
    assert [(r.seed, r.mode) for r in results] == [
        (5, "a"), (5, "b"), (6, "a"), (6, "b")
    ]
    text = campaign.summarize(TOY, results)
    assert "toy campaign" in text and "1 VIOLATIONS" in text
    assert text.endswith("\n\nreport")


def test_exit_code_needs_check_unless_strict(tmp_path, capsys):
    import argparse
    import dataclasses

    parser = argparse.ArgumentParser()
    campaign.add_arguments(TOY, parser)
    assert campaign.run(TOY, parser.parse_args(["--quick"])) == 0
    assert campaign.run(TOY, parser.parse_args(["--quick", "--check"])) == 1
    strict = dataclasses.replace(TOY, strict=True)
    assert campaign.run(strict, parser.parse_args(["--quick"])) == 1
    assert "VIOLATION seed" in capsys.readouterr().err
