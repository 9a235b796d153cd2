"""Determinism self-check for the end-to-end benchmark.

Run from the root of a checkout::

    python3 -m pytest e2ebench/test_determinism.py -q

A short version of each workload runs twice untraced and once traced on
one seed.  All three must pass the correctness checks and agree on the
outcome fingerprint and every modeled metric: the runs repeat exactly,
and the layer tracer observes without perturbing random draws or event
order.
"""

from __future__ import annotations

import pytest

from run import _import_path, run_pass

_import_path()

import workloads  # noqa: E402
from repro.core.client import ClientHandler  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from tracer import LayerTracer  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_repeats_exactly_and_tracing_does_not_perturb(name):
    short = workloads.WORKLOADS[name].short
    originals = (Simulator.schedule_at, ClientHandler.invoke)

    first = run_pass(name, SEED, size=short)
    second = run_pass(name, SEED, size=short)
    traced = run_pass(name, SEED, tracer=LayerTracer(), size=short)

    assert first["failed"] == 0, first["findings"]
    assert first["fingerprint"] == second["fingerprint"] == traced["fingerprint"]
    assert first["modeled"] == second["modeled"] == traced["modeled"]
    assert traced["layers"]["sim.events"] > 0
    assert (Simulator.schedule_at, ClientHandler.invoke) == originals
