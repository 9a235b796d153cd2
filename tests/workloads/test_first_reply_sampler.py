"""The aggregated tier's first-reply sampler against the per-replica loop.

``AggregatedClientPool`` draws one value per modeled read from the exact
first-reply distribution (:class:`repro.stats.pmf.FirstReply`).  The
reference below is the straightforward sampler it stands for: one
inverse-CDF draw per arrival per selected replica, then a strict ``<``
min-reduce in selection order.  The two must agree in distribution, and
the pool's random stream must end each batch exactly where the reference
leaves it, so every other draw of a run stays bit-identical.
"""

import numpy as np
import pytest

import repro.workloads.aggregate as aggregate
from repro.core.selection import StateBasedSelection
from repro.experiments.scale import run_scale_cell
from repro.stats.confidence import proportions_agree
from repro.stats.pmf import FirstReply
from repro.stats.poisson import poisson_cdf
from repro.workloads.aggregate import AggregatedClientPool

from .test_aggregate import _pool, _spec, _testbed


def reference_first_replies(replicas, fresh, rng):
    """Per-replica draws and a min-reduce; ``replicas`` holds
    ``(immediate, deferred, is_primary)`` in selection order."""
    m = fresh.size
    response = np.full(m, np.inf)
    deferred_win = np.zeros(m, dtype=bool)
    n_fresh = int(np.count_nonzero(fresh))
    for immediate, deferred, is_primary in replicas:
        if immediate is None:
            continue
        if is_primary:
            draws = immediate.sample(m, rng)
            was_deferred = None
        else:
            draws = np.empty(m, dtype=float)
            if n_fresh:
                draws[fresh] = immediate.sample(n_fresh, rng)
            if m - n_fresh:
                draws[~fresh] = deferred.sample(m - n_fresh, rng)
            was_deferred = ~fresh
        better = draws < response
        response[better] = draws[better]
        if was_deferred is None:
            deferred_win[better] = False
        else:
            deferred_win[better] = was_deferred[better]
    return response, deferred_win


def reference_resolve_batch(pool, offsets, update_rate, window):
    """``AggregatedClientPool._resolve_batch`` with the per-replica loop."""
    m = offsets.size
    qos = pool.spec.qos
    handler = pool.handler
    predictor = handler.predictor
    rng = pool._rng
    stats = pool.stats
    views = handler.candidate_views(qos)
    lazy_interval = predictor.lazy_update_interval
    t_l_now = handler.repository.time_since_lazy_update(pool.sim.now, lazy_interval)
    stale_now = poisson_cdf(qos.staleness_threshold, update_rate * t_l_now)
    selected = handler.strategy.select(views, qos, stale_now).replicas
    t_l = np.mod(t_l_now + offsets, lazy_interval)
    p_fresh = pool._poisson_cdf_many(qos.staleness_threshold, update_rate * t_l)
    fresh = rng.random(m) < p_fresh
    view_by_name = {view.name: view for view in views}
    replicas = [
        predictor.response_pmfs(name) + (view_by_name[name].is_primary,)
        for name in selected
    ]
    response, deferred_win = reference_first_replies(replicas, fresh, rng)

    resolved = np.isfinite(response)
    times = response[resolved]
    failures = int(np.count_nonzero(response > qos.deadline))
    deferred_count = int(np.count_nonzero(deferred_win))
    stats.reads_modeled += m
    stats.failures_modeled += failures
    stats.deferred_modeled += deferred_count
    stats.selected_modeled += len(selected) * m
    stats.unresolved += m - int(np.count_nonzero(resolved))
    stats.response_sum += float(times.sum())
    grid = stats.response_hist
    if times.size:
        bins = np.minimum((times / stats.quantum + 0.5).astype(int), grid.size - 1)
        grid += np.bincount(bins, minlength=grid.size)
    pool._m_reads_modeled.inc(m)
    handler.record_aggregate_batch(
        m, failures, deferred_count, len(selected) * m, times
    )


class _Recording(FirstReply):
    """``FirstReply`` that remembers the arguments of every instance."""

    calls: list = []

    def __init__(self, pmfs, deferred):
        super().__init__(pmfs, deferred)
        _Recording.calls.append((list(pmfs), list(deferred)))


@pytest.fixture
def recorded(monkeypatch):
    _Recording.calls = []
    monkeypatch.setattr(aggregate, "FirstReply", _Recording)
    return _Recording.calls


def test_sampler_agrees_with_the_per_replica_loop(recorded):
    """A real batch's pmfs, n = 200k: Wilson agreement on P(R > d), the
    deferred fraction and the response CDF at 0.5d, d, 1.5d."""
    d = run_scale_cell(users=200_000, duration=12.0, warmup=10.0, seed=4).cell.deadline
    (immediates, _), (mixed, secondary) = recorded[-2:]
    assert len(immediates) >= 2 and any(secondary)
    replicas = [
        (imm, stale if is_secondary else None, not is_secondary)
        for imm, stale, is_secondary in zip(immediates, mixed, secondary)
    ]
    n = 200_000
    rng = np.random.default_rng(21)
    fresh = rng.random(n) < 0.5
    ref_times, ref_deferred = reference_first_replies(replicas, fresh, rng)
    n_fresh = int(np.count_nonzero(fresh))
    fresh_times, _ = FirstReply(immediates, [False] * len(immediates)).sample(n_fresh, rng)
    stale_times, new_deferred = FirstReply(mixed, secondary).sample(n - n_fresh, rng)
    new_times = np.concatenate((fresh_times, stale_times))

    pairs = [
        (np.count_nonzero(ref_times > d), np.count_nonzero(new_times > d)),
        (np.count_nonzero(ref_deferred), np.count_nonzero(new_deferred)),
    ]
    pairs += [
        (np.count_nonzero(ref_times <= x), np.count_nonzero(new_times <= x))
        for x in (0.5 * d, d, 1.5 * d)
    ]
    for ref, new in pairs:
        assert proportions_agree(int(ref), n, int(new), n), (ref, new)
    # The comparison carries evidence: deferral and the 0.5d point are
    # neither empty nor certain.
    assert 0 < pairs[1][0] < n and 0 < pairs[2][0] < n


def test_batch_advances_the_stream_by_one_double_per_draw(recorded):
    testbed = _testbed()
    pool = _pool(testbed, _spec())
    testbed.sim.run(until=8.0)
    offsets = np.linspace(0.0, 0.4, 500)
    before = pool._rng.bit_generator.state
    pool._resolve_batch(offsets, 5.0, 0.5)
    k_eff = len(recorded[-1][0])
    assert k_eff >= 2
    reference = np.random.default_rng()
    reference.bit_generator.state = before
    reference.random(offsets.size * (1 + k_eff))
    assert pool._rng.bit_generator.state == reference.bit_generator.state


def test_batch_without_history_never_answers(recorded):
    testbed = _testbed()
    pool = _pool(testbed, _spec())
    offsets = np.linspace(0.0, 0.4, 200)
    before = pool._rng.bit_generator.state
    pool._resolve_batch(offsets, 5.0, 0.5)
    assert recorded[-1][0] == []
    stats = pool.stats
    assert stats.unresolved == stats.failures_modeled == 200
    assert stats.deferred_modeled == 0
    assert stats.response_hist.sum() == 0
    reference = np.random.default_rng()
    reference.bit_generator.state = before
    reference.random(200)  # the freshness draws only
    assert pool._rng.bit_generator.state == reference.bit_generator.state


def _scale_run(monkeypatch, resolve=None):
    pools = []
    init = AggregatedClientPool.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        pools.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(AggregatedClientPool, "__init__", recording_init)
        if resolve is not None:
            patch.setattr(AggregatedClientPool, "_resolve_batch", resolve)
        run_scale_cell(users=1_000_000, duration=12.0, warmup=10.0, seed=6)
    (pool,) = pools
    stats = pool.stats
    return (
        stats.probe_reads,
        stats.probe_failures,
        stats.probe_deferred,
        stats.probe_selected,
        stats.probe_updates,
        tuple(stats.probe_response_times),
        stats.batches,
        stats.reads_modeled,
        stats.updates_modeled,
        stats.selected_modeled,
    )


def test_run_is_bit_identical_to_the_per_replica_loop_outside_modeled_reads(
    monkeypatch,
):
    """Probe outcomes, batches and modeled counts of a 12 s 1M-user cell
    equal those of the same cell run with the reference loop."""
    new = _scale_run(monkeypatch)
    assert new[6] == 48 and new[7] > 0
    assert _scale_run(monkeypatch, reference_resolve_batch) == new


def test_batch_races_replicas_in_selection_order(recorded, monkeypatch):
    """Ties go to the earlier-selected replica, so the pmfs must reach
    ``FirstReply`` in Algorithm 1's order, not the candidate-view order."""
    selections = []
    select = StateBasedSelection.select

    def recording_select(strategy, candidates, qos, stale_factor):
        result = select(strategy, candidates, qos, stale_factor)
        selections.append((list(candidates), result.replicas))
        return result

    checked = []
    resolve = AggregatedClientPool._resolve_batch

    def checking_resolve(pool, *args):
        first = len(recorded)
        resolve(pool, *args)
        views, order = selections[-1]
        primary = {view.name: view.is_primary for view in views}
        pmfs = [pool.handler.predictor.response_pmfs(name) for name in order]
        (fresh, fresh_flags), (stale, stale_flags) = recorded[first:]
        assert fresh == [immediate for immediate, _ in pmfs]
        assert fresh_flags == [False] * len(order)
        assert stale == [
            immediate if primary[name] else deferred
            for name, (immediate, deferred) in zip(order, pmfs)
        ]
        assert stale_flags == [not primary[name] for name in order]
        checked.append(list(order) != [v.name for v in views if v.name in order])

    monkeypatch.setattr(StateBasedSelection, "select", recording_select)
    monkeypatch.setattr(AggregatedClientPool, "_resolve_batch", checking_resolve)
    run_scale_cell(users=1_000_000, duration=12.0, warmup=10.0, seed=6)
    assert len(checked) == 8 and any(checked)  # some batch reorders the views
