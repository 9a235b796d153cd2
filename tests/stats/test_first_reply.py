"""Exactness of the first-reply joint pmf (:class:`repro.stats.pmf.FirstReply`)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.pmf import DiscretePmf, FirstReply

Q = 1e-3


def brute_force(pmfs, deferred):
    """P(min = bin, winner deferred) by enumerating the product space.

    The winner is the earliest replica in list order holding the minimum,
    the tie rule of a strict ``<`` min-reduce over the replicas in order.
    """
    joint = {}
    supports = [
        [(p.offset + i, float(p.mass[i])) for i in range(p.mass.size)]
        for p in pmfs
    ]
    for combo in itertools.product(*supports):
        bins = [b for b, _ in combo]
        winner = bins.index(min(bins))
        key = (min(bins), bool(deferred[winner]))
        joint[key] = joint.get(key, 0.0) + float(np.prod([w for _, w in combo]))
    return joint


def assert_matches_brute_force(pmfs, deferred):
    reply = FirstReply(pmfs, deferred)
    expected = np.zeros_like(reply.mass)
    for (bin_index, flag), mass in brute_force(pmfs, deferred).items():
        expected[int(flag), bin_index - reply.offset] += mass
    np.testing.assert_allclose(reply.mass, expected, rtol=0, atol=1e-12)
    assert reply.mass.sum() == pytest.approx(1.0, abs=1e-12)


_pmf = st.builds(
    lambda offset, masses: DiscretePmf(Q, offset, np.asarray(masses)),
    st.integers(min_value=0, max_value=6),
    st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5
    ).filter(lambda m: sum(m) > 1e-3),
)


@given(
    replicas=st.lists(st.tuples(_pmf, st.booleans()), min_size=1, max_size=4)
)
@settings(max_examples=200, deadline=None)
def test_first_reply_matches_enumeration_property(replicas):
    """Overlapping supports (offsets 0..6, up to 5 bins) force ties."""
    pmfs = [p for p, _ in replicas]
    flags = [f for _, f in replicas]
    assert_matches_brute_force(pmfs, flags)


def test_first_reply_ties_go_to_the_earliest_replica():
    a = DiscretePmf.degenerate(0.010, Q)
    b = DiscretePmf.degenerate(0.010, Q)
    np.testing.assert_array_equal(FirstReply([a, b], [False, True]).mass, [[1.0], [0.0]])
    np.testing.assert_array_equal(FirstReply([a, b], [True, False]).mass, [[0.0], [1.0]])


def test_first_reply_disjoint_supports_pick_the_earlier_replica():
    early = DiscretePmf(Q, 2, np.array([0.25, 0.75]))
    late = DiscretePmf(Q, 10, np.array([0.5, 0.5]))
    for order in ([early, late], [late, early]):
        flags = [p is late for p in order]
        reply = FirstReply(order, flags)
        assert reply.offset == 2
        np.testing.assert_allclose(reply.mass, [[0.25, 0.75], [0.0, 0.0]])
        assert_matches_brute_force(order, flags)


def test_first_reply_mixed_flags_and_partial_overlap():
    pmfs = [
        DiscretePmf(Q, 3, np.array([0.1, 0.0, 0.6, 0.3])),
        DiscretePmf(Q, 1, np.array([0.2, 0.2, 0.2, 0.2, 0.2])),
        DiscretePmf(Q, 4, np.array([0.5, 0.5])),
        DiscretePmf(Q, 0, np.array([0.0, 0.0, 0.0, 1.0])),
    ]
    assert_matches_brute_force(pmfs, [True, False, True, False])


@pytest.mark.parametrize("flag", [False, True])
def test_first_reply_of_one_replica_is_its_pmf(flag):
    pmf = DiscretePmf(Q, 7, np.array([0.2, 0.0, 0.5, 0.3]))
    reply = FirstReply([pmf], [flag])
    assert reply.offset == pmf.offset
    np.testing.assert_allclose(reply.mass[int(flag)], pmf.mass, atol=1e-15)
    assert not reply.mass[int(not flag)].any()


def test_first_reply_of_no_replicas_never_arrives_and_draws_nothing():
    reply = FirstReply([], [])
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    times, deferred = reply.sample(50, rng)
    assert np.all(np.isinf(times))
    assert not deferred.any()
    assert rng.bit_generator.state == before


def test_first_reply_rejects_bad_input():
    pmf = DiscretePmf.degenerate(0.010, Q)
    with pytest.raises(ValueError):
        FirstReply([pmf], [])
    with pytest.raises(ValueError):
        FirstReply([pmf, DiscretePmf.degenerate(0.010, 2 * Q)], [False, False])
    with pytest.raises(ValueError):
        FirstReply([pmf], [False]).sample(-1, np.random.default_rng(0))


def test_first_reply_sample_takes_one_uniform_per_value():
    pmfs = [
        DiscretePmf(Q, 3, np.array([0.3, 0.4, 0.3])),
        DiscretePmf(Q, 4, np.array([0.5, 0.5])),
        DiscretePmf(Q, 2, np.array([0.1, 0.1, 0.1, 0.7])),
    ]
    rng = np.random.default_rng(11)
    reference = np.random.default_rng(11)
    FirstReply(pmfs, [False, True, True]).sample(1000, rng)
    reference.random(1000)
    assert rng.bit_generator.state == reference.bit_generator.state


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_first_reply_sample_frequencies_match_mass_property(seed):
    rng = np.random.default_rng(seed)
    pmfs = [
        DiscretePmf(Q, int(rng.integers(0, 4)), rng.random(5) + 0.05)
        for _ in range(3)
    ]
    reply = FirstReply(pmfs, [False, True, False])
    n = 20_000
    times, deferred = reply.sample(n, rng)
    bins = np.rint(times / Q).astype(int) - reply.offset
    for flag in (False, True):
        counts = np.bincount(bins[deferred == flag], minlength=reply.mass.shape[1])
        np.testing.assert_allclose(counts / n, reply.mass[int(flag)], atol=0.02)
