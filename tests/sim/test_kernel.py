"""Unit tests for the event kernel."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import SimulationError, Simulator


def test_initial_clock_is_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_events_fire_in_time_order(sim, recorder):
    sim.schedule(3.0, recorder, "c")
    sim.schedule(1.0, recorder, "a")
    sim.schedule(2.0, recorder, "b")
    sim.run()
    assert recorder.calls == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order(sim, recorder):
    for label in "abcde":
        sim.schedule(1.0, recorder, label)
    sim.run()
    assert recorder.calls == list("abcde")


def test_priority_breaks_ties_before_seq(sim, recorder):
    sim.schedule(1.0, recorder, "late", priority=1)
    sim.schedule(1.0, recorder, "early", priority=0)
    sim.run()
    assert recorder.calls == ["early", "late"]


def test_clock_advances_to_event_time(sim, recorder):
    sim.schedule(2.5, lambda: recorder(sim.now))
    sim.run()
    assert recorder.calls == [2.5]


def test_run_until_bound_excludes_later_events(sim, recorder):
    sim.schedule(1.0, recorder, "in")
    sim.schedule(5.0, recorder, "out")
    sim.run(until=2.0)
    assert recorder.calls == ["in"]
    assert sim.now == 2.0


def test_run_until_advances_clock_even_without_events(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_bounded_runs_compose(sim, recorder):
    sim.schedule(1.0, recorder, "a")
    sim.schedule(3.0, recorder, "b")
    sim.run(until=2.0)
    sim.run(until=4.0)
    assert recorder.calls == ["a", "b"]
    assert sim.now == 4.0


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_scheduling_in_the_past_rejected(sim, recorder):
    sim.schedule(5.0, recorder, "x")
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, recorder, "y")


def test_nan_time_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None)


def test_cancelled_event_does_not_fire(sim, recorder):
    event = sim.schedule(1.0, recorder, "x")
    event.cancel()
    sim.run()
    assert recorder.calls == []


def test_cancel_is_idempotent(sim, recorder):
    event = sim.schedule(1.0, recorder, "x")
    event.cancel()
    event.cancel()
    sim.run()
    assert recorder.calls == []


def test_cancel_from_within_callback(sim, recorder):
    later = sim.schedule(2.0, recorder, "later")
    sim.schedule(1.0, later.cancel)
    sim.run()
    assert recorder.calls == []


def test_events_scheduled_during_run_fire(sim, recorder):
    def outer():
        recorder("outer")
        sim.schedule(1.0, recorder, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert recorder.calls == ["outer", "inner"]
    assert sim.now == 2.0


def test_stop_halts_run(sim, recorder):
    sim.schedule(1.0, recorder, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, recorder, "b")
    stopped_at = sim.run()
    assert recorder.calls == ["a"]
    assert stopped_at == 2.0
    # A subsequent run resumes from where it stopped.
    sim.run()
    assert recorder.calls == ["a", "b"]


def test_step_processes_single_event(sim, recorder):
    sim.schedule(1.0, recorder, "a")
    sim.schedule(2.0, recorder, "b")
    assert sim.step() is True
    assert recorder.calls == ["a"]
    assert sim.step() is True
    assert sim.step() is False


def test_step_skips_cancelled_events(sim, recorder):
    event = sim.schedule(1.0, recorder, "a")
    sim.schedule(2.0, recorder, "b")
    event.cancel()
    assert sim.step() is True
    assert recorder.calls == ["b"]


def test_events_processed_counter(sim, recorder):
    for i in range(5):
        sim.schedule(float(i + 1), recorder, i)
    sim.run()
    assert sim.events_processed == 5


def test_pending_counts_uncancelled(sim):
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    a.cancel()
    assert sim.pending() == 1


def test_reentrant_run_rejected(sim):
    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_callback_args_passed_through(sim, recorder):
    sim.schedule(1.0, recorder, 1, 2, 3)
    sim.run()
    assert recorder.calls == [(1, 2, 3)]


def test_zero_delay_event_fires_at_current_time(sim, recorder):
    sim.schedule(0.0, lambda: recorder(sim.now))
    sim.run()
    assert recorder.calls == [0.0]


# ---------------------------------------------------------------------------
# Tombstone compaction and fired-event handles
# ---------------------------------------------------------------------------
def test_mass_cancel_does_not_grow_heap_unboundedly(sim):
    """Timer-heavy regression: cancelled events must not linger in the heap
    until popped (the pre-compaction kernel kept every tombstone)."""
    total = 20_000
    for i in range(total):
        event = sim.schedule(1.0 + i * 1e-6, lambda: None)
        event.cancel()
    assert sim.compactions > 0
    assert sim.heap_size() < total // 4
    assert sim.pending() == 0
    sim.run()
    assert sim.events_processed == 0


def test_mass_cancel_interleaved_with_live_timers(sim, recorder):
    """Cancel 99% of timers; the survivors still fire in order."""
    kept = []
    for i in range(5_000):
        event = sim.schedule(1.0 + i * 1e-4, recorder, i)
        if i % 100 != 0:
            event.cancel()
        else:
            kept.append(i)
    assert sim.heap_size() < 5_000
    sim.run()
    assert recorder.calls == kept
    assert sim.tombstones == 0


def test_pending_accounts_for_tombstones_after_compaction(sim):
    events = [sim.schedule(1.0, lambda: None) for _ in range(200)]
    for event in events[:150]:
        event.cancel()
    assert sim.pending() == 50


def test_compaction_preserves_ordering_and_determinism():
    """Two identical schedules — one with enough cancels to compact —
    fire the surviving callbacks at identical (time, order) points."""
    from repro.sim.kernel import Simulator

    def trace(mass_cancel: bool) -> list[tuple[float, int]]:
        sim = Simulator()
        calls: list[tuple[float, int]] = []
        live = [
            sim.schedule(0.5 + i * 0.01, lambda i=i: calls.append((sim.now, i)))
            for i in range(50)
        ]
        if mass_cancel:
            doomed = [sim.schedule(2.0, lambda: None) for _ in range(1_000)]
            for event in doomed:
                event.cancel()
        del live
        sim.run()
        return calls

    assert trace(mass_cancel=True) == trace(mass_cancel=False)


def test_recycled_event_not_cancellable_through_stale_reference(sim, recorder):
    """A handle kept by a client must never alias a recycled event: firing
    the original and cancelling it afterwards is a safe no-op, for the
    schedule and for the tombstone accounting alike."""
    held = sim.schedule(1.0, recorder, "held")
    sim.schedule(2.0, recorder, "later")
    sim.run(until=1.5)
    pending, tombstones = sim.pending(), sim.tombstones
    held.cancel()  # fired already; must not kill any newly scheduled event
    assert sim.pending() == pending
    assert sim.tombstones == tombstones
    follow = sim.schedule(1.0, recorder, "follow")
    assert follow is not held or follow.cancelled is False
    sim.run()
    assert recorder.calls == ["held", "later", "follow"]


def test_free_list_reuses_unreferenced_events(sim):
    """Events nobody holds are released once fired; scheduling afterwards
    yields a fresh, valid event (the kernel keeps no free list)."""
    for i in range(100):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    first = sim.schedule(1000.0, lambda: None)
    assert isinstance(first.seq, int)  # reinitialized, valid event
    sim.run()
    assert sim.events_processed == 101


# ---------------------------------------------------------------------------
# Bulk scheduling (schedule_batch)
# ---------------------------------------------------------------------------
def test_schedule_batch_fires_in_time_order(sim, recorder):
    sim.schedule_batch([3.0, 1.0, 2.0], recorder, args_list=[("c",), ("a",), ("b",)])
    sim.run()
    assert recorder.calls == ["a", "b", "c"]


def test_schedule_batch_matches_loop_of_schedule_at():
    """The bulk path is observationally identical to m schedule_at calls."""
    times = [5.0, 1.0, 1.0, 3.0, 2.0, 1.0, 4.0]

    def run(use_batch):
        sim = Simulator()
        order = []
        if use_batch:
            sim.schedule_batch(
                times, order.append, args_list=[(i,) for i in range(len(times))]
            )
        else:
            for i, t in enumerate(times):
                sim.schedule_at(t, order.append, i)
        sim.run()
        return order

    assert run(True) == run(False)


def test_schedule_batch_tie_break_is_input_order(sim, recorder):
    sim.schedule_batch([1.0] * 4, recorder, args_list=[(l,) for l in "abcd"])
    sim.run()
    assert recorder.calls == list("abcd")


def test_schedule_batch_interleaves_with_existing_events(sim, recorder):
    # A heap already larger than 8x the batch exercises the push path;
    # then a batch larger than heap/8 exercises extend+heapify.
    for i in range(100):
        sim.schedule_at(10.0 + i, recorder, f"old{i}")
    sim.schedule_batch([0.5, 11.5], recorder, args_list=[("b0",), ("b1",)])
    sim.schedule_batch(
        [float(i) + 0.25 for i in range(1, 31)],
        recorder,
        args_list=[(f"big{i}",) for i in range(30)],
    )
    sim.run()
    assert recorder.calls[0] == "b0"
    assert recorder.calls[1] == "big0"
    assert len(recorder.calls) == 132


def test_schedule_batch_empty_is_noop(sim):
    assert sim.schedule_batch([], lambda: None) == []
    sim.run()
    assert sim.events_processed == 0


def test_schedule_batch_shared_args(sim, recorder):
    """Without args_list every event fires the callback with no args."""
    hits = []
    sim.schedule_batch([1.0, 2.0], lambda: hits.append(sim.now))
    sim.run()
    assert hits == [1.0, 2.0]


def test_schedule_batch_validates_before_scheduling(sim, recorder):
    with pytest.raises(SimulationError):
        sim.schedule_batch([1.0, float("nan")], recorder, args_list=[("a",), ("b",)])
    with pytest.raises(SimulationError):
        sim.schedule_batch([-1.0], recorder, args_list=[("a",)])
    with pytest.raises(SimulationError):
        sim.schedule_batch([1.0], recorder, args_list=[("a",), ("b",)])
    # Nothing leaked into the heap from the rejected batches.
    sim.run()
    assert recorder.calls == []


def test_schedule_batch_events_cancellable(sim, recorder):
    events = sim.schedule_batch([1.0, 2.0, 3.0], recorder, args_list=[("a",), ("b",), ("c",)])
    events[1].cancel()
    sim.run()
    assert recorder.calls == ["a", "c"]


def test_schedule_batch_reuses_free_list(sim):
    """A batch scheduled after earlier events fired gets fresh, valid
    events that all fire (nothing is recycled from a free list)."""
    for i in range(50):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    events = sim.schedule_batch([100.0 + i for i in range(50)], lambda: None)
    assert len(events) == 50
    sim.run()
    assert sim.events_processed == 100


# ---------------------------------------------------------------------------
# Ordering property: schedule_at, schedule_batch, cancel, compaction, run
# ---------------------------------------------------------------------------
_DT = st.integers(min_value=0, max_value=12).map(lambda k: k / 4)
_PRIORITY = st.integers(min_value=-1, max_value=1)
# Batch offsets: n values of ((a * i + b) mod 13) / 4, so a batch can be
# large enough (with mass cancels) to cross the compaction threshold while
# still spreading over the same tie-heavy quarter-second grid as _DT.
_BATCH = st.builds(
    lambda n, a, b: [((a * i + b) % 13) / 4 for i in range(n)],
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
)
_KERNEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _DT, _PRIORITY),
        st.tuples(st.just("batch"), _BATCH, _PRIORITY),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("cancel_all_but"), st.integers(min_value=2, max_value=9)),
        st.tuples(st.just("run"), _DT),
    ),
    min_size=6,
    max_size=40,
)


@given(ops=_KERNEL_OPS)
@example(
    ops=[
        ("batch", [k / 4 for k in range(13)] * 12, 0),
        ("at", 0.5, -1),
        ("run", 0.75),
        ("cancel_all_but", 5),
        ("batch", [0.0, 0.25, 0.25], 1),
        ("run", 1.0),
        ("cancel", 7),
    ]
)
@settings(max_examples=150, deadline=None)
def test_fired_order_matches_sorted_reference_under_interleaving(ops):
    """Random interleavings of single and batched scheduling, cancels
    (including mass cancels that force compaction and late cancels of
    fired events) and bounded runs fire exactly what a sorted
    ``(time, priority, seq)`` reference model fires, in the same order."""
    sim = Simulator()
    fired: list[int] = []
    expected: list[int] = []
    handles = []  # (event, reference key), in scheduling order
    pending: dict[int, tuple[float, int, int]] = {}  # seq -> key

    def add(event, time, priority):
        key = (time, priority, len(handles))
        handles.append((event, key))
        pending[key[2]] = key

    def cancel(index):
        event, key = handles[index]
        event.cancel()
        pending.pop(key[2], None)

    for op in ops:
        kind = op[0]
        if kind == "at":
            time = sim.now + op[1]
            add(sim.schedule_at(time, fired.append, len(handles), priority=op[2]),
                time, op[2])
        elif kind == "batch":
            times = [sim.now + dt for dt in op[1]]
            first = len(handles)
            events = sim.schedule_batch(
                times, fired.append,
                args_list=[(first + i,) for i in range(len(times))],
                priority=op[2],
            )
            for event, time in zip(events, times):
                add(event, time, op[2])
        elif kind == "cancel" and handles:
            cancel(op[1] % len(handles))
        elif kind == "cancel_all_but":
            for index in range(len(handles)):
                if index % op[1]:
                    cancel(index)
        elif kind == "run":
            until = sim.now + op[1]
            due = sorted(key for key in pending.values() if key[0] <= until)
            for key in due:
                del pending[key[2]]
            expected.extend(key[2] for key in due)
            sim.run(until=until)
        assert fired == expected
        assert sim.pending() == len(pending)
        assert sim.heap_size() == sim.pending() + sim.tombstones

    expected.extend(key[2] for key in sorted(pending.values()))
    sim.run()
    assert fired == expected
    assert sim.pending() == 0 and sim.tombstones == 0
