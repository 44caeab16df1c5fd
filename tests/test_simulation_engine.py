"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Simulator
from repro.simulation.engine import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.schedule(5.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_clock_advances_to_last_event(self):
        sim = Simulator()
        sim.schedule(7.5, lambda: None)
        sim.run()
        assert sim.now == 7.5

    def test_same_time_priority_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "low-priority", priority=5)
        sim.schedule(1.0, fired.append, "high-priority", priority=0)
        sim.run()
        assert fired == ["high-priority", "low-priority"]

    def test_same_time_same_priority_is_fifo(self):
        sim = Simulator()
        fired = []
        for label in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(100.0, lambda: sim.schedule_at(150.0, fired.append, "x"))
        sim.run()
        assert fired == ["x"]
        assert sim.now == 150.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(-10.0, lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(5.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 6.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        sequence = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule(2.0, fired.append, "kept")
        sim.cancel(sequence)
        sim.run()
        assert fired == ["kept"]
        assert sim.processed_events == 1

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        sequence = sim.schedule(1.0, lambda: None)
        sim.cancel(sequence)
        sim.cancel(sequence)
        assert sim.run() == 0


class TestRunControl:
    def test_reentrant_run_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, sim.run)
        with pytest.raises(SimulationError):
            sim.run()

    def test_processed_event_count(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.processed_events == 4

    def test_clock_starts_at_the_time_origin(self):
        sim = Simulator()
        assert sim.now == 0.0
        sim.schedule_at(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(-1.0, lambda: None)
        assert sim.run() == 1
        assert sim.now == 0.0

    def test_run_on_a_drained_simulator_executes_nothing(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        assert sim.run() == 1
        assert sim.run() == 0
        assert sim.now == 5.0


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_always_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_equal_times_preserve_insertion_order(self, values):
        sim = Simulator()
        fired = []
        for value in values:
            sim.schedule(1.0, fired.append, value)
        sim.run()
        assert fired == values


def _replay(arrivals, events, stream_priority, use_stream):
    """Fire ``arrivals`` (sorted times) and heap ``events``; the firing order.

    Each event is ``(time, priority, cancel_up_front, spawn, target)``: it is
    cancelled before the run, schedules a zero-delay event at ``spawn``
    priority when it fires, and cancels event ``target`` when it fires.
    With ``use_stream`` the arrivals go through :meth:`Simulator.stream`,
    otherwise through ``schedule_at`` before any event.
    """
    sim = Simulator()
    fired, sequences = [], {}

    def fire(label, spawn, target):
        fired.append((sim.now, label))
        if spawn is not None:
            sim.schedule(0, fire, label + ("spawned",), None, None, priority=spawn)
        if target in sequences:
            sim.cancel(sequences[target])

    entries = [(time, (("arrival", i), spawn, None)) for i, (time, spawn) in enumerate(arrivals)]
    if use_stream:
        sim.stream(entries, lambda entry: fire(*entry), priority=stream_priority)
    else:
        for time, entry in entries:
            sim.schedule_at(time, fire, *entry, priority=stream_priority)
    for i, (time, priority, _, spawn, target) in enumerate(events):
        sequences[i] = sim.schedule_at(time, fire, ("event", i), spawn, target, priority=priority)
    for i, event in enumerate(events):
        if event[2]:
            sim.cancel(sequences[i])
    sim.run()
    return fired, sim.processed_events


_PRIORITIES = st.integers(min_value=0, max_value=3)
_SPAWN = st.one_of(st.none(), _PRIORITIES)


class TestArrivalStream:
    @given(
        arrivals=st.lists(st.tuples(st.integers(min_value=0, max_value=30), _SPAWN), max_size=25),
        events=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                _PRIORITIES,
                st.booleans(),
                _SPAWN,
                st.one_of(st.none(), st.integers(min_value=0, max_value=25)),
            ),
            max_size=25,
        ),
        stream_priority=_PRIORITIES,
    )
    @settings(max_examples=300, deadline=None)
    def test_stream_fires_as_if_pushed_first(self, arrivals, events, stream_priority):
        arrivals = sorted(arrivals, key=lambda a: a[0])
        assert _replay(arrivals, events, stream_priority, True) == _replay(
            arrivals, events, stream_priority, False
        )

    def test_stream_drains_after_the_heap_empties(self):
        sim = Simulator()
        fired = []
        sim.stream([(1, "a"), (5, "b"), (9, "c")], fired.append)
        sim.schedule(2.0, fired.append, "heap")
        assert sim.run() == 4
        assert fired == ["a", "heap", "b", "c"]
        assert sim.processed_events == 4 and sim.peak_queue == 1

    def test_stream_times_become_floats(self):
        sim = Simulator()
        seen = []
        sim.stream([(3, None)], lambda _: seen.append(sim.now))
        sim.run()
        assert seen == [3.0] and isinstance(seen[0], float)

    def test_consumed_stream_releases_its_callback(self):
        class Owner:
            def arrive(self, _):
                pass

        owner = Owner()
        released = weakref.ref(owner)
        sim = Simulator()
        sim.stream([(1.0, None)], owner.arrive)
        del owner
        sim.run()
        assert released() is None

    @pytest.mark.parametrize(
        "entries",
        [[(2.0, "a"), (1.0, "b")], [(-1.0, "a")]],
        ids=["unsorted", "before-now"],
    )
    def test_stream_out_of_order_rejected(self, entries):
        with pytest.raises(SimulationError):
            Simulator().stream(entries, lambda _: None)

    def test_second_stream_rejected_until_the_first_is_consumed(self):
        sim = Simulator()
        sim.stream([(1.0, "a")], lambda _: None)
        with pytest.raises(SimulationError):
            sim.stream([(2.0, "b")], lambda _: None)
        sim.run()
        sim.stream([(2.0, "b")], lambda _: None)
        assert sim.run() == 1
