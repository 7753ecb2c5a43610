"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import Component, SimError
from repro.sim.clock import Clock, MHZ, format_time


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(300, fired.append, "c")
        sim.schedule(100, fired.append, "a")
        sim.schedule(200, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_timestamps_fire_in_scheduling_order(self, sim):
        fired = []
        for label in "abcde":
            sim.schedule(50, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_now_advances_to_event_time(self, sim):
        times = []
        sim.schedule(123, lambda: times.append(sim.now))
        sim.run()
        assert times == [123]
        assert sim.now == 123

    def test_nested_scheduling_from_callback(self, sim):
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(10, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(5, outer)
        sim.run()
        assert fired == [("outer", 5), ("inner", 15)]

    def test_schedule_negative_delay_rejected(self, sim):
        with pytest.raises(SimError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.schedule_at(50, lambda: None)

    def test_zero_delay_event_fires(self, sim):
        fired = []
        sim.schedule(0, fired.append, 1)
        sim.run()
        assert fired == [1]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, "x")
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(10, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.run() == 0

    def test_cancel_one_of_many(self, sim):
        fired = []
        sim.schedule(10, fired.append, "keep1")
        victim = sim.schedule(10, fired.append, "gone")
        sim.schedule(10, fired.append, "keep2")
        sim.cancel(victim)
        sim.run()
        assert fired == ["keep1", "keep2"]


    def test_cancel_after_fire_counts_nothing_pending(self, sim):
        handles = [sim.schedule(1 + i, lambda: None) for i in range(3000)]
        sim.run()
        for handle in handles:
            sim.cancel(handle)
        assert sim._cancelled_pending == 0
        assert sim.pending_events == 0

    def test_cancel_pending_still_counts_and_stays_idempotent(self, sim):
        fired = []
        victim = sim.schedule(10, fired.append, "gone")
        sim.schedule(10, fired.append, "kept")
        sim.cancel(victim)
        sim.cancel(victim)
        assert sim._cancelled_pending == 1
        assert sim.run() == 1
        assert fired == ["kept"]
        assert sim._cancelled_pending == 0

    def test_fired_record_pins_nothing(self, sim):
        payload = object()
        kept = sim.schedule(7, lambda arg: None, payload)
        assert kept[2] is not None and kept[3] == (payload,)
        sim.run()
        assert kept[2] is None and kept[3] == ()
        assert (kept[0], kept[1]) == (7, 0)
        sim.cancel(kept)
        assert sim._cancelled_pending == 0

    def test_callback_cancelling_its_own_handle_changes_nothing(self, sim):
        fired = []
        handles = {}

        def fire(label):
            fired.append(label)
            sim.cancel(handles[label])

        for label in "ab":
            handles[label] = sim.schedule(5, fire, label)
        later = sim.schedule(9, fired.append, "later")
        assert sim.run() == 3
        assert fired == ["a", "b", "later"]
        assert sim._cancelled_pending == 0
        assert later[2] is None

    def test_mass_cancellation_compacts_and_survivors_keep_order(self, sim):
        fired = []
        handles = [sim.schedule(i % 97, fired.append, i) for i in range(3000)]
        cancelled = 0
        for i, handle in enumerate(handles):
            if i % 3:
                sim.cancel(handle)
                cancelled += 1
        assert cancelled > 1024
        # Compaction ran: far fewer records than were pushed remain, and
        # at most 1,024 of those are dead.
        assert sim.pending_events < 3000 - 1024
        assert sim._cancelled_pending <= 1024
        dead = sum(1 for record in sim._heap if record[2] is None)
        assert dead == sim._cancelled_pending
        assert sim.run() == 1000
        survivors = [i for i in range(3000) if i % 3 == 0]
        assert fired == sorted(survivors, key=lambda i: (i % 97, i))
        assert sim._cancelled_pending == 0


class TestMoveEarlier:
    def test_moved_event_keeps_its_place_among_ties(self, sim):
        fired = []
        first = sim.schedule(30, fired.append, "old")
        sim.schedule(10, fired.append, "younger")
        moved = sim.move_earlier(first, 10, fired.append, "moved")
        assert first[2] is None and moved[2] is not None
        assert (moved[0], moved[1]) == (10, first[1])
        sim.run()
        assert fired == ["moved", "younger"]

    def test_refuses_what_it_cannot_move(self, sim):
        event = sim.schedule(10, lambda: None)
        for when in (10, 11):  # not strictly earlier
            with pytest.raises(SimError):
                sim.move_earlier(event, when, lambda: None)
        sim.run(until_ps=5)
        with pytest.raises(SimError):  # in the past
            sim.move_earlier(event, 4, lambda: None)
        sim.cancel(event)
        with pytest.raises(SimError):  # no longer pending
            sim.move_earlier(event, 6, lambda: None)
        fired = sim.schedule(1, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.move_earlier(fired, sim.now, lambda: None)


class TestRunControl:
    def test_run_until_stops_at_boundary(self, sim):
        fired = []
        sim.schedule(100, fired.append, "early")
        sim.schedule(500, fired.append, "late")
        sim.run(until_ps=200)
        assert fired == ["early"]
        assert sim.now == 200

    def test_run_until_advances_clock_without_events(self, sim):
        sim.run(until_ps=1000)
        assert sim.now == 1000

    def test_run_until_includes_boundary_event(self, sim):
        fired = []
        sim.schedule(200, fired.append, "boundary")
        sim.run(until_ps=200)
        assert fired == ["boundary"]

    def test_max_events_limits_execution(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(i + 1, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_budget_spent_inside_a_window_can_be_resumed(self, sim):
        fired = []
        for i in range(6):
            sim.schedule(10 * (i + 1), fired.append, i)
        assert sim.run(until_ps=45, max_events=3) == 3
        assert sim.now == 30  # event 3 is still due inside the window
        assert sim.run(until_ps=45, max_events=3) == 1
        assert sim.now == 45
        assert sim.run(until_ps=100) == 2
        assert fired == list(range(6))

    def test_run_until_is_visible_to_train_horizon_and_cleared(self, sim):
        seen = []
        sim.schedule(10, lambda: seen.append(sim.train_horizon()))
        sim.run(until_ps=50)
        assert seen == [51] and sim._run_until is None

        def boom():
            raise RuntimeError("callback failed")

        sim.schedule(10, boom)
        with pytest.raises(RuntimeError):
            sim.run(until_ps=500)
        assert sim._run_until is None

    def test_train_horizon_is_none_while_an_event_is_due_now(self, sim):
        seen = []

        def probe():
            seen.append(sim.train_horizon())
            sim.schedule(0, lambda: None)
            seen.append(sim.train_horizon())

        sim.schedule(10, probe)
        sim.schedule(25, lambda: None)
        sim.run()
        assert seen == [25, None]

    def test_events_fired_counter(self, sim):
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestComponents:
    def test_duplicate_name_rejected(self, sim):
        Component(sim, "dup")
        with pytest.raises(SimError):
            Component(sim, "dup")

    def test_component_schedule_uses_sim_clock(self, sim):
        comp = Component(sim, "c")
        fired = []
        comp.schedule(42, lambda: fired.append(comp.now))
        sim.run()
        assert fired == [42]


class TestClock:
    def test_default_is_500mhz(self):
        clock = Clock()
        assert clock.period_ps == 2000

    def test_cycles_to_ps_rounds_up(self):
        clock = Clock(500 * MHZ)
        assert clock.cycles_to_ps(1) == 2000
        assert clock.cycles_to_ps(1.5) == 3000
        assert clock.cycles_to_ps(0.001) == 2

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            Clock(0)
        with pytest.raises(ValueError):
            Clock(-1)

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            Clock().cycles_to_ps(-1)

    def test_format_time_units(self):
        assert format_time(500) == "500 ps"
        assert format_time(1500) == "1.500 ns"
        assert format_time(2_500_000) == "2.500 us"
