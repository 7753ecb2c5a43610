"""The kernel's (when, seq) contract over generated schedules.

Hypothesis draws a *program*: a tree of kernel calls, each node run once,
either up front or from inside the callback of its parent.  The same
program is played against :class:`Oracle` -- a reference kernel that
keeps a plain list and fires ``min`` by ``(when, seq)`` -- and against
the real :class:`Simulator` under every way of driving it: one
``run()``, ``run(until_ps=, max_events=)`` windows of drawn widths and
budgets with resumption, and a ``while sim.step()`` loop.  Firing order,
``now`` at each firing, ``events_fired`` and the clock after each window
must all agree.

Zero delays are over-represented (same-timestamp ties are where a
kernel's ordering can go wrong), ``tie`` nodes aim ``schedule_at`` at the
timestamp of an event that is already pending, ``cancel`` nodes hit
pending, fired and already-cancelled handles alike, and ``move`` nodes
re-aim a pending event at an earlier instant with
:meth:`Simulator.move_earlier`, which keeps its sequence number.  A
handle is the kernel's record ``[when, seq, fn, args]``; ``fn`` is
``None`` once the event is cancelled or has fired.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


class Oracle:
    """Reference kernel: live entries in a list, fire the (when, seq) min.

    Entries have the kernel's handle shape, ``[when, seq, fn, args]``,
    with ``fn`` cleared on cancel and on firing."""

    def __init__(self):
        self.now = self.seq = self.events_fired = 0
        self.pending = []

    def schedule_at(self, when, fn, *args):
        self.seq += 1
        entry = [when, self.seq, fn, args]
        self.pending.append(entry)
        return entry

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def cancel(self, entry):
        entry[2] = None

    def move_earlier(self, entry, when, fn, *args):
        self.cancel(entry)
        moved = [when, entry[1], fn, args]
        self.pending.append(moved)
        return moved

    def run(self):
        while True:
            live = [e for e in self.pending if e[2] is not None]
            if not live:
                return
            entry = min(live, key=lambda e: (e[0], e[1]))
            self.pending = [e for e in self.pending if e is not entry]
            self.now = entry[0]
            self.events_fired += 1
            fn, args = entry[2], entry[3]
            entry[2] = None
            fn(*args)


# -- programs ---------------------------------------------------------------

DELAYS = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 40))


def _nodes(children):
    return st.lists(st.one_of(
        st.tuples(st.just("schedule"), DELAYS, st.booleans(), children),
        st.tuples(st.just("tie"), st.integers(0, 15), children),
        st.tuples(st.just("cancel"), st.integers(0, 15)),
        st.tuples(st.just("move"), st.integers(0, 15), st.integers(0, 3),
                  children),
    ), max_size=4)


PROGRAMS = st.recursive(st.just([]), _nodes, max_leaves=30)


def play(sim, nodes, path, trace, handles):
    """Issue ``nodes`` against ``sim`` at its current instant.

    A node's label is its path in the tree, so two kernels that fire the
    same callbacks in a different order produce different traces.
    """
    for index, node in enumerate(nodes):
        label = path + (index,)

        def fire(label=label, children=node[-1]):
            trace.append((label, sim.now))
            play(sim, children, label, trace, handles)

        kind = node[0]
        if kind == "schedule":
            handle = sim.schedule(node[1], fire)
            if node[2]:
                handles.append(handle)
        elif kind == "tie":
            # An absolute timestamp some handle already holds (pending or
            # not), clamped to the present.
            when = handles[node[1] % len(handles)][0] if handles else 0
            handles.append(sim.schedule_at(max(when, sim.now), fire))
        elif kind == "cancel":
            if handles:
                sim.cancel(handles[node[1] % len(handles)])
        elif kind == "move" and handles:
            # Only a pending event strictly after now can move earlier:
            # to a quarter-step of the way there, now included.
            handle = handles[node[1] % len(handles)]
            if handle[2] is not None and handle[0] > sim.now:
                when = sim.now + (handle[0] - sim.now) * node[2] // 4
                handles.append(sim.move_earlier(handle, when, fire))


def expected(program):
    oracle, trace = Oracle(), []
    play(oracle, program, (), trace, [])
    oracle.run()
    return trace, oracle


@settings(max_examples=120, deadline=None)
@given(PROGRAMS)
def test_run_fires_in_when_seq_order(program):
    want, oracle = expected(program)
    sim, trace, handles = Simulator(), [], []
    play(sim, program, (), trace, handles)
    assert sim.run() == oracle.events_fired
    assert trace == want
    assert sim.events_fired == oracle.events_fired
    assert sim.now == oracle.now
    assert sim.next_event_ps() is None
    assert all(entry[2] is None for entry in sim._heap)
    # Every kept handle is dead and pins nothing, fired or cancelled.
    assert all(h[2] is None and h[3] == () for h in handles)


@settings(max_examples=120, deadline=None)
@given(PROGRAMS)
def test_step_loop_equals_run(program):
    want, oracle = expected(program)
    sim, trace = Simulator(), []
    play(sim, program, (), trace, [])
    while sim.step():
        pass
    assert trace == want
    assert (sim.events_fired, sim.now) == (oracle.events_fired, oracle.now)


@settings(max_examples=150, deadline=None)
@given(PROGRAMS,
       st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_bounded_windows_with_resumption_equal_run(program, widths, budgets):
    want, oracle = expected(program)
    sim, trace = Simulator(), []
    play(sim, program, (), trace, [])
    until = calls = 0
    while sim.next_event_ps() is not None or not calls:
        until += widths[calls % len(widths)]
        while True:  # one window, resumed until its budget suffices
            budget = budgets[calls % len(budgets)]
            before = sim.now
            fired = sim.run(until_ps=until, max_events=budget)
            calls += 1
            assert fired <= budget
            assert len(trace) <= len(want) and trace == want[:len(trace)]
            nxt = sim.next_event_ps()
            if nxt is None or nxt > until:
                assert sim.now == until  # window complete: clock lands on it
                break
            # Stopped early: only an exhausted budget may leave an event
            # due inside the window, and the clock stays where it fired.
            assert fired == budget
            assert sim.now == (trace[-1][1] if fired else before)
    assert trace == want
    assert sim.events_fired == oracle.events_fired
