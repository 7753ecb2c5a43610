"""Call budget of the event kernel: Python calls per fired event, counted
exactly.

cProfile's ``ncalls`` are deterministic, so the gate needs no wall
clock (``tests/pins.py`` counts; the counts are pinned in
``tests/pins.json``).

* **The loop adds no calls.**  Every way of running the simulator --
  ``run()``, a deadline, a deadline plus a budget, a fired log, a
  profile sink -- goes through one drain loop inside
  ``Simulator.run``, so per fired event the calls into and out of
  ``repro/sim/kernel.py`` are the ``schedule`` / ``schedule_at`` call
  the callback makes itself, its ``heappush`` and the loop's
  ``heappop``: 3.  Two run lengths are differenced so the per-run
  constant (the ``run`` frame itself) drops out, leaving 1,800 calls
  for 600 events.  The fired log adds one ``append`` per distinct
  instant and the profile sink its clock reads and its dict update; no
  form adds a Python frame.  A second loop behind some option, or a
  helper call per event, moves a pin.
"""

import pytest

from repro.sim import Simulator
from tests import pins

FAR = 10**12


#: Every way of running the simulator, by name.
FORMS = {
    "bare": lambda sim: sim.run(),
    "deadline": lambda sim: sim.run(until_ps=FAR),
    "deadline_and_budget": lambda sim: sim.run(
        until_ps=FAR, max_events=10**9, on_max_events="raise"),
    "fired_log": lambda sim: (sim.set_fired_log([]), sim.run()),
    "profiled": lambda sim: (sim.set_profile({}), sim.run(until_ps=FAR)),
}


def calls_per_600_events(form) -> int:
    """Calls into and out of kernel.py while 600 more events fire: two
    run lengths differenced, so the per-run constant (the ``run`` frame)
    drops out."""
    def counted(events):
        sim = Simulator()

        def tick(left):
            if left:
                if left % 3:
                    sim.schedule(left % 2, tick, left - 1)  # zero delays too
                else:
                    sim.schedule_at(sim.now + 7, tick, left - 1)

        sim.schedule(1, tick, events - 1)
        count = pins.calls("repro/sim/kernel.py", form, sim)
        assert sim.events_fired == events
        return count

    return counted(700) - counted(100)


@pytest.mark.parametrize("form", FORMS)
def test_drain_loop_adds_no_calls_per_event(form):
    pins.budget(f"calls.kernel.{form}", calls_per_600_events(FORMS[form]))
