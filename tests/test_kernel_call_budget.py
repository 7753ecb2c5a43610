"""Call budget of the event kernel: Python calls per fired event, counted
exactly.

cProfile's ``ncalls`` are deterministic, so the gate needs no wall
clock (the ``test_noc_call_budget.py`` pattern).

* **The loop adds no calls.**  Every way of running the simulator --
  ``run()``, a deadline, a deadline plus a budget, a fired log, a
  profile sink -- goes through one drain loop inside
  ``Simulator.run``, so per fired event the only Python-level calls into
  ``repro/sim/kernel.py`` are the ``schedule`` / ``schedule_at`` calls the
  callbacks make themselves.  Two run lengths are differenced so the
  per-run constant (the ``run`` frame itself) drops out.  A second loop
  behind some option, or a helper call per event, shows up here as a
  non-zero count.
"""

import cProfile

import pytest

from repro.sim import Simulator, kernel

FAR = 10**12


def _bare(sim):
    sim.run()


def _deadline(sim):
    sim.run(until_ps=FAR)


def _deadline_and_budget(sim):
    sim.run(until_ps=FAR, max_events=10**9, on_max_events="raise")


def _fired_log(sim):
    sim.set_fired_log([])
    sim.run()


def _profiled(sim):
    sim.set_profile({})
    sim.run(until_ps=FAR)


FORMS = [_bare, _deadline, _deadline_and_budget, _fired_log, _profiled]


def loop_calls(form, events: int) -> int:
    """Python-level calls into kernel.py while ``events`` events fire,
    less the scheduling calls the callbacks made themselves."""
    sim = Simulator()
    scheduling = 0

    def tick(left):
        nonlocal scheduling
        if left:
            scheduling += 1
            if left % 3:
                sim.schedule(left % 2, tick, left - 1)  # zero delays too
            else:
                sim.schedule_at(sim.now + 7, tick, left - 1)

    sim.schedule(1, tick, events - 1)
    profile = cProfile.Profile()
    profile.runcall(form, sim)
    assert sim.events_fired == events
    in_kernel = sum(
        entry.callcount for entry in profile.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_filename == kernel.__file__)
    return in_kernel - scheduling


@pytest.mark.parametrize("form", FORMS, ids=lambda form: form.__name__[1:])
def test_drain_loop_adds_no_calls_per_event(form):
    added = loop_calls(form, 700) - loop_calls(form, 100)
    assert added == 0, (
        f"{added / 600:g} kernel calls per fired event beyond the "
        f"callbacks' own scheduling")

