"""Process-state census: a run leaves nothing behind in module or class
state, except the two address-parsing memos priced in ROADMAP item 16.

Every dict, list and set bound at module level or as a class attribute
anywhere in ``repro.*`` is snapshot (identity and length) after the whole
package is imported, in a fresh interpreter (so no earlier test has
filled a memo already); so is every iterator bound there (identity and
position: a module-level ``itertools.count`` that numbers objects is
state a run advances just as surely).  One small workload of each kind then runs
twice in that interpreter -- an offload chain on one NIC, the multi-tenant KVS, a
plain rack, a lossy reliable rack and the load-balanced rack -- and any
container that grew or was rebound must be on ``ALLOWED`` with its
price.  State that outlives a run couples runs in one process (a test
run, a paired benchmark, a chaos batch) and is paid for on every frame;
a memo earns its place only by a measured win.
"""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import warnings

import repro
from repro import HostKvServer, PanicConfig, PanicNic, Simulator
from repro.faults.plan import FaultPlan
from repro.faults.rack import wire_target
from repro.lb.rack import lb_rack_topology
from repro.packet import Packet, build_udp_frame
from repro.reliability.rack import reliable_rack_topology
from repro.sim.clock import US
from repro.sim.shard import run_monolithic
from repro.workloads import KvsWorkload, TenantSpec
from repro.workloads.rack import rack_topology

#: Containers a run may grow, each with the price that keeps it (ROADMAP
#: item 16; off / on is run wall with the memo disabled over enabled, on
#: ``kvs_isolation`` / ``lb_drain``).
ALLOWED = {
    "repro.packet.builder._IP_INTS":
        "off / on 1.051 / 1.024; parsing an IPv4 string costs about "
        "2.1 us, and the chain set-ups build 10k-12k frames from four "
        "address strings",
    "repro.packet.builder._MAC_INTS":
        "off / on 1.055 / 1.012; parsing a MAC string costs about 2.0 us",
}


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            yield importlib.import_module(info.name)


def _is_state(value):
    return (isinstance(value, (dict, list, set))
            or hasattr(type(value), "__next__"))


def _containers():
    """Qualified name -> every module- and class-level dict, list, set
    and iterator."""
    found = {}
    for module in _modules():
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            qualified = f"{module.__name__}.{name}"
            if _is_state(value):
                found[qualified] = value
            elif (isinstance(value, type)
                  and value.__module__ == module.__name__):
                for attr, member in vars(value).items():
                    if not attr.startswith("__") and _is_state(member):
                        found[f"{qualified}.{attr}"] = member
    return found


def _position(iterator):
    """Where an iterator stands, read without advancing it: its pickled
    state (a count's next value, a list iterator's index) where it has
    one, else its repr."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            return repr(iterator.__reduce__())
        except TypeError:
            return repr(iterator)


def _size(value):
    if isinstance(value, (dict, list, set)):
        return len(value)
    return _position(value)


def _snapshot():
    return {name: (id(value), _size(value))
            for name, value in _containers().items()}


def _chain():
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1, offloads=("checksum",)))
    nic.control.route_dscp(1, ["checksum"])
    for seq in range(8):
        frame = build_udp_frame(
            src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
            src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=4000 + seq % 2,
            dst_port=8888, payload=bytes(64 + seq), dscp=1)
        sim.schedule_at(seq * US, nic.inject, Packet(frame))
    sim.run()


def _kvs():
    sim = Simulator()
    nic = PanicNic(sim, PanicConfig(ports=1))
    HostKvServer(nic.host)
    nic.control.enable_kv_cache()
    nic.control.set_tenant_slack(1, 10 * US)
    tenants = [TenantSpec(1, rate_pps=400_000, key_space=50),
               TenantSpec(2, rate_pps=200_000, key_space=50,
                          value_bytes=256)]
    workload = KvsWorkload(sim, nic, tenants, requests_per_tenant=20)
    workload.populate_store(values_per_tenant=50)
    workload.warm_nic_cache(nic.offload("kvcache"), hot_keys=5)
    workload.start()
    sim.run()


def _plain_rack():
    run_monolithic(rack_topology(nics=3, frames=5, seed=1, flow_id="dscp"))


def _lossy_rack():
    plan = FaultPlan(seed=5)
    plan.wire_loss(0, wire_target(0, 1), drop_p=0.08, corrupt_p=0.02)
    run_monolithic(
        reliable_rack_topology(nics=3, pattern="symmetric", frames=8,
                               seed=3, transport="sr"),
        fault_plan=plan)


def _lb_rack():
    run_monolithic(lb_rack_topology(nics=5, n_backends=2, frames=10,
                                    seed=2, drain=(1, 20 * US)))


WORKLOADS = (_chain, _kvs, _plain_rack, _lossy_rack, _lb_rack)


def grown_containers():
    """Every container outside ``ALLOWED`` that two rounds of the
    workloads grew or rebound, and every iterator they advanced or
    rebound, as ``name: before -> after`` lines."""
    before = _snapshot()
    assert set(ALLOWED) <= set(before), "ALLOWED names a container gone"
    for _ in range(2):
        for workload in WORKLOADS:
            workload()
    after = _snapshot()
    return sorted(
        f"{name}: {before[name][1]} -> {after[name][1]}"
        + (" entries" if isinstance(before[name][1], int) else "")
        + ("" if after[name][0] == before[name][0] else " (rebound)")
        for name in before
        if name not in ALLOWED and (after[name][0] != before[name][0]
                                    or _grew(before[name][1],
                                             after[name][1])))


def _grew(before, after):
    """A container that holds more entries, or an iterator that moved."""
    if isinstance(before, int):
        return after > before
    return after != before


def test_runs_grow_no_unpriced_process_state():
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.run([sys.executable, __file__], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    grown = json.loads(child.stdout)
    assert not grown, "process state a run left behind:\n" + "\n".join(grown)


def test_the_workloads_exercise_the_allowed_memos():
    """The census guards only what the workloads reach: each allowed
    memo is filled by them (cleared first, so an earlier test's entries
    do not count)."""
    containers = _containers()
    for name in ALLOWED:
        containers[name].clear()
    for workload in WORKLOADS:
        workload()
    empty = [name for name in ALLOWED if not containers[name]]
    assert not empty, empty


if __name__ == "__main__":
    print(json.dumps(grown_containers()))
