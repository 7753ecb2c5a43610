"""Bad rack arguments fail in the caller's process, naming the field.

Every node builder runs wherever the execution mode puts it -- under
``run_sharded`` that is a forked worker, where a ``ValueError`` arrives
as a broken pipe and a traceback from another process.  The topology
constructors therefore validate up front; this sweep holds all three to
it.  (Constructing a topology builds no NIC, so each case is instant.)
"""

import pytest

from repro.lb.rack import lb_rack_topology
from repro.reliability.rack import reliable_rack_topology
from repro.reliability.selective import SEQ_SPACE
from repro.workloads.rack import rack_topology

BAD_ARGUMENTS = [
    (rack_topology, {"pattern": "bogus"}, "pattern"),
    (rack_topology, {"flow_id": "vlan"}, "flow_id"),
    (rack_topology, {"nics": 8, "flow_id": "dscp"}, "dscp"),
    (rack_topology, {"nics": 1}, "NICs"),
    (reliable_rack_topology, {"pattern": "bogus"}, "pattern"),
    (reliable_rack_topology, {"transport": "x"}, "transport"),
    (reliable_rack_topology, {"window": 0}, "window"),
    (reliable_rack_topology, {"transport": "sr", "window": SEQ_SPACE},
     "window"),
    (reliable_rack_topology, {"nics": 8}, "NICs"),
    (lb_rack_topology, {"transport": "x"}, "transport"),
    (lb_rack_topology, {"window": 0}, "window"),
    (lb_rack_topology, {"flow_id": "vlan"}, "flow_id"),
    (lb_rack_topology, {"nics": 4, "n_backends": 3}, "client"),
    (lb_rack_topology, {"n_backends": 0}, "backend"),
]


@pytest.mark.parametrize(
    "constructor,kwargs,names", BAD_ARGUMENTS,
    ids=[f"{c.__name__}-{'-'.join(k)}" for c, k, _n in BAD_ARGUMENTS])
def test_topology_constructor_rejects(constructor, kwargs, names):
    with pytest.raises(ValueError, match=names):
        constructor(**kwargs)


def test_go_back_n_accepts_windows_selective_repeat_cannot():
    # The window bound is the policy's, not the rack's.
    reliable_rack_topology(transport="gbn", window=SEQ_SPACE)
