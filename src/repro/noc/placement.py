"""Engine placement optimization (section 6: "How should different
engines be placed in this topology?").

Given a traffic matrix between engines (messages/sec or any relative
weight), placement quality is the traffic-weighted mean Manhattan
distance -- each hop costs a router cycle plus serialization, so
expected hops is the right analytic objective for a 2D mesh with XY
routing.

Two optimizers are provided:

* :func:`greedy_placement` -- heaviest-communicating pairs first, placed
  as close together as possible; fast and deterministic.
* :func:`annealed_placement` -- simulated annealing over tile swaps with
  a seeded RNG; slower, usually a few percent better.

Both honour *fixed* placements (Ethernet MACs and DMA/PCIe sit on mesh
edges because the external wires attach there; Figure 3c).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.rng import SeededRng

Coord = Tuple[int, int]
#: A traffic matrix: (src_engine, dst_engine) -> weight.
TrafficMatrix = Dict[Tuple[str, str], float]
#: A placement: engine name -> tile coordinate.
Placement = Dict[str, Coord]


def manhattan(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def expected_hops(placement: Placement, traffic: TrafficMatrix) -> float:
    """Traffic-weighted mean hop distance of a placement."""
    total_weight = 0.0
    total_cost = 0.0
    for (src, dst), weight in traffic.items():
        if weight < 0:
            raise ValueError(f"negative traffic weight for {src}->{dst}")
        if src not in placement or dst not in placement:
            raise KeyError(f"traffic names unplaced engine: {src}->{dst}")
        total_weight += weight
        total_cost += weight * manhattan(placement[src], placement[dst])
    if total_weight == 0:
        return 0.0
    return total_cost / total_weight


def _all_tiles(width: int, height: int) -> List[Coord]:
    return [(x, y) for y in range(height) for x in range(width)]


def _validate(
    engines: Iterable[str],
    width: int,
    height: int,
    fixed: Optional[Placement],
) -> Tuple[List[str], Placement]:
    engines = list(engines)
    fixed = dict(fixed or {})
    if len(set(engines)) != len(engines):
        raise ValueError("duplicate engine names")
    tiles = set(_all_tiles(width, height))
    for name, coord in fixed.items():
        if coord not in tiles:
            raise ValueError(f"fixed tile {coord} outside {width}x{height} mesh")
        if name not in engines:
            raise ValueError(f"fixed placement for unknown engine {name!r}")
    if len(set(fixed.values())) != len(fixed):
        raise ValueError("fixed placements collide")
    if len(engines) > width * height:
        raise ValueError(
            f"{len(engines)} engines exceed {width}x{height} tiles"
        )
    return engines, fixed


def greedy_placement(
    engines: Iterable[str],
    traffic: TrafficMatrix,
    width: int,
    height: int,
    fixed: Optional[Placement] = None,
) -> Placement:
    """Place heavy-communicating engines adjacently, heaviest first."""
    engines, fixed = _validate(engines, width, height, fixed)
    placement: Placement = dict(fixed)
    free_tiles = [t for t in _all_tiles(width, height)
                  if t not in placement.values()]

    # Total traffic per engine, used to order placement.
    load: Dict[str, float] = {name: 0.0 for name in engines}
    for (src, dst), weight in traffic.items():
        load[src] = load.get(src, 0.0) + weight
        load[dst] = load.get(dst, 0.0) + weight

    def best_tile_for(name: str) -> Coord:
        """Tile minimizing weighted distance to already-placed peers."""
        best, best_cost = None, math.inf
        for tile in free_tiles:
            cost = 0.0
            for (src, dst), weight in traffic.items():
                if src == name and dst in placement:
                    cost += weight * manhattan(tile, placement[dst])
                elif dst == name and src in placement:
                    cost += weight * manhattan(tile, placement[src])
            if cost < best_cost:
                best, best_cost = tile, cost
        assert best is not None
        return best

    for name in sorted(engines, key=lambda n: -load.get(n, 0.0)):
        if name in placement:
            continue
        tile = best_tile_for(name)
        placement[name] = tile
        free_tiles.remove(tile)
    return placement


def annealed_placement(
    engines: Iterable[str],
    traffic: TrafficMatrix,
    width: int,
    height: int,
    fixed: Optional[Placement] = None,
    seed: int = 0,
    iterations: int = 4000,
) -> Placement:
    """Simulated annealing from the greedy seed, swapping movable tiles."""
    engines, fixed = _validate(engines, width, height, fixed)
    placement = greedy_placement(engines, traffic, width, height, fixed)
    movable = [name for name in engines if name not in fixed]
    if len(movable) < 2:
        return placement
    rng = SeededRng(seed)
    current_cost = expected_hops(placement, traffic)
    best = dict(placement)
    best_cost = current_cost
    for step in range(iterations):
        temperature = 2.0 * (1.0 - step / iterations) + 1e-9
        a = rng.choice(movable)
        b = rng.choice(movable)
        if a == b:
            continue
        placement[a], placement[b] = placement[b], placement[a]
        cost = expected_hops(placement, traffic)
        delta = cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current_cost = cost
            if cost < best_cost:
                best_cost = cost
                best = dict(placement)
        else:
            placement[a], placement[b] = placement[b], placement[a]
    return best


def reference_traffic(
    offloads: Iterable[str],
    ports: int = 1,
    cache_hit_rate: float = 0.5,
) -> TrafficMatrix:
    """The PANIC reference NIC's traffic matrix for placement studies.

    Every RX packet flows eth->rmt; chains fan out rmt->offload->...;
    RX terminates at the DMA engine; cache hits short-circuit back
    through the RMT to the port.  Weights are relative message rates.
    """
    traffic: TrafficMatrix = {}
    offloads = list(offloads)
    for i in range(ports):
        eth = f"eth{i}"
        traffic[(eth, "rmt")] = 1.0 / ports
        traffic[("rmt", eth)] = 1.0 / ports
    share = 1.0 / max(1, len(offloads))
    for name in offloads:
        traffic[("rmt", name)] = share
        traffic[(name, "dma")] = share * (1.0 - cache_hit_rate)
        traffic[(name, "rmt")] = share * cache_hit_rate
    traffic[("rmt", "dma")] = 0.5
    traffic[("dma", "pcie")] = 0.8
    traffic[("pcie", "dma")] = 0.2
    return traffic
