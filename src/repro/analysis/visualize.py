"""ASCII visualization of a PANIC NIC: mesh map and engine utilization.

Plots are plain monospace text so they drop into terminals, logs and
docs.  Two views:

* :func:`mesh_map` -- which engine sits on which tile (Figure 3c as
  rendered from the actual constructed NIC);
* :func:`utilization_report` -- per-engine processed count, queue peak
  and drops after a run.
"""

from __future__ import annotations

from typing import Callable, Dict

CELL_WIDTH = 13


def _grid_lines(
    width: int,
    height: int,
    cell_text: Callable[[int, int], str],
) -> str:
    horizontal = "+" + ("-" * CELL_WIDTH + "+") * width
    lines = [horizontal]
    for y in range(height):
        row = "|"
        for x in range(width):
            text = cell_text(x, y)[:CELL_WIDTH]
            row += text.center(CELL_WIDTH) + "|"
        lines.append(row)
        lines.append(horizontal)
    return "\n".join(lines)


def mesh_map(nic) -> str:
    """Render which engine occupies each mesh tile."""
    width = nic.config.mesh_width
    height = nic.config.mesh_height
    by_tile: Dict[tuple, str] = {}
    for key, engine in nic.engines.items():
        by_tile[nic.mesh.coords_of(engine.address)] = key

    def cell(x: int, y: int) -> str:
        return by_tile.get((x, y), ".")

    header = (
        f"{nic.name}: {width}x{height} mesh, "
        f"{nic.mesh.config.channel_bits}-bit channels"
    )
    return header + "\n" + _grid_lines(width, height, cell)


def utilization_report(nic) -> str:
    """One line per engine: processed count, queue peak, drops."""
    lines = [f"{nic.name}: engine utilization"]
    for key in sorted(nic.engines):
        engine = nic.engines[key]
        lines.append(
            f"  {key:12s} processed={engine.processed:<8d} "
            f"queue_peak={engine.queue.max_occupancy:<6d} "
            f"dropped={engine.queue.dropped}"
        )
    return "\n".join(lines)
