"""Analytical models and reporting helpers.

* :mod:`repro.analysis.linerate` -- the packets-per-second line-rate
  model behind Table 2 and the section 4.2 feasibility argument.
* :mod:`repro.analysis.reporting` -- plain-text table rendering used by
  benches and examples to print paper-style tables.
"""

from repro.analysis.linerate import (
    LineRatePoint,
    min_frame_pps,
    required_rmt_pipelines,
    rmt_pipeline_pps,
    sustainable_rmt_passes,
    table2_rows,
)
from repro.analysis.reporting import format_table, format_comparison
from repro.analysis.visualize import mesh_map, utilization_report

__all__ = [
    "LineRatePoint",
    "format_comparison",
    "format_table",
    "mesh_map",
    "utilization_report",
    "min_frame_pps",
    "required_rmt_pipelines",
    "rmt_pipeline_pps",
    "sustainable_rmt_passes",
    "table2_rows",
]
