"""``run.py compare A.json B.json``: is result set B no worse than A?

One row per (end-to-end metric, workload) with both medians and
quartiles, the bound and a verdict:

``improved``
    B's median is better than A's by more than either set's own spread
    (the distance between its quartiles), and every run of B beats A's
    median.
``unchanged``
    B's median is no worse than A's by more than the bound.
``regressed``
    B's median is worse than A's by more than the bound.
``unresolved``
    Either side's spread is wider than the bound, so the data cannot
    tell (unless every run of B is better than every run of A), or a
    set is marked ``noisy`` by its yardstick passes.

Simulated metrics and ``sim_digest`` repeat exactly for a seed, so when
both sets used the same seed they must be *equal*; any difference is
``changed`` and fails the comparison just as ``regressed`` does (a model
change must say which of them it moves).  Exact per-layer counters are
compared the same way and listed when they differ.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from metrics import END_TO_END, PER_LAYER, EndToEnd

FAILING = ("regressed", "changed")


def _spread(summary: Dict[str, Any]) -> float:
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(metric: EndToEnd, a: Dict[str, Any], b: Dict[str, Any],
            same_seed: bool, noisy: bool) -> str:
    if metric.exact and same_seed:
        return "unchanged" if a["median"] == b["median"] else "changed"
    sign = 1.0 if metric.better == "lower" else -1.0
    # Positive = B is worse, as a share of A's median.
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    b_beats_all_of_a = (
        max(b["values"]) < min(a["values"]) if metric.better == "lower"
        else min(b["values"]) > max(a["values"]))
    wide = max(_spread(a), _spread(b)) > metric.bound
    if (noisy and not metric.exact or wide) and not b_beats_all_of_a:
        return "unresolved"
    if worse_by > metric.bound:
        return "regressed"
    b_beats_a_median = all(
        sign * (value - a["median"]) < 0 for value in b["values"])
    if -worse_by > max(_spread(a), _spread(b)) and b_beats_a_median:
        return "improved"
    return "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    same_seed = a["seed"] == b["seed"] and a["scale"] == b["scale"]
    noisy = a["host"]["noisy"] or b["host"]["noisy"]
    rows = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"][name]
        for metric in END_TO_END:
            sa = entry_a["end_to_end"][metric.name]
            sb = entry_b["end_to_end"][metric.name]
            rows.append({
                "workload": name, "metric": metric.name,
                "unit": metric.unit, "bound": metric.bound,
                "a": sa, "b": sb,
                "verdict": verdict(metric, sa, sb, same_seed, noisy),
            })
        if same_seed:
            rows.append({
                "workload": name, "metric": "sim_digest", "unit": "",
                "bound": 0.0, "a": entry_a["sim_digest"],
                "b": entry_b["sim_digest"],
                "verdict": "unchanged"
                if entry_a["sim_digest"] == entry_b["sim_digest"]
                else "changed",
            })
            for layer_metric in PER_LAYER:
                if not layer_metric.exact:
                    continue
                va = entry_a["per_layer"][layer_metric.name]
                vb = entry_b["per_layer"][layer_metric.name]
                if va != vb:
                    rows.append({
                        "workload": name, "metric": layer_metric.name,
                        "unit": layer_metric.unit, "bound": 0.0,
                        "a": va, "b": vb, "verdict": "changed",
                    })
    return rows


def _cell(side: Any) -> str:
    if isinstance(side, dict):
        return (f"{side['median']:.6g} [{side['q1']:.6g}..{side['q3']:.6g}]"
                f" n={side['n']}")
    return str(side)[:16]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path) as fh:
            sets.append(json.load(fh))
    a, b = sets
    for label, path, result in zip("AB", argv, sets):
        host = result["host"]
        print(f"{label}: {path} seed={result['seed']} "
              f"git={host['git_sha'][:12]} nproc={host['nproc']} "
              f"calib_spread={host['calib_spread']:.3f}"
              f"{' NOISY' if host['noisy'] else ''}")
    rows = compare(a, b)
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            print(f"\n{workload}")
        print(f"  {row['metric']:<24}{_cell(row['a']):<44}"
              f"{_cell(row['b']):<44}{row['unit']:<9}"
              f"bound {row['bound']:<6.1%} {row['verdict']}")
    failing = [row for row in rows if row["verdict"] in FAILING]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"\n{len(rows)} rows: {len(failing)} regressed or changed, "
          f"{unresolved} unresolved")
    return 1 if failing else 0
