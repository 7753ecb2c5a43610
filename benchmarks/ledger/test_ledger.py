"""Checks on the ledger itself (not tier-1: run with
``python -m pytest benchmarks/ledger -q``; workloads run at 1/20 size).

The definitions must be well-formed and match ``BENCHMARK.json``, the
file->layer map must cover every simulator module, and everything the
ledger calls exact must come out equal from two fresh interpreters.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [path for path in (HERE, os.path.join(ROOT, "src"))
                if path not in sys.path]

import compare  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import probes  # noqa: E402
import reference  # noqa: E402
import scenarios  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
TINY = 0.05


def test_benchmark_json_is_the_rendered_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == metrics.benchmark_json()
    assert list(on_disk) == ["command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"]


def test_names_units_and_counts():
    definition = metrics.benchmark_json()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in definition[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert 2 <= len(definition["workloads"]) <= 8
    assert 1 <= len(definition["end_to_end"]) <= 16
    assert 1 <= len(definition["per_layer"]) <= 128
    for workload in definition["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in definition["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in definition["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in definition["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in definition["end_to_end"])}]
    assert 1 <= definition["run_seconds"] <= 60


def test_workloads_and_layers_line_up():
    assert [w.name for w in metrics.WORKLOADS] == list(scenarios.BUILDERS)
    assert set(metrics.LAYER_MOVES) == set(metrics.LAYERS)
    assert set(scenarios.PREDICTIONS) == set(scenarios.BUILDERS)
    per_layer = {m.name for m in metrics.PER_LAYER}
    for ranges in scenarios.PREDICTIONS.values():
        assert {metric for metric, _low, _high in ranges} <= per_layer
    assert set(layers.FILE_LAYERS.values()) <= set(metrics.LAYERS)
    assert set(probes.PROBES) <= per_layer


def test_every_simulator_module_has_a_layer():
    seen = 0
    for folder, _dirs, files in os.walk(layers.SRC_ROOT):
        for filename in files:
            if filename.endswith(".py"):
                relpath = os.path.relpath(os.path.join(folder, filename),
                                          layers.SRC_ROOT)
                layers.layer_of_source(relpath)  # KeyError = unnamed bucket
                seen += 1
    assert seen > 50
    with pytest.raises(KeyError):
        layers.layer_of_source("brand_new_module.py")
    assert layers.layer_of_source("noc/express.py") == "noc.express"
    assert layers.layer_of_source("noc/router.py") == "noc.scalar"
    assert layers.layer_of_source("cli.py") is None


def _driver(workload: str, trace: int, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", str(TINY)],
        stdout=subprocess.PIPE, text=True, timeout=600,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["ledger_detail"]


@pytest.mark.parametrize("workload", list(scenarios.BUILDERS))
def test_tiny_run_reports_every_metric_and_repeats_exactly(workload):
    if workload == "rack_incast_shard2" and (os.cpu_count() or 1) < 2:
        pytest.skip("needs 2 cores")
    timed = [_driver(workload, 0) for _ in range(2)]
    for result, _detail in timed:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]
        for metric in metrics.END_TO_END:
            entry = result["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert entry["value"] > 0, metric.name
    (first, detail_a), (second, detail_b) = timed
    assert detail_a["sim_digest"] == detail_b["sim_digest"]
    for metric in metrics.END_TO_END:
        if metric.exact:
            assert first["metrics"][metric.name] == \
                second["metrics"][metric.name], metric.name

    traced = [_driver(workload, 1) for _ in range(2)]
    (first, detail_a), (second, detail_b) = traced
    assert detail_a["sim_digest"] == detail_b["sim_digest"]
    assert list(first["metrics"]) == [m.name for m in metrics.PER_LAYER]
    for probe in probes.PROBES:  # measured in one workload's pass only
        assert (first["metrics"][probe]["value"] > 0) == \
            (workload == scenarios.PROBE_WORKLOAD), probe
    for metric in metrics.PER_LAYER:
        if metric.exact:
            assert first["metrics"][metric.name] == \
                second["metrics"][metric.name], metric.name


def test_another_seed_changes_the_inputs():
    _result, one = _driver("chain_saturated", 0, seed=1)
    _result, two = _driver("chain_saturated", 0, seed=2)
    assert one["sim_digest"] != two["sim_digest"]


def test_yardstick_answers_and_stops():
    with reference.Yardstick() as yardstick:
        assert yardstick.run() > 0
    assert yardstick.child.poll() == 0


def test_shard_workload_refuses_one_core(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with pytest.raises(RuntimeError, match="refusing"):
        scenarios.rack_incast_shard2(1, TINY)


def _summary(values):
    ordered = sorted(values)
    return {"median": ordered[len(ordered) // 2], "q1": ordered[1],
            "q3": ordered[-2], "n": len(ordered), "values": list(values)}


def test_compare_verdicts():
    wall = next(m for m in metrics.END_TO_END
                if m.name == "wall_us_per_frame")
    p99 = next(m for m in metrics.END_TO_END
               if m.name == "sim_p99_latency_us")
    base = _summary([100.0, 101.0, 102.0, 103.0, 104.0])
    assert compare.verdict(wall, base, base, True, False) == "unchanged"
    assert compare.verdict(
        wall, base, _summary([140.0, 141.0, 142.0, 143.0, 144.0]),
        True, False) == "regressed"
    assert compare.verdict(
        wall, base, _summary([80.0, 81.0, 82.0, 83.0, 84.0]),
        True, False) == "improved"
    assert compare.verdict(
        wall, base, _summary([80.0, 100.0, 120.0, 150.0, 170.0]),
        True, False) == "unresolved"
    assert compare.verdict(
        wall, base, _summary([104.0, 105.0, 106.0, 107.0, 108.0]),
        True, True) == "unresolved"
    exact = _summary([27.654] * 5)
    assert compare.verdict(p99, exact, exact, True, False) == "unchanged"
    assert compare.verdict(p99, exact, _summary([27.655] * 5),
                           True, False) == "changed"
    # Different seeds: simulated metrics fall back to their bound.
    assert compare.verdict(p99, exact, _summary([27.655] * 5),
                           False, False) == "unchanged"
