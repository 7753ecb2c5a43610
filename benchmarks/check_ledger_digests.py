"""Gate: the ledger's simulated outputs still match its committed baseline.

Runs ``benchmarks/ledger/run.py`` in the stacked-PR driver's form (one
workload, ``--seed 1 --trace 0``) for every workload ``BENCHMARK.json``
declares and fails if any ``sim_digest`` differs from the one recorded
in ``benchmarks/ledger/BASELINE.json``.  Wall-clock metrics are not
compared -- a shared CI runner cannot hold them -- but a refactor that
moves one delivery by one picosecond changes a digest and stops here.

A move made on purpose, before the baseline is re-accepted, is listed in
``MOVED`` with its cause: that workload must then show the listed digest
and no other, the baseline's included.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/check_ledger_digests.py [--seconds 3]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: workload -> (the digest that replaces the baseline's, its cause).  The
#: re-baseline absorbs these moves and empties the table.
MOVED = {
    "rack_lossy": (
        "75b5a36bc592f684ed5701f357dacbea03929e902f9338df7a074eb4dd1c591b",
        "express hop materialized at nic1.r2_0 lost a same-picosecond tie "
        "(t = 24,237,287 ps) that the per-hop path wins; flights now launch "
        "only onto an otherwise empty mesh and a materialized first hop "
        "keeps its flight's event sequence number, so the digest is the "
        "fast_path=False one (EXPERIMENTS.md E28)"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="timed phase per workload (default 3)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    with open(os.path.join(ROOT, "benchmarks", "ledger",
                           "BASELINE.json")) as fh:
        baseline = json.load(fh)

    mismatches = 0
    for workload in (entry["name"] for entry in declared["workloads"]):
        proc = subprocess.run(
            declared["command"] + [
                "--workload", workload, "--seed", str(baseline["seed"]),
                "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        detail = next(
            (json.loads(line)["ledger_detail"]
             for line in proc.stdout.splitlines()
             if line.startswith('{"ledger_detail"')), None)
        want, cause = MOVED.get(
            workload, (baseline["workloads"][workload]["sim_digest"], None))
        got = detail["sim_digest"] if detail else None
        ok = proc.returncode == 0 and got == want
        print(f"{'ok  ' if ok else 'FAIL'} {workload:20s} {got}")
        if cause is not None:
            print(f"     moved from baseline: {cause}")
        if not ok:
            mismatches += 1
            print(f"     expected             {want}")
            if detail is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
