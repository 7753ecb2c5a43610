"""Pinned outputs: one digest, one call counter, one store, one writer.

``golden(name, observables)`` pins the sha256 of one canonical form
(dicts become ``[repr(key), value]`` pairs sorted by ``repr(key)``, so
tuple and integer keys hash too; tuples become lists; what JSON cannot
hold becomes its ``repr``).  ``budget(name, count)`` pins a ``calls``
count as a (reached, ceiling) pair.  ``stdout(name, text)`` pins what a
command or example prints and shows a unified diff when it moves.
Hashes and budgets live in ``pins.json``, texts in ``stdout/``, and a
pin must read exactly its recorded value.  The store's only writer is

    PYTHONPATH=src python -m tests.pins --cause "why they moved" [PREFIX ...]

It runs every test file that imports this module with the pins
observing, refuses to write without a cause, when a test fails or when
a pin reads two values, rewrites the pins that moved (under a
``PREFIX``, if given) and appends ``pin: old -> new — cause`` per moved
pin to EXPERIMENTS.md "Known deviations".  A budget above its ceiling
raises the ceiling too: a budget rise, and its line says so.
"""

import argparse
import cProfile
import difflib
import gc
import hashlib
import json
import os
import pathlib
import re
import sys

import pytest

import repro

HERE = pathlib.Path(__file__).resolve().parent
PINS, TEXTS = HERE / "pins.json", HERE / "stdout"
EXPERIMENTS = HERE.parent / "EXPERIMENTS.md"
REPRO = os.path.dirname(repro.__file__)

#: Pin name -> the (kind, value) pairs observed, while recording.
_observed = None


def canonical(obj):
    if isinstance(obj, dict):
        return [[repr(key), canonical(obj[key])]
                for key in sorted(obj, key=repr)]
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def digest(obj) -> str:
    blob = json.dumps(canonical(obj), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def calls(package: str, func, *args) -> int:
    """Calls made while ``func(*args)`` runs that belong to ``package``,
    a path under ``src`` (``"repro/noc/"``, ``"repro/sim/kernel.py"``):
    every call into its code, plus every call its code makes to a
    builtin or to the rest of ``repro``.  The collector is off, so no
    garbage-collector callback lands inside."""
    prefix = os.path.join(os.path.dirname(REPRO), package)
    profile = cProfile.Profile()
    gc.disable()
    try:
        profile.runcall(func, *args)
    finally:
        gc.enable()

    def outside(code):
        return isinstance(code, str) or (
            code.co_filename.startswith(REPRO)
            and not code.co_filename.startswith(prefix))

    return sum(entry.callcount + sum(sub.callcount for sub in entry.calls or ()
                                     if outside(sub.code))
               for entry in profile.getstats()
               if not isinstance(entry.code, str)
               and entry.code.co_filename.startswith(prefix))


def per(total: int, units: int) -> int:
    count, remainder = divmod(total, units)
    assert remainder == 0, f"{total} calls over {units} units is not constant"
    return count


def load() -> dict:
    pins = json.loads(PINS.read_text())
    pins.update((path.stem, path.read_text()) for path in TEXTS.glob("*.txt"))
    return pins


def _check(kind: str, name: str, value):
    if _observed is not None:
        _observed.setdefault(name, []).append((kind, value))
        return
    recorded = load().get(name)
    if kind == "budget":
        recorded = recorded and recorded[0]
    shown = (difflib.unified_diff(
        (recorded or "").splitlines(), value.splitlines(),
        f"recorded {name}", f"observed {name}", lineterm="")
        if kind == "stdout" else [f"observed {value}, recorded {recorded}"])
    assert value == recorded, "\n".join(
        [f'{name} moved; record it with python -m tests.pins --cause "..."',
         *shown])


def golden(name: str, observables) -> None:
    _check("golden", name, digest(observables))


def budget(name: str, count: int) -> None:
    _check("budget", name, count)


def stdout(name: str, text: str) -> None:
    _check("stdout", name, text)


def _short(value) -> str:
    if isinstance(value, list):
        return f"({value[0]}, {value[1]})"
    if "\n" in value:
        value = hashlib.sha256(value.encode()).hexdigest()
    return value[:12]


def record(observed: dict, cause: str, prefixes=()) -> list:
    """Write the pins ``observed`` moved; one line per pin that moved."""
    pins = load()
    changed, lines, rises = {}, [], []
    for name, seen in sorted(observed.items()):
        if prefixes and not name.startswith(tuple(prefixes)):
            continue
        if len(set(seen)) > 1:
            raise SystemExit(f"refused: {name} observed with "
                             f"{len(set(seen))} values")
        (kind, value), old = seen[0], pins.get(name)
        if kind == "budget":
            reached, ceiling = old or (None, value)
            if value > ceiling:
                rises.append(name)
            value = None if value == reached else [value, max(value, ceiling)]
        if value is None or value == old:
            continue
        pins[name], changed[name] = value, kind
        if old is not None:
            rise = " (a budget rise)" if name in rises else ""
            lines.append(
                f"{name}: {_short(old)} -> {_short(value)}{rise} — {cause}")
    if not (cause or "").strip():
        raise SystemExit("refused: no --cause given" + "".join(
            f"; {name} would rise above its ceiling" for name in rises))
    stored = json.loads(PINS.read_text())
    for name, kind in changed.items():
        if kind == "stdout":
            (TEXTS / f"{name}.txt").write_text(pins[name])
        else:
            stored[name] = pins[name]
    if set(changed.values()) - {"stdout"}:
        PINS.write_text("{\n" + ",\n".join(
            f" {json.dumps(name)}: {json.dumps(value)}"
            for name, value in sorted(stored.items())) + "\n}\n")
    if lines:
        head, mark, tail = EXPERIMENTS.read_text().partition(
            "\n## Known deviations\n")
        end = tail.find("\n## ")
        end = len(tail) if end < 0 else end
        EXPERIMENTS.write_text(head + mark + tail[:end].rstrip("\n") + "\n"
                               + "".join(f"* {line}\n" for line in lines)
                               + tail[end:])
    return lines


def main(argv=None) -> int:
    global _observed
    parser = argparse.ArgumentParser(prog="python -m tests.pins")
    parser.add_argument("--cause", required=True, help="why the pins moved")
    parser.add_argument("prefixes", nargs="*", metavar="PREFIX")
    args = parser.parse_args(argv)
    if not args.cause.strip():
        parser.error("--cause must say why the pins moved")
    _observed = {}
    try:
        status = pytest.main(["-p", "no:cacheprovider", *(
            str(path) for path in sorted(HERE.glob("test_*.py"))
            if re.search(r"^from tests import .*\bpins\b", path.read_text(),
                         re.M))])
        if status != 0:
            raise SystemExit(f"refused: the pinning tests failed ({status})")
        observed = _observed
    finally:
        _observed = None
    for line in record(observed, args.cause, args.prefixes):
        print(line)
    return 0


if __name__ == "__main__":
    from tests.pins import main as recorder  # the module the tests import
    sys.exit(recorder())
