"""Run-time surface census: what in ``src/repro`` no runner ever uses.

Usage, from the repo root (no flags; under a minute on two cores)::

    PYTHONPATH=src python3 benchmarks/census.py

Runs every caller that is not a unit test -- the eight examples, every
``repro`` command with CI's arguments, the paper-artifact checks, the
seven ledger scenarios with the variants its traced pass builds -- under
``sys.setprofile``, forked shard workers included, and prints the defs
(class-qualified) no runner called and the defaulted parameters every
call left at the default (compared by value in the callee's frame, so
``offload_params`` dicts and ``**kwargs`` forwarding count).  Delete an
entry, make it a constant, or keep it for a reason EXPERIMENTS E43 names.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import pathlib
import pickle
import pkgutil
import runpy
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro") + os.sep
LEDGER = os.path.join(ROOT, "benchmarks", "ledger")
sys.path[:0] = [os.path.join(ROOT, "src"), LEDGER]

#: CI's arguments where CI runs the command; the rest run bare.
_CHAOS = ["--seeds", "3", "--nics", "4", "--frames", "30", "--workers", "2",
          "--chaos-out", "chaos.json", "--trace-out", "chaos_trace.json"]
COMMANDS = [["table1"], ["table2"], ["table3"], ["demo"], ["faults"],
            ["all"], ["rack"], ["trace"], ["lb", "--frames", "10"],
            ["int-report", "--nics", "4", "--frames", "30", "--gap-ns",
             "200", "--workers", "2", "--int-out", "int.json",
             "--trace-out", "int_trace.json"]] + [
    ["chaos", *_CHAOS, "--transport", transport]
    for transport in ("gbn", "sr", "gbn+ll", "sr+ll", "lb")]
#: Ledger scale: every scenario's code paths on a twentieth of its frames.
SCALE = 0.05

_DONE = object()
_state = {}      # code -> _DONE, or {param: default} not yet turned
_funcs = {}      # code -> function, filled a module at a time
_called = set()  # (file, first line) of every src def a runner called
_turned = set()  # ((file, first line), param) a call set to another value


def _scan(module_globals):
    """Map the code of every function and method a module defines."""
    name = module_globals.get("__name__")
    stack, seen = [module_globals], set()
    while stack:
        for value in list(stack.pop().values()):
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            fns = ([value.fget, value.fset] if isinstance(value, property)
                   else [getattr(value, "__wrapped__", value)])
            for fn in fns:
                if isinstance(fn, types.FunctionType):
                    _funcs[fn.__code__] = fn
            if (isinstance(value, type) and value not in seen
                    and value.__module__ == name):
                seen.add(value)
                stack.append(vars(value))


def _defaults(fn):
    positional = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    values = fn.__defaults__ or ()
    return {**dict(zip(positional[len(positional) - len(values):], values)),
            **(fn.__kwdefaults__ or {})}


def _same(value, default):
    try:
        return value is default or (type(value) is type(default)
                                    and bool(value == default))
    except Exception:
        return False


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    state = _state.get(code)
    if state is None:
        if not code.co_filename.startswith(SRC):
            _state[code] = _DONE
            return
        if code not in _funcs:
            _scan(frame.f_globals)
        fn = _funcs.get(code)
        _called.add((code.co_filename, code.co_firstlineno))
        state = _state[code] = (_defaults(fn) or _DONE) if fn else _DONE
    if state is _DONE:
        return
    local = frame.f_locals
    for param, default in list(state.items()):
        if not _same(local.get(param, default), default):
            del state[param]
            _turned.add(((code.co_filename, code.co_firstlineno), param))
    if not state:
        _state[code] = _DONE


def _follow_shard_workers(dump_dir):
    """A forked worker keeps the hook; it dumps what it saw on exit."""
    from repro.sim import shard
    work = _funcs[shard._worker_main.__code__] = shard._worker_main

    def worker(*args):
        try:
            work(*args)
        finally:
            sys.setprofile(None)
            pathlib.Path(dump_dir, str(os.getpid())).write_bytes(
                pickle.dumps((_called, _turned)))
    shard._worker_main = worker


def _runners():
    from repro.cli import main
    for argv in COMMANDS:
        yield "repro " + " ".join(argv), lambda argv=argv: main(argv)
    for name in sorted(os.listdir(os.path.join(ROOT, "examples"))):
        path = os.path.join(ROOT, "examples", name)
        yield name, lambda path=path: runpy.run_path(path, run_name="__main__")
    # pytest-benchmark's timer clears sys.setprofile unless disabled.
    yield "paper-artifact checks", lambda: __import__("pytest").main([
        os.path.join(ROOT, "benchmarks"), f"--ignore={LEDGER}", "-q",
        "-p", "no:cacheprovider", "--benchmark-disable"])
    import probes
    import scenarios
    variants = {name: [{}] for name in scenarios.BUILDERS}
    for name in scenarios.TRAIN_PAIRED:
        variants[name].append({"batch": True})
    for name in scenarios.TELEMETRY_PAIRED:
        variants[name].append({"armed": True})
    variants["rack_incast_shard2"] += [{"profile": True},
                                       {"speculative": True}]
    for name, kinds in variants.items():
        for variant in kinds:
            def ledger(name=name, variant=variant):
                built = scenarios.BUILDERS[name](1, SCALE, **variant)
                built.run()
                built.collect().digest()
            yield f"ledger {name} {variant or ''}", ledger
    probes.REPEATS = 1
    yield "ledger probes", lambda: probes.run_all(1)


def _run_all(dump_dir):
    """Every runner under the hook: ``(called, turned)``, workers' too."""
    sys.setprofile(_hook)  # before any import: module-level calls count
    try:
        _follow_shard_workers(dump_dir)
        for label, run in _runners():
            print(f"running {label}", file=sys.stderr)
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    run()
                except SystemExit as stop:
                    if stop.code not in (None, 0):
                        raise
            assert sys.getprofile() is _hook, f"{label} cleared the hook"
    finally:
        sys.setprofile(None)
    dumps = [(_called, _turned)] + [
        pickle.loads(pathlib.Path(dump_dir, name).read_bytes())
        for name in os.listdir(dump_dir)]
    return (set().union(*(c for c, _ in dumps)),
            set().union(*(t for _, t in dumps)))


def _src_defs():
    """``(file, first line) -> (qualified name, defaulted params)``."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            _scan(vars(importlib.import_module(info.name)))
    return {(code.co_filename, code.co_firstlineno):
            (f"{fn.__module__[len('repro.'):]}:{fn.__qualname__}",
             list(_defaults(fn)))
            for code, fn in _funcs.items() if code.co_filename.startswith(SRC)}


def main():
    with tempfile.TemporaryDirectory() as dump_dir, \
            tempfile.TemporaryDirectory() as work_dir:
        os.chdir(work_dir)  # the commands write their reports here
        try:
            called, turned = _run_all(dump_dir)
        finally:
            os.chdir(ROOT)
    defs = _src_defs()
    uncalled = sorted(name for key, (name, _) in defs.items()
                      if key not in called)
    unturned = sorted(f"{name}({param})"
                      for key, (name, params) in defs.items()
                      if key in called for param in params
                      if (key, param) not in turned)
    print("\n  ".join([f"defs no runner calls: {len(uncalled)} of "
                        f"{len(defs)}", *uncalled]))
    print("\n  ".join(["defaulted parameters every runner call leaves at "
                        f"the default: {len(unturned)}", *unturned]))


if __name__ == "__main__":
    main()
