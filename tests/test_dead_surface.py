"""The surface census: ``src/repro`` ships what something runs.

Four scans, all by ``ast`` plus a word scan, so they err towards
keeping (an unrelated local of the same name counts as a mention) and
what they catch is certain:

* every function, method and class is named somewhere besides its own
  ``def`` -- the accessor left behind when its last caller was deleted;
* **R1** every public module-level function or class is named outside
  its own definition by something that *runs it*: other ``src/repro``
  code, ``benchmarks/``, ``examples/`` or ``README.md``.  A package
  ``__init__`` re-export or a unit test alone does not keep code alive:
  a feature only its own tests reach is parked, and a parked feature
  comes back with the PR that gives it a caller;
* **R2** every field of the four config dataclasses is passed by
  keyword at some call site outside the module that defines it.  The
  scan is by keyword name, whatever the callee, so a forwarding
  ``Host(rx_queues=cfg.rx_queues)`` keeps ``PanicConfig.rx_queues``;
* **R3** every ``standard_actions()`` entry is used by name outside
  ``rmt/action.py``: installed in a table (``add(match, "name",
  params)``, ``default_action="name"``) or fetched from the registry
  (``actions["name"]``).

A failure lists ``file:line name`` and every file that mentions the
name, which is the list of places to delete it from.  Delete it, or
give it the caller it never had; ``ALLOWED`` is not a parking lot.
"""

import ast
import pathlib
import re
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "benchmarks", "examples")
DEFS = (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef)
CONFIGS = ("PanicConfig", "TelemetryConfig", "IntConfig", "MeshConfig")

#: R1 names kept although only tests reach them -- at most three, name
#: -> the reason.  (A name reached only through ``getattr`` would be
#: listed here too, with the line that reaches it.)
ALLOWED = {
    "simple_udp_factory":
        "the frame factory the tests drive every TrafficSource with",
    "build_kv_response_frame":
        "the reply half of build_kv_request_frame, for tests playing "
        "the server",
}


def _py_files(*tops):
    return [path for top in tops for path in sorted((ROOT / top).rglob("*.py"))]


def _rel(path):
    return path.relative_to(ROOT).as_posix()


def _words(text):
    return re.findall(r"\w+", text)


def _mentioned_by(name):
    """Every scanned file (and README.md) naming ``name``, for messages."""
    files = _py_files(*SCANNED) + [ROOT / "README.md"]
    return ", ".join(_rel(path) for path in files
                     if name in _words(path.read_text())) or "nothing"


def _report(rule, dead):
    return f"{rule}:\n" + "\n".join(
        f"  {_rel(path)}:{line} {name}  (mentioned by: {_mentioned_by(word)})"
        for path, line, name, word in dead)


def test_every_defined_name_is_referenced_somewhere():
    words: Counter = Counter()
    defined: Counter = Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            text = path.read_text()
            words.update(_words(text))
            if top == "src":
                defined.update(
                    node.name for node in ast.walk(ast.parse(text))
                    if isinstance(node, DEFS))
    dead = sorted(
        name for name, count in defined.items()
        if words[name] == count
        and not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED)
    assert not dead, f"defined in src/repro, named nowhere else: {dead}"


def _without(text, nodes):
    """``text`` with the source lines of ``nodes`` blanked."""
    lines = text.splitlines()
    for node in nodes:
        for i in range(node.lineno - 1, node.end_lineno):
            lines[i] = ""
    return "\n".join(lines)


def _is_reexport(node):
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets))


def test_r1_every_public_name_is_run_by_something_besides_its_tests():
    assert len(ALLOWED) <= 3, "ALLOWED is for at most three reasoned names"
    live: Counter = Counter()       # words that keep a name alive
    own: Counter = Counter()        # ... of which inside its own definition
    defs = []
    for path in _py_files("src"):
        text = path.read_text()
        body = ast.parse(text).body
        if path.name == "__init__.py":
            text = _without(text, [n for n in body if _is_reexport(n)])
        live.update(_words(text))
        lines = text.splitlines()
        for node in body:
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                defs.append((path, node.lineno, node.name))
                span = "\n".join(lines[node.lineno - 1:node.end_lineno])
                own[node.name] += _words(span).count(node.name)
    for path in _py_files("benchmarks", "examples") + [ROOT / "README.md"]:
        live.update(_words(path.read_text()))
    dead = [(path, line, name, name) for path, line, name in defs
            if live[name] == own[name] and name not in ALLOWED]
    assert not dead, _report(
        "public in src/repro, but only tests or a package re-export name "
        "it", dead)


def test_r2_every_config_field_is_set_by_some_call_site():
    fields = []
    for path in _py_files("src"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in CONFIGS:
                fields.extend(
                    (path, stmt.lineno, node.name, stmt.target.id)
                    for stmt in node.body if isinstance(stmt, ast.AnnAssign))
    assert {cls for _, _, cls, _ in fields} == set(CONFIGS)
    set_in = defaultdict(set)       # keyword name -> files passing it
    for path in _py_files(*SCANNED):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword) and node.arg:
                set_in[node.arg].add(path)
    dead = [(path, line, f"{cls}.{field}", field)
            for path, line, cls, field in fields
            if not set_in[field] - {path}]
    assert not dead, _report(
        "config field no call site outside its module passes by keyword",
        dead)


def test_r3_every_standard_action_is_installed_by_name():
    registry = SRC / "rmt" / "action.py"
    (func,) = [node for node in ast.parse(registry.read_text()).body
               if isinstance(node, ast.FunctionDef)
               and node.name == "standard_actions"]
    (table,) = [node for node in ast.walk(func) if isinstance(node, ast.Dict)]
    used = set()
    for path in _py_files(*SCANNED):
        if path == registry:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"):
                named = list(node.args)
            elif isinstance(node, ast.keyword) and node.arg == "default_action":
                named = [node.value]
            elif isinstance(node, ast.arguments):
                positional = node.posonlyargs + node.args
                named = [default for arg, default in [
                    *zip(positional[-len(node.defaults):], node.defaults),
                    *zip(node.kwonlyargs, node.kw_defaults)]
                    if arg.arg == "default_action"]
            elif isinstance(node, ast.Subscript):
                named = [node.slice]
            else:
                continue
            used.update(n.value for n in named if isinstance(n, ast.Constant)
                        and isinstance(n.value, str))
    dead = [(registry, key.lineno, repr(key.value), key.value)
            for key in table.keys if key.value not in used]
    assert not dead, _report(
        "standard action no table installs and nothing fetches by name",
        dead)
