"""The surface census: ``src/repro`` ships what something runs.

Eight scans, all by ``ast`` plus a word scan, so they err towards
keeping (an unrelated local of the same name counts as a mention) and
what they catch is certain.  Comments, docstrings and import statements
are blanked before the word scan: a mention there runs nothing.

* every function, method and class is named somewhere besides its own
  ``def`` -- the accessor left behind when its last caller was deleted;
* **R1** every public module-level function or class is named outside
  its own definition by something that *runs it*: other ``src/repro``
  code, ``benchmarks/``, ``examples/`` or ``README.md``.  A package
  ``__init__`` re-export or a unit test alone does not keep code alive:
  a feature only its own tests reach is parked, and a parked feature
  comes back with the PR that gives it a caller;
* **R2** every field of the four config dataclasses is passed by
  keyword to a call of that config class, or of ``dataclasses.replace``,
  somewhere outside the module that defines it (tests count).  A
  component that forwards the field under the same keyword
  (``Host(rx_queues=cfg.rx_queues)``) sets nothing: a value no caller
  chooses is the owning component's default;
* **R3** every ``standard_actions()`` entry is installed by name outside
  ``rmt/action.py``: ``add(match, "name", params)`` or
  ``default_action="name"`` anywhere, or a registry lookup
  (``actions["name"]``) in code that runs -- a lookup in a test alone
  installs nothing;
* **R4** every public method or property of a ``src/repro`` class is
  named outside its own ``def`` by code that runs it, as in R1;
* **R5** every name imported into a non-``__init__`` module of
  ``src/repro`` is used there, or imported from there by another file;
* **R6** every annotation key ``src/repro`` writes
  (``....annotations["key"] = value``) is named again, as a string, by
  code that runs -- ``src/`` beyond its writes, ``benchmarks/``,
  ``examples/`` or ``README.md``.  A key only tests read is per-packet
  state nothing uses.
* no component holds telemetry: outside ``repro.telemetry`` no module
  names a component tracer (``_tracer``) or an INT slot (``_int_tap``,
  ``_int_agent``, ``_int_sink``), and ``trace`` is the one observation
  slot in ``Packet.__slots__``.  A packet's trace context names its
  sinks: the tracer when it is sampled, the INT agent when INT is on.

A failure lists ``file:line name`` and every file that mentions the
name, which is the list of places to delete it from.  Delete it, or
give it the caller it never had; ``ALLOWED`` is not a parking lot.
"""

import ast
import functools
import io
import pathlib
import re
import tokenize
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "benchmarks", "examples")
DEFS = (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
CONFIGS = ("PanicConfig", "TelemetryConfig", "IntConfig", "MeshConfig")

#: R1 / R4 names kept although only tests reach them -- at most three,
#: name -> the reason.  A class listed here keeps its methods.  (A name
#: reached only through ``getattr`` would be listed here too, with the
#: line that reaches it.)
ALLOWED = {
    "simple_udp_factory":
        "the frame factory the tests drive every TrafficSource with",
    "build_kv_response_frame":
        "the reply half of build_kv_request_frame, for tests playing "
        "the server",
    "FaultPlan":
        "each verb is the only way a plan carries its fault kind; "
        "stall_engine, drop_on_link and corrupt_pifo arm mechanisms "
        "test_engine_golden and test_noc_golden pin, and flap_nic is "
        "nic_up's only caller",
}


def _py_files(*tops):
    return [path for top in tops for path in sorted((ROOT / top).rglob("*.py"))]


@functools.lru_cache(maxsize=None)
def _text(path):
    return path.read_text()


@functools.lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(_text(path))


@functools.lru_cache(maxsize=None)
def _nodes(path):
    """Every node of ``path``'s syntax tree, parsed once per session."""
    return tuple(ast.walk(_tree(path)))


def _char_col(line, byte_col):
    return len(line.encode()[:byte_col].decode("utf-8", "ignore"))


@functools.lru_cache(maxsize=None)
def _code(path):
    """``path``'s text with what runs nothing blanked -- comments,
    docstrings and import statements -- so a mention there keeps no name
    alive.  Line structure is kept: spans still match the syntax tree."""
    text = _text(path)
    lines = text.splitlines()
    spans = [(tok.start, tok.end) for tok in
             tokenize.generate_tokens(io.StringIO(text).readline)
             if tok.type == tokenize.COMMENT]
    for node in _nodes(path):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            blank = node
        elif (isinstance(body, list) and body
              and isinstance(node, (ast.Module, ast.ClassDef) + FUNCS)
              and isinstance(body[0], ast.Expr)
              and isinstance(body[0].value, ast.Constant)
              and isinstance(body[0].value.value, str)):
            blank = body[0]
        else:
            continue
        spans.append((
            (blank.lineno, _char_col(lines[blank.lineno - 1],
                                     blank.col_offset)),
            (blank.end_lineno, _char_col(lines[blank.end_lineno - 1],
                                         blank.end_col_offset))))
    for (first, start), (last, end) in spans:
        for i in range(first - 1, last):
            line = lines[i]
            lo = start if i == first - 1 else 0
            hi = end if i == last - 1 else len(line)
            lines[i] = line[:lo] + " " * (hi - lo) + line[hi:]
    return "\n".join(lines)


def _rel(path):
    return path.relative_to(ROOT).as_posix()


def _words(text):
    return re.findall(r"\w+", text)


def _mentioned_by(name):
    """Every scanned file (and README.md) naming ``name``, for messages."""
    files = _py_files(*SCANNED) + [ROOT / "README.md"]
    return ", ".join(_rel(path) for path in files
                     if name in _words(_text(path))) or "nothing"


def _report(rule, dead):
    return f"{rule}:\n" + "\n".join(
        f"  {_rel(path)}:{line} {name}  (mentioned by: {_mentioned_by(word)})"
        for path, line, name, word in dead)


def test_every_defined_name_is_referenced_somewhere():
    words: Counter = Counter()
    defined: Counter = Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(_words(_code(path)))
            if top == "src":
                defined.update(node.name for node in _nodes(path)
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


def _reach(members):
    """Dead ``(path, line, label, name)`` among ``members``' definitions.

    ``members(body)`` yields ``(node, label)`` for the definitions of one
    module that the rule covers.  A definition is dead when every
    mention of its name by code that runs (``src/`` outside package
    re-exports, ``benchmarks/``, ``examples/``, ``README.md``) sits
    inside a definition of that name.
    """
    assert len(ALLOWED) <= 3, "ALLOWED is for at most three reasoned names"
    live: Counter = Counter()       # words that keep a name alive
    own: Counter = Counter()        # ... of which inside its own definition
    defs = []
    for path in _py_files("src"):
        text = _code(path)
        body = _tree(path).body
        if path.name == "__init__.py":
            text = _without(text, [n for n in body if _is_reexport(n)])
        live.update(_words(text))
        lines = text.splitlines()
        for node, label in members(body):
            defs.append((path, node.lineno, label, node.name))
            span = "\n".join(lines[node.lineno - 1:node.end_lineno])
            own[node.name] += _words(span).count(node.name)
    for path in _py_files("benchmarks", "examples"):
        live.update(_words(_code(path)))
    live.update(_words(_text(ROOT / "README.md")))
    return [(path, line, label, name) for path, line, label, name in defs
            if live[name] == own[name]]


def test_r1_every_public_name_is_run_by_something_besides_its_tests():
    dead = _reach(lambda body: [
        (node, node.name) for node in body
        if isinstance(node, DEFS) and not node.name.startswith("_")
        and node.name not in ALLOWED])
    assert not dead, _report(
        "public in src/repro, but only tests or a package re-export name "
        "it", dead)


def test_r4_every_public_method_is_run_by_something_besides_its_tests():
    dead = _reach(lambda body: [
        (member, f"{cls.name}.{member.name}")
        for cls in body
        if isinstance(cls, ast.ClassDef) and cls.name not in ALLOWED
        for member in cls.body
        if isinstance(member, FUNCS) and not member.name.startswith("_")])
    assert not dead, _report(
        "public method or property in src/repro, but only tests name it",
        dead)


def _config_callee(func):
    """What a config-setting call builds: the config class's name,
    ``"replace"`` for ``dataclasses.replace`` (any callee so named, which
    errs towards keeping), else None."""
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name if name in CONFIGS or name == "replace" else None


def test_r2_every_config_field_is_set_by_some_call_site():
    fields = []
    for path in _py_files("src"):
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef) and node.name in CONFIGS:
                fields.extend(
                    (path, stmt.lineno, node.name, stmt.target.id)
                    for stmt in node.body if isinstance(stmt, ast.AnnAssign))
    assert {cls for _, _, cls, _ in fields} == set(CONFIGS)
    set_in = defaultdict(set)       # (callee, keyword) -> files passing it
    for path in _py_files(*SCANNED):
        for node in _nodes(path):
            callee = isinstance(node, ast.Call) and _config_callee(node.func)
            if callee:
                for keyword in node.keywords:
                    set_in[callee, keyword.arg].add(path)
    dead = [(path, line, f"{cls}.{field}", field)
            for path, line, cls, field in fields
            if not (set_in[cls, field] | set_in["replace", field]) - {path}]
    assert not dead, _report(
        "config field no call of its class outside its module sets", dead)


def test_r3_every_standard_action_is_installed_by_name():
    registry = SRC / "rmt" / "action.py"
    (func,) = [node for node in _tree(registry).body
               if isinstance(node, ast.FunctionDef)
               and node.name == "standard_actions"]
    (table,) = [node for node in ast.walk(func) if isinstance(node, ast.Dict)]
    used = set()
    for path in _py_files(*SCANNED):
        if path == registry:
            continue
        in_tests = path.is_relative_to(ROOT / "tests")
        for node in _nodes(path):
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
            elif isinstance(node, ast.Subscript) and not in_tests:
                named = [node.slice]
            else:
                continue
            used.update(n.value for n in named if isinstance(n, ast.Constant)
                        and isinstance(n.value, str))
    dead = [(registry, key.lineno, repr(key.value), key.value)
            for key in table.keys if key.value not in used]
    assert not dead, _report(
        "standard action no table installs and no running code fetches "
        "by name", dead)


def _module_of(path):
    """Dotted module name of a file under ``src/``."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _source_module(path, node):
    """Absolute module a ``from ... import`` in ``path`` reads from."""
    if not node.level:
        return node.module
    package = _module_of(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _used_names(path):
    """Names a module reads: every ``Name``, plus the words of string
    annotations and of ``__all__``."""
    used, holders = set(), []
    for node in _nodes(path):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            holders.append(node.annotation)
        elif isinstance(node, FUNCS):
            holders.append(node.returns)
        elif isinstance(node, ast.Assign) and _is_reexport(node):
            holders.append(node.value)
    for holder in filter(None, holders):
        used.update(word for leaf in ast.walk(holder)
                    if isinstance(leaf, ast.Constant)
                    and isinstance(leaf.value, str)
                    for word in _words(leaf.value))
    return used


def test_r5_every_import_in_src_is_used():
    imported_from = set()           # (module, name) another file imports
    for path in _py_files(*SCANNED):
        in_src = path.is_relative_to(ROOT / "src")
        for node in _nodes(path):
            if isinstance(node, ast.ImportFrom):
                module = _source_module(path, node) if in_src else node.module
                imported_from.update((module, a.name) for a in node.names)
    dead = []
    for path in _py_files("src"):
        if path.name == "__init__.py":
            continue
        used = _used_names(path)
        module = _module_of(path)
        for node in _nodes(path):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used and (module, bound) not in imported_from:
                    dead.append((path, node.lineno, bound, bound))
    assert not dead, _report("imported into src/repro, never used there", dead)


def _annotation_writes(path):
    """Key constants of ``<...>.annotations["key"] = ...`` stores (the
    holder may be a local alias named ``ann`` or ``annotations``)."""
    for node in _nodes(path):
        if not (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            continue
        holder = node.value
        name = getattr(holder, "attr", None) or getattr(holder, "id", None)
        if name in ("annotations", "ann"):
            yield node.slice


def test_r6_every_annotation_key_written_is_read_by_running_code():
    writes = {path: list(_annotation_writes(path)) for path in _py_files("src")}
    named: Counter = Counter()      # string constants in code that runs
    for path in _py_files("src", "benchmarks", "examples"):
        stores = {id(key) for key in writes.get(path, ())}
        named.update(node.value for node in _nodes(path)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)
                     and id(node) not in stores)
    readme = _text(ROOT / "README.md")
    dead = sorted({(path, key.lineno, repr(key.value), key.value)
                   for path, keys in writes.items() for key in keys
                   if not named[key.value]
                   and f'"{key.value}"' not in readme})
    assert not dead, _report(
        "annotation key src/repro writes and no running code reads", dead)


#: Names no component may hold: a tracer of its own, or the INT agent
#: under any name.
COMPONENT_TELEMETRY = ("_tracer", "_int_tap", "_int_agent", "_int_sink")

#: ``Packet.__slots__``: ``trace`` is its one observation slot.  A new
#: per-packet observation belongs on the trace context.
#: ``dest_addr`` .. ``enqueue_ps`` are the on-chip transfer a frame
#: carries as its own envelope; none of them observes anything.
PACKET_SLOTS = ("data", "kind", "meta", "panic", "trace",
                "pbuf_handle", "_trail",
                "dest_addr", "hops", "bits", "enqueue_ps")


def test_no_component_holds_telemetry():
    """A packet carries whatever observes it on its one trace context
    (``TraceCtx.tracer``, ``TraceCtx.int_``): no module under
    ``src/repro`` outside ``telemetry/`` names a component tracer or an
    INT slot, and ``Packet`` has no observation slot but ``trace``."""
    found = []
    for path in _py_files("src"):
        if path.is_relative_to(SRC / "telemetry"):
            continue
        for line, text in enumerate(_text(path).splitlines(), 1):
            found += [(path, line, name, name) for name in COMPONENT_TELEMETRY
                      if name in _words(text)]
    assert not found, _report(
        "telemetry held by a component, not carried by the packet", found)
    packet = SRC / "packet" / "packet.py"
    slots = [ast.literal_eval(node.value)
             for cls in _nodes(packet)
             if isinstance(cls, ast.ClassDef) and cls.name == "Packet"
             for node in cls.body
             if isinstance(node, ast.Assign)
             and [t.id for t in node.targets] == ["__slots__"]]
    assert slots == [PACKET_SLOTS], (
        f"Packet.__slots__ is {slots}: a per-packet observation rides on "
        "Packet.trace's context, not in a slot of its own")
