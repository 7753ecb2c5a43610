"""Every function, method and class ``src/repro`` defines is named
somewhere besides its own ``def``.

A name whose only occurrence is its definition is surface nobody can be
relying on: no caller, no test, no example, no docstring pointing at
it.  The scan is by word, so it errs towards keeping (a method named
like an unrelated local counts as referenced); what it does catch is
the accessor or convenience wrapper left behind when its last caller
was deleted.  Delete the name, or give it the test it never had.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")

#: Names reached only dynamically (``getattr``, entry points) would be
#: listed here, each with the line that reaches it.
ALLOWED: frozenset = frozenset()


def test_every_defined_name_is_referenced_somewhere():
    words: Counter = Counter()
    defined: Counter = Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            text = path.read_text()
            words.update(re.findall(r"\w+", text))
            if top == "src":
                defined.update(
                    node.name for node in ast.walk(ast.parse(text))
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                         ast.AsyncFunctionDef)))
    dead = sorted(
        name for name, count in defined.items()
        if words[name] == count
        and not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED)
    assert not dead, f"defined in src/repro, named nowhere else: {dead}"
