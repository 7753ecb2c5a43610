"""``pyproject.toml`` says ``dependencies = []``: importing the whole
package must load nothing outside the standard library.

An optional import that succeeds wherever the module happens to be
installed is a host-dependent second backend nobody chose; it also
costs every interpreter (shard workers, ledger children) the import's
time and memory.  The check runs in a fresh interpreter so that what
pytest and its plugins loaded does not count.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# Prints the top-level names of every module the walk loaded.  What the
# interpreter's own start-up loaded (site, .pth hooks) is subtracted, as
# is ``__mp_main__``, the alias multiprocessing gives ``__main__``;
# ``repro.__main__`` runs the CLI on import and only re-exports it.
_SCRIPT = """
import importlib, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
main = sys.modules["__main__"]
print(*{name.partition(".")[0] for name, module in sys.modules.items()
        if name not in before and module is not main})
"""


def test_importing_every_module_loads_only_the_stdlib():
    env = dict(os.environ, PYTHONPATH=SRC)
    loaded = set(subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split())
    assert "repro" in loaded
    assert "numpy" not in loaded
    if sys.version_info >= (3, 10):
        assert loaded - sys.stdlib_module_names == {"repro"}
