"""Every subpackage imports on its own.

``repro/__init__`` loads the subpackages in one fixed order, which can
hide an import cycle: a module that imports its cycle partner
half-initialized works only when something else loaded the partner
first.  Each test here starts a fresh interpreter, puts a bare
``repro`` package in ``sys.modules`` so that ``repro/__init__`` never
runs, and imports one subpackage first.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent
SUBPACKAGES = sorted(
    p.name for p in PACKAGE.iterdir() if (p / "__init__.py").exists()
)

#: the routing substrate under the runtime: the graph, the Lemma 14
#: trees, the Theorem 13 hierarchy and the Lemma 2/5 substrates
BELOW_RUNTIME = {"covers", "graph", "rtz", "tree_routing"}

CODE = """
import importlib, sys, types
pkg = types.ModuleType("repro")
pkg.__path__ = [{path!r}]
sys.modules["repro"] = pkg
importlib.import_module({module!r})
print("repro.runtime" in sys.modules)
"""


@pytest.mark.parametrize("name", SUBPACKAGES + ["cli"])
def test_imports_first_without_the_package_init(name: str):
    module = f"repro.{name}"
    run = subprocess.run(
        [sys.executable, "-c", CODE.format(path=str(PACKAGE), module=module)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    if name in BELOW_RUNTIME:
        assert run.stdout.strip() == "False", f"{module} loads repro.runtime"
