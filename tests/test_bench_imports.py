"""Every name the benchmark harness imports from coklab still exists.

The harness in ``perfbench/`` is run apart from this suite, so a name
deleted from the package would otherwise fail only a benchmark run. The
harness files are read as text, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

_HARNESS = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def _coklab_imports():
    for path in _HARNESS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and not node.level and (
                    node.module == "coklab" or node.module.startswith("coklab.")):
                for alias in node.names:
                    yield path.name, node.module, alias.name


_IMPORTS = sorted(set(_coklab_imports()))


def test_the_harness_imports_from_coklab():
    assert {module for _, module, _ in _IMPORTS} >= {"coklab.experiments", "coklab.snf"}


@pytest.mark.parametrize("source,module,name", _IMPORTS,
                         ids=[f"{s}:{m}.{n}" for s, m, n in _IMPORTS])
def test_harness_import_resolves(source, module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):  # a submodule, as in `from coklab import experiments`
        importlib.import_module(f"{module}.{name}")
