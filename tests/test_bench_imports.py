"""Every name the benchmark harness imports from coklab still exists, and
every config field it reads is a field of ``ExperimentConfig``.

The harness in ``perfbench/`` is run apart from this suite, so a name
deleted from the package, or a renamed config field, would otherwise fail
only a benchmark run. The harness files are read as text, never imported.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from coklab.experiments import ExperimentConfig

_HARNESS = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def _nodes():
    for path in _HARNESS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path, node


def _coklab_imports():
    for path, node in _nodes():
        if isinstance(node, ast.ImportFrom) and not node.level and (
                node.module == "coklab" or node.module.startswith("coklab.")):
            for alias in node.names:
                yield path.name, node.module, alias.name


_IMPORTS = sorted(set(_coklab_imports()))
# (file, attribute) of every read of a name `cfg`, the harness's name for a parsed config
_CONFIG_READS = sorted({(path.name, node.attr) for path, node in _nodes()
                        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "cfg"})


def test_the_harness_imports_from_coklab():
    assert {module for _, module, _ in _IMPORTS} >= {"coklab.experiments", "coklab.snf"}


@pytest.mark.parametrize("source,module,name", _IMPORTS,
                         ids=[f"{s}:{m}.{n}" for s, m, n in _IMPORTS])
def test_harness_import_resolves(source, module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):  # a submodule, as in `from coklab import experiments`
        importlib.import_module(f"{module}.{name}")


def test_the_harness_reads_config_fields():
    assert {attr for _, attr in _CONFIG_READS} >= {"policy", "n_list", "targets"}


@pytest.mark.parametrize("source,attr", _CONFIG_READS, ids=[f"{s}:cfg.{a}" for s, a in _CONFIG_READS])
def test_harness_config_read_is_a_field(source, attr):
    assert attr in {f.name for f in dataclasses.fields(ExperimentConfig)}
