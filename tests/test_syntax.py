"""The package promises Python 3.10 (pyproject.toml): every module must
parse with the 3.10 grammar, which rejects, for example, ``except*``."""

import ast
from pathlib import Path

import pytest

_SOURCES = sorted((Path(__file__).parent.parent / "src" / "coklab").glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_the_3_10_grammar_rejects_except_star():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def _private_imports(path) -> list:
    """The ``from .<module> import _<name>`` imports of a module: names
    another module keeps private. Importing a private module (``from .
    import _fppoly``) is not one."""
    return [f"{path.name}:{node.lineno} from .{node.module} import {alias.name}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_another_modules_private_names():
    # A rule kept private in one module, such as snf's word rule, is not
    # restated elsewhere through an import of its helpers.
    assert [line for path in _SOURCES for line in _private_imports(path)] == []


def test_the_private_import_guard_sees_a_private_name(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import _fppoly\nfrom ._fppoly import degree\n"
                    "def f():\n    from .snf import _word_dtype\n", encoding="utf-8")
    assert _private_imports(path) == ["probe.py:4 from .snf import _word_dtype"]


# the import layers, lowest first: a module imports only from modules before it
_LAYERS = ("errors", "_fppoly", "local_ring", "domains", "modules", "sampler", "snf", "theory",
           "experiments", "cli")


def _upward_imports(path) -> list:
    """The relative imports, at module level or inside a function, that a
    module makes of itself or of a module after it in _LAYERS."""
    rank = _LAYERS.index(path.stem)
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} imports {target}" for target in targets
                      if target not in _LAYERS or _LAYERS.index(target) >= rank]
    return found


def test_every_module_has_an_import_layer():
    assert sorted(path.stem for path in _SOURCES if path.stem != "__init__") == sorted(_LAYERS)


def test_no_module_imports_from_a_later_layer():
    # The cokernel driver in snf stays below experiments, which samples and
    # tallies; __init__ re-exports every layer.
    assert [line for path in _SOURCES if path.stem != "__init__"
            for line in _upward_imports(path)] == []


def test_the_layer_guard_sees_an_import_from_a_later_layer(tmp_path):
    path = tmp_path / "snf.py"
    path.write_text("from . import _fppoly\nfrom .modules import ModuleType\n"
                    "def f():\n    from .experiments import parse_config\n"
                    "from . import cli\n", encoding="utf-8")
    assert sorted(_upward_imports(path)) == ["snf.py:4 imports experiments", "snf.py:5 imports cli"]


def _axis_moves(path) -> list:
    """The calls a module makes to moveaxis, swapaxes or transpose, as
    functions (``np.moveaxis(a, 0, -1)``) or methods (``a.transpose()``),
    and its reads of an array's ``.T``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        func = node.func if isinstance(node, ast.Call) else None
        name = getattr(func, "attr", getattr(func, "id", None))
        if name in ("moveaxis", "swapaxes", "transpose") or (
                isinstance(node, ast.Attribute) and node.attr == "T"):
            found.append(f"{path.name}:{node.lineno} {name or 'T'}")
    return found


def test_only_snf_moves_axes():
    # The kernels' batch-last layout is snf's decision: the sampler and the
    # runners hand it C-ordered (b, n, m) batches, and gather alone lays
    # them out batch-last.
    assert [line for path in _SOURCES if path.stem != "snf" for line in _axis_moves(path)] == []


def test_the_axis_guard_sees_every_axis_move(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import numpy as np\nfrom numpy import moveaxis\n"
                    "a = np.moveaxis(b, 0, -1)\nc = moveaxis(b, 0, -1)\n"
                    "d = b.swapaxes(0, 1).transpose()\ne = b.T\nf = b.reshape(2, 3)\n",
                    encoding="utf-8")
    assert sorted(_axis_moves(path)) == ["probe.py:3 moveaxis", "probe.py:4 moveaxis",
                                         "probe.py:5 swapaxes", "probe.py:5 transpose",
                                         "probe.py:6 T"]
