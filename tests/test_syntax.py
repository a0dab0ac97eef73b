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
