"""Checks on the source text.

Every Python file of the project parses under the Python 3.10 grammar, the
oldest that pyproject.toml's requires-python admits.  The check is grammar
only: `ast.parse(..., feature_version=(3, 10))` rejects syntax newer than
3.10, such as `except*`, but not a call to a library function that 3.10
lacks.

In the package, only `quivercount.value` defines `__setattr__` and
`__delattr__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_under_python_3_10():
    # the gate must reject 3.11 syntax, or it would pass on anything
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
    files = sorted(path for folder in ("src", "tests", "bench")
                   for path in (ROOT / folder).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_only_value_defines_setattr():
    # immutability is decided once, in quivercount.value
    for method in ("__setattr__", "__delattr__"):
        owners = sorted(path.name for path in (ROOT / "src" / "quivercount").glob("*.py")
                        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                        if isinstance(node, ast.FunctionDef) and node.name == method)
        assert owners == ["value.py"], method
