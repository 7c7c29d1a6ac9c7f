"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cascadefin"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_assert_statements(module):
    # python -O strips assert, so every check in the package must raise itself
    tree = ast.parse(module.read_text(), filename=str(module))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module.name}: assert on lines {lines}"
