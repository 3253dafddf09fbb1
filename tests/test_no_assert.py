"""Library invariants raise real exceptions: `python -O` strips `assert`
statements, so none may appear in the package source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prudentwalks"
SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_package_sources_found():
    assert any(p.name == "series.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(PACKAGE)) for p in SOURCES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s has assert statements at lines %s" % (path.relative_to(PACKAGE), lines)
