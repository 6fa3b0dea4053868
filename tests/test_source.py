"""Checks on the package source itself."""

import ast
import pathlib

import tubeplan

PACKAGE = pathlib.Path(tubeplan.__file__).parent


def assert_statements(root):
    """``file:line`` of every ``assert`` statement under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(root)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    return found


def test_no_assert_statements_in_package():
    # python -O strips asserts; correctness checks must raise instead
    assert len(list(PACKAGE.rglob("*.py"))) >= 10
    assert assert_statements(PACKAGE) == []


def test_assert_scan_finds_asserts(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1\nif x:\n    assert x > 0, 'x'\n")
    assert assert_statements(tmp_path) == ["mod.py:3"]
