"""Checks on the package source itself."""

import ast
import pathlib

import tubeplan

PACKAGE = pathlib.Path(tubeplan.__file__).parent


def _modules(root):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def assert_statements(root):
    """``file:line`` of every ``assert`` statement under ``root``."""
    found = []
    for path, tree in _modules(root):
        found += [f"{path.relative_to(root)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    return found


def unused_imports(root):
    """``file:line name`` of every name a module under ``root`` imports at
    module level and never reads; ``__init__.py`` files, which import to
    re-export, and ``__future__`` imports are left out."""
    found = []
    for path, tree in _modules(root):
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.relative_to(root)}:{node.lineno} {name}"
                          for name in (a.asname or a.name.split(".")[0] for a in node.names)
                          if name not in read]
    return found


def test_no_assert_statements_in_package():
    # python -O strips asserts; correctness checks must raise instead
    assert len(list(PACKAGE.rglob("*.py"))) >= 10
    assert assert_statements(PACKAGE) == []


def test_assert_scan_finds_asserts(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1\nif x:\n    assert x > 0, 'x'\n")
    assert assert_statements(tmp_path) == ["mod.py:3"]


def test_no_unused_imports_in_package():
    assert unused_imports(PACKAGE) == []


def test_unused_import_scan_finds_unused_names(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\n"
        "from dataclasses import asdict, dataclass, fields\n"
        "\n@dataclass\nclass A:\n    x: np.ndarray\n\n"
        "def f(a):\n    import json\n    return asdict(a)\n")
    (tmp_path / "__init__.py").write_text("from .mod import A\n")
    assert unused_imports(tmp_path) == ["mod.py:2 os", "mod.py:4 fields"]


def orphaned_private_names(root):
    """``file:line name`` of every private name under ``root`` that nothing
    under ``root`` reads: module-level ``_name`` functions, classes and
    assignments, and ``_method`` methods of module-level classes.  Dunder
    names are left out."""
    read, defined = set(), []
    for path, tree in _modules(root):
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        where = path.relative_to(root)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((where, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(where, node.lineno, target.id) for target in targets
                            if isinstance(target, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(where, item.lineno, item.name) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [f"{where}:{line} {name}" for where, line, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_no_orphaned_private_names_in_package():
    assert orphaned_private_names(PACKAGE) == []


def test_orphan_scan_finds_unread_private_names(tmp_path):
    (tmp_path / "mod.py").write_text(
        "_LIMIT = 3\n_used: int = 1\n__all__ = []\n"
        "def _helper():\n    return _used\n"
        "def _left():\n    return 0\n"
        "class _Box:\n"
        "    def __init__(self):\n        self._x = _helper()\n"
        "    def _kept(self):\n        return self._x\n"
        "    def _dead(self):\n        return 0\n")
    (tmp_path / "other.py").write_text("from mod import _Box\nprint(_Box()._kept())\n")
    assert orphaned_private_names(tmp_path) == [
        "mod.py:1 _LIMIT", "mod.py:6 _left", "mod.py:13 _dead"]


def _sites(root, kinds, matches=None):
    """``file function`` of every node of one of the ``kinds`` under
    ``root`` for which ``matches(node)`` holds (each one, without
    ``matches``), named by the innermost function that holds it
    (``<module>`` outside any), sorted."""
    found = []
    for path, tree in _modules(root):
        where = {}
        # ast.walk is breadth-first: an inner function overwrites its outer one
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where.update((id(inner), node.name) for inner in ast.walk(node))
        found += [f"{path.relative_to(root)} {where.get(id(node), '<module>')}"
                  for node in ast.walk(tree)
                  if isinstance(node, kinds) and (matches is None or matches(node))]
    return sorted(found)


def input_set_switches(root):
    """``file function`` of every ``isinstance`` test against ``Box`` or
    ``Ball`` under ``root``."""
    return _sites(root, ast.Call, lambda node: (
        isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        and len(node.args) == 2
        and bool({getattr(n, "id", getattr(n, "attr", None))
                  for n in ast.walk(node.args[1])} & {"Box", "Ball"})))


def test_input_set_type_picks_only_algorithms():
    # Box and Ball answer projection, the saturation test and erosion
    # themselves; the type is tested only where it picks an algorithm: the
    # box's float clip in the closed loop and the box's projected Newton step
    assert input_set_switches(PACKAGE) == ["controller.py _float_saturation",
                                           "controller.py _solve_rows"]


def test_input_set_switch_scan_finds_type_tests(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import geometry\nfrom geometry import Ball, Box\n"
        "def f(u):\n"
        "    def g(v):\n        return isinstance(v, (Box, int))\n"
        "    return isinstance(u, geometry.Ball) or isinstance(u, dict)\n"
        "ok = isinstance(1, Box) and isinstance(Box, type)\n")
    assert input_set_switches(tmp_path) == ["mod.py <module>", "mod.py f", "mod.py g"]


def json_file_reads(root):
    """``file function`` of every ``json.load`` call under ``root``."""
    return _sites(root, ast.Call, lambda node: (
        isinstance(node.func, ast.Attribute) and node.func.attr == "load"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"))


def test_json_files_have_one_reader():
    # every artifact file is read by ``scenario.read_json``, which names the
    # file in each problem; ``json.loads`` of text already read is no file read
    assert json_file_reads(PACKAGE) == ["scenario.py read_json"]


def test_json_read_scan_finds_file_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import json\n"
        "def f(fh):\n"
        "    def g(fh):\n        return json.load(fh)\n"
        "    return json.loads(fh.read()), pickle.load(fh)\n"
        "data = json.load(open('a.json'))\n")
    assert json_file_reads(tmp_path) == ["mod.py <module>", "mod.py g"]


def generator_functions(root):
    """``file function`` of every ``yield`` and ``yield from`` under
    ``root``: the generator functions."""
    return _sites(root, (ast.Yield, ast.YieldFrom))


def test_no_generators_in_package():
    # the pipeline's loops run on arrays in plain functions; a generator
    # would hide a loop's state behind ``send``
    assert generator_functions(PACKAGE) == []


def test_generator_scan_finds_generators(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(xs):\n"
        "    def g():\n        yield from xs\n"
        "    return g, (x for x in xs), [x for x in xs]\n"
        "def h():\n    received = yield 1\n    return received\n"
        "lazy = lambda: (yield)\n")
    assert generator_functions(tmp_path) == ["mod.py <module>", "mod.py g", "mod.py h"]


def argparse_imports(root):
    """``file function`` of every import of ``argparse`` under ``root``."""
    return _sites(root, (ast.Import, ast.ImportFrom), lambda node: (
        (node.module, node.level) == ("argparse", 0)
        if isinstance(node, ast.ImportFrom) else any(a.name.split(".")[0] == "argparse" for a in node.names)))


def test_only_the_cli_parses_arguments():
    # the CLI's parser sends every usage error to exit 3; a parser built
    # anywhere else would exit 2, the code of an unrealizable task
    assert argparse_imports(PACKAGE) == ["cli.py <module>"]


def test_argparse_scan_finds_imports(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os, argparse as ap\n"
        "def f():\n    from argparse import ArgumentParser\n    return ArgumentParser\n"
        "import argparsex\nfrom .argparse import x\n")
    assert argparse_imports(tmp_path) == ["mod.py <module>", "mod.py f"]


def edge_reads(root):
    """``file function`` of every read of an ``.edges`` attribute under
    ``root``."""
    return _sites(root, ast.Attribute, lambda node: (
        node.attr == "edges" and isinstance(node.ctx, ast.Load)))


def test_only_the_automaton_reads_edges():
    # the search reads block tables, ``accepting``, ``live`` and
    # ``constants``; ``TimedAutomaton.edges`` builds the labelled product on
    # first read, so nothing in the package reads it.  The one read left is
    # ``build_tba``'s of each block's own edges
    assert edge_reads(PACKAGE) == ["tba.py build_tba"]


def test_edge_read_scan_finds_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(tba):\n"
        "    def g():\n        return len(tba.edges)\n"
        "    tba.edges = ()\n    edges = tba.locations\n    return edges, g\n"
        "n = [e.target for e in build().edges]\n")
    assert edge_reads(tmp_path) == ["mod.py <module>", "mod.py g"]
