"""Every import in the package is used by the module that makes it, and
so is every module-level private name.

A name an ``import`` binds must be read somewhere in its module, or be
listed in the module's ``__all__`` (a re-export). A private name (one
leading underscore) that a module defines at its top level, as a
constant, function or class, must be read somewhere in that module.
Parsed with ``ast`` only, so the checks run without importing the
package."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "enclavesim"


def unused_imports(source: str):
    """The names ``source``'s imports bind that it never reads, each with
    the line of its import, in order."""
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [((alias.asname or alias.name.partition(".")[0]),
                       node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in sorted(bound, key=lambda b: b[1])
            if name not in read and name not in exported]


def unread_private_names(source: str):
    """The private names ``source`` binds at module level, by assignment
    or by a ``def`` or ``class`` statement, that it never reads, each with
    the line of its definition, in order."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [name.id for target in targets
                     for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        defined += [(name, node.lineno) for name in names
                    if name.startswith("_") and not name.startswith("__")]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(name, line) for name, line in defined if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Dict, Optional\n"
              "from . import kept\n"
              "__all__ = ['kept']\n"
              "x: Dict[str, int] = {}\n")
    assert unused_imports(source) == [("os", 2), ("Optional", 3)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def test_unread_private_names_are_found():
    source = ("_USED, _STALE = 1, 2\n"
              "_typed: int = 3\n"
              "__version__ = '1'\n"
              "PUBLIC = _USED\n"
              "def _helper():\n"
              "    _local = 4\n"
              "    return _local\n"
              "class _Unread:\n"
              "    _attr = 5\n"
              "def run():\n"
              "    return _helper()\n")
    assert unread_private_names(source) == [("_STALE", 1), ("_typed", 2),
                                            ("_Unread", 8)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == [], path.name
