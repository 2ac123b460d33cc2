"""Every import in the package is used by the module that makes it.

A name an ``import`` binds must be read somewhere in its module, or be
listed in the module's ``__all__`` (a re-export). Parsed with ``ast``
only, so the check runs without importing the package."""

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
