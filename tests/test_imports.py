"""Every import in the package is used by the module that makes it, so is
every module-level private name, and every function, method and stored
attribute is read by the program.

A name an ``import`` binds must be read somewhere in its module, or be
listed in the module's ``__all__`` (a re-export). A private name (one
leading underscore) that a module defines at its top level, as a
constant, function or class, must be read somewhere in that module.
Each name in the package's ``__all__`` must be a module of the package.

A function or method the package defines must be loaded by name
somewhere in ``src/`` or ``bench/``, and so must a ``self.<attr>`` that
one of its methods stores, unless a row of ``TEST_ONLY_READERS`` says
why only tests read it. The scan goes by name, not by object, so it
cannot see every unread definition: ``Kernel.machine`` is stored and
never read, but ``.machine`` is read on other classes. Parsed with
``ast`` only, so the checks run without importing the package."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "enclavesim"
# Every module of the program: the package and the benchmark that drives it.
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# Definitions that only tests read, each with the reason it stays.
TEST_ONLY_READERS = {
    "EnclaveRuntime.instance_access":
        "the region rule that ROADMAP item 7's isolation probe will call",
    "EnclaveRuntime.fs_write":
        "the file writes that ROADMAP item 7's isolation probe will make",
    "ParseError.line_no":
        "a public attribute for callers that catch a ParseError",
}


def exported_names(tree):
    """The names that the ``__all__ = [...]`` assignments of ``tree``
    list."""
    return {name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets)
            for name in ast.literal_eval(node.value)}


def unused_imports(source: str):
    """The names ``source``'s imports bind that it never reads, each with
    the line of its import, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [((alias.asname or alias.name.partition(".")[0]),
                       node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno)
                      for alias in node.names]
    exported = exported_names(tree)
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


def test_all_names_only_package_modules():
    # The package's __init__ imports nothing, so a stale entry would
    # break only ``from enclavesim import *``.
    init = PACKAGE / "__init__.py"
    exported = exported_names(ast.parse(init.read_text()))
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert exported and sorted(exported - modules) == []


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


def loaded_names(source: str):
    """The names ``source`` loads, as ``(names, attributes)``.
    ``attributes`` holds every attribute read as ``.name`` and every
    string that is an identifier, as ``getattr`` and ``bench/spans.py``'s
    table name what they reach. ``names`` holds those, every variable
    read and every name imported from a module."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            attributes.add(node.value)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names | attributes, attributes


def unread_definitions(source: str, names, attributes):
    """The functions and methods ``source`` defines whose names are not in
    ``names``, and the ``self.<attr>``s its methods store whose names are
    not in ``attributes``, each as its dotted name (class or function
    first) with its line, in order. Python itself calls the dunders."""
    unread = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") or child.name in names):
                    unread.append((".".join(scope + [child.name]),
                                   child.lineno))
                if isinstance(node, ast.ClassDef):
                    unread.extend(stored(child, node.name, attributes))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(unread, key=lambda item: item[1])


def stored(method, owner: str, attributes):
    """Each ``self.<attr>`` that ``method`` of class ``owner`` stores and no
    name in ``attributes`` reads, as ``(owner.attr, line)``."""
    return [(f"{owner}.{node.attr}", node.lineno)
            for node in ast.walk(method)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and node.attr not in attributes]


def test_unread_definitions_are_found():
    source = ("class Box:\n"
              "    def __init__(self, size):\n"
              "        self.size = size\n"
              "        self.label = 'box'\n"
              "        self.stale = 0\n"
              "    def grow(self):\n"
              "        self.size += 1\n"
              "    def traced(self):\n"
              "        return self.label\n"
              "    def unused(self):\n"
              "        return 0\n"
              "def helper():\n"
              "    return Box(1).grow()\n"
              "def orphan():\n"
              "    size = 2\n"
              "    return size\n"
              "TRACED = ('Box', 'traced')\n"
              "helper()\n")
    names, attributes = loaded_names(source)
    # A variable read by the name ``size`` is not an attribute read.
    assert "size" in names and "size" not in attributes
    assert unread_definitions(source, names, attributes) == [
        ("Box.size", 3), ("Box.stale", 5), ("Box.size", 7),
        ("Box.unused", 10), ("orphan", 14)]


def test_every_definition_is_read():
    names, attributes = set(), set()
    for path in PROGRAM:
        loaded, read = loaded_names(path.read_text())
        names |= loaded
        attributes |= read
    unread = {name: f"{path.name}:{line}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, line in unread_definitions(path.read_text(), names,
                                                   attributes)}
    assert {name: where for name, where in unread.items()
            if name not in TEST_ONLY_READERS} == {}, \
        "definitions nothing in src/ or bench/ reads"
    assert sorted(TEST_ONLY_READERS.keys() - unread.keys()) == [], \
        "TEST_ONLY_READERS rows whose definition the program reads"
