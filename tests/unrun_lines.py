"""Statements of the program that a test run never runs.

A ``sys.settrace`` collector records each line that runs in the given
modules while pytest runs the given tests in this process. Every
executable line of those modules (a line that some code object's
``co_lines`` names) must run, or its statement must have a row in
``ALLOWED`` that gives the reason it stays; a row that names no unrun
statement is stale and fails too. Run from the repository root, on
Python 3.11 (where tracing costs about 3x):

    PYTHONPATH=src python tests/unrun_lines.py src/enclavesim/*.py tests

which names each unrun statement and each stale row and exits 1 if there
is one, or with pytest's code if a test fails. The arguments that name a
``.py`` file under ``src/`` are the modules; the rest go to pytest. The
modules must not be imported before the collector starts, so this script
imports nothing of the package itself.
"""

import ast
import pathlib
import sys
import types

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# (module file name, function, statement) -> why the statement never runs
# in the tests the gate runs. A statement is named by its text on one line
# (a compound statement by its header), as ``statements`` gives it.
ALLOWED = {
    ("cli.py", "", "sys.exit(main())"):
        "runs only under python -m, in a child process that the tracer "
        "cannot see; tests/test_cli.py::TestFreshProcess and CI's rerun "
        "step run it that way",
}


def executable_lines(source: str, filename: str) -> set:
    """The lines of ``source`` that hold an instruction. A function's own
    first line is left out: its ``def`` (or decorator) runs in the
    enclosing code, which names it."""
    module = compile(source, filename, "exec", dont_inherit=True)
    lines = set()
    stack = [module]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code is not module:
            own.discard(code.co_firstlineno)
        lines |= own
        stack += [const for const in code.co_consts
                  if isinstance(const, types.CodeType)]
    return lines


def statements(source: str) -> dict:
    """``{line: (function, statement)}`` for each line of ``source`` in a
    statement: ``function`` is the dotted name of the enclosing classes
    and functions ("" at the top level), and ``statement`` the innermost
    statement's text on one line, only its header for a compound
    statement (up to the line before its body)."""
    texts = source.splitlines()
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child, scope)
                continue
            body = [stmt.lineno for field in ("body", "orelse", "finalbody")
                    for stmt in getattr(child, field, ())]
            body += [handler.lineno
                     for handler in getattr(child, "handlers", ())]
            last = min(body) - 1 if body else child.end_lineno
            decorators = getattr(child, "decorator_list", ())
            first = min([child.lineno, *(d.lineno for d in decorators)])
            text = " ".join(" ".join(texts[first - 1:last]).split())
            for line in range(first, last + 1):
                found[line] = (".".join(scope), text)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(ast.parse(source), ())
    return found


def collect_lines(filenames, run):
    """The result of ``run()`` and ``{filename: set of lines run}`` for
    the files named ``filenames``, as code objects name them."""
    hits = {filename: set() for filename in filenames}

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in hits else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, hits


def unrun_statements(paths, hits, allowed):
    """The statements of ``paths`` with an unrun line, outside
    ``allowed``, as ``(file name, first unrun line, function,
    statement)``, and the rows of ``allowed`` for these files that name
    no such statement, each sorted."""
    unrun, matched = {}, set()
    for path in paths:
        source = path.read_text()
        found = statements(source)
        for line in sorted(executable_lines(source, str(path))
                           - hits[str(path)]):
            key = (path.name, *found[line])
            if key in allowed:
                matched.add(key)
            else:
                unrun.setdefault(key, line)
    names = {path.name for path in paths}
    stale = sorted(key for key in allowed
                   if key[0] in names and key not in matched)
    return sorted((name, line, function, text)
                  for (name, function, text), line in unrun.items()), stale


def main(argv):
    resolved = [pathlib.Path(arg).resolve() for arg in argv]
    paths = [path for path in resolved
             if path.suffix == ".py" and path.is_relative_to(SRC)]
    if not paths:
        print("usage: unrun_lines.py MODULE.py... [PYTEST ARGS...]")
        return 2
    args = [arg for arg, path in zip(argv, resolved) if path not in paths]
    code, hits = collect_lines(
        [str(path) for path in paths],
        lambda: pytest.main(["-q", "-p", "no:cacheprovider", *args]))
    if code != 0:
        return code
    unrun, stale = unrun_statements(paths, hits, ALLOWED)
    for name, line, function, text in unrun:
        print(f"unrun: {name}:{line} in {function or '<module>'}: {text}")
    for name, function, text in stale:
        print(f"stale ALLOWED row: {name} in {function}: {text}")
    print(f"{len(unrun)} unrun statements, {len(stale)} stale rows")
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
