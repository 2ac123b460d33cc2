"""The unrun-statement gate (``tests/unrun_lines.py``) finds what it is
for: a small module run in part reports the statements it did not run,
and only those, until ``ALLOWED`` rows name them."""

import runpy

from unrun_lines import collect_lines, unrun_statements

SOURCE = '''\
def f(x):
    if x < 0:
        raise ValueError(
            f"{x} is negative")
    return x + 1


def g():
    return 2
'''

RAISE = ("m.py", "f", 'raise ValueError( f"{x} is negative")')
RETURN = ("m.py", "g", "return 2")


def test_unrun_statements_are_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    result, hits = collect_lines(
        [str(path)], lambda: runpy.run_path(str(path))["f"](1))
    assert result == 2
    assert unrun_statements([path], hits, {}) == (
        [("m.py", 3, *RAISE[1:]), ("m.py", 9, *RETURN[1:])], [])
    allowed = dict.fromkeys([RAISE, RETURN], "a reason")
    assert unrun_statements([path], hits, allowed) == ([], [])
    stale = ("m.py", "f", "return x + 1")
    assert unrun_statements([path], hits, {**allowed, stale: "ran"}) == (
        [], [stale])
