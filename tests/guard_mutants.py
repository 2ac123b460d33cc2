"""Check the test rows of the guard table against their mutants.

``GUARDS`` in ``tests/test_security.py`` names, for each raise guard in
the package, what fails when the guard's condition is replaced by
``False``. Tier-1 checks the rows that name the probes. This script
checks the rows that name a test: it runs every named test once against
``src/`` as it is, where each must pass, then for each row it applies
the row's mutant to a copy of ``src/`` and runs only that row's test
against the copy, where the test must fail. Editing the copy's source
text also reaches a function that another module imports by name.

Run from the repository root (about a second per row):

    PYTHONPATH=src python tests/guard_mutants.py [module ...]

Module names (``enclave_runtime host_kernel``, say) check only the rows
of those modules; with none, every row is checked.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

from test_security import GUARDS, Probe, disable

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_tests(node_ids, src, scratch):
    """pytest's exit code for ``node_ids`` run against the package in
    ``src``: 0 if all pass, 1 if some test fails, None if the run takes
    more than two minutes."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(scratch / "hypothesis"))
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *node_ids], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=120).returncode
    except subprocess.TimeoutExpired:
        return None


def main(modules):
    unknown = sorted(set(modules) - {module for module, _, _ in GUARDS})
    if unknown:
        print(f"no GUARDS rows for module {', '.join(unknown)}")
        return 2
    rows = sorted((key, test) for key, test in GUARDS.items()
                  if not isinstance(test, Probe)
                  and (not modules or key[0] in modules))
    missed = []
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        code = run_tests(sorted({test for _, test in rows}), ROOT / "src",
                         scratch)
        print(f"unmutated: {len(rows)} rows, pytest exit {code}")
        if code != 0:
            return 1
        src = scratch / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for (module, function, condition), test in rows:
            path = src / "enclavesim" / f"{module}.py"
            original = path.read_text()
            path.write_text(disable(original, function, condition))
            code = run_tests([test], src, scratch)
            path.write_text(original)
            # Exit 1: the test ran and failed. Any other outcome (a missing
            # test, a collection error, a timeout) does not count.
            verdict = "fails" if code == 1 else "MISSED"
            print(f"{verdict} {module}.{function}: {condition} -> {test} "
                  f"(pytest exit {code})", flush=True)
            if code != 1:
                missed.append((module, function, condition))
    print(f"{len(rows) - len(missed)} of {len(rows)} mutants fail their test")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
