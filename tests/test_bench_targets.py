"""The benchmark's tracer wraps program functions by name. Every target it
names must still exist, or a traced benchmark run fails at install time."""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    """Execute bench/spans.py from its source, writing no bytecode cache."""
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), vars(module))
    return module


spans = load_spans()


@pytest.mark.parametrize("module", spans.MODULES)
def test_searched_module_imports(module):
    importlib.import_module(f"enclavesim.{module}")


@pytest.mark.parametrize(
    "module, cls, attr", [target[:3] for target in spans.TARGETS],
    ids=[target[3] for target in spans.TARGETS])
def test_target_resolves(module, cls, attr):
    # Looked up the way the tracer installs its wrappers: in the defining
    # class's or module's own namespace.
    owner = importlib.import_module(f"enclavesim.{module}")
    if cls is not None:
        owner = vars(owner)[cls]
    assert callable(vars(owner).get(attr)), f"{module}.{cls}.{attr}"
