"""The traced benchmark run wraps library names; each must still resolve.

``bench/tracing.py`` lists ``(owner, attribute, span name, counter)`` entry
points and wraps each one found by ``inspect.getattr_static``.  A renamed or
moved entry point would otherwise only show as a crashed traced run.
"""

import importlib.util
import inspect
from pathlib import Path

import contextuality_lab
import contextuality_lab.chsh  # noqa: F401  (entry points reach it as an attribute)
import contextuality_lab.cli  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    points = _tracing().entry_points(contextuality_lab)
    named = {(getattr(owner, "__name__", None), attribute) for owner, attribute, _, _ in points}
    assert ("TensorMultivector", "__mul__") in named
    assert ("contextuality_lab.systems", "identify_pseudoscalars") in named
    assert ("contextuality_lab.constraints", "identify_pseudoscalars") in named
    for owner, attribute, _, _ in points:
        inspect.getattr_static(owner, attribute)  # raises AttributeError when gone
        assert callable(getattr(owner, attribute))
