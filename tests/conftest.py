"""Let the tests that start ``python -m contextuality_lab.cli`` in a child
process find the same package this test process imported, also when it was
found through pytest's ``pythonpath`` setting rather than ``PYTHONPATH``."""

import os
from pathlib import Path

import contextuality_lab

_PACKAGE_ROOT = str(Path(contextuality_lab.__file__).resolve().parent.parent)
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _PACKAGE_ROOT not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [_PACKAGE_ROOT, *_paths] if p)
