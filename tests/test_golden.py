"""Golden output bytes for the command-line paths that decide the claims.

Each case runs ``main(argv)`` in-process and compares what it prints (and
the CSV it writes, for the sweep) byte for byte with the files under
``tests/golden/``.  The files pin the report layout, the check order and the
coefficient format (``3/2``, ``-1``, ``2*e12``), so a change to the
arithmetic kernel that alters any rendered value fails here.

After an intended change to the output, regenerate the files with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from contextuality_lab.cli import SEED_ENV_VAR, main
from contextuality_lab.constraints import BELL_GHZ, builtin_constraints

GOLDEN_DIR = Path(__file__).parent / "golden"

#: (case name, argv); ``{csv}`` stands for a CSV path the case writes and
#: ``{constraints}`` for a document holding the built-in Bell-GHZ lines under
#: the name ``"mine"``.
CASES = (
    ("verify-all-exact", ["verify", "all"]),
    ("verify-all-approx", ["verify", "all", "--mode", "approx"]),
    ("verify-pm", ["verify", "pm"]),
    ("verify-ghz", ["verify", "ghz"]),
    ("verify-bell-ghz", ["verify", "bell-ghz"]),
    ("chsh-0-3.14159265-9", ["chsh", "0", "3.14159265", "9", "--csv", "{csv}"]),
    ("search-identities-e1", ["search-identities", "e1"]),
    ("search-identities-minus-e1", ["search-identities", "-e1"]),
    ("search-identities-e2", ["search-identities", "e2"]),
    ("search-identities-minus-e2", ["search-identities", "-e2"]),
    (
        "verify-bell-ghz-constraints-renamed",
        ["verify", "bell-ghz", "--constraints", "{constraints}"],
    ),
)


def run_case(name: str, argv: list, workdir: Path) -> dict:
    """Run one case; returns golden file name -> produced bytes."""
    csv_path = workdir / f"{name}.csv"
    constraints_path = workdir / f"{name}.json"
    if "{constraints}" in argv:
        doc = json.loads(builtin_constraints(BELL_GHZ).to_json())
        doc["name"] = "mine"
        constraints_path.write_text(json.dumps(doc), encoding="utf-8")
    placeholders = {"{csv}": str(csv_path), "{constraints}": str(constraints_path)}
    argv = [placeholders.get(a, a) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"{name} exited {code}")
    produced = {f"{name}.stdout": stdout.getvalue().encode("utf-8")}
    if csv_path.exists():
        produced[csv_path.name] = csv_path.read_bytes()
    return produced


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    produced = run_case(name, argv, tmp_path)
    for filename, data in produced.items():
        assert data == (GOLDEN_DIR / filename).read_bytes(), filename


def test_every_golden_file_has_a_case():
    expected = set()
    for name, argv in CASES:
        expected.add(f"{name}.stdout")
        if "{csv}" in argv:
            expected.add(f"{name}.csv")
    assert expected == {p.name for p in GOLDEN_DIR.iterdir()}


def regenerate() -> None:
    os.environ.pop(SEED_ENV_VAR, None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES:
            for filename, data in run_case(name, argv, Path(tmp)).items():
                (GOLDEN_DIR / filename).write_bytes(data)
                print(f"wrote {GOLDEN_DIR / filename}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
