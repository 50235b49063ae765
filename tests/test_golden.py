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
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from contextuality_lab.cli import main
from contextuality_lab.constraints import BELL_GHZ, builtin_constraints
from constraint_documents import document

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Constraint documents written for the ``{constraints}`` placeholder, by
#: case name.  Besides the built-in Bell-GHZ lines under another name, they
#: pin failing ``*.word.*`` verdicts: a line holding at -1, a wrong sign, a
#: product that is +-i times the identity, a product of +-i times a spin
#: (``x1 y1 = i z1``), a leftover non-identity factor and repeated terms, on
#: three subsystems and on two, the latter also under ``ghz``.
DOCUMENTS = {
    "verify-bell-ghz-constraints-renamed": {
        **document(builtin_constraints(BELL_GHZ)),
        "name": "mine",
    },
    "verify-pm-constraints-words": {
        "name": "pm-words",
        "lines": [
            {"terms": ["x1*x2", "y1*y2", "z1*z2"], "required": -1},
            {"terms": ["x1*x2", "x1", "x2"], "required": -1},
            {"terms": ["x1", "y1"], "required": 1},
            {"terms": ["x1", "z1", "y1"], "required": -1},
            {"terms": ["x1", "x2"], "required": 1},
            {"terms": ["x1*y2", "x1*y2"], "required": 1},
            {"terms": ["z2", "y1*z2", "y1"], "required": 1},
            {"terms": ["z1", "z1", "x2", "x2", "y1*y2"], "required": -1},
        ],
    },
    "verify-ghz-constraints-words": {
        "name": "ghz-words",
        "lines": [
            {"terms": ["x1*x2*x3", "x1*y2*y3", "y1*x2*y3", "y1*y2*x3"], "required": -1},
            {"terms": ["x1*y2*y3", "y1*x2*y3", "y1*y2*x3", "x1*x2*x3"], "required": 1},
            {"terms": ["y1*x2*y3", "y1", "x2", "y3"], "required": -1},
            {"terms": ["x2", "y2", "z3"], "required": 1},
            {"terms": ["y3", "x3", "z3"], "required": 1},
            {"terms": ["x1*x2*x3", "x1"], "required": 1},
            {"terms": ["z1*z3", "z1*z3", "y2", "y2", "x1"], "required": 1},
        ],
    },
    "verify-ghz-constraints-two-subsystems": {
        "name": "ghz-two",
        "lines": [
            {"terms": ["x1*y2", "y1*x2", "z1*z2"], "required": 1},
            {"terms": ["y1*x2", "x1*y2", "z1*z2"], "required": 1},
            {"terms": ["x1", "y1", "z1"], "required": 1},
            {"terms": ["z2", "y2"], "required": -1},
            {"terms": ["y1*y2", "y1*y2"], "required": 1},
        ],
    },
}

#: (case name, argv, exit code); ``{csv}`` stands for a CSV path the case
#: writes and ``{constraints}`` for the case's document in ``DOCUMENTS``.
CASES = (
    ("verify-all-exact", ["verify", "all"], 0),
    ("verify-all-approx", ["verify", "all", "--mode", "approx"], 0),
    ("verify-pm", ["verify", "pm"], 0),
    ("verify-ghz", ["verify", "ghz"], 0),
    ("verify-bell-ghz", ["verify", "bell-ghz"], 0),
    ("chsh-0-3.14159265-9", ["chsh", "0", "3.14159265", "9", "--csv", "{csv}"], 0),
    ("search-identities-e1", ["search-identities", "e1"], 0),
    ("search-identities-minus-e1", ["search-identities", "-e1"], 0),
    ("search-identities-e2", ["search-identities", "e2"], 0),
    ("search-identities-minus-e2", ["search-identities", "-e2"], 0),
    (
        "verify-bell-ghz-constraints-renamed",
        ["verify", "bell-ghz", "--constraints", "{constraints}"],
        0,
    ),
    ("verify-pm-constraints-words", ["verify", "pm", "--constraints", "{constraints}"], 1),
    ("verify-ghz-constraints-words", ["verify", "ghz", "--constraints", "{constraints}"], 1),
    (
        "verify-ghz-constraints-two-subsystems",
        ["verify", "ghz", "--constraints", "{constraints}"],
        1,
    ),
)


#: SHA-256 of the whole CSV of sweeps longer than the golden nine rows, so a
#: changed bit anywhere, at a batch seam too, shows; an intended change to
#: the CSV updates them by hand.
CSV_DIGESTS = {
    ("0", "3.14159265", "100000"): "4ade01f692a0e38aa52b24e5cc471cad7c2f075c091cb4d28e42dcb99ef68323",
    ("0.5", "2.75", "2049"): "ab8c148d987877191cc9a93e080bd3ef383c486f38cb333b2542a57d31b4a722",
}


def run_case(name: str, argv: list, expected_code: int, workdir: Path) -> dict:
    """Run one case; returns golden file name -> produced bytes."""
    csv_path = workdir / f"{name}.csv"
    constraints_path = workdir / f"{name}.json"
    if "{constraints}" in argv:
        constraints_path.write_text(json.dumps(DOCUMENTS[name]), encoding="utf-8")
    placeholders = {"{csv}": str(csv_path), "{constraints}": str(constraints_path)}
    argv = [placeholders.get(a, a) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != expected_code:
        raise AssertionError(f"{name} exited {code}, expected {expected_code}")
    produced = {f"{name}.stdout": stdout.getvalue().encode("utf-8")}
    if csv_path.exists():
        produced[csv_path.name] = csv_path.read_bytes()
    return produced


@pytest.mark.parametrize("name,argv,code", CASES, ids=[name for name, _, _ in CASES])
def test_output_matches_golden(name, argv, code, tmp_path):
    produced = run_case(name, argv, code, tmp_path)
    for filename, data in produced.items():
        assert data == (GOLDEN_DIR / filename).read_bytes(), filename


@pytest.mark.parametrize("grid,digest", CSV_DIGESTS.items(), ids=["-".join(g) for g in CSV_DIGESTS])
def test_whole_sweep_csv_matches_its_digest(grid, digest, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["chsh", *grid, "--csv", str(csv_path)]) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest


def test_every_golden_file_has_a_case():
    expected = set()
    for name, argv, _ in CASES:
        expected.add(f"{name}.stdout")
        if "{csv}" in argv:
            expected.add(f"{name}.csv")
    assert expected == {p.name for p in GOLDEN_DIR.iterdir()}


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, code in CASES:
            for filename, data in run_case(name, argv, code, Path(tmp)).items():
                (GOLDEN_DIR / filename).write_bytes(data)
                print(f"wrote {GOLDEN_DIR / filename}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
