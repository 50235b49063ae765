"""Every function defined in ``src/contextuality_lab`` is entered by a command.

A fresh ``python -I`` interpreter installs ``sys.setprofile`` before it
imports the package, so the calls made while the modules load count too,
and this test process imports none of its modules a second time.  It then
drives ``cli.main`` over the golden cases of ``tests/test_golden.py`` and
over :data:`ARGV`: every ``verify`` target in both modes, ``chsh`` with and
without ``--csv``, a negative ``--seed``, each command's help, one usage
error per command and a refused ``--constraints`` document.  The functions
and methods found in the package's source by ``ast`` must all have been
entered, except the names in :data:`ALLOWED`, each kept for the reason it
gives.  Only a name that the benchmark wraps or reads, or a dunder
method of the record, rendering or arithmetic protocol, may be allowed, so
that a helper only the tests call cannot be kept here.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import contextuality_lab
from contextuality_lab.cli import VERIFY_TARGETS
from test_golden import CASES, DOCUMENTS
from test_tracing_entry_points import _tracing

PACKAGE_DIR = Path(contextuality_lab.__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))

BENCH = "the traced benchmark run wraps it (bench/tracing.py); no command calls it"
PROTOCOL = "record and rendering protocol; no command builds, pickles, mutates or shows it this way"
ALGEBRA = "algebra arithmetic that the tests use; no check forms it"

#: name -> why no command needs to enter it.
ALLOWED = {
    "chsh.F": BENCH,
    "chsh.quantum_lhs": BENCH,
    "chsh.csv_rows": BENCH,
    "quantum.ComplexMatrix.kron": BENCH,
    "ga._Record.__reduce__": PROTOCOL,
    "ga._Record.__setattr__": PROTOCOL,
    "ga._Record.__delattr__": PROTOCOL,
    "ga._Record.__repr__": PROTOCOL,
    "ga.Multivector.__repr__": PROTOCOL,
    "systems.TensorMultivector.coeffs": (
        "bench/tracing._tensor_pairs reads it for the systems.mul.term_pairs counter; "
        "no command calls it"
    ),
    "ga.Multivector.__rmul__": ALGEBRA,
}

#: A constraint document refused for naming subsystem 1 twice in one term.
REPEATED_SUBSYSTEM = {"name": "mine", "lines": [{"terms": ["x1*y1"], "required": 1}]}

#: (argv, exit code) run besides the golden cases; ``{out}`` stands for a
#: file path in the test's directory and ``{repeated}`` for a file holding
#: :data:`REPEATED_SUBSYSTEM`.
ARGV = [
    *((["verify", target, "--mode", mode, "--out", "{out}"], 0)
      for target in VERIFY_TARGETS for mode in ("exact", "approx")),
    (["verify", "pm", "--seed", "-7"], 0),
    (["chsh", "0", "3.14159265", "101"], 0),
    (["chsh", "0.5", "2.0", "2049", "--csv", "{out}"], 0),
    (["-h"], 0),
    (["verify", "-h"], 0),
    (["chsh", "--help"], 0),
    (["search-identities", "-h"], 0),
    (["verify", "everything"], 2),
    (["chsh", "1.0", "0.5", "10"], 2),
    (["search-identities", "e3"], 2),
    (["verify", "pm", "--constraints", "{repeated}"], 2),
]

CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
from contextuality_lab.cli import main

codes = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps({
    "codes": codes,
    "entered": [[code.co_filename, code.co_firstlineno, code.co_name] for code in entered],
}))
"""


def defined_functions() -> dict:
    """``(module, first line, name)`` -> ``module.qualname`` for every
    function and method in the package source; the first line of a decorated
    function is that of its first decorator, as in its code object."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[module, first, child.name] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def entered_functions(functions: dict, tmp_path) -> set:
    """The names in ``functions`` (see :func:`defined_functions`) that the
    command runs enter."""
    runs = []
    for name, argv, code in CASES:
        if "{constraints}" in argv:
            (tmp_path / f"{name}.json").write_text(json.dumps(DOCUMENTS[name]), encoding="utf-8")
        places = {
            "{csv}": str(tmp_path / f"{name}.csv"),
            "{constraints}": str(tmp_path / f"{name}.json"),
        }
        runs.append(([places.get(arg, arg) for arg in argv], code))
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps(REPEATED_SUBSYSTEM), encoding="utf-8")
    files = {"{out}": str(tmp_path / "out"), "{repeated}": str(repeated)}
    runs += [([files.get(arg, arg) for arg in argv], code) for argv, code in ARGV]
    done = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(PACKAGE_DIR.parent)],
        input=json.dumps([argv for argv, _ in runs]),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["codes"] == [code for _, code in runs]
    entered = {
        functions.get((Path(filename).stem, line, name))
        for filename, line, name in seen["entered"]
        if Path(filename).resolve().parent == PACKAGE_DIR
    }
    return entered - {None}


def bench_wrapped() -> set:
    """``module.qualname`` of every entry point the traced benchmark run
    wraps, read from ``bench/tracing.py`` without importing ``bench``."""
    names = set()
    for owner, attribute, _, _ in _tracing().entry_points(contextuality_lab):
        if isinstance(owner, type):
            names.add(f"{owner.__module__.rpartition('.')[2]}.{owner.__qualname__}.{attribute}")
        else:
            names.add(f"{owner.__name__.rpartition('.')[2]}.{attribute}")
    return names


def test_every_function_is_entered_or_allowed(tmp_path):
    functions = defined_functions()
    defined = set(functions.values())
    entered = entered_functions(functions, tmp_path)
    assert sorted(defined - entered - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - defined) == [], "allowed names that no longer exist"
    assert sorted(ALLOWED.keys() & entered) == [], "allowed names that a command now enters"


def test_allowed_names_are_bench_entries_or_dunder_methods():
    # a name allowed for any reason but the benchmark is a protocol method
    # that Python calls, never a helper that only a test enters
    others = [name for name, reason in ALLOWED.items() if "bench/" not in reason]
    assert [
        name for name in others
        if not (name.rpartition(".")[2].startswith("__") and name.endswith("__"))
    ] == []


def test_bench_allowances_are_wrapped_by_the_bench():
    bench = {name for name, reason in ALLOWED.items() if reason == BENCH}
    assert sorted(bench - bench_wrapped()) == []
