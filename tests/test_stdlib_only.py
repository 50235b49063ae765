"""The package runs on the standard library alone, reads no environment,
parses text only in its two input readers, and loads no more of the standard
library than its commands use.

Every module under ``src/contextuality_lab`` is parsed, not imported, so an
import behind a guard or inside a function is seen too.  What a command
loads is read from ``sys.modules`` of a fresh ``python -I -S`` interpreter,
where no site hook has imported anything ahead of the package.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import contextuality_lab
from contextuality_lab.constraints import builtin_constraints
from constraint_documents import document

PACKAGE = "contextuality_lab"
SRC = Path(contextuality_lab.__file__).parent.parent
MODULES = sorted(Path(contextuality_lab.__file__).parent.glob("*.py"))
#: Modules no command needs: exact coefficients are ``int``, so nothing
#: forms a ``Fraction`` (``fractions`` brings ``decimal`` and ``numbers``),
#: nothing is typed at run time, annotations are evaluated as written (no
#: ``__future__``), and argv is read from ``cli.COMMANDS``, not by
#: ``argparse`` (which brings ``gettext``), help included.
UNUSED_MODULES = ("fractions", "decimal", "numbers", "typing", "argparse", "gettext", "__future__")
#: ``json`` and what it brings: reports are written without it, so only a
#: command that reads a ``--constraints`` document loads it.
JSON_MODULES = ("json", "json.decoder", "json.encoder", "json.scanner", "_json", "re", "enum")
ENVIRONMENT_READS = {"environ", "environb", "getenv"}
INPUT_READERS = {"cli", "constraints"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def top_level_imports(path) -> set:
    """Top-level names of the absolute imports anywhere in the module."""
    imported = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "checks", "ga"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_stdlib_or_the_package(path):
    assert top_level_imports(path) - sys.stdlib_module_names - {PACKAGE} == set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_an_unused_module(path):
    assert top_level_imports(path) & set(UNUSED_MODULES) == set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_input_readers_import_json_or_re(path):
    """The program's text inputs are argv and the ``--constraints`` document,
    read by ``cli`` and ``constraints``; no other module parses text."""
    if path.stem not in INPUT_READERS:
        assert top_level_imports(path) & {"json", "re"} == set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_reads_the_environment(path):
    reads = []
    for node in ast.walk(parse(path)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT_READS
        ):
            reads.append(f"{path.name}:{node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads.extend(
                f"{path.name}:{node.lineno}: from os import {alias.name}"
                for alias in node.names
                if alias.name in ENVIRONMENT_READS
            )
    assert reads == []


def run_fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` in a fresh ``python -I -S`` interpreter with the
    package's source directory as ``sys.argv[1]``."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


COMMAND_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from contextuality_lab.cli import main
try:
    code = main(sys.argv[3:])
except SystemExit as exc:
    code = exc.code
print(code, *(name for name in sys.argv[2].split(",") if name in sys.modules))
"""

#: (case name, argv, exit code, whether it loads :data:`JSON_MODULES`);
#: ``{doc}`` and ``{out}`` stand for a constraint document and an output path
#: in the test's directory.
COMMANDS = [
    ("verify-all-exact", ["verify", "all"], 0, False),
    ("verify-all-approx", ["verify", "all", "--mode", "approx"], 0, False),
    ("verify-pm-constraints", ["verify", "pm", "--constraints", "{doc}", "--out", "{out}"], 0, True),
    ("chsh-csv", ["chsh", "0", "3.14159265", "2049", "--csv", "{out}"], 0, False),
    ("search-identities-minus-e1", ["search-identities", "-e1"], 0, False),
    ("usage-error", ["verify", "everything"], 2, False),
    ("verify-help", ["verify", "-h"], 0, False),
    ("unrecognized-option", ["verify", "all", "--bogus"], 2, False),
]


@pytest.mark.parametrize(
    "argv,code,loads_json", [c[1:] for c in COMMANDS], ids=[c[0] for c in COMMANDS]
)
def test_commands_load_no_unused_module(argv, code, loads_json, tmp_path):
    doc = tmp_path / "pm.json"
    doc.write_text(json.dumps(document(builtin_constraints("pm"))), encoding="utf-8")
    places = {"{doc}": str(doc), "{out}": str(tmp_path / "out")}
    argv = [places.get(arg, arg) for arg in argv]
    watched = ",".join(UNUSED_MODULES + JSON_MODULES)
    last = run_fresh(COMMAND_CODE, watched, *argv).splitlines()[-1]
    assert last.split() == [str(code), *(JSON_MODULES if loads_json else ())]


def test_chsh_loads_no_constraint_module():
    """``chsh`` reaches ``quantum``, which names ``constraints`` types in its
    annotations only, so importing it loads neither the constraint layer nor
    the joint algebra nor ``json``."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import contextuality_lab.chsh\n"
        "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))\n"
    )
    unused = ("contextuality_lab.constraints", "contextuality_lab.systems", "json")
    assert run_fresh(code, *unused).split() == []
