"""The package runs on the standard library alone, reads no environment, and
parses text only in its two input readers.

Every module under ``src/contextuality_lab`` is parsed, not imported, so an
import behind a guard or inside a function is seen too.
"""

import ast
import sys
from pathlib import Path

import pytest

import contextuality_lab

PACKAGE = "contextuality_lab"
MODULES = sorted(Path(contextuality_lab.__file__).parent.glob("*.py"))
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
