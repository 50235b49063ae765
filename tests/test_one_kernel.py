"""One blade kernel: only ``ga`` and ``systems`` multiply basis blades.

``ga`` holds the blade product (``blade_product``, its table ``CAYLEY``),
the dense coefficient kernel ``_product`` that ``*`` and ``ga.word`` share,
and the dense result path ``_multivector``; ``systems`` reduces every word
of signed blades through ``blade_product``.  Every other module forms its
values through those two.  ``ast`` reads each module of
``src/contextuality_lab`` and collects the names it binds, imports, loads or
reads as attributes; the kernel names may appear only in the two kernel
modules.  ``identities`` holds its values as ``systems`` signed blades, so
it takes nothing from ``ga`` but the record base ``_Record``.
"""

import ast
from pathlib import Path

import contextuality_lab

PACKAGE_DIR = Path(contextuality_lab.__file__).resolve().parent
KERNEL_NAMES = {"CAYLEY", "blade_product", "_product", "_multivector"}
KERNEL_MODULES = {"ga.py", "systems.py"}


def names(tree) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_only_ga_and_systems_name_the_blade_kernel():
    named = {
        path.name: KERNEL_NAMES & names(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    assert {module: kernel for module, kernel in named.items()
            if kernel and module not in KERNEL_MODULES} == {}
    # the walk sees the kernel where it lives
    assert named["ga.py"] == KERNEL_NAMES
    assert named["systems.py"] == {"blade_product"}


def test_the_walk_sees_every_way_of_naming():
    source = (
        "from .ga import CAYLEY as table\nimport x\nx.blade_product(1, 2)\n"
        "_multivector = 1\ndef _product(): pass\n"
    )
    assert KERNEL_NAMES <= names(ast.parse(source))


def test_identities_takes_only_the_record_base_from_ga():
    tree = ast.parse((PACKAGE_DIR / "identities.py").read_text(encoding="utf-8"))
    from_ga = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "ga"
        for alias in node.names
    ]
    assert from_ga == ["_Record"]
    # no ``from . import ga``, ``import ...ga`` or ``ga.name`` either
    assert "ga" not in names(tree)
