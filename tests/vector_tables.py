"""Vector-model tables for the tests, spelled as signs.

A ``constraints.VectorAssignment`` holds one signed generator of the joint
algebra per elementary symbol.  The tests that vary the signs of the
own-slot table name each symbol by its label and give its sign; every
generator of such a table is formed here.
"""

from contextuality_lab import systems
from contextuality_lab.constraints import AXES, SYMBOLS, VectorAssignment

LABELS = tuple(symbol.label for symbol in SYMBOLS)


def signed_table(n_systems: int, **signs: int) -> VectorAssignment:
    """The own-slot table of subsystems 1..n_systems: each symbol takes its
    axis's generator of its own slot.  A symbol given by label in ``signs``,
    such as ``x1=-1``, takes that sign, also beyond n_systems; every other
    symbol has no value."""
    assert set(signs) <= set(LABELS), signs
    table = dict.fromkeys(LABELS[: 3 * n_systems], 1) | signs
    return VectorAssignment(
        tuple(
            systems.generator(s.system, AXES.index(s.axis) + 1, table[s.label])
            if s.label in table else None
            for s in SYMBOLS
        )
    )
