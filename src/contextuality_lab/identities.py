"""Substitution of the second and third subsystem bases into the first.

When the bases of different subsystems are declared identical (up to sign
and a swap of the two in-plane axes), the joint algebra collapses: every
generator becomes a signed vector of one shared copy and cross-subsystem
factors genuinely anticommute where the single-copy algebra says so.  An
:class:`IdentityMap` records such a declaration for the in-plane axes 1 and
2 of subsystems 2 (letter f) and 3 (letter g); subsystem 1 keeps its own
basis.

Under any such map, the four-line single-particle system reduces line by
line to a signed basis vector, the four reduced values always multiply to
-1, and for every signed in-plane target x some map produces the column
(x, x, x, -x).  The module also provides the commutator witness showing why
identified bases cannot commute, and the orientation reading that compares
the three subsystems' plane orientations induced by a map.

Every factor image is a signed basis vector, held as a one-slot signed blade
of :mod:`contextuality_lab.systems`, so a reduced line, a column product and a
plane orientation are each a sign times one blade: lines and columns are
reduced by :func:`contextuality_lab.systems.word`, the one kernel that
multiplies words of signed blades.  The dense 8-blade product gives the same
values and is kept as the test oracle (``tests/identities_oracle.py``).
"""

from __future__ import annotations

import functools
import itertools

from . import systems
from .constraints import AXIS_INDEX, BELL_GHZ, ObservableProduct, builtin_constraints
from .ga import Multivector, _Record, basis_vector
from .systems import TensorMultivector

IN_PLANE_AXES = (1, 2)


class SignedAxisVector(_Record):
    """A signed in-plane basis vector of the shared copy, e.g. ``-e1``; its
    one-slot signed blade is formed once, as the private ``_blade``."""

    __slots__ = ("sign", "axis", "_blade")

    def __init__(self, sign: int, axis: int):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if axis not in IN_PLANE_AXES:
            raise ValueError(f"axis {axis} outside the identified plane")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "_blade", systems.generator(1, axis, 1, sign))

    @classmethod
    def parse(cls, label: str) -> "SignedAxisVector":
        text = label.replace("−", "-").strip()
        sign = 1
        if text.startswith(("-", "+")):
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        if len(text) == 2 and text[0] in "efg" and text[1] in "12":
            return cls(sign, int(text[1]))
        raise ValueError(f"cannot parse signed in-plane vector {label!r}")

    @property
    def label(self) -> str:
        return f"{'-' if self.sign < 0 else ''}e{self.axis}"

    def __str__(self) -> str:
        return self.label


class IdentityMap(_Record):
    """Signed-permutation images of the f and g in-plane generators.

    Per subsystem the two images use distinct axes, so each substitution is
    an orthonormality-preserving signed permutation of the plane.
    """

    __slots__ = ("f1", "f2", "g1", "g2")

    def __init__(
        self,
        f1: SignedAxisVector,
        f2: SignedAxisVector,
        g1: SignedAxisVector,
        g2: SignedAxisVector,
    ):
        if f1.axis == f2.axis:
            raise ValueError("f images must use distinct axes")
        if g1.axis == g2.axis:
            raise ValueError("g images must use distinct axes")
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)

    def image(self, system: int, axis: int) -> SignedAxisVector:
        """Where the in-plane generator of a subsystem lands in the shared copy."""
        if axis not in IN_PLANE_AXES:
            raise ValueError(f"axis {axis} outside the identified plane")
        if system == 1:
            return _OWN_BASIS[axis - 1]
        if system == 2:
            return self.f1 if axis == 1 else self.f2
        if system == 3:
            return self.g1 if axis == 1 else self.g2
        raise ValueError(f"system index {system} out of range 1..3")

    def as_dict(self) -> dict:
        return {
            "f1": self.f1.label,
            "f2": self.f2.label,
            "g1": self.g1.label,
            "g2": self.g2.label,
        }


#: Subsystem 1's own in-plane generators, the images of e1 and e2.
_OWN_BASIS = (SignedAxisVector(1, 1), SignedAxisVector(1, 2))


def _signed_permutations():
    for axes in ((1, 2), (2, 1)):
        for s1, s2 in itertools.product((1, -1), repeat=2):
            yield SignedAxisVector(s1, axes[0]), SignedAxisVector(s2, axes[1])


def all_identity_maps() -> tuple:
    """All 64 valid maps, in a fixed lexicographic order."""
    pairs = tuple(_signed_permutations())
    return tuple(IdentityMap(*f, *g) for f in pairs for g in pairs)


#: f = g = e verbatim; the column pattern has its sign on the second line.
UNIFORM_MAP = IdentityMap(*_OWN_BASIS, *_OWN_BASIS)

#: f1 negated, everything else aligned; gives the column (e1, e1, e1, -e1).
NEGATED_F1_MAP = IdentityMap(SignedAxisVector(-1, 1), _OWN_BASIS[1], *_OWN_BASIS)


#: The four built-in Bell-GHZ lines as products, in the fixed (xyy, yxy, yyx,
#: xxx) order: each line's single-factor terms joined into one observable.
COLUMN_LINES = tuple(
    ObservableProduct(tuple(f for term in line.terms for f in term.factors))
    for line in builtin_constraints(BELL_GHZ).lines
)


def _reduce_line(imap: IdentityMap, line: ObservableProduct) -> TensorMultivector:
    """The reduced word of one line: the product of its factors' images."""
    return systems.word(
        (imap.image(factor.system, AXIS_INDEX[factor.axis])._blade for factor in line.factors), 1
    )


class ColumnResult(_Record):
    """The four reduced line values, in (xyy, yxy, yyx, xxx) order."""

    __slots__ = ("entries", "product")

    def labels(self) -> tuple:
        return tuple(str(entry) for entry in self.entries)


def bell_ghz_column(imap: IdentityMap) -> ColumnResult:
    entries = tuple(_reduce_line(imap, line) for line in COLUMN_LINES)
    return ColumnResult(entries, systems.word(entries, 1))


@functools.cache
def columns() -> tuple:
    """The 64 ``(map, column)`` pairs in :func:`all_identity_maps` order,
    each column reduced once per process."""
    return tuple((imap, bell_ghz_column(imap)) for imap in all_identity_maps())


def find_identity_maps(target: SignedAxisVector) -> tuple:
    """All maps whose column is (x, x, x, -x) for the given target x.

    Filters the 64 signed-permutation maps of :func:`columns`; the result is
    nonempty for every signed in-plane target.
    """
    x = target._blade
    wanted = (x, x, x, -x)
    return tuple(imap for imap, column in columns() if column.entries == wanted)


def check_a3_incompatibility(i: int, j: int) -> Multivector:
    """Commutator witness for identified bases.

    With the second basis identified with the first, the commutator of e_i
    with the bivector e_i e_j is 2 e_j, never zero, so a generator cannot
    commute with the identified pair it now overlaps.
    """
    if i == j:
        raise ValueError("axes must be distinct")
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("axes must lie in 1..3")
    ei = basis_vector(i)
    bivector = ei * basis_vector(j)
    return ei * bivector - bivector * ei


# -- orientation reading ----------------------------------------------------


class OrientationReading(_Record):
    """The three subsystems' plane orientations induced by a map.

    Reading rule: subsystem 1 is assigned the orientation e1*e2.  Walking
    the column lines top-down, subsystem 2's generators are determined in
    the order (axis 2, axis 1), so its orientation is the image of f2*f1.
    The lines fix no determination order for subsystem 3 (its axis-2
    generator sits in the first two lines), so its orientation is the image
    of g1*g2 in axis order.
    """

    __slots__ = ("orientations",)

    def identical(self, a: int, b: int) -> bool:
        return self.orientations[a - 1] == self.orientations[b - 1]


def _orientation(imap: IdentityMap, system: int, first: int, second: int) -> TensorMultivector:
    return imap.image(system, first)._blade * imap.image(system, second)._blade


def orientation_reading(imap: IdentityMap) -> OrientationReading:
    return OrientationReading(
        (_orientation(imap, 1, 1, 2), _orientation(imap, 2, 2, 1), _orientation(imap, 3, 1, 2))
    )
