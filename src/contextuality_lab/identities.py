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
(x, x, x, -x).  The module also provides the orientation reading that
compares the three subsystems' plane orientations induced by a map.

Every factor image is a signed in-plane basis vector, and it is held as what
it is: a one-slot signed blade of :mod:`contextuality_lab.systems`, ``+-e1``
or ``+-e2``.  A map keeps its six images, subsystem 1's own two first, in one
table, and the column lines are resolved once to positions in it.  So a
reduced line, a column product and a plane orientation are each a sign times
one blade: lines and columns are reduced by
:func:`contextuality_lab.systems.word`, the one kernel that multiplies words
of signed blades.  The dense 8-blade product gives the same values and is
kept as the test oracle (``tests/identities_oracle.py``).
"""

import functools
import itertools
from types import MappingProxyType

from . import systems
from .constraints import AXIS_INDEX, BELL_GHZ, ObservableProduct, builtin_constraints
from .ga import _Record
from .systems import TensorMultivector

IN_PLANE_AXES = (1, 2)


def in_plane_vector(label: str) -> TensorMultivector:
    """The one-slot signed blade a label such as ``e1``, ``+f1``, ``-g2`` or
    ``−e1`` names; the letters e, f and g all name the shared plane."""
    text = label.replace("−", "-").strip()
    sign = 1
    if text.startswith(("-", "+")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    if len(text) == 2 and text[0] in "efg" and text[1] in "12":
        return systems.generator(1, int(text[1]), sign)
    raise ValueError(f"cannot parse signed in-plane vector {label!r}")


class IdentityMap(_Record):
    """Signed-permutation images of the f and g in-plane generators.

    Each image is ``+-e1`` or ``+-e2`` of one slot.  Per subsystem the two
    images use distinct axes, so each substitution is an
    orthonormality-preserving signed permutation of the plane.  The private
    slot ``_images`` is the image table (e1, e2, f1, f2, g1, g2), indexed by
    :func:`_image_index`, that lookups, columns and orientations read.
    """

    __slots__ = ("f1", "f2", "g1", "g2", "_images")

    def __init__(
        self,
        f1: TensorMultivector,
        f2: TensorMultivector,
        g1: TensorMultivector,
        g2: TensorMultivector,
    ):
        for image in (f1, f2, g1, g2):
            if image not in _IN_PLANE:
                raise ValueError(f"image {image!r} is not +-e1 or +-e2 of one slot")
        if f1.key == f2.key:
            raise ValueError("f images must use distinct axes")
        if g1.key == g2.key:
            raise ValueError("g images must use distinct axes")
        super().__init__(f1, f2, g1, g2)
        object.__setattr__(self, "_images", (*_OWN_BASIS, f1, f2, g1, g2))

    def image(self, system: int, axis: int) -> TensorMultivector:
        """Where the in-plane generator of a subsystem lands in the shared copy."""
        return self._images[_image_index(system, axis)]

    def as_dict(self) -> dict:
        return {"f1": str(self.f1), "f2": str(self.f2), "g1": str(self.g1), "g2": str(self.g2)}


def _image_index(system: int, axis: int) -> int:
    """The position of a subsystem's in-plane generator in a map's image table."""
    if axis not in IN_PLANE_AXES:
        raise ValueError(f"axis {axis} outside the identified plane")
    if system not in (1, 2, 3):
        raise ValueError(f"system index {system} out of range 1..3")
    return 2 * system + axis - 3


#: Subsystem 1's own in-plane generators, the images of e1 and e2.
_OWN_BASIS = tuple(systems.generator(1, axis) for axis in IN_PLANE_AXES)
#: Every image a map may use: +-e1 and +-e2 of one slot.
_IN_PLANE = frozenset((*_OWN_BASIS, *(-x for x in _OWN_BASIS)))


def _signed_permutations():
    for first, second in ((1, 2), (2, 1)):
        for s1, s2 in itertools.product((1, -1), repeat=2):
            yield systems.generator(1, first, s1), systems.generator(1, second, s2)


def all_identity_maps() -> tuple:
    """All 64 valid maps, in a fixed lexicographic order."""
    pairs = tuple(_signed_permutations())
    return tuple(IdentityMap(*f, *g) for f in pairs for g in pairs)


#: f = g = e verbatim; the column pattern has its sign on the second line.
UNIFORM_MAP = IdentityMap(*_OWN_BASIS, *_OWN_BASIS)

#: f1 negated, everything else aligned; gives the column (e1, e1, e1, -e1).
NEGATED_F1_MAP = IdentityMap(-_OWN_BASIS[0], _OWN_BASIS[1], *_OWN_BASIS)


#: The four built-in Bell-GHZ lines as products, in the fixed (xyy, yxy, yyx,
#: xxx) order: each line's single-factor terms joined into one observable.
COLUMN_LINES = tuple(
    ObservableProduct(tuple(f for term in line.terms for f in term.factors))
    for line in builtin_constraints(BELL_GHZ).lines
)


def _line_indices(line: ObservableProduct) -> tuple:
    """A line's factors as positions in a map's image table."""
    return tuple(_image_index(f.system, AXIS_INDEX[f.axis]) for f in line.factors)


#: :data:`COLUMN_LINES` resolved once to image-table positions.
_COLUMN_INDICES = tuple(map(_line_indices, COLUMN_LINES))


class ColumnResult(_Record):
    """The four reduced line values, in (xyy, yxy, yyx, xxx) order."""

    __slots__ = ("entries", "product")

    def labels(self) -> tuple:
        return tuple(str(entry) for entry in self.entries)


def bell_ghz_column(imap: IdentityMap) -> ColumnResult:
    """Each line reduced over its positions in the map's image table."""
    image = imap._images.__getitem__
    entries = tuple(systems.word(map(image, line)) for line in _COLUMN_INDICES)
    return ColumnResult(entries, systems.word(entries))


@functools.cache
def columns() -> MappingProxyType:
    """The 64 maps, in :func:`all_identity_maps` order, to their columns: one
    read-only mapping per process, each column reduced once."""
    return MappingProxyType({imap: bell_ghz_column(imap) for imap in all_identity_maps()})


def find_identity_maps(x: TensorMultivector) -> tuple:
    """All maps whose column is (x, x, x, -x) for the given target x, a
    signed in-plane vector (see :func:`in_plane_vector`).

    Filters the 64 signed-permutation maps of :func:`columns`; the result is
    nonempty for every signed in-plane target.
    """
    wanted = (x, x, x, -x)
    return tuple(imap for imap, column in columns().items() if column.entries == wanted)


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
    return imap.image(system, first) * imap.image(system, second)


def orientation_reading(imap: IdentityMap) -> OrientationReading:
    return OrientationReading(
        (_orientation(imap, 1, 1, 2), _orientation(imap, 2, 2, 1), _orientation(imap, 3, 1, 2))
    )
