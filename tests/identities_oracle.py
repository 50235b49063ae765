"""Dense reference for the Bell-GHZ column reduction.

``contextuality_lab.identities`` holds every factor image as a one-slot
signed blade of ``contextuality_lab.systems``, in one vector-model table per
map; lines reduce through ``constraints.evaluate_vector_model``, and columns
and plane orientations through the signed-blade product.  The functions here compute the same values the long way: each image is
rebuilt from its sign and key as a full 8-blade multivector, and words
multiply through ``Multivector.__mul__``.  :func:`dense` turns a one-slot
signed blade into the same dense form, so the kernel's values are compared
with the oracle's exactly.  :func:`handedness` is the closed form of the
orientation a map induces on a subsystem's plane.
"""

from contextuality_lab.ga import EXACT, Multivector, basis_vector
from contextuality_lab.identities import COLUMN_LINES, ColumnResult


def dense(blade) -> Multivector:
    """A one-slot signed blade as a dense multivector; a blade reaching
    beyond slot 1 is refused."""
    assert blade.key < 8, blade
    return Multivector.from_blades({blade.key: blade.sign})


def dense_column(column: ColumnResult) -> ColumnResult:
    """A column of signed blades with each value made dense."""
    return ColumnResult(tuple(map(dense, column.entries)), dense(column.product))


def dense_image(image) -> Multivector:
    """A signed in-plane vector rebuilt from its sign and key alone: the key
    of ``e_axis`` is the bit ``1 << axis - 1``."""
    return basis_vector(image.key.bit_length()).scale(image.sign)


def dense_substitute_and_reduce(imap, line) -> Multivector:
    result = Multivector.scalar(1, EXACT)
    for factor in line.factors:
        result = result * dense_image(imap.image(factor.system, factor.axis))
    return result


def dense_bell_ghz_column(imap) -> ColumnResult:
    entries = tuple(dense_substitute_and_reduce(imap, line) for line in COLUMN_LINES)
    product = Multivector.scalar(1, EXACT)
    for entry in entries:
        product = product * entry
    return ColumnResult(entries, product)


def handedness(imap, system) -> int:
    """Sign of the plane orientation that ``imap`` induces on a subsystem:
    permutation parity times the product of the image signs.  +1 means the
    substituted axis-order bivector equals +e12, -1 means it equals -e12."""
    first = imap.image(system, "x")
    second = imap.image(system, "y")
    permutation = 1 if first.key == 1 else -1
    return permutation * first.sign * second.sign
