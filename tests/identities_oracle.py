"""Dense reference for the Bell-GHZ column reduction.

``contextuality_lab.identities`` reduces every line on signed blades: each
factor image is one signed basis vector, so a line word is a sign times one
blade.  The functions here compute the same values the long way, multiplying
full 8-blade multivectors through ``Multivector.__mul__``, and serve as the
oracle that the blade reduction must equal exactly.  :func:`handedness` is
the closed form of the orientation a map induces on a subsystem's plane.
"""

from contextuality_lab.constraints import AXIS_INDEX
from contextuality_lab.ga import EXACT, Multivector
from contextuality_lab.identities import COLUMN_LINES, ColumnResult


def dense_substitute_and_reduce(imap, line) -> Multivector:
    result = Multivector.scalar(1, EXACT)
    for factor in line.factors:
        image = imap.image(factor.system, AXIS_INDEX[factor.axis])
        result = result * image.to_multivector()
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
    first = imap.image(system, 1)
    second = imap.image(system, 2)
    permutation = 1 if first.axis == 1 else -1
    return permutation * first.sign * second.sign
