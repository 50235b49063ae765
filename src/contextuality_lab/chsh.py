"""The coplanar four-direction correlation sweep.

Four measurement directions a, b, a', b' lie in one plane, parametrized by
an angle phi: a and b coincide, a' sits at 2*phi from b' and at phi from
both a and b.  The scalar combination a*b + a*b' + a'*b - a'*b' is bounded
by 2 when the four symbols take values in {+1, -1}.  When the symbols
instead take the direction vectors themselves as values and multiply
geometrically, the combination becomes an even multivector whose scalar
magnitude traces the curve F(phi) = |1 + 2 cos(phi) - cos(2 phi)|, peaking
at 5/2 for phi = pi/3.  The same curve comes out of quantum mechanics
through the singlet-state correlations: the sweep's qm_lhs column is that
cross-check, computed beside the F column at every angle.

The sweep runs on the even subalgebra span{1, e13}.  A unit vector of the
e1-e3 plane is the pair (cos t, sin t), and the product of two of them is
u(s)u(t) = cos(t - s) + sin(t - s) e13, whose scalar part is
c1*c2 + s1*s2.  The F column sums those scalar parts straight from the
``math.cos``/``math.sin`` values, in the order of the dense 8-blade float
product of the four directions; the qm_lhs column sums the four singlet
correlations (b is a, the y products drop out) in one pass over the same
columns.  b' = (cos 0, 0, sin 0) is exactly (1, 0, 0) and is folded in:
a*b' is c, E(a,b') is -c.  What this leaves out could change only the sign
of a zero, which the closing ``abs`` erases, so each value is bit-identical
to the dense product and to the complex Kronecker-product matrix mechanics.

The grid is evaluated in batches of :data:`BATCH_SIZE` angles, one pass of
``math.cos``/``math.sin`` each; a long sweep holds one batch at a time.  The
unit norms of a and a' are decided at every angle, b' once per sweep.
:func:`F` and :func:`quantum_lhs` are the one-angle case; :func:`scan_F`
takes the first strict maximum over the batches and, given a writer, writes
each batch's :data:`CSV_ROW` rows (the bytes ``csv.writer`` would give) with
one ``%`` and one call; :func:`csv_rows` yields them one by one.  The dense
multivectors and complex matrices are the test oracle (``tests/sweep_oracle.py``).
"""

import math
from itertools import chain, repeat

from .ga import _Record
from .quantum import UNIT_NORM_TOLERANCE, _check_units, _unit
from .quantum import singlet_correlation  # noqa: F401  (bench/tracing.py wraps this name)

CLASSICAL_BOUND = 2.0
VECTOR_BOUND = 2.5

CSV_HEADER = ("phi", "F", "qm_lhs", "classical_bound", "qm_bound")
#: One CSV data row from (phi, F, qm_lhs): nine decimals, then the two bounds
#: as ``repr`` gives them, with the ``\r\n`` ending of ``csv.writer``.
CSV_ROW = "%.9f,%.9f,%.9f," + f"{CLASSICAL_BOUND!r},{VECTOR_BOUND!r}\r\n"


#: Angles evaluated together by the sweep kernel; bounds the memory of a
#: long sweep, whatever its step count.
BATCH_SIZE = 1024


def _plane_columns(phis: list) -> tuple:
    """Cosine and sine columns of the directions a (= b) and a' over a list
    of sweep angles, one ``math.cos``/``math.sin`` value each."""
    doubles = [2.0 * phi for phi in phis]
    return (
        list(map(math.cos, phis)),
        list(map(math.sin, phis)),
        list(map(math.cos, doubles)),
        list(map(math.sin, doubles)),
    )


def _F_column(cs: list, ss: list, c2s: list, s2s: list) -> list:
    """|a*b + a*b' + a'*b - a'*b'| per angle from the plane columns: the
    scalar part of u(s)u(t) is c1*c2 + s1*s2, and the four products are
    summed in the order of the combination, b' = (1, 0) folded in."""
    return [abs((c * c + s * s) + c + (c2 * c + s2 * s) - c2)
            for c, s, c2, s2 in zip(cs, ss, c2s, s2s)]


def _singlet_column(cs: list, ss: list, c2s: list, s2s: list) -> list:
    """|E(a,b) + E(a,b') + E(a',b) - E(a',b')| per angle for a = b = (c, 0, s),
    a' = (c2, 0, s2) and b' = (1, 0, 0), in one pass over the plane columns.
    E(a,b) and E(a',b) keep :func:`singlet_correlation`'s float operations
    in order, without the y product (+0.0) and the closing ``+ 0.0``;
    E(a,b') is -c and E(a',b') is -c2."""
    return [
        abs(
            ((zz := s * -s) - (xy := c * c) - xy + zz) / 2.0
            - c
            + ((zz := s2 * -s) - (xy := c2 * c) - xy + zz) / 2.0
            + c2
        )
        for c, s, c2, s2 in zip(cs, ss, c2s, s2s)
    ]


def _qm_lhs_column(cs: list, ss: list, c2s: list, s2s: list) -> list:
    """The singlet column with the unit norms of a = (c, 0, s) and a' = (c2, 0, s2)
    decided at every angle in one pass by :func:`quantum._check_units`' rule;
    only a failing batch runs that check, a then a', to name the offender."""
    if not all([abs(c * c + s * s - 1.0) <= UNIT_NORM_TOLERANCE
                and abs(c2 * c2 + s2 * s2 - 1.0) <= UNIT_NORM_TOLERANCE
                for c, s, c2, s2 in zip(cs, ss, c2s, s2s)]):
        _check_units("a", cs, repeat(0.0), ss)
        _check_units("a_prime", c2s, repeat(0.0), s2s)
    return _singlet_column(cs, ss, c2s, s2s)


def _checked_b_prime() -> tuple:
    """The (x, z) of b' = (cos 0, 0, sin 0), checked: the (1.0, 0.0) folded in."""
    (x,), _, (z,) = _unit((math.cos(0.0), 0.0, math.sin(0.0)), "b_prime")
    return x, z


def F(phi: float) -> float:
    """Magnitude of the scalar part of the vector-valued combination: the
    one-angle case of the sweep's F column."""
    return _F_column(*_plane_columns([phi]))[0]


def quantum_lhs(phi: float) -> float:
    """The same four-term combination evaluated through the singlet-state
    correlations of the four directions, as (x, 0, z) triples: the one-angle
    case of the sweep's qm_lhs column."""
    _checked_b_prime()
    return _qm_lhs_column(*_plane_columns([phi]))[0]


class ScanResult(_Record):
    __slots__ = ("argmax", "maximum", "steps")


def check_grid(start: float, end: float, steps: int) -> None:
    """Raise ``ValueError`` unless ``start < end`` lie in [0, pi] and
    ``steps`` is at least 3."""
    if steps < 3:
        raise ValueError("grid needs at least 3 points")
    if not 0.0 <= start < end <= math.pi + 1e-9:
        raise ValueError(f"bad angle range [{start}, {end}]")


def sweep(start: float, end: float, steps: int, singlet: bool = True):
    """The ``steps`` evenly spaced angles from ``start`` to ``end`` inclusive,
    as (phis, F column, qm_lhs column) batches of at most ``BATCH_SIZE``
    angles in grid order; the qm_lhs column is None unless ``singlet``.
    Raises ``ValueError`` at once for a grid :func:`check_grid` rejects."""
    check_grid(start, end, steps)
    return _batches(start, (end - start) / (steps - 1), steps, singlet)


def _batches(start: float, spacing: float, steps: int, singlet: bool):
    if singlet:
        _checked_b_prime()
    for first in range(0, steps, BATCH_SIZE):
        phis = [start + k * spacing for k in range(first, min(first + BATCH_SIZE, steps))]
        plane = _plane_columns(phis)
        yield phis, _F_column(*plane), _qm_lhs_column(*plane) if singlet else None


def scan_F(steps: int, start: float = 0.0, end: float = math.pi, write=None) -> ScanResult:
    """Maximum of F over an inclusive grid of ``steps`` points; the first
    strict maximum wins.  Given ``write``, the grid is also rendered as CSV
    with its qm_lhs column: ``write`` gets the header, then one string of
    :data:`CSV_ROW` rows per batch, formatted by one ``%``."""
    batches = sweep(start, end, steps, singlet=write is not None)
    if write is not None:
        write(",".join(CSV_HEADER) + "\r\n")
    best_phi, best_value = start, -math.inf
    for phis, values, qm_lhs in batches:
        if write is not None:
            write((CSV_ROW * len(phis)) % tuple(chain.from_iterable(zip(phis, values, qm_lhs))))
        top = max(values)
        if top > best_value:
            best_phi, best_value = phis[values.index(top)], top
    return ScanResult(best_phi, best_value, steps)


def csv_rows(start: float, end: float, steps: int):
    """Yield (phi, F, qm_lhs, classical_bound, qm_bound) over the grid of
    :func:`scan_F`; a range or step count it rejects raises the same
    ``ValueError`` when the first row is drawn."""
    for phis, values, qm_lhs in sweep(start, end, steps):
        for row in zip(phis, values, qm_lhs):
            yield (*row, CLASSICAL_BOUND, VECTOR_BOUND)
