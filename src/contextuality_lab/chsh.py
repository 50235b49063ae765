"""The coplanar four-direction correlation sweep.

Four measurement directions a, b, a', b' lie in one plane, parametrized by
an angle phi: a and b coincide, a' sits at 2*phi from b' and at phi from
both a and b.  The scalar combination a*b + a*b' + a'*b - a'*b' is bounded
by 2 when the four symbols take values in {+1, -1}.  When the symbols
instead take the direction vectors themselves as values and multiply
geometrically, the combination becomes an even multivector whose scalar
magnitude traces the curve F(phi) = |1 + 2 cos(phi) - cos(2 phi)|, peaking
at 5/2 for phi = pi/3.  The same curve comes out of quantum mechanics
through the singlet-state correlations, which is the cross-check wired into
:func:`quantum_lhs`.

The sweep runs on the even subalgebra span{1, e13}.  A unit vector of the
e1-e3 plane is the pair (cos t, sin t), and the product of two of them is
u(s)u(t) = cos(t - s) + sin(t - s) e13, whose scalar part is
c1*c2 + s1*s2.  The F column sums those scalar parts straight from the
cosines and sines, in the same order and from the same ``math.cos``/
``math.sin`` values as the dense 8-blade float product of the four
directions, so each value is bit-identical to it.  The qm_lhs column sums
the four singlet correlations over the same four plane columns in one pass
per batch, b' given as its two checked components; with every y component
0 the y products drop out, and each value is bit-identical to the complex
Kronecker-product matrix mechanics; b is a.

The grid is evaluated in batches of :data:`BATCH_SIZE` angles: one pass of
``math.cos``/``math.sin`` per batch gives both columns, and a long sweep
holds one batch at a time.  The unit norm of a and a' is checked at every
angle; b' = (cos 0, 0, sin 0) is the same floats at every angle, so one
check per sweep is the same check.  :func:`F` and :func:`quantum_lhs` are
the one-angle case of this kernel; :func:`scan_F` takes the first strict
maximum over the batches and, given a writer, writes each batch's
:data:`CSV_ROW` rows (the bytes ``csv.writer`` would give), formatted
with one ``%`` and written in one call; :func:`csv_rows` yields the same
rows one by one.  The dense multivectors and the complex matrices are kept
only as the test oracle for the sweep (``tests/sweep_oracle.py``).
"""

from __future__ import annotations

import math
from itertools import chain, repeat

from .ga import _Record
from .quantum import _check_units, _unit
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

_FIRST_AXIS_PAIR = (math.cos(0.0), math.sin(0.0))


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
    summed in the order of the combination."""
    cp, sp = _FIRST_AXIS_PAIR
    return [
        abs((c * c + s * s) + (c * cp + s * sp) + (c2 * c + s2 * s) - (c2 * cp + s2 * sp))
        for c, s, c2, s2 in zip(cs, ss, c2s, s2s)
    ]


def _singlet_column(cs: list, ss: list, c2s: list, s2s: list, bpx: float, bpz: float) -> list:
    """|E(a,b) + E(a,b') + E(a',b) - E(a',b')| per angle for a = b = (c, 0, s),
    a' = (c2, 0, s2) and b' = (bpx, 0, bpz), in one pass over the plane
    columns.  Each E keeps :func:`singlet_correlation`'s float operations in
    order; its y product is +0.0 and is left out, which could change only
    the sign of an exact zero that the closing ``+ 0.0`` makes +0.0."""
    return [
        abs(
            ((zz := s * -s) - (xy := c * c) - xy + zz + 0.0) / 2.0
            + ((zz := s * -bpz) - (xy := c * bpx) - xy + zz + 0.0) / 2.0
            + ((zz := s2 * -s) - (xy := c2 * c) - xy + zz + 0.0) / 2.0
            - ((zz := s2 * -bpz) - (xy := c2 * bpx) - xy + zz + 0.0) / 2.0
        )
        for c, s, c2, s2 in zip(cs, ss, c2s, s2s)
    ]


def _qm_lhs_column(cs: list, ss: list, c2s: list, s2s: list, b_prime: tuple) -> list:
    """The singlet column with a = (c, 0, s) and a' = (c2, 0, s2) checked
    here at every angle, and ``b_prime`` the (x, z) of b' checked once per
    sweep by the caller."""
    _check_units("a", cs, repeat(0.0), ss)
    _check_units("a_prime", c2s, repeat(0.0), s2s)
    return _singlet_column(cs, ss, c2s, s2s, *b_prime)


def _checked_b_prime() -> tuple:
    """The (x, z) of b' = (cos 0, 0, sin 0), checked."""
    (x,), _, (z,) = _unit((_FIRST_AXIS_PAIR[0], 0.0, _FIRST_AXIS_PAIR[1]), "b_prime")
    return x, z


def F(phi: float) -> float:
    """Magnitude of the scalar part of the vector-valued combination: the
    one-angle case of the sweep's F column."""
    return _F_column(*_plane_columns([phi]))[0]


def quantum_lhs(phi: float) -> float:
    """The same four-term combination evaluated through the singlet-state
    correlations of the four directions, as (x, 0, z) triples: the one-angle
    case of the sweep's qm_lhs column."""
    return _qm_lhs_column(*_plane_columns([phi]), _checked_b_prime())[0]


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
    b_prime = _checked_b_prime() if singlet else None
    for first in range(0, steps, BATCH_SIZE):
        phis = [start + k * spacing for k in range(first, min(first + BATCH_SIZE, steps))]
        plane = _plane_columns(phis)
        yield phis, _F_column(*plane), _qm_lhs_column(*plane, b_prime) if singlet else None


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
