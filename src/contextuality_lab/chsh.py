"""The coplanar four-direction correlation sweep.

Four measurement directions a, b, a', b' lie in one plane, parametrized by
an angle phi: a and b coincide, a' sits at 2*phi from b' and at phi from
both a and b.  The scalar combination a*b + a*b' + a'*b - a'*b' is bounded
by 2 when the four symbols take values in {+1, -1}; that bound is checked
here by enumerating all 16 assignments.  When the symbols instead take the
direction vectors themselves as values and multiply geometrically, the
combination becomes an even multivector whose scalar magnitude traces the
curve F(phi) = |1 + 2 cos(phi) - cos(2 phi)|, peaking at 5/2 for
phi = pi/3.  The same curve comes out of quantum mechanics through the
singlet-state correlations, which is the cross-check wired into
:func:`quantum_lhs`.

The sweep runs on the even subalgebra span{1, e13}.  A unit vector of the
e1-e3 plane is the pair (cos t, sin t), and the product of two of them is
u(s)u(t) = cos(t - s) + sin(t - s) e13, whose scalar part is
c1*c2 + s1*s2.  :func:`F` sums those scalar parts straight from the cosines
and sines, in the same order and from the same ``math.cos``/``math.sin``
values as the dense 8-blade float product of the four directions, so each
value is bit-identical to it; :func:`non_collinearity_witness` reads the
same pairs.  Likewise the singlet side is one :func:`quantum.singlet_chsh`
call per angle, in real arithmetic and bit-identical to the complex
Kronecker-product matrix mechanics; b is a, so it checks three directions.
:data:`CSV_ROW` renders a row of :func:`csv_rows` as ``csv.writer`` would.
The dense multivectors and the complex matrices are kept only as the test
oracle for the sweep (``tests/sweep_oracle.py``).
"""

from __future__ import annotations

import itertools
import math

from .ga import DEFAULT_TOLERANCE, _Record
from .quantum import singlet_chsh
from .quantum import singlet_correlation  # noqa: F401  (bench/tracing.py wraps this name)

CLASSICAL_BOUND = 2.0
VECTOR_BOUND = 2.5

CSV_HEADER = ("phi", "F", "qm_lhs", "classical_bound", "qm_bound")
#: One CSV data row from (phi, F, qm_lhs): nine decimals, then the two bounds
#: as ``repr`` gives them, with the ``\r\n`` ending of ``csv.writer``.
CSV_ROW = "%.9f,%.9f,%.9f," + f"{CLASSICAL_BOUND!r},{VECTOR_BOUND!r}\r\n"


_FIRST_AXIS_PAIR = (math.cos(0.0), math.sin(0.0))


def classical_gamma_enumeration() -> tuple:
    """All 16 sign assignments with their combination value; each is +-2."""
    rows = []
    for a, ap, b, bp in itertools.product((1, -1), repeat=4):
        gamma = a * b + a * bp + ap * b - ap * bp
        rows.append(((a, ap, b, bp), gamma))
    return tuple(rows)


def _plane_pairs(phi: float) -> tuple:
    """(cos, sin) of the directions a (= b), a' and b' at one sweep angle."""
    a = (math.cos(phi), math.sin(phi))
    a_prime = (math.cos(2.0 * phi), math.sin(2.0 * phi))
    return a, a_prime, _FIRST_AXIS_PAIR


def F(phi: float) -> float:
    """Magnitude of the scalar part of the vector-valued combination.

    The scalar part of u(s)u(t) is c1*c2 + s1*s2; the four products are
    summed in the order of the combination a*b + a*b' + a'*b - a'*b'.
    """
    (c, s), (c2, s2), (cp, sp) = _plane_pairs(phi)
    ab = c * c + s * s
    abp = c * cp + s * sp
    apb = c2 * c + s2 * s
    apbp = c2 * cp + s2 * sp
    return abs(ab + abp + apb - apbp)


class ScanResult(_Record):
    __slots__ = ("argmax", "maximum", "steps")


def check_grid(start: float, end: float, steps: int) -> None:
    """Raise ``ValueError`` unless ``start < end`` lie in [0, pi] and
    ``steps`` is at least 3."""
    if steps < 3:
        raise ValueError("grid needs at least 3 points")
    if not 0.0 <= start < end <= math.pi + 1e-9:
        raise ValueError(f"bad angle range [{start}, {end}]")


def _grid(start: float, end: float, steps: int):
    """The ``steps`` evenly spaced angles from ``start`` to ``end`` inclusive,
    after :func:`check_grid`."""
    check_grid(start, end, steps)
    spacing = (end - start) / (steps - 1)
    return (start + k * spacing for k in range(steps))


def scan_F(steps: int, start: float = 0.0, end: float = math.pi) -> ScanResult:
    """Maximum of F over an inclusive grid of ``steps`` points."""
    best_phi = start
    best_value = -math.inf
    for phi in _grid(start, end, steps):
        value = F(phi)
        if value > best_value:
            best_value = value
            best_phi = phi
    return ScanResult(best_phi, best_value, steps)


def quantum_lhs(phi: float) -> float:
    """The same four-term combination evaluated through the singlet-state
    correlations of the four directions, as (x, 0, z) triples; b is a, so
    three directions are checked."""
    (c, s), (c2, s2), (cp, sp) = _plane_pairs(phi)
    a = (c, 0.0, s)
    return abs(singlet_chsh(a, (c2, 0.0, s2), a, (cp, 0.0, sp)))


def non_collinearity_witness(phi: float, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """For interior angles, neither b + b' nor b - b' vanishes, which is
    what blocks the factored scalar argument for the value 2 bound.

    A sum vanishes when both its (cos, sin) components are within
    ``tolerance`` of zero; the other blades of the two vectors are zero.
    """
    (c, s), _, (cp, sp) = _plane_pairs(phi)
    plus_zero = abs(c + cp) <= tolerance and abs(s + sp) <= tolerance
    minus_zero = abs(c - cp) <= tolerance and abs(s - sp) <= tolerance
    return not plus_zero and not minus_zero


def csv_rows(start: float, end: float, steps: int):
    """Yield (phi, F, qm_lhs, classical_bound, qm_bound) over the grid of
    :func:`scan_F`; a range or step count it rejects raises the same
    ``ValueError`` when the first row is drawn."""
    for phi in _grid(start, end, steps):
        yield (phi, F(phi), quantum_lhs(phi), CLASSICAL_BOUND, VECTOR_BOUND)
