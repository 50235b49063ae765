"""Dense reference paths for the coplanar sweep, shared by the sweep tests.

The library evaluates the sweep on the even subalgebra span{1, e13} and
forms only the singlet-support entries of the spin Kronecker product.  The
helpers here take the long way round: dense 8-blade float multivectors for
F, and the full 16-entry Kronecker product for the singlet correlation.
They are meant to agree with the library bit for bit, not approximately.
The 16 sign cases of the classical combination are enumerated here too.
"""

import itertools
import math
from dataclasses import dataclass

from contextuality_lab.ga import APPROX, EXACT, Multivector


def _plane_vector(angle):
    """Unit vector e1*cos(angle) + e3*sin(angle) as a float multivector."""
    return Multivector(
        (0.0, math.cos(angle), 0.0, 0.0, math.sin(angle), 0.0, 0.0, 0.0), APPROX
    )


_FIRST_AXIS = _plane_vector(0.0)


@dataclass(frozen=True)
class CoplanarConfig:
    """The four coplanar directions for one sweep angle."""

    phi: float
    a: Multivector
    b: Multivector
    a_prime: Multivector
    b_prime: Multivector

    @classmethod
    def at(cls, phi):
        a = _plane_vector(phi)
        return cls(
            phi=phi,
            a=a,
            b=a,
            a_prime=_plane_vector(2.0 * phi),
            b_prime=_FIRST_AXIS,
        )


def gamma_vector(config):
    """The vector-valued combination a*b + a*b' + a'*b - a'*b'.

    All four summands are geometric products of in-plane unit vectors, so
    the result is even: a scalar plus an e13 bivector component.
    """
    return (
        config.a * config.b
        + config.a * config.b_prime
        + config.a_prime * config.b
        - config.a_prime * config.b_prime
    )


def grade_projection(mv, grade):
    """Keep only the blades of ``mv`` of the given grade (0..3)."""
    if not 0 <= grade <= 3:
        raise ValueError(f"grade {grade} out of range 0..3")
    zero = 0 if mv.mode == EXACT else 0.0
    return Multivector(
        tuple(a if mask.bit_count() == grade else zero for mask, a in enumerate(mv.coeffs)),
        mv.mode,
    )


def classical_gamma_enumeration():
    """All 16 sign assignments (a, a', b, b') with the value of
    a*b + a*b' + a'*b - a'*b'; each is +-2."""
    return tuple(
        ((a, ap, b, bp), a * b + a * bp + ap * b - ap * bp)
        for a, ap, b, bp in itertools.product((1, -1), repeat=4)
    )


#: Singlet amplitudes over the basis ++, +-, -+, --, times sqrt(2).
SINGLET = (0, 1, -1, 0)

#: The six unit axes with every sign of each zero component, whose exact
#: cancellations must keep the complex product's sign of zero.
SIGNED_AXES = tuple(
    (*zeros[:axis], one, *zeros[axis:])
    for axis, one in itertools.product(range(3), (1.0, -1.0))
    for zeros in itertools.product((0.0, -0.0), repeat=2)
)


def components(config, name):
    """The (x, y, z) float components of one direction of a config."""
    coeffs = getattr(config, name).coeffs
    return (coeffs[1], coeffs[2], coeffs[4])


def dense_F(phi):
    """|scalar part| of the four-term combination, from dense multivectors."""
    return abs(gamma_vector(CoplanarConfig.at(phi)).coeffs[0])


def spin_matrix(direction):
    """sigma . direction as a 2 x 2 complex matrix, rows and columns (+, -)."""
    x, y, z = (float(c) for c in direction)
    return [[complex(z, 0), complex(x, -y)], [complex(x, y), complex(-z, 0)]]


def kron_singlet_correlation(a, b):
    """<singlet| (sigma.a) x (sigma.b) |singlet> from the full 4 x 4 Kronecker
    product, summed over every entry in row-major order."""
    ma, mb = spin_matrix(a), spin_matrix(b)
    kron = [[ma[r // 2][c // 2] * mb[r % 2][c % 2] for c in range(4)] for r in range(4)]
    value = 0j
    for r in range(4):
        for c in range(4):
            if SINGLET[r] and SINGLET[c]:
                value += SINGLET[r] * SINGLET[c] * kron[r][c]
    return (value / 2.0).real


def dense_quantum_lhs(phi):
    """The four-term singlet combination over the dense config's directions."""
    config = CoplanarConfig.at(phi)
    a, b, ap, bp = (components(config, n) for n in ("a", "b", "a_prime", "b_prime"))
    return abs(
        kron_singlet_correlation(a, b)
        + kron_singlet_correlation(a, bp)
        + kron_singlet_correlation(ap, b)
        - kron_singlet_correlation(ap, bp)
    )
