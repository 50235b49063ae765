"""Dense reference paths for the coplanar sweep, shared by the sweep tests.

The library evaluates the sweep on the even subalgebra span{1, e13} and
forms only the singlet-support entries of the spin Kronecker product.  The
helpers here take the long way round: dense 8-blade float multivectors for
F, and the full 16-entry Kronecker product for the singlet correlation.
Both are meant to agree with the library bit for bit, not approximately.
"""

from contextuality_lab.chsh import CoplanarConfig, gamma_vector

#: Singlet amplitudes over the basis ++, +-, -+, --, times sqrt(2).
SINGLET = (0, 1, -1, 0)


def components(config, name):
    """The (x, y, z) float components of one direction of a config."""
    coeffs = getattr(config, name).coeffs
    return (coeffs[1], coeffs[2], coeffs[4])


def dense_F(phi):
    """|scalar part| of the four-term combination, from dense multivectors."""
    return abs(gamma_vector(CoplanarConfig.at(phi)).scalar_part())


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
