"""Exact finite-dimensional quantum mechanics, used as an independent oracle.

Single-site spin matrices are evaluated over the Gaussian rationals (complex
numbers with rational real and imaginary parts), so the relations tying the
spin algebra to matrix mechanics are decided exactly, with no floating point
in the loop.  The parts are exact rationals held as ``int`` and promoted to
``fractions.Fraction`` only for non-integer values, the same normalisation as
the coefficients of :mod:`contextuality_lab.ga`.

An n-site spin word is never built as a 2^n x 2^n matrix.  It is a Pauli
word ``(k, x, z)`` meaning i^k X^x Z^z: a phase exponent mod 4 and one x bit
and one z bit per subsystem, subsystem 1 in the most significant bit (the
order of the basis kets below).  Products, commutation and the action on
basis kets then take an XOR and a popcount (Aaronson & Gottesman,
quant-ph/0406196; Dehaene & De Moor, PRA 68, 042318 (2003)), so every line
identity, commutation and eigenstate claim stays exact.  State vectors carry
their squared-norm denominator symbolically: the three-particle states used
here hold integer amplitudes scaled by 1/sqrt(2), and eigenvalue equations
never need the irrational factor itself.

The floating-point path is the singlet correlation: :func:`singlet_correlation`
behind the sampled ``states.singlet`` check, and :func:`singlet_chsh`, the
four-term combination behind the sweep's ``qm_lhs`` column, which checks
each distinct direction once.  Both share one unit-norm check and one
formula, the real-arithmetic reduction, equal bit for bit, of the complex
4 x 4 Kronecker product kept as the test oracle in ``tests/sweep_oracle.py``.
"""

from __future__ import annotations

from fractions import Fraction

from .constraints import ObservableProduct
from .ga import EXACT, _coerce, _Record


class GaussianRational(_Record):
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("real", "imag")

    @classmethod
    def of(cls, real=0, imag=0) -> "GaussianRational":
        return cls(_coerce(real, EXACT), _coerce(imag, EXACT))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.real, -self.imag)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.real * other.real - self.imag * other.imag,
                self.real * other.imag + self.imag * other.real,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.real * other, self.imag * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag)

    def __bool__(self) -> bool:
        return bool(self.real or self.imag)

    def __str__(self) -> str:
        return f"{self.real}{'+' if self.imag >= 0 else ''}{self.imag}i"


ZERO = GaussianRational.of(0)
ONE = GaussianRational.of(1)
I = GaussianRational.of(0, 1)


class ComplexMatrix(_Record):
    """A square matrix over the Gaussian rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        size = len(entries)
        if any(len(row) != size for row in entries):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, dim: int) -> "ComplexMatrix":
        return cls(
            tuple(
                tuple(ONE if r == c else ZERO for c in range(dim)) for r in range(dim)
            )
        )

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        # spin words are one-nonzero-per-row sparse; skip zero entries
        rows = []
        for row in self.entries:
            acc = [ZERO] * self.dim
            for k, a in enumerate(row):
                if a:
                    for c, b in enumerate(other.entries[k]):
                        if b:
                            acc[c] = acc[c] + a * b
            rows.append(tuple(acc))
        return ComplexMatrix(tuple(rows))

    def __add__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return ComplexMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def scale(self, factor) -> "ComplexMatrix":
        if not isinstance(factor, GaussianRational):
            factor = GaussianRational.of(factor)
        return ComplexMatrix(
            tuple(tuple(factor * v for v in row) for row in self.entries)
        )

    def kron(self, other: "ComplexMatrix") -> "ComplexMatrix":
        rows = []
        for ra in self.entries:
            for rb in other.entries:
                rows.append(tuple(a * b for a in ra for b in rb))
        return ComplexMatrix(tuple(rows))


def pauli(axis: str) -> ComplexMatrix:
    """The 2x2 spin matrix for axis x, y or z, in the z-diagonal basis."""
    if axis == "x":
        return ComplexMatrix(((ZERO, ONE), (ONE, ZERO)))
    if axis == "y":
        return ComplexMatrix(((ZERO, -I), (I, ZERO)))
    if axis == "z":
        return ComplexMatrix(((ONE, ZERO), (ZERO, -ONE)))
    raise ValueError(f"axis {axis!r} not one of x, y, z")


def anticommutator(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    return (a @ b) + (b @ a)


# -- Pauli words ------------------------------------------------------------

#: i^k for k = 0, 1, 2, 3.
PHASES = (ONE, I, -ONE, -I)
#: The word i^0 X^0 Z^0, the identity on any number of subsystems.
IDENTITY_WORD = (0, 0, 0)


def pauli_word(product: ObservableProduct, n: int) -> tuple:
    """The product's n-site word ``(k, x, z)``, meaning i^k X^x Z^z.

    Subsystem s sets bit n - s of the masks: x sets the x bit, z the z bit,
    and y both bits plus one to k, since Y = iXZ.  Factors sit on distinct
    subsystems, so their order does not matter.
    """
    highest = max(f.system for f in product.factors)
    if highest > n:
        raise ValueError(f"observable {product.label} needs {highest} systems, have {n}")
    k = x = z = 0
    for factor in product.factors:
        bit = 1 << (n - factor.system)
        if factor.axis != "z":
            x |= bit
        if factor.axis != "x":
            z |= bit
        if factor.axis == "y":
            k += 1
    return k, x, z


def word_product(a: tuple, b: tuple) -> tuple:
    """The word of the operator product a b: moving Z^z1 past X^x2 gives one
    sign per subsystem where both are set, since ZX = -XZ."""
    k1, x1, z1 = a
    k2, x2, z2 = b
    return (k1 + k2 + 2 * (z1 & x2).bit_count()) % 4, x1 ^ x2, z1 ^ z2


def words_commute(a: tuple, b: tuple) -> bool:
    """Two words commute when they anticommute on an even number of sites."""
    _, x1, z1 = a
    _, x2, z2 = b
    return (x1 & z2 ^ z1 & x2).bit_count() % 2 == 0


def apply_word(word: tuple, ket: int) -> tuple:
    """The word sends basis ket b to i^k (-1)^|z & b| |b ^ x>; returns that
    phase exponent mod 4 and the image ket."""
    k, x, z = word
    return (k + 2 * (z & ket).bit_count()) % 4, ket ^ x


def verify_operator_identities(cs) -> tuple:
    """Check, per line, that the product of the member operators is the
    required sign times the identity.  Returns one boolean per line."""
    n = cs.n_systems
    results = []
    for line in cs.lines:
        word = IDENTITY_WORD
        for term in line.terms:
            word = word_product(word, pauli_word(term, n))
        results.append(word == (0 if line.required == 1 else 2, 0, 0))
    return tuple(results)


# -- states ----------------------------------------------------------------


class StateVector(_Record):
    """Amplitudes scaled by 1/sqrt(norm2): the stored squared norm of the
    amplitude tuple must equal ``norm2``, so the physical norm is exactly 1."""

    __slots__ = ("amplitudes", "norm2")

    def __init__(self, amplitudes: tuple, norm2: int):
        total = sum(
            (a * a.conjugate() for a in amplitudes), ZERO
        )
        if total != GaussianRational.of(norm2):
            raise ValueError("squared amplitude sum does not match norm2")
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "norm2", norm2)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


def _basis_state(pattern: str) -> int:
    """Index of a +/- ket string; subsystem 1 is the most significant bit
    and the minus component maps to bit 1."""
    index = 0
    for ch in pattern:
        index = (index << 1) | (1 if ch == "-" else 0)
    return index


def ket_combination(terms: dict, norm2: int, dim: int) -> StateVector:
    """Build a state from pattern -> integer amplitude entries."""
    amps = [ZERO] * dim
    for pattern, value in terms.items():
        amps[_basis_state(pattern)] = GaussianRational.of(value)
    return StateVector(tuple(amps), norm2)


def ghz_state() -> StateVector:
    """The symmetric three-particle state with amplitudes (+++) - (---),
    scaled by 1/sqrt(2)."""
    return ket_combination({"+++": 1, "---": -1}, 2, 8)


def alternating_ghz_state() -> StateVector:
    """The three-particle state with amplitudes (+-+) + (-+-), scaled by
    1/sqrt(2); it treats the middle subsystem unlike the outer two."""
    return ket_combination({"+-+": 1, "-+-": 1}, 2, 8)


def eigencheck(state: StateVector, product: ObservableProduct, eigenvalue: int, n: int) -> bool:
    """Exact test of M state == eigenvalue state; the hidden 1/sqrt(norm2)
    cancels on both sides.  M permutes the basis kets up to phases, so each
    nonzero amplitude is compared with the one its image ket carries.  The
    ket map b -> b ^ x is an involution, so a zero amplitude whose image is
    nonzero shows up as a nonzero amplitude whose image is zero."""
    word = pauli_word(product, n)
    if 2 ** n != state.dim:
        raise ValueError(f"dimension mismatch: {2 ** n} vs {state.dim}")
    amplitudes = state.amplitudes
    for ket, amp in enumerate(amplitudes):
        if amp:
            k, image = apply_word(word, ket)
            if PHASES[k] * amp != amplitudes[image] * eigenvalue:
                return False
    return True


def is_eigenstate(state: StateVector, product: ObservableProduct, n: int) -> bool:
    return any(eigencheck(state, product, value, n) for value in (1, -1))


# -- singlet correlation (float path) ------------------------------------------

#: How far a direction's squared norm may stray from 1.
UNIT_NORM_TOLERANCE = 1e-11


def _unit(v, name: str) -> tuple:
    """The float components of direction ``v``; ``ValueError`` naming it
    unless its squared norm is within ``UNIT_NORM_TOLERANCE`` of 1 (a NaN
    component fails too)."""
    x, y, z = map(float, v)
    norm2 = x ** 2 + y ** 2 + z ** 2
    if not abs(norm2 - 1.0) <= UNIT_NORM_TOLERANCE:
        raise ValueError(f"direction {name} is not a unit vector (|{name}|^2={norm2})")
    return x, y, z


def _correlation(a: tuple, b: tuple) -> float:
    """The singlet correlation of two checked directions; see
    :func:`singlet_correlation`."""
    ax, ay, az = a
    bx, by, bz = b
    zz = az * -bz
    xy = ax * bx + ay * by
    return (zz - xy - xy + zz + 0.0) / 2.0


def singlet_correlation(a, b) -> float:
    """Expectation of (spin along a)x(spin along b) in the two-particle
    singlet state; equals minus the dot product of the unit vectors.

    Spin along (x, y, z) is [[z, x - iy], [x + iy, -z]].  The singlet
    amplitudes (0, 1, -1, 0)/sqrt(2) vanish outside the support {+-, -+}, so
    only the four Kronecker entries there enter, with signs (+, -, -, +) and
    weight 1/2.  Their real parts are az * -bz on the diagonal and
    ax*bx + ay*by off it, summed in the complex product's order; ``+ 0.0``
    gives an exactly cancelling sum the complex product's sign of zero.
    """
    return _correlation(_unit(a, "a"), _unit(b, "b"))


def singlet_chsh(a, a_prime, b, b_prime) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') of :func:`singlet_correlation`,
    summed in that order, with each direction checked once (``b is a``
    reuses the check of ``a``)."""
    va = _unit(a, "a")
    vap = _unit(a_prime, "a_prime")
    vb = va if b is a else _unit(b, "b")
    vbp = _unit(b_prime, "b_prime")
    return (
        _correlation(va, vb)
        + _correlation(va, vbp)
        + _correlation(vap, vb)
        - _correlation(vap, vbp)
    )
