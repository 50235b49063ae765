"""Exact finite-dimensional quantum mechanics, used as an independent oracle.

Spin matrices and their tensor words are evaluated over the Gaussian
rationals (complex numbers with rational real and imaginary parts), so every
operator identity and eigenstate check below is decided exactly, with no
floating point in the loop.  The parts are exact rationals held as ``int``
and promoted to ``fractions.Fraction`` only for non-integer values, the same
normalisation as the coefficients of :mod:`contextuality_lab.ga`.  State
vectors carry their squared-norm denominator symbolically: the three-particle
states used here hold integer amplitudes scaled by 1/sqrt(2), and eigenvalue
equations never need the irrational factor itself.

The one floating-point entry point is :func:`singlet_correlation`, which
takes arbitrary real unit vectors; it exists to cross-check the sweep in
:mod:`contextuality_lab.chsh` against matrix mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constraints import ObservableProduct
from .ga import EXACT, _coerce


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    real: int | Fraction
    imag: int | Fraction

    @classmethod
    def of(cls, real=0, imag=0) -> "GaussianRational":
        return cls(_coerce(real, EXACT), _coerce(imag, EXACT))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real - other.real, self.imag - other.imag)

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


@dataclass(frozen=True)
class ComplexMatrix:
    """A square matrix over the Gaussian rationals."""

    entries: tuple

    def __post_init__(self):
        size = len(self.entries)
        if any(len(row) != size for row in self.entries):
            raise ValueError("matrix must be square")

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

    @classmethod
    def from_ints(cls, rows) -> "ComplexMatrix":
        return cls(
            tuple(
                tuple(v if isinstance(v, GaussianRational) else GaussianRational.of(v) for v in row)
                for row in rows
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

    def __neg__(self) -> "ComplexMatrix":
        return self.scale(-1)

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

    def apply(self, vector: tuple) -> tuple:
        if len(vector) != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {len(vector)}")
        return tuple(
            sum((a * v for a, v in zip(row, vector) if a and v), ZERO)
            for row in self.entries
        )


def pauli(axis: str) -> ComplexMatrix:
    """The 2x2 spin matrix for axis x, y or z, in the z-diagonal basis."""
    if axis == "x":
        return ComplexMatrix(((ZERO, ONE), (ONE, ZERO)))
    if axis == "y":
        return ComplexMatrix(((ZERO, -I), (I, ZERO)))
    if axis == "z":
        return ComplexMatrix(((ONE, ZERO), (ZERO, -ONE)))
    raise ValueError(f"axis {axis!r} not one of x, y, z")


def observable_matrix(product: ObservableProduct, n: int) -> ComplexMatrix:
    """Tensor word of the product: spin matrices in the named slots,
    identity elsewhere, slots ordered by ascending subsystem index."""
    slots = {f.system: pauli(f.axis) for f in product.factors}
    highest = max(slots)
    if highest > n:
        raise ValueError(f"observable {product.label} needs {highest} systems, have {n}")
    result = ComplexMatrix.identity(1)
    for system in range(1, n + 1):
        result = result.kron(slots.get(system, ComplexMatrix.identity(2)))
    return result


def commutes(a: ComplexMatrix, b: ComplexMatrix) -> bool:
    return a @ b == b @ a


def anticommutator(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    return (a @ b) + (b @ a)


def verify_operator_identities(cs) -> tuple:
    """Check, per line, that the product of the member operators is the
    required sign times the identity.  Returns one boolean per line."""
    n = cs.n_systems
    target_dim = 2 ** n
    results = []
    for line in cs.lines:
        product = ComplexMatrix.identity(target_dim)
        for term in line.terms:
            product = product @ observable_matrix(term, n)
        results.append(product == ComplexMatrix.identity(target_dim).scale(line.required))
    return tuple(results)


# -- states ----------------------------------------------------------------


@dataclass(frozen=True)
class StateVector:
    """Amplitudes scaled by 1/sqrt(norm2): the stored squared norm of the
    amplitude tuple must equal ``norm2``, so the physical norm is exactly 1."""

    amplitudes: tuple
    norm2: int

    def __post_init__(self):
        total = sum(
            (a * a.conjugate() for a in self.amplitudes), ZERO
        )
        if total != GaussianRational.of(self.norm2):
            raise ValueError("squared amplitude sum does not match norm2")

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
    cancels on both sides."""
    matrix = observable_matrix(product, n)
    if matrix.dim != state.dim:
        raise ValueError(f"dimension mismatch: {matrix.dim} vs {state.dim}")
    image = matrix.apply(state.amplitudes)
    return all(
        out == amp * eigenvalue for out, amp in zip(image, state.amplitudes)
    )


def is_eigenstate(state: StateVector, product: ObservableProduct, n: int) -> bool:
    return any(eigencheck(state, product, value, n) for value in (1, -1))


# -- singlet correlation (float path) ------------------------------------------


def _spin_along(direction) -> list:
    ax, ay, az = (float(c) for c in direction)
    return [[complex(az, 0), complex(ax, -ay)], [complex(ax, ay), complex(-az, 0)]]


def singlet_correlation(a, b, tolerance: float = 1e-12) -> float:
    """Expectation of (spin along a)x(spin along b) in the two-particle
    singlet state; equals minus the dot product of the unit vectors."""
    for name, v in (("a", a), ("b", b)):
        norm2 = sum(float(c) ** 2 for c in v)
        if abs(norm2 - 1.0) > 10 * tolerance:
            raise ValueError(f"direction {name} is not a unit vector (|{name}|^2={norm2})")
    ma = _spin_along(a)
    mb = _spin_along(b)
    # The singlet amplitudes (0, 1, -1, 0)/sqrt(2) vanish outside the support
    # {+-, -+}, so only the four Kronecker entries (ma x mb)[r][c] with r, c
    # in {1, 2} enter; entry [r][c] is ma[r // 2][c // 2] * mb[r % 2][c % 2].
    k11 = ma[0][0] * mb[1][1]
    k12 = ma[0][1] * mb[1][0]
    k21 = ma[1][0] * mb[0][1]
    k22 = ma[1][1] * mb[0][0]
    value = (k11 - k12 - k21 + k22) / 2.0
    return value.real
