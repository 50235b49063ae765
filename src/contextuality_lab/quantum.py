"""Exact finite-dimensional quantum mechanics, used as an independent oracle.

Single-site spin matrices are evaluated over the Gaussian integers (complex
numbers with integer real and imaginary parts, held as ``int``), so the
relations tying the spin algebra to matrix mechanics are decided exactly,
with no floating point in the loop.

An n-site spin word is never built as a 2^n x 2^n matrix.  It is a Pauli
word ``(k, x, z)`` meaning i^k X^x Z^z: a phase exponent mod 4 and one x bit
and one z bit per subsystem, subsystem s at bit s - 1 whatever n is, so
no word takes n: the bits it leaves clear are identity factors.  The
masks are the ones each observable forms when it is built
(``ObservableProduct.masks``), and a basis ket keeps subsystem s at the same
bit (:func:`_basis_state`).  Products, commutation and the action on
basis kets then take an XOR and a popcount (Aaronson & Gottesman,
quant-ph/0406196; Dehaene & De Moor, PRA 68, 042318 (2003)), so every line
identity, commutation and eigenstate claim stays exact.  State vectors carry
their squared-norm denominator symbolically: the three-particle states used
here hold integer amplitudes scaled by 1/sqrt(2), and eigenvalue equations
never need the irrational factor itself.

The floating-point path is the singlet correlation: :func:`singlet_correlation`
behind the sampled ``states.singlet`` check, and the unit-norm rule that it
shares with the sweep in :mod:`.chsh`.  The rule is written once, over
columns of direction components; a single direction is a column of one
entry.  Per angle, the sweep's plane kernel forms two correlations with
the float operations of :func:`singlet_correlation`, in the same order, and
folds b' = (1, 0, 0) into the other two as -c and -c2.  The formula is the
real-arithmetic reduction, equal bit for bit, of the complex 4 x 4 Kronecker
product kept as the test oracle in ``tests/sweep_oracle.py``.
"""

from operator import add

from .ga import EXACT, _coerce, _Record


class GaussianRational(_Record):
    """A complex number with integer real and imaginary parts."""

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        object.__setattr__(self, "real", _coerce(real, EXACT))
        object.__setattr__(self, "imag", _coerce(imag, EXACT))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return _gaussian(self.real + other.real, self.imag + other.imag)

    def __neg__(self) -> "GaussianRational":
        return _gaussian(-self.real, -self.imag)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return _gaussian(
                self.real * other.real - self.imag * other.imag,
                self.real * other.imag + self.imag * other.real,
            )
        if isinstance(other, int):
            factor = _coerce(other, EXACT)  # a bool is refused, as by the constructor
            return _gaussian(self.real * factor, self.imag * factor)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self.real, -self.imag)

    def __bool__(self) -> bool:
        return bool(self.real or self.imag)


_set_real, _set_imag = GaussianRational.real.__set__, GaussianRational.imag.__set__


def _gaussian(real: int, imag: int) -> GaussianRational:
    """The result path of ``GaussianRational`` (see ``ga._Record``)."""
    z = object.__new__(GaussianRational)
    _set_real(z, real)
    _set_imag(z, imag)
    return z


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


class ComplexMatrix(_Record):
    """A square matrix over the Gaussian integers."""

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
        return _matrix(tuple(rows))

    def __add__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return _matrix(
            tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.entries, other.entries))
        )

    def scale(self, factor) -> "ComplexMatrix":
        if not isinstance(factor, GaussianRational):
            factor = GaussianRational(factor)
        return _matrix(tuple(tuple([factor * v for v in row]) for row in self.entries))

    def kron(self, other: "ComplexMatrix") -> "ComplexMatrix":
        rows = []
        for ra in self.entries:
            for rb in other.entries:
                rows.append(tuple(a * b for a in ra for b in rb))
        return _matrix(tuple(rows))


_set_entries = ComplexMatrix.entries.__set__


def _matrix(entries: tuple) -> ComplexMatrix:
    """The result path of ``ComplexMatrix`` (see ``ga._Record``)."""
    m = object.__new__(ComplexMatrix)
    _set_entries(m, entries)
    return m


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


def pauli_word(product: "ObservableProduct") -> tuple:
    """The product's word ``(k, x, z)``, meaning i^k X^x Z^z on as many
    subsystems as the masks reach; unset bits are identity factors, so the
    same word serves any larger number of subsystems.

    The masks are the product's own; each y site sets both bits and adds one
    to k, since Y = iXZ.
    """
    x, z = product.masks
    return (x & z).bit_count() % 4, x, z


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
    required sign times the identity.  Returns one boolean per line.  Each
    distinct observable's word is formed once, however often it occurs."""
    words = [pauli_word(term) for term in cs.observables]
    results = []
    for line, indices in zip(cs.lines, cs.term_indices):
        word = IDENTITY_WORD
        for k in indices:
            word = word_product(word, words[k])
        results.append(word == (0 if line.required == 1 else 2, 0, 0))
    return tuple(results)


# -- states ----------------------------------------------------------------


class StateVector(_Record):
    """Amplitudes scaled by 1/sqrt(norm2): the stored squared norm of the
    amplitude tuple must equal ``norm2``, so the physical norm is exactly 1.
    There are 2^n amplitudes, one per basis ket of n subsystems."""

    __slots__ = ("amplitudes", "norm2")

    def __init__(self, amplitudes: tuple, norm2: int):
        dim = len(amplitudes)
        if not dim or dim & dim - 1:
            raise ValueError(f"{dim} amplitudes are no state of subsystems (need a power of two)")
        total = sum(
            (a * a.conjugate() for a in amplitudes), ZERO
        )
        if total != GaussianRational(norm2):
            raise ValueError("squared amplitude sum does not match norm2")
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "norm2", norm2)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


def _basis_state(pattern: str) -> int:
    """Index of a +/- ket string: character s (from 1) is subsystem s, at
    bit s - 1 as in the word masks, and a minus sets that bit."""
    return sum(1 << s for s, ch in enumerate(pattern) if ch == "-")


def ket_combination(terms: dict, norm2: int, dim: int) -> StateVector:
    """Build a state from pattern -> integer amplitude entries."""
    amps = [ZERO] * dim
    for pattern, value in terms.items():
        amps[_basis_state(pattern)] = GaussianRational(value)
    return StateVector(tuple(amps), norm2)


def ghz_state() -> StateVector:
    """The symmetric three-particle state with amplitudes (+++) - (---),
    scaled by 1/sqrt(2)."""
    return ket_combination({"+++": 1, "---": -1}, 2, 8)


def alternating_ghz_state() -> StateVector:
    """The three-particle state with amplitudes (+-+) + (-+-), scaled by
    1/sqrt(2); it treats the middle subsystem unlike the outer two."""
    return ket_combination({"+-+": 1, "-+-": 1}, 2, 8)


def eigencheck(state: StateVector, product: "ObservableProduct", eigenvalue: int) -> bool:
    """Exact test of M state == eigenvalue state; the hidden 1/sqrt(norm2)
    cancels on both sides.  The state's 2^n amplitudes fix its n subsystems:
    an observable on a subsystem beyond them is a ``ValueError`` naming it.
    M permutes the basis kets up to phases, so each nonzero amplitude is
    compared with the one its image ket carries.  The ket map b -> b ^ x is
    an involution, so a zero amplitude whose image is nonzero shows up as a
    nonzero amplitude whose image is zero."""
    word = pauli_word(product)
    sites = word[1] | word[2]
    if sites >= state.dim:
        need, have = sites.bit_length(), (state.dim - 1).bit_length()
        raise ValueError(f"observable {product.label} needs {need} systems, have {have}")
    amplitudes = state.amplitudes
    for ket, amp in enumerate(amplitudes):
        if amp:
            k, image = apply_word(word, ket)
            if PHASES[k] * amp != amplitudes[image] * eigenvalue:
                return False
    return True


def is_eigenstate(state: StateVector, product: "ObservableProduct") -> bool:
    return any(eigencheck(state, product, value) for value in (1, -1))


# -- singlet correlation (float path) ------------------------------------------

#: How far a direction's squared norm may stray from 1.
UNIT_NORM_TOLERANCE = 1e-11


def _check_units(name: str, xs, ys, zs) -> None:
    """``ValueError`` naming direction ``name`` at the first (x, y, z) of the
    columns whose squared norm is not within ``UNIT_NORM_TOLERANCE`` of 1
    (a NaN component fails too)."""
    for x, y, z in zip(xs, ys, zs):
        norm2 = x * x + y * y + z * z
        if not abs(norm2 - 1.0) <= UNIT_NORM_TOLERANCE:
            raise ValueError(f"direction {name} is not a unit vector (|{name}|^2={norm2})")


def _unit(v, name: str) -> tuple:
    """Direction ``v`` as checked one-entry float columns ([x], [y], [z])."""
    x, y, z = map(float, v)
    _check_units(name, (x,), (y,), (z,))
    return [x], [y], [z]


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
    (ax,), (ay,), (az,) = _unit(a, "a")
    (bx,), (by,), (bz,) = _unit(b, "b")
    zz, xy = az * -bz, ax * bx + ay * by
    return (zz - xy - xy + zz + 0.0) / 2.0

