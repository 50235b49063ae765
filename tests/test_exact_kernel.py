"""The exact kernel against Fraction-only reference arithmetic.

Exact coefficients are ``int``.  The references below convert every
coefficient to ``Fraction`` and multiply densely, an arithmetic the kernel
shares no code with; the kernel must agree with them on small coefficients
and on ones beyond 2**64 in magnitude, where a fixed-width kernel would
overflow, and must keep every coefficient an ``int``.  Any other coefficient
type, ``Fraction`` included, is refused.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensor_oracle as oracle
from blade_keys import pack, unpack
from contextuality_lab.ga import APPROX, CAYLEY, Multivector, basis_vector
from contextuality_lab.quantum import ComplexMatrix, GaussianRational
from contextuality_lab.systems import ONE, TensorMultivector
from random_multivectors import random_multivector
from tensor_oracle import SparseTensor

integers = st.integers(min_value=-4, max_value=4)
big_integers = st.integers(min_value=2**64, max_value=2**80) | st.integers(
    min_value=-(2**80), max_value=-(2**64)
)
coefficients = st.one_of(integers, integers, big_integers)
blade_coefficients = st.lists(coefficients, min_size=8, max_size=8)


def from_values(values) -> Multivector:
    return Multivector.from_blades(dict(enumerate(values)))


def reference_product(a: tuple, b: tuple) -> tuple:
    """Dense 8 x 8 blade product over Fraction coefficients."""
    acc = [Fraction(0)] * 8
    for i in range(8):
        for j in range(8):
            sign, mask = CAYLEY[i][j]
            acc[mask] += Fraction(a[i]) * Fraction(b[j]) * sign
    return tuple(acc)


@settings(max_examples=80, deadline=None)
@given(blade_coefficients, blade_coefficients)
def test_product_matches_fraction_reference(a, b):
    product = (from_values(a) * from_values(b)).coeffs
    assert product == reference_product(a, b)
    assert all(type(c) is int for c in product)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(integers, min_size=8, max_size=8), min_size=2, max_size=4))
def test_integer_words_stay_integer(rows):
    factors = [from_values(row) for row in rows]
    product = factors[0]
    for factor in factors[1:]:
        product = product * factor
    assert all(type(c) is int for c in product.coeffs)


class Count(int):
    """An ``int`` subclass, as a caller's ``enum.IntEnum`` member is."""


def test_coefficients_are_normalised_to_int():
    assert type(Multivector.from_blades({3: Count(2)}).coeffs[3]) is int
    assert type(basis_vector(1).scale(Count(2)).coeffs[1]) is int
    assert type(TensorMultivector(Count(-1), 9).sign) is int
    assert type(SparseTensor.scalar(Count(3), 2).coeffs[0]) is int
    assert all(type(c) is int for c in random_multivector(Random(3)).coeffs)
    assert type(GaussianRational(Count(6), -1).real) is int
    assert type(Multivector((Count(1),) * 8, "exact").coeffs[7]) is int
    assert type(Multivector((Count(1),) * 8, APPROX).coeffs[7]) is float
    assert type(SparseTensor(2, {9: Count(3)}).coeffs[9]) is int
    assert type(GaussianRational(0, Count(6)).imag) is int


def test_bare_constructors_refuse_what_is_no_coefficient():
    """The field constructors check coefficients as ``from_blades``,
    ``scalar`` and ``scale`` do: no float or bool in exact mode."""
    for build, value in [
        (lambda: Multivector((1, 0, 0, 0, 0, 0, 0, 0.5), "exact"), 0.5),
        (lambda: Multivector((True, 0, 0, 0, 0, 0, 0, 0), APPROX), True),
        (lambda: TensorMultivector(-1.0, 1), -1.0),
        (lambda: TensorMultivector(True, 0), True),
        (lambda: SparseTensor(1, {1: 0.5}), 0.5),
        (lambda: SparseTensor(3, {0: True}), True),
        (lambda: SparseTensor(2, {5: 0.0}), 0.0),
        (lambda: SparseTensor(2, {5: False}), False),
        (lambda: GaussianRational(0.5, True), 0.5),
        (lambda: GaussianRational(1, True), True),
    ]:
        with pytest.raises(ValueError, match="mode needs int") as raised:
            build()
        assert str(raised.value).endswith(f"got {value!r}")


def test_fraction_coefficients_are_refused():
    """A ``Fraction`` is no coefficient, integral or not: every constructor
    and ``scale`` refuse it, and no product takes it as a scalar."""
    for value in (Fraction(1, 2), Fraction(4, 2)):
        exact = f"exact mode needs int coefficients, got {value!r}"
        approx = f"approx mode needs int or float coefficients, got {value!r}"
        for build, message in [
            (lambda: Multivector((value, 0, 0, 0, 0, 0, 0, 0), "exact"), exact),
            (lambda: Multivector((0, 0, 0, 0, 0, 0, 0, value), APPROX), approx),
            (lambda: TensorMultivector(value, 1), exact),
            (lambda: SparseTensor(1, {1: value}), exact),
            (lambda: GaussianRational(value, 0), exact),
            (lambda: GaussianRational(0, value), exact),
            (lambda: Multivector.from_blades({1: value}), exact),
            (lambda: basis_vector(1).scale(value), exact),
            (lambda: basis_vector(1, APPROX).scale(value), approx),
            (lambda: SparseTensor.scalar(value, 2), exact),
            (lambda: SparseTensor.scalar(1, 2).scale(value), exact),
            (lambda: GaussianRational(value), exact),
        ]:
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == message
        for scalable in (
            basis_vector(1), ONE, SparseTensor.scalar(1, 2), GaussianRational(1)
        ):
            with pytest.raises(TypeError):
                scalable * value
            with pytest.raises(TypeError):
                value * scalable


# -- joint algebra -------------------------------------------------------------
#
# ``systems.TensorMultivector`` is tested against the sparse oracle of
# ``tensor_oracle``, and the oracle against these references, which keep the
# per-subsystem tuple keys and Fraction coefficients; the oracle's packed int
# keys are converted with ``unpack``.


def blade_tuples(n: int):
    return st.tuples(*(st.integers(min_value=0, max_value=7) for _ in range(n)))


def tensors(n: int):
    return st.dictionaries(blade_tuples(n), coefficients, max_size=5).map(
        lambda coeffs: SparseTensor(n, {pack(k): v for k, v in coeffs.items()})
    )


def reference_tensor_product(a: dict, b: dict) -> dict:
    """Slot-wise blade product of every term pair over Fraction coefficients."""
    acc: dict = {}
    for key_a, x in a.items():
        for key_b, y in b.items():
            sign = 1
            key = []
            for mask_a, mask_b in zip(key_a, key_b):
                s, m = CAYLEY[mask_a][mask_b]
                sign *= s
                key.append(m)
            key = tuple(key)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(x) * Fraction(y) * sign
    return {k: v for k, v in acc.items() if v}


def reference_identify(coeffs: dict) -> dict:
    """Trivector pairs collapse to -1, left to right, over Fraction values."""
    acc: dict = {}
    for key, value in coeffs.items():
        masks = list(key)
        full = [slot for slot, mask in enumerate(masks) if mask == 7]
        value = Fraction(value)
        while len(full) >= 2:
            masks[full.pop(0)] = 0
            masks[full.pop(0)] = 0
            value = -value
        out = tuple(masks)
        acc[out] = acc.get(out, Fraction(0)) + value
    return {k: v for k, v in acc.items() if v}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(tensors(n), min_size=1, max_size=4)
    )
)
def test_tensor_word_matches_fraction_reference(factors):
    n = factors[0].n

    def tuple_keyed(tm):
        return {unpack(k, n): v for k, v in tm.coeffs.items()}

    expected = {(0,) * n: Fraction(1)}
    for factor in factors:
        expected = reference_tensor_product(expected, tuple_keyed(factor))
    result = oracle.word(factors, n)
    assert tuple_keyed(result) == expected
    assert tuple_keyed(oracle.identify_pseudoscalars(result)) == reference_identify(expected)


# -- Gaussian-rational matrices -------------------------------------------------


def matrices(dim: int):
    entry = st.one_of(
        st.just((0, 0)), st.just((0, 0)), st.tuples(coefficients, coefficients)
    )
    row = st.lists(entry, min_size=dim, max_size=dim)
    return st.lists(row, min_size=dim, max_size=dim)


def as_fraction_pairs(rows) -> list:
    return [[(Fraction(re), Fraction(im)) for re, im in row] for row in rows]


def as_matrix(rows) -> ComplexMatrix:
    return ComplexMatrix(
        tuple(tuple(GaussianRational(re, im) for re, im in row) for row in rows)
    )


def as_pairs(matrix: ComplexMatrix) -> list:
    return [[(v.real, v.imag) for v in row] for row in matrix.entries]


def pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def reference_matmul(a, b) -> list:
    dim = len(a)
    out = []
    for r in range(dim):
        row = []
        for c in range(dim):
            re = im = Fraction(0)
            for k in range(dim):
                pr, pi = pair_mul(a[r][k], b[k][c])
                re += pr
                im += pi
            row.append((re, im))
        out.append(row)
    return out


def reference_kron(a, b) -> list:
    return [
        [pair_mul(x, y) for x in ra for y in rb]
        for ra in a
        for rb in b
    ]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 4)).flatmap(lambda d: st.tuples(matrices(d), matrices(d))))
def test_matmul_matches_fraction_reference(pair):
    a, b = pair
    expected = reference_matmul(as_fraction_pairs(a), as_fraction_pairs(b))
    assert as_pairs(as_matrix(a) @ as_matrix(b)) == expected


@settings(max_examples=60, deadline=None)
@given(matrices(2), st.sampled_from((1, 2)).flatmap(matrices))
def test_kron_matches_fraction_reference(a, b):
    expected = reference_kron(as_fraction_pairs(a), as_fraction_pairs(b))
    assert as_pairs(as_matrix(a).kron(as_matrix(b))) == expected
