"""Operation results equal the values the checked constructors build.

``Multivector``, ``TensorMultivector``, ``GaussianRational`` and
``ComplexMatrix`` operations build their results on a path that repeats no
check of the constructor (see ``ga._Record``).  For operands drawn in both
modes, every operation's result must equal the same value rebuilt through
the public constructor, field by field and with the same coefficient types;
joint-algebra keys must stay below 8^n with an ``int`` sign of +1 or -1; and
approx products, by ``*`` and by ``ga.word``, must equal the dense oracle bit
for bit.  The sparse joint-algebra oracle of ``tests/tensor_oracle.py`` keeps
a result path of its own, checked here the same way: no zero coefficient is
left.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import tensor_oracle as oracle
from contextuality_lab.ga import APPROX, BLADE_COUNT, EXACT, MODES, Multivector, word
from contextuality_lab.quantum import ComplexMatrix, GaussianRational
from contextuality_lab.systems import TensorMultivector, identify_pseudoscalars
from random_multivectors import dense_product
from tensor_oracle import SparseTensor

ints = st.integers(min_value=-3, max_value=3) | st.integers(min_value=-(2**70), max_value=2**70)
floats = st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False) | st.sampled_from(
    [0.0, -0.0, 1e-300, 0.1, 1.0 / 3.0]
)
modes = st.sampled_from([EXACT, APPROX])


def coefficients(mode: str):
    return ints if mode == EXACT else floats | ints


def multivectors(mode: str):
    return st.lists(coefficients(mode), min_size=BLADE_COUNT, max_size=BLADE_COUNT).map(
        lambda values: Multivector.from_blades(dict(enumerate(values)), mode)
    )


def assert_rebuilt(mv: Multivector, mode: str) -> None:
    rebuilt = Multivector(mv.coeffs, mv.mode)
    assert type(mv) is Multivector and mv.mode == mode
    assert type(mv.coeffs) is tuple and mv == rebuilt
    assert [type(c) for c in mv.coeffs] == [type(c) for c in rebuilt.coeffs]


def bits(coeffs: tuple) -> list:
    return [c.hex() if type(c) is float else c for c in coeffs]


def folded_oracle(factors) -> tuple:
    """The coefficients of a word by the left fold of ``dense_product``."""
    value = factors[0]
    for factor in factors[1:]:
        value = Multivector(dense_product(value, factor), factor.mode)
    return value.coeffs


@settings(max_examples=150, deadline=None)
@given(st.data(), modes)
def test_multivector_results(data, mode):
    a, b = data.draw(multivectors(mode)), data.draw(multivectors(mode))
    factor = data.draw(coefficients(mode))
    factors = data.draw(st.lists(multivectors(mode), min_size=2, max_size=4))
    product, dense_word = a * b, word(factors)
    for result in (product, a + b, a - b, -a, a.scale(factor), a * factor, factor * a, dense_word):
        assert_rebuilt(result, mode)
    assert bits(product.coeffs) == bits(dense_product(a, b))
    assert bits(dense_word.coeffs) == bits(folded_oracle(factors))


def signed_blade_sums(mode: str) -> list:
    """The 128 multivectors with one or two nonzero coefficients, each +1 or
    -1: the operands of every dense product of ``verify all``."""
    one_term = [{m: s} for m in range(BLADE_COUNT) for s in (1, -1)]
    two_terms = [
        {m: s, n: t}
        for m, n in itertools.combinations(range(BLADE_COUNT), 2)
        for s, t in itertools.product((1, -1), repeat=2)
    ]
    return [Multivector.from_blades(terms, mode) for terms in one_term + two_terms]


def test_products_of_signed_blade_sums_equal_the_oracle():
    for mode in MODES:
        operands = signed_blade_sums(mode)
        assert len(operands) == 128
        for a, b in itertools.product(operands, repeat=2):
            expected = bits(dense_product(a, b))
            assert bits((a * b).coeffs) == expected, (mode, a, b)
            assert bits(word((a, b)).coeffs) == expected, (mode, a, b)


def keys(n: int):
    return st.integers(min_value=0, max_value=8**n - 1)


def blades(n: int):
    return st.builds(TensorMultivector, st.sampled_from((1, -1)), keys(n))


def assert_blade_rebuilt(tm: TensorMultivector, n: int) -> None:
    """A result of blades on the first n slots is a blade on those slots."""
    assert type(tm) is TensorMultivector
    assert type(tm.key) is int and 0 <= tm.key < 8**n
    assert type(tm.sign) is int and tm.sign in (1, -1)
    assert tm == TensorMultivector(tm.sign, tm.key)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=3))
def test_tensor_results(data, n):
    a, b = data.draw(blades(n)), data.draw(blades(n))
    for result in (a * b, -a, identify_pseudoscalars(a), identify_pseudoscalars(a * b)):
        assert_blade_rebuilt(result, n)


def sparse_tensors(n: int):
    return st.dictionaries(keys(n), ints, max_size=6).map(lambda c: SparseTensor(n, c))


def assert_sparse_rebuilt(tm: SparseTensor, n: int) -> None:
    assert type(tm) is SparseTensor and tm.n == n
    assert all(type(key) is int and 0 <= key < 8**n for key in tm.coeffs)
    assert all(type(value) is int and value for value in tm.coeffs.values())
    assert tm == SparseTensor(n, tm.coeffs)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=3))
def test_sparse_oracle_results(data, n):
    a, b = data.draw(sparse_tensors(n)), data.draw(sparse_tensors(n))
    factor = data.draw(ints | st.just(0))
    for result in (
        a * b, a + b, a - b, a - a, -a, a.scale(factor), a * factor, factor * a,
        oracle.identify_pseudoscalars(a), oracle.identify_pseudoscalars(a * b),
    ):
        assert_sparse_rebuilt(result, n)


gaussians = st.builds(GaussianRational, ints, ints)


def assert_gaussian_rebuilt(z: GaussianRational) -> None:
    assert type(z) is GaussianRational
    assert type(z.real) is int and type(z.imag) is int
    assert z == GaussianRational(z.real, z.imag)


@settings(max_examples=100, deadline=None)
@given(gaussians, gaussians, ints)
def test_gaussian_results(a, b, k):
    for result in (a + b, -a, a * b, a * k, k * a, a.conjugate()):
        assert_gaussian_rebuilt(result)


def matrices(dim: int):
    row = st.tuples(*[gaussians] * dim)
    return st.tuples(*[row] * dim).map(ComplexMatrix)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=3))
def test_matrix_results(data, dim):
    a, b = data.draw(matrices(dim)), data.draw(matrices(dim))
    factor = data.draw(gaussians | ints)
    for result, size in ((a @ b, dim), (a + b, dim), (a.scale(factor), dim), (a.kron(b), dim * dim)):
        assert type(result) is ComplexMatrix and type(result.entries) is tuple
        assert len(result.entries) == size
        assert all(type(row) is tuple and len(row) == size for row in result.entries)
        for row in result.entries:
            for entry in row:
                assert_gaussian_rebuilt(entry)
        assert result == ComplexMatrix(result.entries)
