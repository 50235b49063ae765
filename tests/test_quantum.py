"""Exact matrix oracle: spin relations, line words, eigenstates, singlet."""

import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality_lab.constraints import (
    BELL_GHZ,
    GHZ,
    PM,
    ConstraintLine,
    ConstraintSet,
    ObservableProduct,
    PauliSymbol,
    builtin_constraints,
)
from contextuality_lab import quantum
from contextuality_lab.ga import Multivector, basis_vector
from contextuality_lab.quantum import (
    I,
    ComplexMatrix,
    GaussianRational,
    StateVector,
    alternating_ghz_state,
    anticommutator,
    apply_word,
    eigencheck,
    ghz_state,
    is_eigenstate,
    ket_combination,
    pauli,
    pauli_word,
    singlet_correlation,
    verify_operator_identities,
    word_product,
    words_commute,
)
from quantum_oracle import (
    apply,
    commutes,
    dense_eigencheck,
    dense_verify_operator_identities,
    factor_word,
    observable_matrix,
    word_matrix,
)
from random_multivectors import random_multivector
from sweep_oracle import SIGNED_AXES, kron_singlet_correlation


class TestPauliAlgebra:
    def test_anticommutation_relation(self):
        for i in "xyz":
            for j in "xyz":
                expected = ComplexMatrix.identity(2).scale(2 if i == j else 0)
                assert anticommutator(pauli(i), pauli(j)) == expected

    def test_xy_product_is_i_z(self):
        assert pauli("x") @ pauli("y") == pauli("z").scale(I)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("w")

    def test_cross_system_commutation(self):
        for n in (2, 3):
            for sa, sb in itertools.permutations(range(1, n + 1), 2):
                for ax_a, ax_b in itertools.product("xyz", repeat=2):
                    a = observable_matrix(ObservableProduct.parse(f"{ax_a}{sa}"), n)
                    b = observable_matrix(ObservableProduct.parse(f"{ax_b}{sb}"), n)
                    assert commutes(a, b)

    def test_observable_matrix_dimension_guard(self):
        with pytest.raises(ValueError):
            observable_matrix(ObservableProduct.parse("x3"), 2)

    def test_line_members_commute(self):
        for name in (PM, GHZ):
            cs = builtin_constraints(name)
            for line in cs.lines:
                for ta, tb in itertools.combinations(line.terms, 2):
                    assert commutes(
                        observable_matrix(ta, cs.n_systems),
                        observable_matrix(tb, cs.n_systems),
                    )

    def test_pm_mixed_line_product_matches_z_pair(self):
        # the two crossed observables multiply to the doubled z word
        xy = observable_matrix(ObservableProduct.parse("x1*y2"), 2)
        yx = observable_matrix(ObservableProduct.parse("y1*x2"), 2)
        zz = observable_matrix(ObservableProduct.parse("z1*z2"), 2)
        assert xy @ yx == zz


class TestOperatorWords:
    def test_pm_words(self):
        cs = builtin_constraints(PM)
        assert verify_operator_identities(cs) == (True,) * 6

    def test_ghz_words(self):
        cs = builtin_constraints(GHZ)
        assert verify_operator_identities(cs) == (True,) * 5

    def test_pm_last_word_is_negative_identity(self):
        cs = builtin_constraints(PM)
        n = cs.n_systems
        word = ComplexMatrix.identity(4)
        for term in cs.lines[-1].terms:
            word = word @ observable_matrix(term, n)
        assert word == ComplexMatrix.identity(4).scale(-1)

    def test_flipping_a_sign_is_detected(self):
        from contextuality_lab.constraints import ConstraintLine, ConstraintSet

        cs = builtin_constraints(PM)
        flipped = ConstraintSet(
            PM,
            tuple(
                ConstraintLine(l.terms, -l.required) if k == 0 else l
                for k, l in enumerate(cs.lines)
            ),
        )
        assert verify_operator_identities(flipped)[0] is False


def observables(n):
    """Products over a nonempty subset of subsystems 1..n, axes drawn freely."""
    return st.lists(
        st.tuples(st.integers(1, n), st.sampled_from("xyz")),
        min_size=1,
        max_size=n,
        unique_by=lambda f: f[0],
    ).map(lambda fs: ObservableProduct(tuple(PauliSymbol(s, a) for s, a in fs)))


def words(n):
    return st.tuples(st.integers(0, 3), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))


def sized(*parts):
    """Tuples (n, part(n), ...) for n = 1, 2, 3 subsystems."""
    return st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), *(part(n) for part in parts)))


# Lines of 1-5 terms over 1-3 subsystems; terms may repeat and may share a
# subsystem across terms, such as [x1, y1], whose product is i z1.
constraint_sets = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.lists(observables(n), min_size=1, max_size=5),
            st.sampled_from((1, -1)),
        ),
        min_size=1,
        max_size=4,
    )
).map(
    lambda rows: ConstraintSet(
        "random", tuple(ConstraintLine(tuple(terms), required) for terms, required in rows)
    )
)

gaussian_integers = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))


def state_from(amplitudes):
    total = sum((a * a.conjugate() for a in amplitudes), GaussianRational(0))
    return StateVector(tuple(amplitudes), total.real)


class TestPauliWordOracle:
    """The Pauli-word kernel reaches the dense Kronecker oracle's verdicts."""

    @settings(max_examples=200, deadline=None)
    @given(sized(observables))
    def test_word_is_the_factor_loop_reference(self, case):
        # the word takes no subsystem count: it is the reference's word for
        # every n from the highest site up to the limit
        _, product = case
        highest = max(f.system for f in product.factors)
        for n in range(highest, 4):
            assert pauli_word(product) == factor_word(product, n)

    @settings(max_examples=200, deadline=None)
    @given(sized(observables, observables), st.data())
    def test_masks_are_one_per_factor_set(self, case, data):
        n, a, b = case
        reordered = ObservableProduct(data.draw(st.permutations(a.factors)))
        assert reordered.masks == a.masks
        assert (a.masks == b.masks) == (set(a.factors) == set(b.factors))

    @settings(max_examples=200, deadline=None)
    @given(sized(observables))
    def test_word_rebuilds_the_observable_matrix(self, case):
        n, product = case
        assert word_matrix(pauli_word(product), n) == observable_matrix(product, n)

    @settings(max_examples=200, deadline=None)
    @given(sized(words, words))
    def test_word_product_is_the_matrix_product(self, case):
        n, a, b = case
        assert word_matrix(word_product(a, b), n) == word_matrix(a, n) @ word_matrix(b, n)

    @settings(max_examples=100, deadline=None)
    @given(sized(words))
    def test_apply_word_is_the_matrix_column(self, case):
        n, word = case
        matrix = word_matrix(word, n)
        for ket in range(2**n):
            k, image = apply_word(word, ket)
            column = [row[ket] for row in matrix.entries]
            expected = [GaussianRational(0)] * 2**n
            expected[image] = (GaussianRational(1), I, GaussianRational(-1), -I)[k]
            assert column == expected

    @settings(max_examples=200, deadline=None)
    @given(constraint_sets)
    def test_line_verdicts_equal_dense_words(self, cs):
        assert verify_operator_identities(cs) == dense_verify_operator_identities(cs)

    @settings(max_examples=200, deadline=None)
    @given(sized(observables, observables))
    def test_commutation_agrees(self, case):
        n, a, b = case
        assert words_commute(pauli_word(a), pauli_word(b)) == commutes(
            observable_matrix(a, n), observable_matrix(b, n)
        )

    @pytest.mark.parametrize(
        "state", [ghz_state(), alternating_ghz_state()], ids=["ghz", "alternating"]
    )
    def test_eigencheck_agrees_on_the_featured_states(self, state):
        for product in itertools.product(*[("", "x", "y", "z")] * 3):
            label = "*".join(f"{a}{s}" for s, a in enumerate(product, start=1) if a)
            if not label:
                continue
            term = ObservableProduct.parse(label)
            for value in (1, -1):
                assert eigencheck(state, term, value) == dense_eigencheck(state, term, value, 3)

    @settings(max_examples=200, deadline=None)
    @given(
        sized(
            observables,
            lambda n: st.lists(gaussian_integers, min_size=2**n, max_size=2**n),
            lambda n: st.sampled_from((1, -1)),
            lambda n: st.booleans(),
        )
    )
    def test_eigencheck_agrees_on_integer_states(self, case):
        n, product, amplitudes, value, project = case
        if project:
            # v + value M v is an eigenvector of M for value, or zero
            image = apply(observable_matrix(product, n), tuple(amplitudes))
            amplitudes = [a + b * value for a, b in zip(amplitudes, image)]
        if not any(amplitudes):
            return
        state = state_from(amplitudes)
        for eigenvalue in (1, -1):
            assert eigencheck(state, product, eigenvalue) == (
                dense_eigencheck(state, product, eigenvalue, n)
            )
        if project:
            assert eigencheck(state, product, value)

    @pytest.mark.parametrize("name", [PM, GHZ, BELL_GHZ])
    def test_builtin_lines_agree(self, name):
        cs = builtin_constraints(name)
        n = cs.n_systems
        assert verify_operator_identities(cs) == dense_verify_operator_identities(cs)
        for line in cs.lines:
            for ta, tb in itertools.combinations(line.terms, 2):
                assert words_commute(pauli_word(ta), pauli_word(tb)) == commutes(
                    observable_matrix(ta, n), observable_matrix(tb, n)
                )

    def test_shared_subsystem_line_leaves_i_z(self):
        line = [ObservableProduct.parse("x1"), ObservableProduct.parse("y1")]
        assert word_product(pauli_word(line[0]), pauli_word(line[1])) == (1, 0, 1)
        for required in (1, -1):
            cs = ConstraintSet("xy", (ConstraintLine(tuple(line), required),))
            assert verify_operator_identities(cs) == (False,)
            assert dense_verify_operator_identities(cs) == (False,)

    @pytest.mark.parametrize("build", [factor_word, observable_matrix])
    def test_system_beyond_n_rejected(self, build):
        with pytest.raises(ValueError, match="observable x1\\*z3 needs 3 systems, have 2"):
            build(ObservableProduct.parse("x1*z3"), 2)


def blade_matrix(mask):
    result = ComplexMatrix.identity(2)
    for axis, name in ((1, "x"), (2, "y"), (3, "z")):
        if mask & (1 << (axis - 1)):
            result = result @ pauli(name)
    return result


def multivector_matrix(mv):
    result = ComplexMatrix.identity(2).scale(0)
    for mask, value in enumerate(mv.coeffs):
        if value:
            result = result + blade_matrix(mask).scale(value)
    return result


class TestStructuralIsomorphism:
    def test_all_blade_products_carry_over(self):
        for mask_a in range(8):
            for mask_b in range(8):
                left = Multivector.from_blades({mask_a: 1}) * Multivector.from_blades(
                    {mask_b: 1}
                )
                assert multivector_matrix(left) == blade_matrix(mask_a) @ blade_matrix(
                    mask_b
                )

    def test_random_words_carry_over(self):
        rng = Random(5)
        for _ in range(50):
            axes = [rng.choice((1, 2, 3)) for _ in range(4)]
            mv = Multivector.scalar(1)
            matrix = ComplexMatrix.identity(2)
            for axis in axes:
                mv = mv * basis_vector(axis)
                matrix = matrix @ pauli("xyz"[axis - 1])
            assert multivector_matrix(mv) == matrix

    def test_random_multivector_pairs_carry_over(self):
        rng = Random(17)
        for _ in range(40):
            a = random_multivector(rng)
            b = random_multivector(rng)
            assert multivector_matrix(a * b) == multivector_matrix(a) @ multivector_matrix(b)


class TestStates:
    def test_state_norm_guard(self):
        with pytest.raises(ValueError):
            StateVector((GaussianRational(1),) * 2, 1)
        # 2^n amplitudes, so eigencheck can read n from the state
        for dim in (0, 3, 6):
            with pytest.raises(ValueError, match=f"{dim} amplitudes are no state of subsystems"):
                StateVector((GaussianRational(1),) * dim, dim)

    def test_ghz_state_eigenvalues(self):
        state = ghz_state()
        expected = [("x1*y2*y3", 1), ("y1*x2*y3", 1), ("y1*y2*x3", 1), ("x1*x2*x3", -1)]
        for label, value in expected:
            assert eigencheck(state, ObservableProduct.parse(label), value)
            assert not eigencheck(state, ObservableProduct.parse(label), -value)

    def test_alternating_state_eigenvalues(self):
        state = alternating_ghz_state()
        expected = [("x1*y2*y3", 1), ("y1*x2*y3", -1), ("y1*y2*x3", 1), ("x1*x2*x3", 1)]
        for label, value in expected:
            assert eigencheck(state, ObservableProduct.parse(label), value)

    def test_subsystem_order_on_a_ket_that_is_no_palindrome(self):
        # |-++>: a word and a ket that put subsystem 1 at different bits
        # would read z3 as -1 and z1 as +1
        state = ket_combination({"-++": 1}, 1, 8)
        for label, value in (("z1", -1), ("z2", 1), ("z3", 1), ("z1*z3", -1)):
            term = ObservableProduct.parse(label)
            assert eigencheck(state, term, value)
            assert dense_eigencheck(state, term, value, 3)
        assert not is_eigenstate(state, ObservableProduct.parse("x1"))

    def test_single_spin_is_not_determined(self):
        state = ghz_state()
        assert not is_eigenstate(state, ObservableProduct.parse("x1"))
        assert not is_eigenstate(state, ObservableProduct.parse("y2"))

    def test_dimension_mismatch(self):
        # the state's size fixes its subsystems: a word on subsystem 3 of a
        # two-subsystem state is refused by name, never read past the
        # amplitudes (x3) or silently cut to the state (x1*z3)
        state = ket_combination({"++": 1}, 1, 4)
        for label in ("x3", "x1*z3"):
            product = ObservableProduct.parse(label)
            message = f"observable {label.replace('*', '[*]')} needs 3 systems, have 2"
            for check in (lambda: eigencheck(state, product, 1), lambda: is_eigenstate(state, product)):
                with pytest.raises(ValueError, match=message):
                    check()
        assert eigencheck(state, ObservableProduct.parse("z1*z2"), 1)


class TestSingletCorrelation:
    def test_aligned(self):
        assert singlet_correlation((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_orthogonal(self):
        assert singlet_correlation((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_sixty_degrees(self):
        b = (math.cos(math.pi / 3), 0.0, math.sin(math.pi / 3))
        assert singlet_correlation((1.0, 0.0, 0.0), b) == pytest.approx(-0.5, abs=1e-12)

    def test_random_pairs_match_dot_product(self):
        rng = Random(11)
        for _ in range(100):
            a = _unit(rng)
            b = _unit(rng)
            dot = sum(x * y for x, y in zip(a, b))
            assert singlet_correlation(a, b) + dot == pytest.approx(0.0, abs=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            singlet_correlation((1.0, 1.0, 0.0), (1.0, 0.0, 0.0))

    def test_non_unit_b_is_named(self):
        with pytest.raises(ValueError, match=r"direction b is not a unit vector \(\|b\|\^2=0\.5"):
            singlet_correlation((1.0, 0.0, 0.0), (0.5, 0.5, 0.0))

    @pytest.mark.parametrize(
        "a,b,name",
        [((math.nan, 0.0, 0.0), (1.0, 0.0, 0.0), "a"),
         ((1.0, 0.0, 0.0), (0.0, math.nan, 1.0), "b")],
    )
    def test_nan_direction_is_named(self, a, b, name):
        message = rf"direction {name} is not a unit vector \(\|{name}\|\^2=nan\)"
        with pytest.raises(ValueError, match=message):
            singlet_correlation(a, b)

    @pytest.mark.parametrize("slot", range(4))
    def test_nan_direction_in_the_combination_is_named(self, slot):
        # the one unit-norm rule over a column whose last entry is off; each
        # direction of the combination is named the same way
        name = ("a", "a_prime", "b", "b_prime")[slot]
        for bad in ((0.0, 0.0, math.nan), (0.5, 0.5, 0.0)):
            columns = zip((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), bad)
            with pytest.raises(ValueError, match=rf"direction {name} is not a unit vector"):
                quantum._check_units(name, *columns)

    def test_named_norm_squares_by_multiplying(self):
        # one rule with chsh's one-pass decision, c*c + s*s: x * x, which is
        # correctly rounded; x ** 2 can differ by an ulp on some cos/sin values
        for k in range(4096):
            for v in (math.cos(k * math.pi / 4095), math.sin(k * math.pi / 4095)):
                norm2 = v * v + 0.0 * 0.0 + v * v
                if abs(norm2 - 1.0) > quantum.UNIT_NORM_TOLERANCE:
                    with pytest.raises(ValueError) as raised:
                        quantum._check_units("a", [v], [0.0], [v])
                    assert str(raised.value) == f"direction a is not a unit vector (|a|^2={norm2})"

    def test_exact_components_match_the_kronecker_oracle(self):
        a, b = (Fraction(3, 5), 0, Fraction(4, 5)), (1, 0, 0)
        assert singlet_correlation(a, b) == kron_singlet_correlation(a, b) == -0.6

    def test_signed_axis_pairs_match_the_oracle_bit_for_bit(self):
        # every sign of every zero component: the exact cancellations of
        # orthogonal axes must come out +0.0, as from the complex product
        for a, b in itertools.product(SIGNED_AXES, repeat=2):
            got = singlet_correlation(a, b)
            assert got.hex() == kron_singlet_correlation(a, b).hex()
            if got == 0.0:
                assert math.copysign(1.0, got) == 1.0


def _unit(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-6:
            return tuple(x / norm for x in v)


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational(3, 1)
        b = GaussianRational(2, -1)
        assert a + b == GaussianRational(5, 0)
        assert a * b == GaussianRational(7, -1)
        assert a * 2 == 2 * a == GaussianRational(6, 2)
        with pytest.raises(ValueError, match="exact mode needs int coefficients, got True"):
            a * True
        assert (-a) == GaussianRational(-3, -1)
        assert a.conjugate() == GaussianRational(3, -1)

    def test_i_squares_to_minus_one(self):
        assert I * I == GaussianRational(-1)
