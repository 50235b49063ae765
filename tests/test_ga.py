"""Algebra kernel: blade products, axioms, modes, rendering."""

import itertools
import operator
from fractions import Fraction
from functools import partial, reduce
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality_lab.ga import (
    APPROX,
    CAYLEY,
    EXACT,
    Multivector,
    basis_vector,
    blade_product,
    pseudoscalar,
    render_multivector,
    word,
)
from random_multivectors import random_multivector
from sweep_oracle import grade_projection

ONE = Multivector.scalar(1)
MINUS_ONE = Multivector.scalar(-1)
E = {i: basis_vector(i) for i in (1, 2, 3)}


def test_basis_vector_masks():
    assert E[1].coeffs[1] == 1
    assert E[2].coeffs[2] == 1
    assert E[3].coeffs[4] == 1


def test_basis_vector_range_check():
    with pytest.raises(ValueError):
        basis_vector(4)
    with pytest.raises(ValueError):
        basis_vector(0)


class TestBladeProduct:
    def test_contraction(self):
        for i in (1, 2, 3):
            assert E[i] * E[i] == ONE

    def test_anticommutation(self):
        for i, j in itertools.permutations((1, 2, 3), 2):
            assert E[i] * E[j] == -(E[j] * E[i])

    def test_anticommutator_rule(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                lhs = E[i] * E[j] + E[j] * E[i]
                assert lhs == Multivector.scalar(2 if i == j else 0)

    def test_pseudoscalar_square(self):
        unit = pseudoscalar()
        assert E[1] * E[2] * E[3] == unit
        assert unit * unit == MINUS_ONE

    def test_pseudoscalar_commutes_with_vectors(self):
        unit = pseudoscalar()
        for i in (1, 2, 3):
            assert unit * E[i] == E[i] * unit

    def test_bivector_words(self):
        for i, j in itertools.permutations((1, 2, 3), 2):
            assert E[i] * E[j] * E[j] * E[i] == ONE
            assert E[i] * E[j] * E[i] * E[j] == MINUS_ONE

    def test_opposite_bivectors_cancel(self):
        e12 = E[1] * E[2]
        e21 = E[2] * E[1]
        assert e12 * e21 == ONE

    def test_trivector_words(self):
        for i, j, k in itertools.permutations((1, 2, 3)):
            word = E[i] * E[j] * E[k]
            assert word * word == MINUS_ONE
            assert E[i] * E[j] * E[k] * E[k] * E[j] * E[i] == ONE

    def test_scale_minus_one_is_reversed_product(self):
        assert (E[1] * E[2]).scale(-1) == E[2] * E[1]

    def test_blade_product_table_signs(self):
        assert blade_product(1, 1) == (1, 0)
        assert blade_product(3, 3) == (-1, 0)
        assert blade_product(7, 7) == (-1, 0)
        assert blade_product(1, 2) == (1, 3)
        assert blade_product(2, 1) == (-1, 3)

    def test_table_matches_transposition_count(self):
        # the reference counts, shift by shift, each bit of the left mask
        # above a bit of the right mask
        def counted(mask_a, mask_b):
            swaps, a = 0, mask_a >> 1
            while a:
                swaps += bin(a & mask_b).count("1")
                a >>= 1
            return (-1 if swaps & 1 else 1), mask_a ^ mask_b

        assert CAYLEY == tuple(
            tuple(counted(a, b) for b in range(8)) for a in range(8)
        )


class TestSignFlips:
    """Sign choices never move the values of squared words."""

    @pytest.mark.parametrize("s", [1, -1])
    @pytest.mark.parametrize("t", [1, -1])
    def test_plane_words(self, s, t):
        for i, j in itertools.permutations((1, 2, 3), 2):
            a, b = s * E[i], t * E[j]
            assert a * b * b * a == ONE
            assert a * b * a * b == MINUS_ONE

    def test_space_words(self):
        for signs in itertools.product((1, -1), repeat=3):
            for i, j, k in itertools.permutations((1, 2, 3)):
                a, b, c = signs[0] * E[i], signs[1] * E[j], signs[2] * E[k]
                assert a * b * c * c * b * a == ONE
                assert a * b * c * a * b * c == MINUS_ONE


class TestLinearStructure:
    def test_additive_inverse(self):
        assert E[1] + (-E[1]) == Multivector.scalar(0)

    def test_mixed_grade_sum(self):
        mixed = Multivector.scalar(1) + E[3] * E[1]
        assert mixed.coeffs[0] == 1
        assert grade_projection(mixed, 2) == E[3] * E[1]
        assert {mask.bit_count() for mask, a in enumerate(mixed.coeffs) if a} == {0, 2}

    def test_scalar_part_of_products(self):
        assert (E[1] * E[1]).coeffs[0] == 1
        assert (E[1] * E[2]).coeffs[0] == 0

    def test_grade_projection_range(self):
        with pytest.raises(ValueError):
            grade_projection(E[1], 4)

    def test_seeded_associativity_distributivity(self):
        rng = Random(99)
        for _ in range(200):
            a, b, c = (random_multivector(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


small = st.integers(min_value=-4, max_value=4)
mv_strategy = st.builds(
    lambda values: Multivector(tuple(values), EXACT),
    st.lists(small, min_size=8, max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(mv_strategy, mv_strategy, mv_strategy)
def test_associativity_property(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(mv_strategy, mv_strategy, mv_strategy)
def test_distributivity_property(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=60, deadline=None)
@given(mv_strategy, mv_strategy)
def test_reversal_of_scalar_part(a, b):
    # the scalar part of a product is insensitive to cyclic rotation
    assert (a * b).coeffs[0] == (b * a).coeffs[0]


class TestModes:
    def test_mixed_mode_rejected(self):
        x = basis_vector(1, APPROX)
        with pytest.raises(ValueError):
            _ = x * E[1]
        with pytest.raises(ValueError):
            _ = x + E[1]
        with pytest.raises(ValueError):
            x.equals(E[1])

    def test_word_refuses_what_the_product_refuses(self):
        x = basis_vector(1, APPROX)
        for factors, message in [
            ((x, E[1]), "mixed coefficient modes: approx vs exact"),
            ((E[1], E[2], x), "mixed coefficient modes: exact vs approx"),
        ]:
            for form in (word, partial(reduce, operator.mul)):
                with pytest.raises(ValueError) as raised:
                    form(factors)
                assert str(raised.value) == message
        with pytest.raises(ValueError, match="a dense word needs at least one factor"):
            word([])
        # one factor is its own value; a generator of factors is read once
        assert word([E[1]]) == E[1]
        assert word(e for e in (E[1], E[2], E[1], E[2])) == MINUS_ONE

    def test_float_coefficient_rejected_in_exact_mode(self):
        with pytest.raises(ValueError):
            E[1].scale(0.5)

    def test_fraction_rejected_in_approx_mode(self):
        with pytest.raises(ValueError):
            basis_vector(1, APPROX).scale(Fraction(1, 2))

    @pytest.mark.parametrize(
        "build,shown",
        [
            (lambda: Multivector.from_blades({0: "1.5"}, APPROX), "'1.5'"),
            (lambda: Multivector.from_blades({0: True}, APPROX), "True"),
            (lambda: basis_vector(1, APPROX).scale("2"), "'2'"),
        ],
        ids=["str-coefficient", "bool-coefficient", "str-factor"],
    )
    def test_bool_and_str_rejected_in_approx_mode(self, build, shown):
        """Approx mode takes non-bool int and float only, as exact mode
        takes non-bool int only."""
        message = f"approx mode needs int or float coefficients, got {shown}"
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "blades,mode,message",
        [
            ({0: 1}, "fuzzy", "unknown coefficient mode 'fuzzy'"),
            ({8: 1}, "fuzzy", "unknown coefficient mode 'fuzzy'"),
            ({0: 0.5}, "fuzzy", "unknown coefficient mode 'fuzzy'"),
            ({8: 1}, EXACT, "blade mask 8 out of range 0..7"),
            ({-1: 1.0}, APPROX, "blade mask -1 out of range 0..7"),
            ({0: True}, EXACT, "exact mode needs int coefficients, got True"),
            ({3: 0.5}, EXACT, "exact mode needs int coefficients, got 0.5"),
            ({7: False}, APPROX, "approx mode needs int or float coefficients, got False"),
            ({True: 1}, EXACT, "blade mask True out of range 0..7"),
            ({1.5: 1}, APPROX, "blade mask 1.5 out of range 0..7"),
            ({"1": 1}, EXACT, "blade mask '1' out of range 0..7"),
        ],
        ids=["mode", "mode-before-mask", "mode-before-value", "mask", "negative-mask",
             "exact-bool", "exact-float", "approx-bool", "bool-mask", "float-mask", "str-mask"],
    )
    def test_from_blades_checks_mode_then_masks_and_values(self, blades, mode, message):
        with pytest.raises(ValueError) as raised:
            Multivector.from_blades(blades, mode)
        assert str(raised.value) == message

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_from_blades_is_the_checked_constructor(self, mode):
        blades = {0: 2, 3: -1, 7: 1}
        coeffs = tuple(blades.get(mask, 0) for mask in range(8))
        built = Multivector.from_blades(blades, mode)
        assert built == Multivector(coeffs, mode)
        assert all(type(c) is (int if mode == EXACT else float) for c in built.coeffs)
        with pytest.raises(ValueError, match="unknown coefficient mode 'fuzzy'"):
            Multivector.scalar(1, "fuzzy")

    def test_approx_equals_tolerance(self):
        x = basis_vector(1, APPROX)
        nudged = x + basis_vector(1, APPROX).scale(1e-15)
        assert x.equals(nudged)
        assert not x.equals(x.scale(1.001))

    def test_approx_mirror_of_axioms(self):
        e1 = basis_vector(1, APPROX)
        e2 = basis_vector(2, APPROX)
        assert (e1 * e2).equals(-(e2 * e1))
        assert (e1 * e1).equals(Multivector.scalar(1.0, APPROX))


class TestTextFormat:
    def test_render_examples(self):
        mixed = Multivector.from_blades({0: 1, 3: 2, 7: -1})
        assert render_multivector(mixed) == "1 + 2*e12 - e123"
        assert str(-E[1]) == "-e1"
        assert str(Multivector.from_blades({})) == "0"
