"""Joint algebra of commuting subsystem copies."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensor_oracle as oracle
from blade_keys import pack
from contextuality_lab.ga import CAYLEY, blade_product
from contextuality_lab.systems import (
    MAX_SYSTEMS,
    ONE,
    TensorMultivector,
    generator,
    identify_pseudoscalars,
    render_tensor,
    word,
)
from tensor_oracle import SparseTensor


def gens(system):
    return [generator(system, axis) for axis in (1, 2, 3)]


class TestEmbedding:
    def test_embed_places_slot(self):
        # the generator is one packed key: the axis bit in its subsystem's
        # slot, no bit in the others, and its sign
        for system, axis, sign in itertools.product((1, 2, 3), (1, 2, 3), (1, -1)):
            masks = [0] * system
            masks[system - 1] = 1 << (axis - 1)
            assert generator(system, axis, sign) == TensorMultivector(sign, pack(tuple(masks)))

    def test_embed_range_check(self):
        # axis, then sign, then subsystem, each with its own message
        for args, message in [
            ((0, 4, 2), "axis index 4 out of range 1..3"),
            ((0, 1, 2), "sign must be +1 or -1"),
            ((4, 2), "system index 4 out of range 1..3"),
            ((0, 1), "system index 0 out of range 1..3"),
        ]:
            with pytest.raises(ValueError) as raised:
                generator(*args)
            assert str(raised.value) == message

    def test_generator_rejects_bad_axis_or_sign(self):
        with pytest.raises(ValueError):
            generator(1, 4)
        with pytest.raises(ValueError):
            generator(1, 1, sign=2)
        # the sign is an exact coefficient: a bool or a float is refused
        for sign in (True, 1.0, -1.0):
            with pytest.raises(ValueError, match="exact mode needs int coefficients"):
                generator(1, 1, sign=sign)


class TestProduct:
    def test_cross_system_commutation_exhaustive(self):
        all_gens = [generator(s, a) for s in (1, 2, 3) for a in (1, 2, 3)]
        systems_of = [s for s in (1, 2, 3) for _ in (1, 2, 3)]
        for (ga_a, sa), (ga_b, sb) in itertools.product(
            zip(all_gens, systems_of), repeat=2
        ):
            if sa != sb:
                assert ga_a * ga_b == ga_b * ga_a

    def test_within_system_anticommutation(self):
        e = gens(1)
        f = gens(2)
        assert e[0] * e[1] == -(e[1] * e[0])
        assert f[0] * f[1] == -(f[1] * f[0])

    def test_each_embedded_copy_keeps_single_copy_relations(self):
        one = ONE
        for s in (1, 2, 3):
            es = gens(s)
            for a in range(3):
                assert es[a] * es[a] == one
                for b in range(3):
                    if a != b:
                        assert es[a] * es[b] == -(es[b] * es[a])
            trivector = es[0] * es[1] * es[2]
            assert trivector * trivector == -one

    def test_mismatched_systems_or_mode_rejected(self):
        # the joint algebra is exact: a float sign is refused; only the
        # oracle, which holds its subsystem count, refuses mismatched counts
        for sign in (0.5, 1.0, True):
            with pytest.raises(ValueError, match="exact mode needs int coefficients"):
                TensorMultivector(sign, 0)
        with pytest.raises(ValueError, match="mismatched system counts: 2 vs 3"):
            _ = oracle.generator(1, 1, 2) * oracle.generator(1, 1, 3)
        with pytest.raises(ValueError):
            SparseTensor.scalar(0.5, 2)
        with pytest.raises(ValueError):
            oracle.generator(1, 1, 2).scale(2.0)

    def test_empty_word_is_the_identity(self):
        assert word([]) == ONE

    def test_checked_constructor_refuses_what_is_no_signed_blade(self):
        for args, message in [
            ((0, 0), "sign must be +1 or -1"),
            ((2, 0), "sign must be +1 or -1"),
            ((1, 8**3), "bad blade key 512 for 3 systems"),
            ((1, -1), "bad blade key -1 for 3 systems"),
            ((1, True), "bad blade key True for 3 systems"),
        ]:
            with pytest.raises(ValueError) as raised:
                TensorMultivector(*args)
            assert str(raised.value) == message

    def test_packed_sign_rule_matches_per_slot_table(self):
        # all 4096 pairs of two-slot keys: the packed rule multiplies each
        # slot through the one-slot table and exchanges no sign across slots
        for key_a in range(64):
            for key_b in range(64):
                low_sign, low = CAYLEY[key_a & 7][key_b & 7]
                high_sign, high = CAYLEY[key_a >> 3][key_b >> 3]
                assert blade_product(key_a, key_b) == (low_sign * high_sign, pack((low, high)))

    def test_scalar_part(self):
        e = gens(1)
        f = gens(2)
        assert (e[0] * f[0]).scalar_part() == 0
        assert ONE.scalar_part() == 1
        assert (e[0] * e[0]).scalar_part() == 1


class TestTwoBasisWords:
    """Products of the six generators of two subsystem bases."""

    def test_opposite_order_reduces_to_one(self):
        e = gens(1)
        f = gens(2)
        raw = word([e[0], e[1], e[2], f[1], f[0], f[2]])
        assert raw.coeffs == {pack((7, 7)): -1}
        assert identify_pseudoscalars(raw) == ONE

    def test_same_order_reduces_to_minus_one(self):
        e = gens(1)
        f = gens(2)
        raw = word([e[0], e[1], e[2], f[0], f[1], f[2]])
        assert raw.coeffs == {pack((7, 7)): 1}
        assert identify_pseudoscalars(raw) == -ONE

    def test_flip_parity_governs_word_value(self):
        # an even number of sign flips keeps both words, an odd number
        # negates them
        e = gens(1)
        f = gens(2)
        base = ONE
        for signs in itertools.product((1, -1), repeat=6):
            parity = signs[0] * signs[1] * signs[2] * signs[3] * signs[4] * signs[5]
            flipped = word(
                x if sign == 1 else -x
                for x, sign in zip((e[0], e[1], e[2], f[1], f[0], f[2]), signs)
            )
            assert identify_pseudoscalars(flipped) == (base if parity == 1 else -base)

    def test_interleaved_orders_match(self):
        # commuting the f factors through the e factors leaves words intact
        e = gens(1)
        f = gens(2)
        grouped = word([e[0], e[1], e[2], f[1], f[0], f[2]])
        interleaved = word([e[0], f[1], e[1], f[0], e[2], f[2]])
        assert grouped == interleaved
        aligned_grouped = word([e[0], e[1], e[2], f[0], f[1], f[2]])
        aligned_interleaved = word([e[0], f[0], e[1], f[1], e[2], f[2]])
        assert aligned_grouped == aligned_interleaved

    def test_interleaved_words_for_every_axis_permutation(self):
        # the crossed interleaving reduces to +1 and the aligned one to -1
        # no matter which permutation of the axes is chosen
        e = gens(1)
        f = gens(2)
        one = ONE
        for i, j, k in itertools.permutations(range(3)):
            crossed = word([e[i], f[j], e[j], f[i], e[k], f[k]])
            aligned = word([e[i], f[i], e[j], f[j], e[k], f[k]])
            assert identify_pseudoscalars(crossed) == one
            assert identify_pseudoscalars(aligned) == -one


class TestThreeSystemWords:
    def test_squared_pair_word_is_minus_one(self):
        e = gens(1)
        f = gens(2)
        g = gens(3)
        for i, j in itertools.permutations(range(3), 2):
            half = e[i] * f[i] * g[i] * e[j] * f[j] * g[j]
            assert half * half == -ONE

    def test_free_flips_over_all_sign_choices(self):
        # every generator occurs twice per subsystem block, so all 64 sign
        # assignments leave the value -1
        minus_one = -ONE
        for signs in itertools.product((1, -1), repeat=6):
            blocks = [
                (generator(s, 1, signs[2 * s - 2]), generator(s, 2, signs[2 * s - 1]))
                for s in (1, 2, 3)
            ]
            value = ONE
            for first, second in blocks:
                value = value * first * second * first * second
            assert value == minus_one


# The sparse oracle that the one-blade kernel is checked against below: its
# product on sums is associative and distributive.
_keys = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(pack)
tensor_strategy = st.builds(
    lambda entries: SparseTensor(2, entries),
    st.dictionaries(_keys, st.integers(-3, 3), max_size=4),
)


@settings(max_examples=40, deadline=None)
@given(tensor_strategy, tensor_strategy, tensor_strategy)
def test_tensor_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(tensor_strategy, tensor_strategy, tensor_strategy)
def test_tensor_product_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


class TestIdentifyPseudoscalars:
    def test_pairs_collapse(self):
        tm = TensorMultivector(1, pack((7, 7)))
        assert identify_pseudoscalars(tm) == -ONE

    def test_lone_trivector_slot_is_kept(self):
        tm = TensorMultivector(1, pack((7, 0, 0)))
        assert identify_pseudoscalars(tm) == tm

    def test_triple_keeps_one(self):
        tm = TensorMultivector(1, pack((7, 7, 7)))
        assert identify_pseudoscalars(tm) == TensorMultivector(-1, pack((0, 0, 7)))

    def test_linear_over_terms(self):
        # the sparse oracle, whose elements are sums
        tm = SparseTensor(2, {pack((7, 7)): 2, pack((1, 0)): 3})
        reduced = oracle.identify_pseudoscalars(tm)
        assert reduced.coeffs == {pack((0, 0)): -2, pack((1, 0)): 3}


class TestRendering:
    def test_generator_letters(self):
        assert str(generator(1, 1)) == "e1"
        assert str(generator(2, 2)) == "f2"
        assert str(generator(3, 2)) == "g2"

    def test_word_rendering(self):
        e1f2g2 = word([generator(1, 1), generator(2, 2), generator(3, 2)])
        assert render_tensor(e1f2g2) == "e1*f2*g2"

    def test_blade_and_sign_rendering(self):
        e = gens(1)
        f = gens(2)
        assert str(e[0] * e[1] * f[2]) == "e12*f3"
        assert str(-(e[0] * f[0])) == "-e1*f1"
        assert str(ONE) == "1"
        assert str(-ONE) == "-1"

    def test_oracle_renders_sums(self):
        assert str(oracle.identity(2) - oracle.identity(2)) == "0"
        tm = SparseTensor(3, {pack((1, 2, 2)): 1, pack((3, 0, 4)): -2, 0: 3})
        assert str(tm) == "3 + e1*f2*g2 - 2*e12*g3"


# -- the one-blade kernel against the sparse oracle ------------------------------


def signed_generator_words(n: int):
    """Words of 0-8 signed generators ``(system, axis, sign)`` over n slots."""
    factor = st.tuples(st.integers(1, n), st.integers(1, 3), st.sampled_from((1, -1)))
    return st.lists(factor, max_size=8)


def oracle_word(factors, n: int):
    """The oracle's word of signed generators ``(system, axis, sign)`` in the
    algebra of n subsystems."""
    return oracle.word([oracle.generator(s, a, n, sign) for s, a, sign in factors], n)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(signed_generator_words(n), signed_generator_words(n))
    )
)
def test_kernel_agrees_with_sparse_oracle(case):
    left_factors, right_factors = case
    left = word([generator(s, a, sign) for s, a, sign in left_factors])
    right = word([generator(s, a, sign) for s, a, sign in right_factors])
    # a product of two words, each blade of each slot, not only of a word and
    # a generator
    value = left * right
    # the kernel's words hold no subsystem count: they are the oracle's words
    # in the algebra of every n from the highest slot used up to the limit
    highest = max((s for s, _, _ in left_factors + right_factors), default=1)
    for n in range(highest, MAX_SYSTEMS + 1):
        left_expected, right_expected = oracle_word(left_factors, n), oracle_word(right_factors, n)
        expected = left_expected * right_expected
        assert expected == oracle.word([left_expected, right_expected], n)
        assert oracle.of(-value, n) == -expected
        for kernel, reference in (
            (left, left_expected),
            (value, expected),
            (identify_pseudoscalars(value), oracle.identify_pseudoscalars(expected)),
        ):
            assert oracle.of(kernel, n) == reference
            assert kernel.is_scalar() == reference.is_scalar()
            assert kernel.scalar_part() == reference.scalar_part()
            assert str(kernel) == str(reference)


def test_kernel_product_agrees_with_sparse_oracle_on_every_blade_pair():
    # every pair of one- and two-slot blades, so each entry of the oracle's
    # table is read in either slot; the words above reach most but not
    # always all of them
    for n in (1, 2):
        for key_a, key_b in itertools.product(range(8**n), repeat=2):
            a, b = TensorMultivector(-1, key_a), TensorMultivector(1, key_b)
            assert oracle.of(a * b, n) == oracle.of(a, n) * oracle.of(b, n)
