"""Coplanar correlation sweep: classical bound, vector curve, matrix cross-check."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextuality_lab import quantum
from contextuality_lab.chsh import (
    CLASSICAL_BOUND,
    VECTOR_BOUND,
    classical_gamma_enumeration,
    csv_rows,
    F,
    non_collinearity_witness,
    quantum_lhs,
    scan_F,
)
from contextuality_lab.ga import APPROX, Multivector
from sweep_oracle import (
    CoplanarConfig,
    components,
    dense_F,
    dense_non_collinearity_witness,
    dense_quantum_lhs,
    gamma_vector,
    kron_singlet_correlation,
)

TOL = 1e-12


def closed_form_gamma(phi):
    """Independent expansion of the four-term combination."""
    scalar = 1.0 + 2.0 * math.cos(phi) - math.cos(2.0 * phi)
    bivector = 2.0 * math.sin(phi) - math.sin(2.0 * phi)
    # the bivector lives on the plane spanned by the third and first axes;
    # on the canonical e13 blade that component carries a minus sign
    return Multivector.from_blades({0: scalar, 5: -bivector}, APPROX)


def closed_form_F(phi):
    return abs(1.0 + 2.0 * math.cos(phi) - math.cos(2.0 * phi))


class TestClassicalEnumeration:
    def test_every_assignment_gives_plus_or_minus_two(self):
        rows = classical_gamma_enumeration()
        assert len(rows) == 16
        assert all(gamma in (2, -2) for _, gamma in rows)

    def test_specific_assignments(self):
        # gamma = a*b + a*b' + a'*b - a'*b' over tuples (a, a', b, b')
        table = dict(classical_gamma_enumeration())
        assert table[(1, 1, 1, 1)] == 2
        assert table[(1, 1, 1, -1)] == 2
        assert table[(1, 1, -1, -1)] == -2
        assert table[(-1, 1, 1, 1)] == -2

    def test_averages_respect_the_bound(self):
        rows = classical_gamma_enumeration()
        values = [gamma for _, gamma in rows]
        assert abs(sum(values) / len(values)) <= CLASSICAL_BOUND
        assert max(abs(v) for v in values) == 2


class TestConfig:
    def test_unit_norms_and_angles(self):
        for phi in (0.1, 0.7, math.pi / 3, 2.9):
            config = CoplanarConfig.at(phi)
            for name in ("a", "b", "a_prime", "b_prime"):
                x, y, z = components(config, name)
                assert x * x + y * y + z * z == pytest.approx(1.0, abs=TOL)
            a = components(config, "a")
            b = components(config, "b")
            ap = components(config, "a_prime")
            bp = components(config, "b_prime")
            dot = lambda u, v: sum(x * y for x, y in zip(u, v))
            assert dot(a, b) == pytest.approx(1.0, abs=TOL)
            assert dot(a, bp) == pytest.approx(math.cos(phi), abs=TOL)
            assert dot(ap, b) == pytest.approx(math.cos(phi), abs=TOL)
            assert dot(ap, bp) == pytest.approx(math.cos(2 * phi), abs=TOL)


class TestGammaVector:
    def test_matches_closed_form_on_grid(self):
        for k in range(1001):
            phi = math.pi * k / 1000
            assert gamma_vector(CoplanarConfig.at(phi)).equals(
                closed_form_gamma(phi), tolerance=TOL
            )

    def test_even_multivector_on_grid(self):
        for k in range(1001):
            phi = math.pi * k / 1000
            gamma = gamma_vector(CoplanarConfig.at(phi))
            assert gamma.grade_projection(1).is_zero(TOL)
            assert gamma.grade_projection(3).is_zero(TOL)

    def test_value_at_sixty_degrees(self):
        gamma = gamma_vector(CoplanarConfig.at(math.pi / 3))
        assert gamma.scalar_part() == pytest.approx(2.5, abs=TOL)
        assert abs(gamma.coeffs[5]) == pytest.approx(math.sqrt(3) / 2, abs=TOL)

    def test_degenerate_collinear_case(self):
        gamma = gamma_vector(CoplanarConfig.at(0.0))
        assert gamma.scalar_part() == pytest.approx(2.0, abs=TOL)
        assert gamma.coeffs[5] == pytest.approx(0.0, abs=TOL)

    def test_non_collinearity_inside_the_range(self):
        for phi in (0.01, 1.0, 2.0, math.pi - 0.01):
            assert non_collinearity_witness(phi)


class TestCurveF:
    def test_reference_values(self):
        assert F(math.pi / 4) == pytest.approx(1.0 + math.sqrt(2.0), abs=TOL)
        assert F(math.pi / 3) == pytest.approx(2.5, abs=TOL)
        assert F(0.0) == pytest.approx(2.0, abs=TOL)
        assert F(math.pi) == pytest.approx(2.0, abs=TOL)

    def test_matches_closed_form_on_grid(self):
        for k in range(1001):
            phi = math.pi * k / 1000
            assert F(phi) == pytest.approx(closed_form_F(phi), abs=TOL)

    def test_bounded_by_five_halves(self):
        for k in range(1001):
            phi = math.pi * k / 1000
            assert F(phi) <= VECTOR_BOUND + 1e-9

    def test_scan_locates_the_maximum(self):
        result = scan_F(10001)
        assert result.maximum == pytest.approx(2.5, abs=1e-6)
        assert result.argmax == pytest.approx(math.pi / 3, abs=1e-3)

    def test_scan_validates_arguments(self):
        with pytest.raises(ValueError):
            scan_F(2)
        with pytest.raises(ValueError):
            scan_F(10, start=1.0, end=0.5)

    def test_coarse_scan_stays_below_bound(self):
        result = scan_F(3)
        assert result.maximum <= 2.5 + TOL


class TestQuantumAgreement:
    def test_reference_values(self):
        assert quantum_lhs(math.pi / 3) == pytest.approx(2.5, abs=TOL)
        assert quantum_lhs(0.0) == pytest.approx(2.0, abs=TOL)
        assert quantum_lhs(math.pi / 4) == pytest.approx(1.0 + math.sqrt(2.0), abs=TOL)

    def test_agrees_with_F_on_grid(self):
        for k in range(0, 1001, 10):
            phi = math.pi * k / 1000
            assert quantum_lhs(phi) == pytest.approx(F(phi), abs=TOL)


class TestCsvRows:
    def test_row_shape_and_bounds(self):
        rows = list(csv_rows(0.0, math.pi, 5))
        assert len(rows) == 5
        assert rows[0][0] == 0.0
        assert rows[-1][0] == pytest.approx(math.pi)
        for phi, value, qm, classical, vector in rows:
            assert classical == CLASSICAL_BOUND
            assert vector == VECTOR_BOUND
            assert value == pytest.approx(qm, abs=TOL)

    @pytest.mark.parametrize(
        "start,end,steps,match",
        [(2.0, 1.0, 3, "bad angle range"), (0.0, 7.0, 3, "bad angle range"),
         (-0.5, 1.0, 3, "bad angle range"), (0.0, 1.0, 2, "at least 3 points")],
    )
    def test_grid_validated_like_scan(self, start, end, steps, match):
        with pytest.raises(ValueError, match=match):
            scan_F(steps, start, end)
        with pytest.raises(ValueError, match=match):
            list(csv_rows(start, end, steps))


angles = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)


@st.composite
def unit_vectors(draw):
    """Unit 3-vectors in general position, y component included."""
    raw = draw(
        st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False) for _ in range(3)]).filter(
            lambda v: sum(c * c for c in v) > 1e-3
        )
    )
    norm = math.sqrt(sum(c * c for c in raw))
    return tuple(c / norm for c in raw)


class TestDenseOracle:
    """The even-subalgebra sweep and the real-arithmetic singlet equal the
    dense paths exactly, not just within a tolerance."""

    @settings(max_examples=500, deadline=None)
    @given(angles)
    def test_F_is_bit_identical_to_dense_scalar_part(self, phi):
        assert F(phi) == dense_F(phi)

    def test_F_is_bit_identical_on_grid(self):
        for k in range(2001):
            phi = math.pi * k / 2000
            assert F(phi) == dense_F(phi)

    @settings(max_examples=500, deadline=None)
    @given(unit_vectors(), unit_vectors())
    @example((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    @example((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    @example((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    @example((0.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    @example((0.0, 1.0, 0.0), (0.0, 0.0, -1.0))
    @example((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    @example((-0.0, 1.0, 0.0), (1.0, -0.0, 0.0))
    @example((0.0, -0.0, -1.0), (-0.0, 1.0, -0.0))
    @example((-1.0, -0.0, -0.0), (-1.0, 0.0, -0.0))
    def test_singlet_matches_full_kronecker_reference(self, a, b):
        assert quantum.singlet_correlation(a, b) == kron_singlet_correlation(a, b)

    @settings(max_examples=300, deadline=None)
    @given(unit_vectors(), unit_vectors(), unit_vectors(), unit_vectors(), st.booleans())
    @example((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), True)
    @example((-0.0, 1.0, 0.0), (1.0, -0.0, 0.0), (0.0, -0.0, -1.0), (-1.0, 0.0, -0.0), False)
    def test_singlet_chsh_is_the_four_kronecker_terms(self, a, ap, b, bp, b_is_a):
        if b_is_a:
            b = a
        expected = (
            kron_singlet_correlation(a, b)
            + kron_singlet_correlation(a, bp)
            + kron_singlet_correlation(ap, b)
            - kron_singlet_correlation(ap, bp)
        )
        assert quantum.singlet_chsh(a, ap, b, bp).hex() == expected.hex()

    @settings(max_examples=200, deadline=None)
    @given(angles)
    def test_quantum_lhs_is_bit_identical_to_dense_reference(self, phi):
        assert quantum_lhs(phi) == dense_quantum_lhs(phi)

    def test_quantum_lhs_is_bit_identical_on_grid(self):
        for k in range(2001):
            phi = math.pi * k / 2000
            assert quantum_lhs(phi) == dense_quantum_lhs(phi)

    @settings(max_examples=500, deadline=None)
    @given(angles, st.sampled_from((1e-12, 1e-6, 0.1)))
    @example(0.0, 1e-12)
    @example(math.pi, 1e-12)
    @example(math.pi, 0.1)
    def test_non_collinearity_witness_equals_dense_witness(self, phi, tolerance):
        assert non_collinearity_witness(phi) == dense_non_collinearity_witness(phi)
        assert non_collinearity_witness(phi, tolerance) == dense_non_collinearity_witness(
            phi, tolerance
        )

    def test_non_collinearity_fails_at_both_ends(self):
        assert not non_collinearity_witness(0.0)
        assert not non_collinearity_witness(math.pi)

    @pytest.mark.parametrize(
        "a,b", [((1.0, 0.0, 0.1), (1.0, 0.0, 0.0)), ((0.0, 1.0, 0.0), (0.5, 0.5, 0.5))]
    )
    def test_singlet_rejects_non_unit_directions(self, a, b):
        with pytest.raises(ValueError, match="not a unit vector"):
            quantum.singlet_correlation(a, b)
