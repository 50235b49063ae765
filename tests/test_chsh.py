"""Coplanar correlation sweep: classical bound, vector curve, matrix cross-check."""

import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contextuality_lab import chsh, quantum
from contextuality_lab.chsh import (
    CLASSICAL_BOUND,
    VECTOR_BOUND,
    csv_rows,
    F,
    quantum_lhs,
    scan_F,
)
from contextuality_lab.ga import APPROX, Multivector
from sweep_oracle import (
    SIGNED_AXES,
    CoplanarConfig,
    classical_gamma_enumeration,
    components,
    dense_F,
    dense_quantum_lhs,
    gamma_vector,
    grade_projection,
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
            assert gamma_vector(CoplanarConfig.at(phi)).equals(closed_form_gamma(phi))

    def test_even_multivector_on_grid(self):
        for k in range(1001):
            phi = math.pi * k / 1000
            gamma = gamma_vector(CoplanarConfig.at(phi))
            zero = Multivector.scalar(0, gamma.mode)
            assert grade_projection(gamma, 1) == zero
            assert grade_projection(gamma, 3) == zero

    def test_value_at_sixty_degrees(self):
        gamma = gamma_vector(CoplanarConfig.at(math.pi / 3))
        assert gamma.coeffs[0] == pytest.approx(2.5, abs=TOL)
        assert abs(gamma.coeffs[5]) == pytest.approx(math.sqrt(3) / 2, abs=TOL)

    def test_degenerate_collinear_case(self):
        gamma = gamma_vector(CoplanarConfig.at(0.0))
        assert gamma.coeffs[0] == pytest.approx(2.0, abs=TOL)
        assert gamma.coeffs[5] == pytest.approx(0.0, abs=TOL)


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


#: Angles of plane directions (cos t, 0, sin t), a' up to twice the sweep's.
plane_angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi, allow_nan=False)

#: The signed unit axes of the e1-e3 plane with y = +0.0, as the sweep's
#: directions have it, and every sign of the other zero component.
PLANE_AXES = tuple(v for v in SIGNED_AXES if (v[1], math.copysign(1.0, v[1])) == (0.0, 1.0))

SEAM_STEPS = (chsh.BATCH_SIZE, chsh.BATCH_SIZE + 1, 2 * chsh.BATCH_SIZE + 1)


def plane_direction(t):
    return (math.cos(t), 0.0, math.sin(t))


#: The sweep's b' = (cos 0, 0, sin 0), which its columns fold in.
B_PRIME = plane_direction(0.0)


def kron_plane_chsh(a, ap, bp=B_PRIME):
    """|E(a,a) + E(a,b') + E(a',a) - E(a',b')| through the Kronecker oracle."""
    return abs(
        kron_singlet_correlation(a, a)
        + kron_singlet_correlation(a, bp)
        + kron_singlet_correlation(ap, a)
        - kron_singlet_correlation(ap, bp)
    )


def plane_kernel(a, ap):
    """The sweep's plane kernel at one angle: b is a, b' folded in."""
    (value,) = chsh._singlet_column([a[0]], [a[2]], [ap[0]], [ap[2]])
    return value


def plane_batch(a, a_prime):
    """The four plane columns (cs, ss, c2s, s2s) of lists of (x, z) pairs."""
    return ([c for c, _ in a], [s for _, s in a], [c for c, _ in a_prime], [s for _, s in a_prime])


def direction_with_norm(norm2):
    """A plane direction (c, s) whose squared norm c*c + s*s is the float
    ``norm2`` exactly: the largest c with c*c <= norm2, then s for the rest."""
    c = math.sqrt(norm2)
    while c * c > norm2:
        c = math.nextafter(c, 0.0)
    s = math.sqrt(norm2 - c * c)
    assert c * c + s * s == norm2
    return c, s


#: Squared norms at 1 +- UNIT_NORM_TOLERANCE and one float on either side.
BOUNDARY_NORMS = tuple(
    math.nextafter(edge, toward)
    for edge in (1.0 + quantum.UNIT_NORM_TOLERANCE, 1.0 - quantum.UNIT_NORM_TOLERANCE)
    for toward in (0.0, edge, 2.0)
)


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
    @given(plane_angles, plane_angles)
    @example(-0.0, -0.0)
    @example(0.0, 0.0)
    @example(math.pi, 2.0 * math.pi)
    @example(-0.0, math.pi)
    @example(math.pi / 2, -math.pi / 2)
    def test_singlet_chsh_is_the_four_kronecker_terms(self, t, t_prime):
        a, ap = plane_direction(t), plane_direction(t_prime)
        assert plane_kernel(a, ap).hex() == kron_plane_chsh(a, ap).hex()

    def test_singlet_chsh_on_signed_plane_axes(self):
        # exact cancellations of every sign: the dropped y products, + 0.0
        # and folded b' products may only change the sign of a zero, which
        # abs erases
        for a, ap in itertools.product(PLANE_AXES, repeat=2):
            assert plane_kernel(a, ap).hex() == kron_plane_chsh(a, ap).hex()

    def test_checked_b_prime_is_the_folded_first_axis(self):
        # both columns fold in b' = (1, 0): exact for this b' only
        assert chsh._checked_b_prime() == (1.0, 0.0)

    @settings(max_examples=6, deadline=None)
    @given(angles, angles, st.sampled_from(SEAM_STEPS))
    @example(0.0, math.pi, 2 * chsh.BATCH_SIZE + 1)
    def test_singlet_chsh_batches_are_the_four_kronecker_terms(self, start, end, steps):
        # whole sweeps of one to three batches, so a misaligned column or a
        # batch seam shows: every value is the oracle's at its own angle
        assume(start < end)
        batches = list(chsh.sweep(start, end, steps))
        assert [v.hex() for _, _, qm_lhs in batches for v in qm_lhs] == [
            dense_quantum_lhs(phi).hex() for phis, _, _ in batches for phi in phis
        ]

    @settings(max_examples=200, deadline=None)
    @given(angles)
    def test_quantum_lhs_is_bit_identical_to_dense_reference(self, phi):
        assert quantum_lhs(phi) == dense_quantum_lhs(phi)

    def test_quantum_lhs_is_bit_identical_on_grid(self):
        for k in range(2001):
            phi = math.pi * k / 2000
            assert quantum_lhs(phi) == dense_quantum_lhs(phi)

    @pytest.mark.parametrize(
        "a,b", [((1.0, 0.0, 0.1), (1.0, 0.0, 0.0)), ((0.0, 1.0, 0.0), (0.5, 0.5, 0.5))]
    )
    def test_singlet_rejects_non_unit_directions(self, a, b):
        with pytest.raises(ValueError, match="not a unit vector"):
            quantum.singlet_correlation(a, b)


class TestBatches:
    """The sweep runs in batches of ``BATCH_SIZE`` angles; nothing about the
    result may depend on where the seams fall."""

    @pytest.mark.parametrize("steps", SEAM_STEPS)
    def test_scan_at_batch_seams_is_the_dense_per_angle_max(self, steps):
        start, end = 0.25, 3.0
        spacing = (end - start) / (steps - 1)
        best_phi, best = start, -math.inf
        for k in range(steps):
            phi = start + k * spacing
            value = dense_F(phi)
            if value > best:
                best_phi, best = phi, value
        assert scan_F(steps, start, end) == chsh.ScanResult(best_phi, best)

    @pytest.mark.parametrize("steps", SEAM_STEPS)
    def test_batches_cover_the_grid_in_order(self, steps):
        batches = list(chsh.sweep(0.0, math.pi, steps, singlet=False))
        assert all(len(phis) <= chsh.BATCH_SIZE for phis, _, _ in batches)
        assert all(qm_lhs is None for _, _, qm_lhs in batches)
        spacing = math.pi / (steps - 1)
        assert [phi for phis, _, _ in batches for phi in phis] == [
            0.0 + k * spacing for k in range(steps)
        ]

    @pytest.mark.parametrize("name", ["a", "a_prime"])
    @pytest.mark.parametrize(
        "bad", [(math.nan, 0.0), (math.sqrt(1.0 + 2e-11), 0.0)], ids=["nan", "norm-off-by-2e-11"]
    )
    def test_batched_unit_check_rejects_like_quantum_unit(self, name, bad):
        good = (math.cos(0.3), math.sin(0.3))
        a = [good, bad if name == "a" else good]
        a_prime = [good, bad if name == "a_prime" else good]
        with pytest.raises(ValueError) as batched:
            chsh._qm_lhs_column(*plane_batch(a, a_prime))
        with pytest.raises(ValueError) as single:
            quantum._unit((bad[0], 0.0, bad[1]), name)
        assert str(batched.value) == str(single.value)
        assert str(batched.value).startswith(f"direction {name} is not a unit vector")

    @pytest.mark.parametrize("name", ["a", "a_prime"])
    def test_batched_unit_check_agrees_with_quantum_unit_at_the_tolerance(self, name):
        # raises exactly when quantum._unit does, with its message, on both
        # sides of both edges, with either column holding the large part
        good = (math.cos(0.3), math.sin(0.3))
        outcomes = set()
        for norm2 in BOUNDARY_NORMS:
            c, s = direction_with_norm(norm2)
            for bad in ((c, s), (s, c)):
                try:
                    quantum._unit((bad[0], 0.0, bad[1]), name)
                    expected = None
                except ValueError as exc:
                    expected = str(exc)
                a = [good, bad if name == "a" else good]
                a_prime = [good, bad if name == "a_prime" else good]
                try:
                    chsh._qm_lhs_column(*plane_batch(a, a_prime))
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == expected, (norm2, bad)
                outcomes.add((norm2 > 1.0, expected is None))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize(
        "planted,message",
        [
            # a' is off at angle 0 and a at angle 1: a is checked first
            (
                {(2, 0): 0.5, (3, 0): 0.0, (0, 1): 0.0, (1, 1): 2.0},
                "direction a is not a unit vector (|a|^2=4.0)",
            ),
            ({(2, 0): math.nan, (1, 7): math.nan}, "direction a is not a unit vector (|a|^2=nan)"),
            ({(0, 5): math.nan}, "direction a is not a unit vector (|a|^2=nan)"),
            ({(1, 5): math.nan}, "direction a is not a unit vector (|a|^2=nan)"),
            ({(2, 5): math.nan}, "direction a_prime is not a unit vector (|a_prime|^2=nan)"),
            ({(3, 5): math.nan}, "direction a_prime is not a unit vector (|a_prime|^2=nan)"),
        ],
        ids=["a-after-a-prime", "nan-a-after-a-prime", "nan-c", "nan-s", "nan-c2", "nan-s2"],
    )
    def test_sweep_names_the_first_offender_a_before_a_prime(self, monkeypatch, planted, message):
        # planted values (column, angle) -> value in the plane columns
        # (cs, ss, c2s, s2s) of every batch of a sweep
        original = chsh._plane_columns

        def plane_columns(phis):
            plane = original(phis)
            for (column, k), value in planted.items():
                plane[column][k] = value
            return plane

        monkeypatch.setattr(chsh, "_plane_columns", plane_columns)
        with pytest.raises(ValueError) as raised:
            list(chsh.sweep(0.25, 3.0, 20))
        assert str(raised.value) == message

    @pytest.mark.parametrize("tail", [1, 2, chsh.BATCH_SIZE])
    def test_each_batch_is_written_as_its_rows_one_by_one(self, tail):
        # a full first batch, then a batch of ``tail`` rows
        steps = chsh.BATCH_SIZE + tail
        written = []
        scan_F(steps, 0.25, 3.0, write=written.append)
        batches = list(chsh.sweep(0.25, 3.0, steps))
        assert [len(phis) for phis, _, _ in batches] == [chsh.BATCH_SIZE, tail]
        assert written[1:] == [
            "".join(map(chsh.CSV_ROW.__mod__, zip(*batch))) for batch in batches
        ]
