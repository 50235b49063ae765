"""Basis identification maps: columns, searches, commutator witness, orientations."""

import itertools
import json
import pickle
from types import SimpleNamespace

import pytest

from contextuality_lab import checks, ga, identities, systems
from contextuality_lab.constraints import ObservableProduct, PauliSymbol
from contextuality_lab.ga import EXACT, Multivector, basis_vector
from contextuality_lab.identities import (
    COLUMN_LINES,
    NEGATED_F1_MAP,
    UNIFORM_MAP,
    IdentityMap,
    all_identity_maps,
    bell_ghz_column,
    find_identity_maps,
    in_plane_vector,
    orientation_reading,
)
from identities_oracle import (
    dense,
    dense_bell_ghz_column,
    dense_column,
    dense_image,
    dense_substitute_and_reduce,
    handedness,
)

E1 = basis_vector(1)
E2 = basis_vector(2)
E12 = E1 * E2
MINUS_ONE = Multivector.scalar(-1)


def vector(sign, axis):
    """The signed in-plane vector ``sign * e_axis`` as a one-slot blade."""
    return systems.generator(1, axis, sign)


SWAPPED_MAP = IdentityMap(vector(1, 2), vector(1, 1), vector(1, 1), vector(1, 2))


def _reduce_line(imap, line):
    """A line reduced the kernel's way: its factors resolved to image-table
    positions, which refuses what no map can image, then multiplied."""
    return systems.word(map(imap._images.__getitem__, identities._line_indices(line)))


class TestSignedAxisVector:
    """A signed in-plane vector is the one-slot signed blade itself."""

    def test_parse_and_render(self):
        assert str(in_plane_vector("e1")) == "e1"
        assert str(in_plane_vector("-e2")) == "-e2"
        assert in_plane_vector("+f1") == vector(1, 1)
        assert in_plane_vector("g2") == vector(1, 2)
        assert in_plane_vector(" −e1 ") == vector(-1, 1)

    def test_blade_is_the_signed_generator(self):
        for sign in (1, -1):
            for axis in (1, 2):
                blade = in_plane_vector(f"{'-' if sign < 0 else ''}e{axis}")
                assert blade == systems.generator(1, axis, sign)
                assert dense(blade) == dense_image(blade)
                assert repr(blade) == f"TensorMultivector(sign={sign}, key={1 << axis - 1})"
                assert pickle.loads(pickle.dumps(blade)) == blade

    def test_parse_rejects_out_of_plane(self):
        for label in ("e3", "x1", "e12", "--e1", ""):
            with pytest.raises(ValueError, match="cannot parse signed in-plane vector"):
                in_plane_vector(label)


class TestIdentityMap:
    def test_distinct_axes_enforced(self):
        with pytest.raises(ValueError, match="f images must use distinct axes"):
            IdentityMap(vector(1, 1), vector(-1, 1), vector(1, 1), vector(1, 2))
        with pytest.raises(ValueError, match="g images must use distinct axes"):
            IdentityMap(vector(1, 1), vector(1, 2), vector(1, 2), vector(-1, 2))

    @pytest.mark.parametrize(
        "image",
        [
            systems.generator(1, 3),
            systems.generator(1, 1) * systems.generator(2, 1),
            systems.generator(2, 2),
            systems.ONE,
            -systems.ONE,
            vector(1, 1) * vector(1, 2),
            basis_vector(1),
            "e1",
        ],
        ids=["e3", "two-slot-e1", "f2", "one", "minus-one", "e12", "dense-e1", "label"],
    )
    def test_images_are_signed_in_plane_blades(self, image):
        for k in range(4):
            images = [vector(1, 1), vector(1, 2), vector(1, 1), vector(1, 2)]
            images[k] = image
            with pytest.raises(ValueError, match="is not \\+-e1 or \\+-e2 of one slot"):
                IdentityMap(*images)

    def test_one_image_table_per_map(self):
        own = (vector(1, 1), vector(1, 2))
        for imap in all_identity_maps():
            table = (*own, imap.f1, imap.f2, imap.g1, imap.g2)
            assert imap._images == table
            assert tuple(imap.image(s, a) for s in (1, 2, 3) for a in (1, 2)) == table
            # a private cache: repr and pickling leave it out, __init__ rebuilds it
            assert "_images" not in repr(imap)
            assert pickle.loads(pickle.dumps(imap))._images == table
        with pytest.raises(ValueError, match="system index 4 out of range 1..3"):
            UNIFORM_MAP.image(4, 1)

    def test_all_maps_count_and_uniqueness(self):
        maps = all_identity_maps()
        assert len(maps) == 64
        assert len(set(maps)) == 64

    def test_json_round_trip(self):
        # the labels that search-identities prints parse back to the same map
        for imap in all_identity_maps():
            labels = json.loads(json.dumps(imap.as_dict()))
            images = (in_plane_vector(labels[k]) for k in ("f1", "f2", "g1", "g2"))
            assert IdentityMap(*images) == imap
        assert NEGATED_F1_MAP.as_dict() == {
            "f1": "-e1",
            "f2": "e2",
            "g1": "e1",
            "g2": "e2",
        }

    def test_handedness_flag(self):
        assert handedness(NEGATED_F1_MAP, 2) == -1
        assert handedness(NEGATED_F1_MAP, 3) == 1
        assert handedness(UNIFORM_MAP, 2) == 1
        assert handedness(SWAPPED_MAP, 2) == -1


class TestSubstitution:
    # column entries in COLUMN_LINES order: x1*y2*y3, y1*x2*y3, y1*y2*x3, x1*x2*x3
    def test_negated_f1_map_lines(self):
        column = bell_ghz_column(NEGATED_F1_MAP)
        assert dense(column.entries[3]) == -E1
        assert dense(column.entries[1]) == E1

    def test_uniform_map_line(self):
        assert dense(bell_ghz_column(UNIFORM_MAP).entries[1]) == -E1

    def test_z_axis_rejected(self):
        # axis z has no image: the identification covers only the plane
        with pytest.raises(ValueError, match="axis 3 outside the identified plane"):
            identities._line_indices(ObservableProduct.parse("x1*z2*y3"))
        with pytest.raises(ValueError, match="axis 3 outside the identified plane"):
            NEGATED_F1_MAP.image(2, 3)


class TestColumns:
    def test_negated_f1_column(self):
        column = bell_ghz_column(NEGATED_F1_MAP)
        assert column.labels() == ("e1", "e1", "e1", "-e1")
        assert dense(column.product) == MINUS_ONE

    def test_uniform_column(self):
        column = bell_ghz_column(UNIFORM_MAP)
        assert column.labels() == ("e1", "-e1", "e1", "e1")
        assert dense(column.product) == MINUS_ONE

    def test_swapped_map_column(self):
        column = bell_ghz_column(SWAPPED_MAP)
        assert column.labels() == ("e2", "e2", "e2", "-e2")
        assert dense(column.product) == MINUS_ONE

    def test_all_maps_multiply_to_minus_one(self):
        for imap in all_identity_maps():
            assert dense(bell_ghz_column(imap).product) == MINUS_ONE

    def test_columns_are_one_read_only_map_in_map_order(self):
        table = identities.columns()
        assert table is identities.columns()
        assert list(table) == list(all_identity_maps())
        assert all(table[imap] == bell_ghz_column(imap) for imap in table)
        with pytest.raises(TypeError):
            table[UNIFORM_MAP] = None

    def test_entries_are_unit_plane_vectors(self):
        for imap in all_identity_maps():
            column = bell_ghz_column(imap)
            for value in (*column.entries, column.product):
                assert isinstance(value, systems.TensorMultivector) and value.key < 8
            for entry in column.entries:
                assert dense(entry).coeffs[4] == 0
                assert dense(entry) in (E1, -E1, E2, -E2)

    def test_column_line_order(self):
        assert [line.label for line in COLUMN_LINES] == [
            "x1*y2*y3",
            "y1*x2*y3",
            "y1*y2*x3",
            "x1*x2*x3",
        ]


class TestDenseOracle:
    """The signed-blade reduction equals the dense 8-blade product on all 64
    maps."""

    def test_lines_equal_dense_product(self):
        for imap in all_identity_maps():
            entries = bell_ghz_column(imap).entries
            for k, line in enumerate(COLUMN_LINES):
                assert dense(entries[k]) == dense_substitute_and_reduce(imap, line)
                assert _reduce_line(imap, line) == entries[k]

    def test_columns_equal_dense_product(self):
        for imap in all_identity_maps():
            assert dense_column(bell_ghz_column(imap)) == dense_bell_ghz_column(imap)

    @pytest.mark.parametrize("reduce", [_reduce_line, dense_substitute_and_reduce])
    def test_z_axis_rejected(self, reduce):
        with pytest.raises(ValueError, match="axis 3 outside the identified plane"):
            reduce(UNIFORM_MAP, ObservableProduct.parse("x1*y2*z3"))

    @pytest.mark.parametrize("reduce", [_reduce_line, dense_substitute_and_reduce])
    def test_out_of_range_system_rejected(self, reduce):
        # PauliSymbol refuses system 4, so a stand-in factor carries it
        line = ObservableProduct((PauliSymbol(1, "x"), SimpleNamespace(system=4, axis="y")))
        with pytest.raises(ValueError, match="system index 4 out of range"):
            reduce(UNIFORM_MAP, line)


class TestSearchWork:
    def test_search_forms_no_dense_product(self, monkeypatch):
        products = []
        dense = ga._product

        def counted(left, right, mode):
            products.append(1)
            return dense(left, right, mode)

        # every dense product, by ``*`` or ``ga.word``, runs the kernel
        monkeypatch.setattr(ga, "_product", counted)
        columns = []
        column = identities.bell_ghz_column

        def counted_column(imap):
            columns.append(imap)
            return column(imap)

        monkeypatch.setattr(identities, "bell_ghz_column", counted_column)
        identities.columns.cache_clear()
        found = find_identity_maps(in_plane_vector("e1"))
        assert NEGATED_F1_MAP in found
        assert products == []
        assert columns == list(all_identity_maps())


E2_VEC = vector(1, 2)


class TestSearch:
    def test_target_e1_includes_negated_f1_map(self):
        found = find_identity_maps(in_plane_vector("e1"))
        assert NEGATED_F1_MAP in found

    @pytest.mark.parametrize("label", ["e1", "-e1", "e2", "-e2"])
    def test_every_target_is_reachable(self, label):
        target = in_plane_vector(label)
        found = find_identity_maps(target)
        assert found
        for imap in found:
            column = bell_ghz_column(imap)
            assert dense(column.entries[0]) == dense_image(target)
            assert dense(column.entries[3]) == -dense_image(target)
            assert dense(column.product) == MINUS_ONE

    def test_swapped_map_found_for_e2(self):
        assert SWAPPED_MAP in find_identity_maps(E2_VEC)

    def test_search_partitions_all_maps(self):
        # every map lands on exactly one target pattern or on none
        hits = sum(
            len(find_identity_maps(vector(s, a)))
            for s in (1, -1)
            for a in (1, 2)
        )
        assert hits <= 64


class TestA3Witness:
    """The ``a3.commutator.ij`` rows: with the bases identified, e_i fails to
    commute with e_i e_j, their commutator being 2 e_j."""

    def test_all_ordered_pairs(self):
        rows = {check_id: compute for check_id, _, compute in checks.A3}
        for i, j in itertools.permutations((1, 2, 3), 2):
            ei, bivector = basis_vector(i), basis_vector(i) * basis_vector(j)
            witness = ei * bivector - bivector * ei
            assert witness == basis_vector(j).scale(2)
            assert witness != Multivector.scalar(0)
            ok, row_witness = rows.pop(f"a3.commutator.{i}{j}")(checks.Context(EXACT, 0))
            assert ok and row_witness == {"commutator": str(witness)}
        assert rows == {}


class TestOrientationReading:
    def test_negated_f1_map_aligns_all_three(self):
        reading = orientation_reading(NEGATED_F1_MAP)
        assert tuple(map(dense, reading.orientations)) == (E12, E12, E12)
        assert [reading.identical(1, 2), reading.identical(1, 3), reading.identical(2, 3)] == [
            True, True, True
        ]

    def test_uniform_map_flips_the_middle(self):
        reading = orientation_reading(UNIFORM_MAP)
        assert dense(reading.orientations[0]) == E12
        assert dense(reading.orientations[1]) == -E12
        assert dense(reading.orientations[2]) == E12
        assert [reading.identical(1, 2), reading.identical(1, 3), reading.identical(2, 3)] == [
            False, True, False
        ]

    def test_second_system_reads_f2_f1_image(self):
        for imap in all_identity_maps():
            expected = dense_image(imap.image(2, 2)) * dense_image(imap.image(2, 1))
            assert dense(orientation_reading(imap).orientations[1]) == expected

    def test_verdicts_match_handedness_closed_form(self):
        # the f-side orientation flips against e12 exactly when the signed
        # permutation is orientation preserving; the g side reads in axis
        # order so it follows the handedness directly
        for imap in all_identity_maps():
            reading = orientation_reading(imap)
            assert reading.identical(1, 2) == (handedness(imap, 2) == -1)
            assert reading.identical(1, 3) == (handedness(imap, 3) == 1)
