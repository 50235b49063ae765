"""Constraint systems: shapes, scalar no-go counts, vector model, audit."""

import itertools
import json
from fractions import Fraction

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
    VectorAssignment,
    builtin_constraints,
    enumerate_scalar_assignments,
    evaluate_vector_model,
    non_contextuality_audit,
    parity_witness,
)


def brute_force_count(cs):
    """Independent enumeration used as the oracle for the library counts."""
    observables = sorted({t.label for line in cs.lines for t in line.terms})
    count = 0
    for values in itertools.product((1, -1), repeat=len(observables)):
        table = dict(zip(observables, values))
        if all(
            _product(table[t.label] for t in line.terms) == line.required
            for line in cs.lines
        ):
            count += 1
    return count


def _product(values):
    result = 1
    for v in values:
        result *= v
    return result


class TestBuiltinShapes:
    def test_pm_shape(self):
        cs = builtin_constraints(PM)
        assert len(cs.lines) == 6
        assert len(cs.observables) == 9
        assert cs.n_systems == 2
        assert [line.required for line in cs.lines] == [1, 1, 1, 1, 1, -1]

    def test_ghz_shape(self):
        cs = builtin_constraints(GHZ)
        assert len(cs.lines) == 5
        assert len(cs.observables) == 10
        assert cs.n_systems == 3
        assert cs.lines[-1].required == -1

    def test_bell_ghz_shape(self):
        cs = builtin_constraints(BELL_GHZ)
        assert len(cs.lines) == 4
        assert len(cs.observables) == 6
        assert all(len(t.factors) == 1 for line in cs.lines for t in line.terms)
        assert cs.lines[-1].required == -1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_constraints("bogus")

    def test_observable_structural_identity(self):
        # the same product occurring in two lines is one enumeration variable
        cs = builtin_constraints(PM)
        x1y2_lines = [
            index
            for index, line in enumerate(cs.lines)
            if any(t.label == "x1*y2" for t in line.terms)
        ]
        assert x1y2_lines == [2, 4]

    def test_observable_rejects_repeated_system(self):
        with pytest.raises(ValueError):
            ObservableProduct.parse("x1*y1")

    def test_json_round_trip(self):
        for name in (PM, GHZ, BELL_GHZ):
            cs = builtin_constraints(name)
            again = ConstraintSet.from_json(cs.to_json())
            assert again == cs
        doc = json.loads(builtin_constraints(PM).to_json())
        assert doc["lines"][0]["terms"] == ["x1*x2", "x1", "x2"]


def _document(name="mine", lines=({"terms": ["x1", "y2"], "required": 1},)):
    return json.dumps({"name": name, "lines": lines})


class TestDocumentSchema:
    """``from_json`` honours a document in full or raises ``ValueError``."""

    def test_well_formed_document(self):
        cs = ConstraintSet.from_json(_document())
        assert cs.name == "mine"
        assert [t.label for t in cs.lines[0].terms] == ["x1", "y2"]
        assert cs.lines[0].required == 1

    @pytest.mark.parametrize("name", [7, None, ["pm"], {"n": "pm"}, True])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ValueError, match="'name' must be a string"):
            ConstraintSet.from_json(_document(name=name))

    def test_name_is_required(self):
        with pytest.raises(ValueError, match="'name'"):
            ConstraintSet.from_json(json.dumps({"lines": [{"terms": ["x1"], "required": 1}]}))

    @pytest.mark.parametrize("lines", [None, "x1", {"terms": ["x1"], "required": 1}, 3])
    def test_lines_must_be_a_list(self, lines):
        with pytest.raises(ValueError, match="'lines' must be a list"):
            ConstraintSet.from_json(_document(lines=lines))

    @pytest.mark.parametrize("entry", [5, "x1", ["x1"], None])
    def test_lines_must_hold_objects(self, entry):
        with pytest.raises(ValueError, match="line 0 must be an object"):
            ConstraintSet.from_json(_document(lines=[entry]))

    @pytest.mark.parametrize("terms", [[5], "x1*y2", ["x1", None], {"x1": 1}, None])
    def test_terms_must_be_a_list_of_strings(self, terms):
        with pytest.raises(ValueError, match="'terms' must be a list of strings"):
            ConstraintSet.from_json(_document(lines=[{"terms": terms, "required": 1}]))

    @pytest.mark.parametrize("required", [-1.7, 1.5, 1.0, -1.0, True, False, "1", None, 0, 2, -3])
    def test_required_must_be_plus_or_minus_one(self, required):
        with pytest.raises(ValueError, match="'required' must be 1 or -1"):
            ConstraintSet.from_json(_document(lines=[{"terms": ["x1"], "required": required}]))

    def test_error_names_the_offending_line(self):
        lines = [{"terms": ["x1"], "required": 1}, {"terms": ["y1"], "required": 0.5}]
        with pytest.raises(ValueError, match="line 1"):
            ConstraintSet.from_json(_document(lines=lines))

    def test_top_level_must_be_an_object(self):
        for text in ("[]", "5", '"pm"', "null"):
            with pytest.raises(ValueError, match="JSON object"):
                ConstraintSet.from_json(text)

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
            | st.sampled_from(["x1", "y2*z3", "pm", "q9", ""]),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(["name", "lines", "terms", "required"]), inner),
            max_leaves=12,
        )
    )
    def test_any_json_value_parses_or_raises_value_error(self, doc):
        try:
            cs = ConstraintSet.from_json(json.dumps(doc))
        except ValueError:
            return
        assert ConstraintSet.from_json(cs.to_json()) == cs


class TestScalarEnumeration:
    @pytest.mark.parametrize(
        "name,total",
        [(PM, 512), (GHZ, 1024), (BELL_GHZ, 64)],
    )
    def test_no_satisfying_assignment(self, name, total):
        cs = builtin_constraints(name)
        result = enumerate_scalar_assignments(cs)
        assert result.total == total
        assert result.satisfying_count == 0
        assert result.satisfying_count == brute_force_count(cs)

    @pytest.mark.parametrize("name", [PM, GHZ, BELL_GHZ])
    def test_parity_witness(self, name):
        witness = parity_witness(builtin_constraints(name))
        assert witness.lhs_product == 1
        assert witness.rhs_product == -1

    @pytest.mark.parametrize("name", [PM, GHZ, BELL_GHZ])
    def test_minimality_single_line_removal(self, name):
        cs = builtin_constraints(name)
        for drop in range(len(cs.lines)):
            reduced = ConstraintSet(
                cs.name, tuple(l for k, l in enumerate(cs.lines) if k != drop)
            )
            assert enumerate_scalar_assignments(reduced).satisfying_count > 0

    @pytest.mark.parametrize("name", [PM, GHZ, BELL_GHZ])
    def test_minimality_single_sign_flip(self, name):
        cs = builtin_constraints(name)
        for flip in range(len(cs.lines)):
            flipped = ConstraintSet(
                cs.name,
                tuple(
                    ConstraintLine(l.terms, -l.required if k == flip else l.required)
                    for k, l in enumerate(cs.lines)
                ),
            )
            assert enumerate_scalar_assignments(flipped).satisfying_count > 0

    def test_pm_with_last_line_positive_is_satisfiable(self):
        cs = builtin_constraints(PM)
        relaxed = ConstraintSet(
            PM,
            cs.lines[:-1] + (ConstraintLine(cs.lines[-1].terms, 1),),
        )
        result = enumerate_scalar_assignments(relaxed)
        assert result.satisfying_count > 0
        assert result.parity_witness.rhs_product == 1

    def test_empty_systems_and_lines_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet("empty", ())
        with pytest.raises(ValueError):
            ConstraintLine((), 1)

    def test_exhaustive_bound(self):
        labels = [f"{a}{s}" for a in "xyz" for s in "123"]
        labels += [f"{a}1*{b}2" for a in "xyz" for b in "xyz"]
        labels += ["x1*x3", "y1*y3", "z1*z3"]
        big = ConstraintSet(
            "big",
            tuple(ConstraintLine((ObservableProduct.parse(l),), 1) for l in labels),
        )
        assert len(big.observables) == 21
        with pytest.raises(ValueError):
            enumerate_scalar_assignments(big)


class TestVectorModel:
    def test_pm_line_values(self):
        cs = builtin_constraints(PM)
        assignment = VectorAssignment.all_positive(2)
        values = [ev.value for ev in evaluate_vector_model(cs, assignment)]
        assert values == [1, 1, 1, 1, 1, -1]

    def test_ghz_line_values(self):
        cs = builtin_constraints(GHZ)
        assignment = VectorAssignment.all_positive(3)
        values = [ev.value for ev in evaluate_vector_model(cs, assignment)]
        assert values == [1, 1, 1, 1, -1]

    def test_pm_product_of_line_values(self):
        cs = builtin_constraints(PM)
        evaluations = evaluate_vector_model(cs, VectorAssignment.all_positive(2))
        assert _product(ev.value for ev in evaluations) == -1

    def test_ghz_product_of_line_values(self):
        cs = builtin_constraints(GHZ)
        evaluations = evaluate_vector_model(cs, VectorAssignment.all_positive(3))
        assert _product(ev.value for ev in evaluations) == -1

    def test_every_line_matches_required(self):
        for name, n in ((PM, 2), (GHZ, 3)):
            cs = builtin_constraints(name)
            for ev in evaluate_vector_model(cs, VectorAssignment.all_positive(n)):
                assert ev.matches_required

    def test_pm_all_sign_choices(self):
        # the first four lines repeat every generator, so they stay at +1;
        # the last two lines soak up the product of all six signs
        cs = builtin_constraints(PM)
        symbols = [PauliSymbol(s, a) for s in (1, 2) for a in "xyz"]
        for signs in itertools.product((1, -1), repeat=6):
            assignment = VectorAssignment(dict(zip(symbols, signs)))
            values = [ev.value for ev in evaluate_vector_model(cs, assignment)]
            parity = _product(signs)
            assert values[:4] == [1, 1, 1, 1]
            assert values[4] == parity
            assert values[5] == -parity
            assert _product(values) == -1

    def test_orientation_preserving_families_keep_canonical_values(self):
        # even flips per subsystem stay inside the model and land on the
        # canonical line signs; a lone flip leaves the model and shows up in
        # the two six-generator lines
        cs = builtin_constraints(PM)
        symbols = [PauliSymbol(s, a) for s in (1, 2) for a in "xyz"]
        for signs in itertools.product((1, -1), repeat=6):
            assignment = VectorAssignment(dict(zip(symbols, signs)))
            values = [ev.value for ev in evaluate_vector_model(cs, assignment)]
            if assignment.orientation_preserving(2):
                assert values == [1, 1, 1, 1, 1, -1]
        lone = VectorAssignment.all_positive(2).flipped(PauliSymbol(1, "x"))
        assert not lone.orientation_preserving(2)
        assert [ev.value for ev in evaluate_vector_model(cs, lone)][4] == -1

    def test_pm_even_flip_within_each_system(self):
        cs = builtin_constraints(PM)
        base = VectorAssignment.all_positive(2)
        flipped = base.flipped(PauliSymbol(1, "x"), PauliSymbol(1, "y"))
        assert [ev.value for ev in evaluate_vector_model(cs, flipped)] == [
            1,
            1,
            1,
            1,
            1,
            -1,
        ]
        both = base.flipped(PauliSymbol(1, "x"), PauliSymbol(2, "x"))
        assert [ev.value for ev in evaluate_vector_model(cs, both)] == [
            1,
            1,
            1,
            1,
            1,
            -1,
        ]

    def test_ghz_all_sign_choices(self):
        # every GHZ line repeats each of its generators, so all 512 sign
        # assignments reproduce (1, 1, 1, 1, -1)
        cs = builtin_constraints(GHZ)
        symbols = [PauliSymbol(s, a) for s in (1, 2, 3) for a in "xyz"]
        for signs in itertools.product((1, -1), repeat=9):
            assignment = VectorAssignment(dict(zip(symbols, signs)))
            values = [ev.value for ev in evaluate_vector_model(cs, assignment)]
            assert values == [1, 1, 1, 1, -1]

    def test_values_are_exact_rationals(self):
        cs = builtin_constraints(PM)
        for ev in evaluate_vector_model(cs, VectorAssignment.all_positive(2)):
            assert isinstance(ev.value, Fraction)

    def test_bell_ghz_has_no_vector_model(self):
        with pytest.raises(ValueError):
            evaluate_vector_model(
                builtin_constraints(BELL_GHZ), VectorAssignment.all_positive(3)
            )

    def test_unassigned_symbol_rejected(self):
        cs = builtin_constraints(PM)
        partial = VectorAssignment({PauliSymbol(1, "x"): 1})
        with pytest.raises(ValueError):
            evaluate_vector_model(cs, partial)

    def test_assignment_validates_signs(self):
        with pytest.raises(ValueError):
            VectorAssignment({PauliSymbol(1, "x"): 2})


class TestAudit:
    def test_pm_single_values(self):
        cs = builtin_constraints(PM)
        report = non_contextuality_audit(cs, VectorAssignment.all_positive(2))
        assert report.all_single_valued
        by_label = {entry.observable.label: entry for entry in report.entries}
        assert by_label["x1"].value == "e1"
        assert by_label["x1"].occurrences == ((0, 1), (2, 1))
        assert by_label["x1*y2"].value == "e1*f2"
        assert by_label["x1*y2"].occurrences == ((2, 0), (4, 0))

    def test_ghz_every_observable_unique_value(self):
        cs = builtin_constraints(GHZ)
        report = non_contextuality_audit(cs, VectorAssignment.all_positive(3))
        assert report.all_single_valued
        assert len(report.entries) == 10

    def test_audit_with_flipped_signs_still_single_valued(self):
        cs = builtin_constraints(PM)
        assignment = VectorAssignment.all_positive(2).flipped(
            PauliSymbol(1, "x"), PauliSymbol(2, "y")
        )
        report = non_contextuality_audit(cs, assignment)
        assert report.all_single_valued
        by_label = {entry.observable.label: entry for entry in report.entries}
        assert by_label["x1"].value == "-e1"
