"""Constraint systems: shapes, scalar no-go counts, vector model, audit."""

import itertools
import json
import numbers
import pickle
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextuality_lab.constraints import (
    BELL_GHZ,
    GHZ,
    PM,
    SYMBOLS,
    ConstraintLine,
    ConstraintSet,
    ObservableProduct,
    PauliSymbol,
    VectorAssignment,
    builtin_constraints,
    enumerate_scalar_assignments,
    evaluate_vector_model,
    has_builtin_lines,
    non_contextuality_audit,
)
from contextuality_lab import checks, systems
from contextuality_lab.ga import EXACT, basis_vector
from contextuality_lab.quantum import verify_operator_identities
from constraint_documents import document
from vector_tables import LABELS, signed_table


def _factor_set(term):
    """The oracle's observable key: the set of ``(system, axis)`` factors,
    whatever order they are written in."""
    return frozenset((f.system, f.axis) for f in term.factors)


def brute_force_count(cs):
    """Independent enumeration used as the oracle for the library counts:
    every +-1 assignment of the distinct observables, each keyed once by its
    factor set to the index its value takes in the assignment."""
    index = {}
    lines = [
        ([index.setdefault(_factor_set(t), len(index)) for t in line.terms], line.required)
        for line in cs.lines
    ]
    count = 0
    for values in itertools.product((1, -1), repeat=len(index)):
        if all(_product(values[k] for k in terms) == required for terms, required in lines):
            count += 1
    return count


def parity_oracle(cs):
    """The parity witness read in a pass of its own, as ``(lhs, rhs)``: lhs
    is 1 when every observable, keyed by its factor set, occurs an even
    number of times across the lines, else None; rhs multiplies the
    required signs."""
    odd, rhs = set(), 1
    for line in cs.lines:
        rhs *= line.required
        for term in line.terms:
            odd ^= {_factor_set(term)}
    return (None if odd else 1), rhs


def line_values(cs, assignment):
    """Each line's value in the vector model: the sign of a word that
    reduced to a scalar, else the word itself."""
    return [w.sign if w.is_scalar() else w for w in evaluate_vector_model(cs, assignment)]


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
        assert {f.system for term in cs.observables for f in term.factors} == {1, 2}
        assert [line.required for line in cs.lines] == [1, 1, 1, 1, 1, -1]

    def test_ghz_shape(self):
        cs = builtin_constraints(GHZ)
        assert len(cs.lines) == 5
        assert len(cs.observables) == 10
        assert {f.system for term in cs.observables for f in term.factors} == {1, 2, 3}
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

    def test_a_term_keeps_its_written_label_and_names_one_observable(self):
        written = ObservableProduct.parse(" y2 * x1 ")
        assert written.label == "y2*x1"
        assert written != ObservableProduct.parse("x1*y2")
        assert pickle.loads(pickle.dumps(written)).label == "y2*x1"
        doc = {"name": "mine", "lines": [
            {"terms": ["y2*x1", " x1 * y2", "z1"], "required": 1},
            {"terms": ["z1", "x1*y2"], "required": -1},
        ]}
        cs = ConstraintSet.from_json(json.dumps(doc))
        assert [t.label for t in cs.observables] == ["y2*x1", "z1"]
        assert cs.term_indices == ((0, 0, 1), (1, 0))
        assert cs.label_rows == ((("y2*x1", "x1*y2", "z1"), 1), (("z1", "x1*y2"), -1))
        assert cs.lines[0].terms[2] is cs.lines[1].terms[0]

    def test_observable_rejects_repeated_system(self):
        with pytest.raises(ValueError):
            ObservableProduct.parse("x1*y1")

    def test_json_round_trip(self):
        for name in (PM, GHZ, BELL_GHZ):
            cs = builtin_constraints(name)
            again = ConstraintSet.from_json(json.dumps(document(cs)))
            assert again == cs
        doc = document(builtin_constraints(PM))
        assert doc["lines"][0]["terms"] == ["x1*x2", "x1", "x2"]


def _document(name="mine", lines=({"terms": ["x1", "y2"], "required": 1},)):
    return json.dumps({"name": name, "lines": lines})


@pytest.mark.parametrize(
    "system,shown", [(True, "True"), (1.0, "1.0"), ("1", "'1'"), (0, "0"), (99, "99")]
)
def test_pauli_symbol_takes_an_int_system_index_only(system, shown):
    with pytest.raises(ValueError) as raised:
        PauliSymbol(system, "x")
    assert str(raised.value) == f"system index {shown} out of range"


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

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ('"name": "pm", "subsystems": 7, "lines": [LINE]', "unknown key 'subsystems'"),
            ('"name": "pm", "lines": [LINE, {"terms": ["y1"], "required": 1, "negate": true}]',
             "line 1: unknown key 'negate'"),
            ('"name": "pm", "name": "ghz", "lines": [LINE]', "repeated key 'name'"),
            ('"name": "pm", "lines": [{"terms": ["x1"], "required": -1, "required": 1}]',
             "repeated key 'required'"),
            ('"name": "pm", "lines": [{"terms": ["x1"], "terms": ["y1"], "required": 1}]',
             "repeated key 'terms'"),
        ],
        ids=["unknown-top", "unknown-line", "repeated-name", "repeated-required",
             "repeated-terms"],
    )
    def test_unknown_and_repeated_keys_rejected(self, doc, fragment):
        # each document is well formed but for the one key, which is named
        text = "{" + doc.replace("LINE", '{"terms": ["x1"], "required": 1}') + "}"
        with pytest.raises(ValueError, match=fragment):
            ConstraintSet.from_json(text)

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
            | st.dictionaries(
                st.sampled_from(["name", "lines", "terms", "required", "negate"]), inner
            ),
            max_leaves=12,
        )
    )
    def test_any_json_value_parses_or_raises_value_error(self, doc):
        try:
            cs = ConstraintSet.from_json(json.dumps(doc))
        except ValueError:
            return
        assert ConstraintSet.from_json(json.dumps(document(cs))) == cs


#: Per observable length: its factor orders, and the strategy of one mention's
#: writing, an integer that picks an order and then, in base-3 digits, the
#: spaces (0-2) before and after each factor.
WRITINGS = {
    k: (orders, st.integers(0, len(orders) * 3 ** (2 * k) - 1))
    for k in (1, 2, 3)
    for orders in [list(itertools.permutations(range(k)))]
}


def written_term(draw, factors):
    """One mention of the observable with these factor labels: the factors
    in a drawn order, with up to two spaces drawn around each.  It is one
    draw, from a strategy built once, so a document stays cheap to draw."""
    orders, writing = WRITINGS[len(factors)]
    spaces, at = divmod(draw(writing), len(orders))
    parts = []
    for k in orders[at]:
        spaces, before = divmod(spaces, 3)
        spaces, after = divmod(spaces, 3)
        parts.append(" " * before + factors[k] + " " * after)
    return "*".join(parts)


@st.composite
def line_systems(draw):
    """1-8 lines of 1-4 terms drawn with replacement from a pool of at most
    12 observables over 1-3 subsystems, so a line may repeat an observable,
    each mention written by :func:`written_term`, and read as a document."""
    n_systems = draw(st.integers(1, 3))
    observables = [
        tuple(f"{axis}{slot}" for slot, axis in enumerate(string, start=1) if axis != "i")
        for string in itertools.product("ixyz", repeat=n_systems)
        if set(string) != {"i"}
    ]
    pool = draw(st.lists(st.sampled_from(observables), min_size=1, max_size=12, unique=True))
    shapes = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(pool), min_size=1, max_size=4),
                st.sampled_from((1, -1)),
            ),
            min_size=1,
            max_size=8,
        )
    )
    lines = [
        {"terms": [written_term(draw, factors) for factors in terms], "required": required}
        for terms, required in shapes
    ]
    return ConstraintSet.from_json(json.dumps({"name": "random", "lines": lines}))


def in_subsystem_order(cs):
    """The set with each term rebuilt from its factors in subsystem order."""
    return ConstraintSet(cs.name, tuple(
        ConstraintLine(
            tuple(ObservableProduct(tuple(sorted(t.factors, key=attrgetter("system"))))
                  for t in line.terms),
            line.required,
        )
        for line in cs.lines
    ))


#: Line 2 contradicts line 1, and the last line holds y2 and z1*z2, which
#: occur nowhere else: the parity witness over every line is (None, 1),
#: over lines 1-2 alone it would be (1, -1).
CONTRADICTED_BEFORE_LAST_LINE = ConstraintSet.from_json(json.dumps({"name": "late", "lines": [
    {"terms": ["x1"], "required": 1},
    {"terms": ["x1"], "required": -1},
    {"terms": ["y2", "z1*z2"], "required": -1},
]}))


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
        result = enumerate_scalar_assignments(builtin_constraints(name))
        assert (result.lhs_parity, result.rhs_parity) == (1, -1)

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
        assert result.rhs_parity == 1

    def test_empty_systems_and_lines_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet("empty", ())
        with pytest.raises(ValueError):
            ConstraintLine((), 1)

    def test_no_observable_bound(self):
        # 21 observables, each pinned to +1 by its own line: no observable
        # count is too large to decide
        labels = [f"{a}{s}" for a in "xyz" for s in "123"]
        labels += [f"{a}1*{b}2" for a in "xyz" for b in "xyz"]
        labels += ["x1*x3", "y1*y3", "z1*z3"]
        big = ConstraintSet(
            "big",
            tuple(ConstraintLine((ObservableProduct.parse(l),), 1) for l in labels),
        )
        assert len(big.observables) == 21
        result = enumerate_scalar_assignments(big)
        assert result.total == 2**21
        assert result.satisfying_count == 1

    @pytest.mark.parametrize("required,count", [(-1, 0), (1, 2)])
    def test_repeated_term_cancels(self, required, count):
        x1 = ObservableProduct.parse("x1")
        cs = ConstraintSet("twice", (ConstraintLine((x1, x1), required),))
        result = enumerate_scalar_assignments(cs)
        assert result.total == 2
        assert result.satisfying_count == count == brute_force_count(cs)

    @settings(max_examples=300, deadline=None)
    @given(line_systems())
    @example(CONTRADICTED_BEFORE_LAST_LINE)
    def test_count_matches_brute_force(self, cs):
        result = enumerate_scalar_assignments(cs)
        distinct = {_factor_set(t) for line in cs.lines for t in line.terms}
        assert result.total == 2 ** len(cs.observables) == 2 ** len(distinct)
        assert result.satisfying_count == brute_force_count(cs)
        # the parity witness of the same pass, against its own two-pass oracle
        assert (result.lhs_parity, result.rhs_parity) == parity_oracle(cs)

    @settings(max_examples=200, deadline=None)
    @given(line_systems())
    def test_verdicts_ignore_factor_order_and_spaces(self, cs):
        ordered = in_subsystem_order(cs)
        assert enumerate_scalar_assignments(cs) == enumerate_scalar_assignments(ordered)
        assert verify_operator_identities(cs) == verify_operator_identities(ordered)


class TestVectorModel:
    def test_pm_line_values(self):
        cs = builtin_constraints(PM)
        assignment = VectorAssignment.all_positive()
        values = line_values(cs, assignment)
        assert values == [1, 1, 1, 1, 1, -1]

    def test_ghz_line_values(self):
        cs = builtin_constraints(GHZ)
        assignment = VectorAssignment.all_positive()
        values = line_values(cs, assignment)
        assert values == [1, 1, 1, 1, -1]

    def test_pm_product_of_line_values(self):
        cs = builtin_constraints(PM)
        assert _product(line_values(cs, VectorAssignment.all_positive())) == -1

    def test_ghz_product_of_line_values(self):
        cs = builtin_constraints(GHZ)
        assert _product(line_values(cs, VectorAssignment.all_positive())) == -1

    def test_every_line_matches_required(self):
        for name in (PM, GHZ):
            cs = builtin_constraints(name)
            words = evaluate_vector_model(cs, VectorAssignment.all_positive())
            for line, word in zip(cs.lines, words, strict=True):
                assert word.is_scalar() and word.sign == line.required

    def test_pm_all_sign_choices(self):
        # the first four lines repeat every generator, so they stay at +1;
        # the last two lines soak up the product of all six signs
        cs = builtin_constraints(PM)
        for signs in itertools.product((1, -1), repeat=6):
            assignment = signed_table(0, **dict(zip(LABELS, signs)))
            values = line_values(cs, assignment)
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
        for signs in itertools.product((1, -1), repeat=6):
            assignment = signed_table(0, **dict(zip(LABELS, signs)))
            values = line_values(cs, assignment)
            if _product(signs[:3]) == _product(signs[3:]) == 1:
                assert values == [1, 1, 1, 1, 1, -1]
        assert line_values(cs, signed_table(2, x1=-1))[4] == -1

    def test_pm_even_flip_within_each_system(self):
        cs = builtin_constraints(PM)
        flipped = signed_table(2, x1=-1, y1=-1)
        assert line_values(cs, flipped) == [
            1,
            1,
            1,
            1,
            1,
            -1,
        ]
        both = signed_table(2, x1=-1, x2=-1)
        assert line_values(cs, both) == [
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
        for signs in itertools.product((1, -1), repeat=9):
            assignment = signed_table(0, **dict(zip(LABELS, signs)))
            values = line_values(cs, assignment)
            assert values == [1, 1, 1, 1, -1]

    def test_values_are_exact_rationals(self):
        cs = builtin_constraints(PM)
        for word in evaluate_vector_model(cs, VectorAssignment.all_positive()):
            assert word.is_scalar() and isinstance(word.sign, numbers.Rational)

    def test_bell_ghz_has_no_vector_model(self):
        # the evaluator refuses no line system (verify decides which lines
        # get the model); each Bell-GHZ line multiplies three generators of
        # distinct subsystems, so no line reduces to a scalar and none holds
        words = evaluate_vector_model(
            builtin_constraints(BELL_GHZ), VectorAssignment.all_positive()
        )
        assert [str(word) for word in words] == ["e1*f2*g2", "e2*f1*g2", "e2*f2*g1", "e1*f1*g1"]
        assert not any(word.is_scalar() for word in words)

    @pytest.mark.parametrize("name,n", [(PM, 2), (GHZ, 3)])
    def test_vector_model_follows_the_lines_not_the_name(self, name, n):
        cs = builtin_constraints(name)
        renamed = ConstraintSet("mine", cs.lines)
        assignment = VectorAssignment.all_positive()
        values = line_values(cs, assignment)
        # the own-slot table takes no subsystem count: the lines reduce as
        # under the table of their n subsystems alone
        assert evaluate_vector_model(cs, signed_table(n)) == evaluate_vector_model(cs, assignment)
        assert evaluate_vector_model(renamed, assignment) == evaluate_vector_model(
            cs, assignment
        )
        flipped = ConstraintSet(
            name, cs.lines[:-1] + (ConstraintLine(cs.lines[-1].terms, 1),)
        )
        reordered = ConstraintSet(name, cs.lines[::-1])
        # the model evaluates any lines ...
        assert line_values(flipped, assignment) == values
        assert line_values(reordered, assignment) == values[::-1]

        # ... and verify gives it rows on the built-in lines only
        def model_rows(document):
            rows = checks.SUITES[name](checks.Context(EXACT, 0, document))
            model_ids = (f"{name}.vector-line.", f"{name}.value-table")
            return [check_id for check_id, _, _ in rows if check_id.startswith(model_ids)]

        expected = [f"{name}.vector-line.{k}" for k in range(1, len(cs.lines) + 1)]
        assert model_rows(None) == model_rows(renamed) == [*expected, f"{name}.value-table"]
        for other in (flipped, reordered):
            assert model_rows(other) == []

    def test_builtin_label_rows_decide_like_line_records(self):
        documents = []
        for name in (PM, GHZ, BELL_GHZ):
            lines = builtin_constraints(name).lines
            flipped = lines[:-1] + (ConstraintLine(lines[-1].terms, -lines[-1].required),)
            documents += [ConstraintSet("mine", v) for v in (lines, lines[::-1], flipped)]
        for cs in documents:
            for name in (PM, GHZ, BELL_GHZ):
                expected = cs.lines == builtin_constraints(name).lines
                assert has_builtin_lines(cs, name) is expected

    def test_vector_model_check_parses_nothing(self, monkeypatch):
        # the test that checks._lines applies before it emits model rows
        documents = [builtin_constraints(name) for name in (PM, GHZ, BELL_GHZ)]
        documents.append(ConstraintSet("mine", documents[0].lines))
        parsed = []
        parse = ObservableProduct.parse

        def counted(label):
            parsed.append(label)
            return parse(label)

        monkeypatch.setattr(ObservableProduct, "parse", staticmethod(counted))
        has_model = [has_builtin_lines(cs, PM) or has_builtin_lines(cs, GHZ) for cs in documents]
        assert has_model == [True, True, False, True]
        assert parsed == []

    def test_unassigned_symbol_rejected(self):
        cs = builtin_constraints(PM)
        with pytest.raises(ValueError, match="no value assigned to symbol x2"):
            evaluate_vector_model(cs, signed_table(0, x1=1))

    @pytest.mark.parametrize(
        "value",
        [
            2,
            -1,
            systems.ONE,
            -systems.ONE,
            systems.generator(1, 1) * systems.generator(1, 2),
            systems.generator(1, 1) * systems.generator(2, 1),
            basis_vector(1),
        ],
        ids=["int-two", "int-sign", "one", "minus-one", "e12", "two-slot-e1", "dense-e1"],
    )
    def test_assignment_refuses_all_but_one_signed_generator(self, value):
        table = signed_table(1).table
        with pytest.raises(ValueError, match="x1 takes .*, not one signed generator"):
            VectorAssignment((value, *table[1:]))

    def test_a_table_holds_one_entry_per_symbol_in_symbol_order(self):
        assert [symbol._position for symbol in SYMBOLS] == list(range(9))
        assert [symbol.label for symbol in SYMBOLS[:4]] == ["x1", "y1", "z1", "x2"]
        assert VectorAssignment.all_positive().table == tuple(
            systems.generator(s, axis) for s in (1, 2, 3) for axis in (1, 2, 3)
        )
        with pytest.raises(ValueError, match="a table holds 9 entries, got 8"):
            VectorAssignment(signed_table(3).table[:8])


class TestAudit:
    def test_pm_single_values(self):
        cs = builtin_constraints(PM)
        report = non_contextuality_audit(cs, VectorAssignment.all_positive())
        assert all(entry.single_valued for entry in report)
        by_label = {entry.observable.label: entry for entry in report}
        assert by_label["x1"].value == "e1"
        assert by_label["x1"].occurrences == ((0, 1), (2, 1))
        assert by_label["x1*y2"].value == "e1*f2"
        assert by_label["x1*y2"].occurrences == ((2, 0), (4, 0))

    def test_ghz_every_observable_unique_value(self):
        cs = builtin_constraints(GHZ)
        report = non_contextuality_audit(cs, VectorAssignment.all_positive())
        assert all(entry.single_valued for entry in report)
        assert len(report) == 10

    def test_audit_with_flipped_signs_still_single_valued(self):
        cs = builtin_constraints(PM)
        assignment = signed_table(2, x1=-1, y2=-1)
        report = non_contextuality_audit(cs, assignment)
        assert all(entry.single_valued for entry in report)
        by_label = {entry.observable.label: entry for entry in report}
        assert by_label["x1"].value == "-e1"
