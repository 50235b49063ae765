"""The value-record contract shared by the library's immutable classes."""

import pickle

import pytest

from blade_keys import pack
from contextuality_lab.checks import Context
from contextuality_lab.chsh import ScanResult
from contextuality_lab.constraints import (
    PM,
    ConstraintLine,
    ConstraintSet,
    EnumerationResult,
    ObservableAudit,
    ObservableProduct,
    PauliSymbol,
    VectorAssignment,
    builtin_constraints,
    evaluate_vector_model,
)
from contextuality_lab.ga import EXACT, Multivector, _Record, basis_vector, pseudoscalar
from contextuality_lab.identities import UNIFORM_MAP, ColumnResult, IdentityMap, bell_ghz_column
from contextuality_lab.quantum import ONE, ZERO, ComplexMatrix, GaussianRational, StateVector
from contextuality_lab.systems import TensorMultivector, generator
from tensor_oracle import SparseTensor
from vector_tables import signed_table


def _line():
    return ConstraintLine((ObservableProduct.parse("x1"), ObservableProduct.parse("y2")), 1)


#: (class, field names in order, factory of the field values); each call of
#: a factory builds new objects with equal values.
RECORDS = [
    (Multivector, ("coeffs", "mode"), lambda: ((1, 0, 0, 0, 0, 0, 0, 2), EXACT)),
    (TensorMultivector, ("sign", "key"), lambda: (-1, pack((1, 6)))),
    (SparseTensor, ("n", "coeffs"), lambda: (2, {pack((1, 0)): 1, pack((0, 6)): -1})),
    (PauliSymbol, ("system", "axis"), lambda: (1, "x")),
    (ObservableProduct, ("factors",), lambda: ((PauliSymbol(1, "x"), PauliSymbol(2, "y")),)),
    (ConstraintLine, ("terms", "required"), lambda: (_line().terms, -1)),
    (ConstraintSet, ("name", "lines"), lambda: ("mine", (_line(),))),
    (
        EnumerationResult,
        ("total", "satisfying_count", "lhs_parity", "rhs_parity"),
        lambda: (8, 0, None, -1),
    ),
    (VectorAssignment, ("table",), lambda: (signed_table(0, x1=1, z2=-1).table,)),
    (
        ObservableAudit,
        ("observable", "value", "occurrences", "single_valued"),
        lambda: (ObservableProduct.parse("x1*y2"), "e1*f2", ((2, 0), (4, 0)), True),
    ),
    (GaussianRational, ("real", "imag"), lambda: (1, -2)),
    (ComplexMatrix, ("entries",), lambda: (((ONE, ZERO), (ZERO, ONE)),)),
    (StateVector, ("amplitudes", "norm2"), lambda: ((ONE, ZERO), 1)),
    (
        IdentityMap,
        ("f1", "f2", "g1", "g2"),
        lambda: (
            generator(1, 1), generator(1, 2), generator(1, 2, -1), generator(1, 1)
        ),
    ),
    (ColumnResult, ("entries", "product"), lambda: ((basis_vector(1),) * 4, pseudoscalar())),
    (ScanResult, ("argmax", "maximum"), lambda: (1.0, 2.5)),
    (Context, ("mode", "seed", "document"), lambda: (EXACT, 7, None)),
]

#: Records that render themselves instead of listing their fields.
OWN_REPR = (Multivector, SparseTensor)


@pytest.mark.parametrize("cls,names,values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, names, values):
    record, twin = cls(*values()), cls(*values())
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    fields = tuple(getattr(record, name) for name in names)
    assert record != fields and fields != record
    assert pickle.loads(pickle.dumps(record)) == record
    if cls not in OWN_REPR:
        listed = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields))
        assert repr(record) == f"{cls.__name__}({listed})"
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == fields


def test_pauli_symbol_repr():
    assert repr(PauliSymbol(1, "x")) == "PauliSymbol(system=1, axis='x')"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_listed():
    import contextuality_lab.cli  # noqa: F401  (imports every module of the package)

    listed = [record[0] for record in RECORDS]
    found = [cls for cls in _subclasses(_Record) if cls.__module__.startswith("contextuality_lab")]
    assert len(set(listed)) == len(listed)
    # the test oracles' records are listed besides the package's
    assert set(listed) - {SparseTensor} == set(found)


def test_vector_model_results_build_no_record(monkeypatch):
    # a line's value is its reduced word, a signed blade formed on the
    # algebra's result path; a column builds only its own ColumnResult
    built, generic = [], _Record.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        generic(self, *args, **kwargs)

    pm = builtin_constraints(PM)
    assignment = VectorAssignment.all_positive()
    monkeypatch.setattr(_Record, "__init__", counted)
    evaluate_vector_model(pm, assignment)
    assert built == []
    bell_ghz_column(UNIFORM_MAP)
    assert built == [ColumnResult]


@pytest.mark.parametrize("args", [(1.0,), (1.0, 2.5, 3)], ids=["missing", "extra-positional"])
def test_base_constructor_rejects_bad_fields(args):
    # the base constructor is positional: it names the class and both counts
    with pytest.raises(TypeError) as excinfo:
        ScanResult(*args)
    assert str(excinfo.value) == f"ScanResult() takes 2 fields, got {len(args)}"
