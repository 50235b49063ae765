"""The three product-constraint systems and their two evaluators.

Three built-in systems are provided:

* ``pm``       - nine two-particle spin observables in six lines,
* ``ghz``      - ten three-particle spin observables in five lines,
* ``bell_ghz`` - six single-particle values in four lines.

Each line demands that the product of its observables' values equals +1 or
-1.  Two evaluators operate on a system.  The scalar evaluator enumerates
every map from the observables to {+1, -1} and counts the maps satisfying
all lines at once; for the built-in systems that count is zero, which is the
no-go result.  The vector evaluator instead assigns each elementary symbol a
signed basis vector of its subsystem's algebra copy, expands composite
observables through the product rule, multiplies each line's word in the
joint algebra of :mod:`contextuality_lab.systems`, and reduces trivector
pairs through the shared-handedness rule.  There every line lands exactly on
its required sign.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import systems
from .systems import TensorMultivector, identify_pseudoscalars

AXES = ("x", "y", "z")
AXIS_INDEX = {"x": 1, "y": 2, "z": 3}

PM = "pm"
GHZ = "ghz"
BELL_GHZ = "bell_ghz"

#: Exhaustive-search cutoff for the scalar evaluator.
MAX_ENUMERATED_OBSERVABLES = 20


@dataclass(frozen=True, order=True)
class PauliSymbol:
    """One elementary spin symbol: a subsystem index and a measurement axis."""

    system: int
    axis: str

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis {self.axis!r} not one of x, y, z")
        if not 1 <= self.system <= systems.MAX_SYSTEMS:
            raise ValueError(f"system index {self.system} out of range")

    @property
    def label(self) -> str:
        return f"{self.axis}{self.system}"


@dataclass(frozen=True)
class ObservableProduct:
    """An ordered product of elementary symbols, one per distinct subsystem."""

    factors: tuple

    def __post_init__(self):
        seen = set()
        for factor in self.factors:
            if factor.system in seen:
                raise ValueError(f"repeated subsystem in observable {self.factors!r}")
            seen.add(factor.system)
        if not self.factors:
            raise ValueError("an observable needs at least one factor")

    @classmethod
    def parse(cls, label: str) -> "ObservableProduct":
        factors = []
        for part in label.split("*"):
            part = part.strip()
            if len(part) != 2 or part[0] not in AXES or part[1] not in "123":
                raise ValueError(f"cannot parse observable factor {part!r}")
            factors.append(PauliSymbol(int(part[1]), part[0]))
        return cls(tuple(factors))

    @property
    def label(self) -> str:
        return "*".join(factor.label for factor in self.factors)

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class ConstraintLine:
    """One product equation: the terms' values must multiply to ``required``."""

    terms: tuple
    required: int

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a constraint line needs at least one term")
        if self.required not in (1, -1):
            raise ValueError("required sign must be +1 or -1")


@dataclass(frozen=True)
class ConstraintSet:
    name: str
    lines: tuple

    def __post_init__(self):
        if not self.lines:
            raise ValueError("a constraint set needs at least one line")

    @property
    def observables(self) -> tuple:
        """Distinct observables in first-appearance order."""
        seen: dict[str, ObservableProduct] = {}
        for line in self.lines:
            for term in line.terms:
                seen.setdefault(term.label, term)
        return tuple(seen.values())

    @property
    def n_systems(self) -> int:
        return max(f.system for line in self.lines for t in line.terms for f in t.factors)

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "lines": [
                {"terms": [t.label for t in line.terms], "required": line.required}
                for line in self.lines
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ConstraintSet":
        doc = json.loads(text)
        lines = tuple(
            ConstraintLine(
                tuple(ObservableProduct.parse(t) for t in entry["terms"]),
                int(entry["required"]),
            )
            for entry in doc["lines"]
        )
        return cls(doc["name"], lines)


def _lines(name: str, rows: Iterable[tuple]) -> ConstraintSet:
    return ConstraintSet(
        name,
        tuple(
            ConstraintLine(tuple(ObservableProduct.parse(t) for t in terms), required)
            for terms, required in rows
        ),
    )


def builtin_constraints(name: str) -> ConstraintSet:
    """The built-in line systems ``pm``, ``ghz`` and ``bell_ghz``."""
    if name == PM:
        return _lines(
            PM,
            [
                (("x1*x2", "x1", "x2"), 1),
                (("y1*y2", "y1", "y2"), 1),
                (("x1*y2", "x1", "y2"), 1),
                (("y1*x2", "y1", "x2"), 1),
                (("x1*y2", "y1*x2", "z1*z2"), 1),
                (("x1*x2", "y1*y2", "z1*z2"), -1),
            ],
        )
    if name == GHZ:
        return _lines(
            GHZ,
            [
                (("x1*y2*y3", "x1", "y2", "y3"), 1),
                (("y1*x2*y3", "y1", "x2", "y3"), 1),
                (("y1*y2*x3", "y1", "y2", "x3"), 1),
                (("x1*x2*x3", "x1", "x2", "x3"), 1),
                (("x1*x2*x3", "x1*y2*y3", "y1*x2*y3", "y1*y2*x3"), -1),
            ],
        )
    if name == BELL_GHZ:
        return _lines(
            BELL_GHZ,
            [
                (("x1", "y2", "y3"), 1),
                (("y1", "x2", "y3"), 1),
                (("y1", "y2", "x3"), 1),
                (("x1", "x2", "x3"), -1),
            ],
        )
    raise ValueError(f"unknown constraint system {name!r}")


# -- scalar evaluator -----------------------------------------------------


@dataclass(frozen=True)
class ParityWitness:
    """Forced sign of the product of all line left sides vs right sides.

    ``lhs_product`` is +1 when every observable occurs an even number of
    times across the lines, which forces the product of all left sides to +1
    for any sign assignment; it is None when occurrences do not all cancel.
    ``rhs_product`` multiplies the required signs.
    """

    lhs_product: int | None
    rhs_product: int


@dataclass(frozen=True)
class EnumerationResult:
    total: int
    satisfying_count: int
    parity_witness: ParityWitness


def parity_witness(cs: ConstraintSet) -> ParityWitness:
    counts: dict[str, int] = {}
    rhs = 1
    for line in cs.lines:
        rhs *= line.required
        for term in line.terms:
            counts[term.label] = counts.get(term.label, 0) + 1
    lhs = 1 if all(c % 2 == 0 for c in counts.values()) else None
    return ParityWitness(lhs, rhs)


def enumerate_scalar_assignments(cs: ConstraintSet) -> EnumerationResult:
    """Count the sign assignments of the observables meeting every line."""
    observables = cs.observables
    if len(observables) > MAX_ENUMERATED_OBSERVABLES:
        raise ValueError(f"{len(observables)} observables exceed the exhaustive bound")
    index = {obs.label: k for k, obs in enumerate(observables)}
    line_indices = [
        ([index[t.label] for t in line.terms], line.required) for line in cs.lines
    ]
    satisfying = 0
    for values in itertools.product((1, -1), repeat=len(observables)):
        for positions, required in line_indices:
            product = 1
            for p in positions:
                product *= values[p]
            if product != required:
                break
        else:
            satisfying += 1
    return EnumerationResult(2 ** len(observables), satisfying, parity_witness(cs))


# -- vector evaluator -------------------------------------------------------


@dataclass(frozen=True)
class VectorAssignment:
    """A sign for each elementary symbol's canonical basis vector.

    The symbol of axis a in subsystem s takes the value
    ``sign * (axis-a basis vector of slot s)``; the same table entry is used
    wherever the symbol occurs, so values cannot depend on the line reading
    them.
    """

    signs: Mapping[PauliSymbol, int]

    def __post_init__(self):
        for symbol, sign in self.signs.items():
            if sign not in (1, -1):
                raise ValueError(f"sign for {symbol.label} must be +1 or -1")

    @classmethod
    def all_positive(cls, n_systems: int) -> "VectorAssignment":
        return cls(
            {
                PauliSymbol(s, a): 1
                for s in range(1, n_systems + 1)
                for a in AXES
            }
        )

    def sign(self, symbol: PauliSymbol) -> int:
        try:
            return self.signs[symbol]
        except KeyError:
            raise ValueError(f"no value assigned to symbol {symbol.label}") from None

    def flipped(self, *symbols: PauliSymbol) -> "VectorAssignment":
        signs = dict(self.signs)
        for symbol in symbols:
            signs[symbol] = -self.sign(symbol)
        return VectorAssignment(signs)

    def orientation_preserving(self, n_systems: int) -> bool:
        """True when every subsystem's three signs multiply to +1.

        An even number of flips inside a subsystem leaves its handed volume
        (the product of its three generators) untouched; an odd number flips
        it.  Assignments failing this predicate step outside the model in
        which the canonical line values are guaranteed, so callers should
        treat their line values as descriptive only.
        """
        for system in range(1, n_systems + 1):
            product = 1
            for axis in AXES:
                product *= self.sign(PauliSymbol(system, axis))
            if product != 1:
                return False
        return True

    def symbol_value(self, symbol: PauliSymbol, n: int) -> TensorMultivector:
        return systems.generator(
            symbol.system, AXIS_INDEX[symbol.axis], n, sign=self.sign(symbol)
        )

    def term_value(self, term: ObservableProduct, n: int) -> TensorMultivector:
        """Product-rule expansion: multiply the factors' values in written order."""
        return systems.word((self.symbol_value(f, n) for f in term.factors), n)


@dataclass(frozen=True)
class LineEvaluation:
    line: ConstraintLine
    word: TensorMultivector
    value: Fraction

    @property
    def matches_required(self) -> bool:
        return self.value == self.line.required


def evaluate_vector_model(cs: ConstraintSet, assignment: VectorAssignment) -> tuple:
    """Evaluate each line's word in the joint algebra.

    Line words multiply the term values in written order; trivector factors
    met in two slots collapse through the shared-handedness rule before the
    scalar is read off.  Only the pm and ghz systems have a vector model
    here; the four-line system instead runs through the substitution model
    of :mod:`contextuality_lab.identities`.
    """
    if cs.name not in (PM, GHZ):
        raise ValueError(f"no vector model for constraint system {cs.name!r}")
    n = cs.n_systems
    results = []
    for line in cs.lines:
        raw = systems.word((assignment.term_value(t, n) for t in line.terms), n)
        reduced = identify_pseudoscalars(raw)
        if not reduced.is_scalar():
            raise ValueError(f"line word did not reduce to a scalar: {reduced}")
        results.append(LineEvaluation(line, reduced, Fraction(reduced.scalar_part())))
    return tuple(results)


# -- non-contextuality audit ---------------------------------------------------


@dataclass(frozen=True)
class ObservableAudit:
    observable: ObservableProduct
    value: str
    occurrences: tuple
    single_valued: bool


@dataclass(frozen=True)
class AuditReport:
    entries: tuple

    @property
    def all_single_valued(self) -> bool:
        return all(entry.single_valued for entry in self.entries)


def non_contextuality_audit(cs: ConstraintSet, assignment: VectorAssignment) -> AuditReport:
    """List where each observable occurs and the one value used everywhere.

    The value at every occurrence is recomputed independently from the
    assignment table and compared, making the single-valuedness of each
    observable an explicit checked fact rather than an assumption.
    """
    n = cs.n_systems
    occurrences: dict[str, list] = {}
    values: dict[str, list] = {}
    order: dict[str, ObservableProduct] = {}
    for line_index, line in enumerate(cs.lines):
        for position, term in enumerate(line.terms):
            order.setdefault(term.label, term)
            occurrences.setdefault(term.label, []).append((line_index, position))
            values.setdefault(term.label, []).append(assignment.term_value(term, n))
    entries = []
    for label, term in order.items():
        seen = values[label]
        single = all(v == seen[0] for v in seen[1:])
        entries.append(
            ObservableAudit(term, str(seen[0]), tuple(occurrences[label]), single)
        )
    return AuditReport(tuple(entries))
