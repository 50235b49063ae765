"""The three product-constraint systems and their two evaluators.

Three built-in systems are provided:

* ``pm``       - nine two-particle spin observables in six lines,
* ``ghz``      - ten three-particle spin observables in five lines,
* ``bell_ghz`` - six single-particle values in four lines.

Each line demands that the product of its observables' values equals +1 or
-1.  An observable is written as its factors joined by ``*``, such as
``x1*y2``, in any order: factors on distinct subsystems commute, so
``y2*x1`` and ``x1*y2`` are one observable.  An observable is encoded once,
when it is built, as its Pauli x and z masks; a set keys each observable by
them, and every evaluator and operator check reads that one index; labels
are kept as written.

Two evaluators operate on a system.  The scalar evaluator counts, among
all 2^n maps from the n observables to {+1, -1}, the maps satisfying every
line at once.  Writing each value as (-1)^b makes each line one linear
equation over GF(2), so Gaussian elimination decides the count exactly
without visiting the maps: it is 0 or 2^(n - rank).  For the built-in
systems it is zero, which is the no-go result.  The vector evaluator instead
assigns each elementary symbol a signed basis vector of its subsystem's
algebra copy, expands composite observables through the product rule,
multiplies each line's word in the joint algebra of
:mod:`contextuality_lab.systems`, and reduces trivector pairs through the
shared-handedness rule.  It applies to the pm and ghz lines, where every
line lands exactly on its required sign.

A set can also be read from a JSON document (:meth:`ConstraintSet.from_json`,
behind ``verify --constraints``); ``json`` loads only when a document is
read.
"""

from collections.abc import Iterable, Mapping

from . import systems
from .ga import _Record
from .systems import TensorMultivector, identify_pseudoscalars

AXES = ("x", "y", "z")
AXIS_INDEX = {"x": 1, "y": 2, "z": 3}

PM = "pm"
GHZ = "ghz"
BELL_GHZ = "bell_ghz"


class PauliSymbol(_Record):
    """One elementary spin symbol: a subsystem index and a measurement axis."""

    __slots__ = ("system", "axis")

    def __init__(self, system: int, axis: str):
        if axis not in AXES:
            raise ValueError(f"axis {axis!r} not one of x, y, z")
        if type(system) is not int or not 1 <= system <= systems.MAX_SYSTEMS:
            raise ValueError(f"system index {system!r} out of range")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "axis", axis)

    @property
    def label(self) -> str:
        return f"{self.axis}{self.system}"


class ObservableProduct(_Record):
    """An ordered product of elementary symbols, one per distinct subsystem.

    The label joins the factor labels in written order; ``parse`` keeps the
    one it reads, and any other product forms its own on first use."""

    __slots__ = ("factors", "_label", "_masks")

    def __init__(self, factors: tuple):
        x = z = 0
        for factor in factors:
            bit = 1 << (factor.system - 1)
            if (x | z) & bit:
                label = "*".join(f.label for f in factors)
                raise ValueError(f"repeated subsystem in observable {label}")
            if factor.axis != "z":
                x |= bit
            if factor.axis != "x":
                z |= bit
        if not factors:
            raise ValueError("an observable needs at least one factor")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_label", None)
        object.__setattr__(self, "_masks", (x, z))

    @property
    def masks(self) -> tuple:
        """``(x, z)``: subsystem s at bit s - 1 of both masks, whatever the
        number of subsystems; x sets the x bit, z the z bit and y both.  Two
        products of one factor set, in any written order, share them."""
        return self._masks

    @classmethod
    def parse(cls, label: str) -> "ObservableProduct":
        parts = [part.strip() for part in label.split("*")]
        factors = []
        for part in parts:
            if len(part) != 2 or part[0] not in AXES or part[1] not in "123":
                raise ValueError(f"cannot parse observable factor {part!r}")
            factors.append(PauliSymbol(int(part[1]), part[0]))
        product = cls(tuple(factors))
        object.__setattr__(product, "_label", "*".join(parts))
        return product

    @property
    def label(self) -> str:
        label = self._label
        if label is None:
            label = "*".join(factor.label for factor in self.factors)
            object.__setattr__(self, "_label", label)
        return label

    def __str__(self) -> str:
        return self.label


class ConstraintLine(_Record):
    """One product equation: the terms' values must multiply to ``required``."""

    __slots__ = ("terms", "required")

    def __init__(self, terms: tuple, required: int):
        if not terms:
            raise ValueError("a constraint line needs at least one term")
        if required not in (1, -1):
            raise ValueError("required sign must be +1 or -1")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "required", required)


class ConstraintSet(_Record):
    """Named lines.  Terms with the same factors in any order are one
    observable: factors on distinct subsystems commute, so ``y2*x1`` and
    ``x1*y2`` are one observable, one variable of the scalar evaluator and
    one operator word."""

    __slots__ = ("name", "lines", "_table")

    def __init__(self, name: str, lines: tuple):
        if not lines:
            raise ValueError("a constraint set needs at least one line")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "_table", None)

    def _index(self) -> tuple:
        """``(observables, term_indices, label_rows)``, formed on first use.

        Each term is keyed by its :attr:`ObservableProduct.masks`, so terms
        of one factor set in any written order are one observable."""
        table = self._table
        if table is None:
            observables, by_masks, indices, label_rows = [], {}, [], []
            for line in self.lines:
                row = []
                for term in line.terms:
                    k = by_masks.setdefault(term.masks, len(observables))
                    if k == len(observables):
                        observables.append(term)
                    row.append(k)
                indices.append(tuple(row))
                label_rows.append((tuple(term.label for term in line.terms), line.required))
            table = (tuple(observables), tuple(indices), tuple(label_rows))
            object.__setattr__(self, "_table", table)
        return table

    @property
    def observables(self) -> tuple:
        """Distinct observables, each as first written, in first-appearance order."""
        return self._index()[0]

    @property
    def term_indices(self) -> tuple:
        """Per line, the position in :attr:`observables` of each term."""
        return self._index()[1]

    @property
    def label_rows(self) -> tuple:
        """Per line, the term labels as written and the required sign."""
        return self._index()[2]

    @property
    def n_systems(self) -> int:
        """The highest subsystem any observable acts on."""
        return max(x | z for x, z in (term.masks for term in self.observables)).bit_length()

    @classmethod
    def from_json(cls, text: str) -> "ConstraintSet":
        """Parse ``{"name": str, "lines": [{"terms": [str, ...], "required": 1
        or -1}, ...]}``; a document of any other shape, with a key outside
        that shape or a key repeated in one object, or nested too deeply for
        the decoder, raises ``ValueError``.  ``json`` is imported here, so
        that only a command that reads a document loads it."""
        import json

        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("the document is nested too deeply to decode") from None
        if not isinstance(doc, dict):
            raise ValueError("a constraint set document must be a JSON object")
        name, entries = doc.pop("name", None), doc.pop("lines", None)
        if doc:
            raise ValueError(f"unknown key {next(iter(doc))!r}")
        if not isinstance(name, str):
            raise ValueError(f"'name' must be a string, got {name!r}")
        if not isinstance(entries, list):
            raise ValueError(f"'lines' must be a list, got {entries!r}")
        rows = []
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"line {k} must be an object, got {entry!r}")
            terms, required = entry.pop("terms", None), entry.pop("required", None)
            if entry:
                raise ValueError(f"line {k}: unknown key {next(iter(entry))!r}")
            if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
                raise ValueError(f"line {k}: 'terms' must be a list of strings, got {terms!r}")
            if type(required) is not int or required not in (1, -1):
                raise ValueError(f"line {k}: 'required' must be 1 or -1, got {required!r}")
            rows.append((terms, required))
        return _lines(name, rows)


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a key repeated in one object raises ``ValueError``."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _lines(name: str, rows: Iterable[tuple]) -> ConstraintSet:
    """The set of (term texts, required sign) rows; each distinct text is
    parsed once and its observable shared by every line that writes it."""
    parsed: dict[str, ObservableProduct] = {}
    lines = []
    for terms, required in rows:
        for text in terms:
            if text not in parsed:
                parsed[text] = ObservableProduct.parse(text)
        lines.append(ConstraintLine(tuple(parsed[text] for text in terms), required))
    return ConstraintSet(name, tuple(lines))


#: The built-in line systems as (term labels, required sign) rows; they are
#: parsed only when a system is built.
_BUILTIN_ROWS = {
    PM: (
        (("x1*x2", "x1", "x2"), 1),
        (("y1*y2", "y1", "y2"), 1),
        (("x1*y2", "x1", "y2"), 1),
        (("y1*x2", "y1", "x2"), 1),
        (("x1*y2", "y1*x2", "z1*z2"), 1),
        (("x1*x2", "y1*y2", "z1*z2"), -1),
    ),
    GHZ: (
        (("x1*y2*y3", "x1", "y2", "y3"), 1),
        (("y1*x2*y3", "y1", "x2", "y3"), 1),
        (("y1*y2*x3", "y1", "y2", "x3"), 1),
        (("x1*x2*x3", "x1", "x2", "x3"), 1),
        (("x1*x2*x3", "x1*y2*y3", "y1*x2*y3", "y1*y2*x3"), -1),
    ),
    BELL_GHZ: (
        (("x1", "y2", "y3"), 1),
        (("y1", "x2", "y3"), 1),
        (("y1", "y2", "x3"), 1),
        (("x1", "x2", "x3"), -1),
    ),
}


def builtin_constraints(name: str) -> ConstraintSet:
    """The built-in line systems ``pm``, ``ghz`` and ``bell_ghz``."""
    if name not in _BUILTIN_ROWS:
        raise ValueError(f"unknown constraint system {name!r}")
    return _lines(name, _BUILTIN_ROWS[name])


def has_builtin_lines(cs: ConstraintSet, name: str) -> bool:
    """True when the lines are those of the built-in system ``name``, whatever
    the set's name: the set's :attr:`~ConstraintSet.label_rows`, the term
    labels as written in order with each line's required sign, equal the
    built-in rows.  Nothing is parsed; a term written in another factor
    order than the built-in one makes other lines."""
    return cs.label_rows == _BUILTIN_ROWS[name]


# -- scalar evaluator -----------------------------------------------------


class ParityWitness(_Record):
    """Forced sign of the product of all line left sides vs right sides.

    ``lhs_product`` is +1 when every observable occurs an even number of
    times across the lines, which forces the product of all left sides to +1
    for any sign assignment; it is None when occurrences do not all cancel.
    ``rhs_product`` multiplies the required signs.
    """

    __slots__ = ("lhs_product", "rhs_product")


class EnumerationResult(_Record):
    __slots__ = ("total", "satisfying_count", "parity_witness")


def parity_witness(cs: ConstraintSet) -> ParityWitness:
    """The lines' parity witness; bit k of ``odd`` is set while observable k
    has occurred an odd number of times."""
    odd, rhs = 0, 1
    for line, indices in zip(cs.lines, cs.term_indices):
        rhs *= line.required
        for k in indices:
            odd ^= 1 << k
    return ParityWitness(None if odd else 1, rhs)


def enumerate_scalar_assignments(cs: ConstraintSet) -> EnumerationResult:
    """Count the sign assignments of the observables meeting every line.

    With each value written as (-1)^b, a line says that the bits of its terms
    sum to 1 over GF(2) when its required sign is -1 and to 0 when it is +1;
    a term repeated inside a line cancels.  Each line becomes a bitmask row
    (bit k for observable k) and is reduced against the pivot rows found so
    far, keyed by leading bit.  A row reducing to 0 = 1 leaves no solution;
    otherwise the n observables take 2^(n - rank) satisfying assignments out
    of the 2^n counted in ``total``.
    """
    n = len(cs.observables)
    total = 2 ** n
    witness = parity_witness(cs)
    pivots: dict[int, tuple[int, int]] = {}
    for line, indices in zip(cs.lines, cs.term_indices):
        row, rhs = 0, int(line.required == -1)
        for k in indices:
            row ^= 1 << k
        while row and row.bit_length() - 1 in pivots:
            pivot_row, pivot_rhs = pivots[row.bit_length() - 1]
            row ^= pivot_row
            rhs ^= pivot_rhs
        if row:
            pivots[row.bit_length() - 1] = (row, rhs)
        elif rhs:
            return EnumerationResult(total, 0, witness)
    return EnumerationResult(total, 2 ** (n - len(pivots)), witness)


# -- vector evaluator -------------------------------------------------------


class VectorAssignment(_Record):
    """A sign for each elementary symbol's canonical basis vector.

    The symbol of axis a in subsystem s takes the value
    ``sign * (axis-a basis vector of slot s)``; the same table entry is used
    wherever the symbol occurs, so values cannot depend on the line reading
    them.
    """

    __slots__ = ("signs",)

    def __init__(self, signs: Mapping[PauliSymbol, int]):
        for symbol, sign in signs.items():
            if sign not in (1, -1):
                raise ValueError(f"sign for {symbol.label} must be +1 or -1")
        object.__setattr__(self, "signs", signs)

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

    def symbol_value(self, symbol: PauliSymbol) -> TensorMultivector:
        return systems.generator(symbol.system, AXIS_INDEX[symbol.axis], self.sign(symbol))

    def term_value(self, term: ObservableProduct) -> TensorMultivector:
        """Product-rule expansion: multiply the factors' values in written order."""
        return systems.word(map(self.symbol_value, term.factors))


class LineEvaluation(_Record):
    """A line's reduced word and its value: the scalar ``int`` of a word
    that reduced to one, else the word itself."""

    __slots__ = ("line", "word", "value")

    @property
    def matches_required(self) -> bool:
        """True when the word reduced to the scalar the line requires; a
        word that is no scalar equals no ``int``."""
        return self.value == self.line.required


def evaluate_vector_model(cs: ConstraintSet, assignment: VectorAssignment) -> tuple:
    """Evaluate each line's word in the joint algebra.

    Line words multiply the term values in written order; trivector factors
    met in two slots collapse through the shared-handedness rule before the
    scalar is read off.  A word that does not reduce to a scalar is kept as
    the line's value, so its line fails.  ``verify`` applies the model to
    the built-in pm and ghz lines only; the four-line system instead runs
    through the substitution model of :mod:`contextuality_lab.identities`.
    """
    results = []
    for line in cs.lines:
        raw = systems.word(map(assignment.term_value, line.terms))
        reduced = identify_pseudoscalars(raw)
        value = reduced.scalar_part() if reduced.is_scalar() else reduced
        results.append(LineEvaluation(line, reduced, value))
    return tuple(results)


# -- non-contextuality audit ---------------------------------------------------


class ObservableAudit(_Record):
    __slots__ = ("observable", "value", "occurrences", "single_valued")


class AuditReport(_Record):
    __slots__ = ("entries",)

    @property
    def all_single_valued(self) -> bool:
        return all(entry.single_valued for entry in self.entries)


def non_contextuality_audit(cs: ConstraintSet, assignment: VectorAssignment) -> AuditReport:
    """List where each observable occurs and the one value used everywhere.

    The value at every occurrence is recomputed independently from the
    assignment table and compared, making the single-valuedness of each
    observable an explicit checked fact rather than an assumption.
    """
    observables = cs.observables
    occurrences = [[] for _ in observables]
    values = [[] for _ in observables]
    for line_index, (line, indices) in enumerate(zip(cs.lines, cs.term_indices)):
        for position, (term, k) in enumerate(zip(line.terms, indices)):
            occurrences[k].append((line_index, position))
            values[k].append(assignment.term_value(term))
    entries = []
    for term, places, seen in zip(observables, occurrences, values):
        single = all(v == seen[0] for v in seen[1:])
        entries.append(ObservableAudit(term, str(seen[0]), tuple(places), single))
    return AuditReport(tuple(entries))
