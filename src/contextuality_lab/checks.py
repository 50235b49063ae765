"""The claims that ``verify`` decides, as tables of ``(id, claim, compute)`` rows.

``compute(ctx)`` returns ``(ok, witness)`` for one run's :class:`Context`.  A
suite maps the context to its rows, and :data:`SUITES` lists them in the order
``verify all`` runs them.  Each ``ga.*`` and ``systems.*`` axiom check but
``ga.associativity`` lists cases of words ``(factors, expected)``; one loop,
:class:`Words`, decides them all, and a witness count is the number of cases.
A row fixes how its words are reduced: a dense ``ga`` word through
``ga.word``, a joint-algebra word through ``systems.word``, and the rows hold
those two functions themselves.  ``ga.associativity`` decides the table of
the 64 signed blade products, formed by the dense product, with integer
lookups.  Other library functions are looked up on their modules at call
time, so a wrapper installed there sees each call.
"""

import itertools
import math
import operator
from functools import cache, partial, reduce
from random import Random

from . import constraints, ga, identities, quantum, systems
from .constraints import BELL_GHZ, GHZ, PM, ObservableProduct, builtin_constraints
from .ga import BLADE_COUNT, EXACT, Multivector, _Record, basis_vector, pseudoscalar
from .identities import NEGATED_F1_MAP, UNIFORM_MAP

AXES = (1, 2, 3)
#: Ordered pairs and permutations of distinct axes, in lexicographic order.
PAIRS = tuple(itertools.permutations(AXES, 2))
PERMUTATIONS = tuple(itertools.permutations(AXES))
#: The Bell-GHZ values are one-slot signed blades of the joint algebra.
MINUS_ONE = -systems.ONE
E12 = systems.generator(1, 1) * systems.generator(1, 2)


class Context(_Record):
    """One run: the coefficient mode of the ``ga.*`` words, the seed and the
    constraint document (``None`` for the built-in lines)."""

    __slots__ = ("mode", "seed", "document")

    def __init__(self, mode: str, seed: int, document=None):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "document", document)


def run(rows, ctx: Context) -> list:
    """Report entries for the rows, in order."""
    entries = []
    for check_id, claim, compute in rows:
        ok, witness = compute(ctx)
        status = "pass" if ok else "fail"
        entries.append({"id": check_id, "claim": claim, "status": status, "witness": witness})
    return entries


def _given(ok: bool, witness):
    """The compute of a row whose verdict was decided with its whole family."""
    return lambda ctx: (ok, witness)


# -- the algebra axioms: one loop over (factors, expected) words ---------------


class Words:
    """Compute of an axiom check: every word of every case holds.

    ``cases(ctx)`` lists the cases.  A string ``witness`` names the case count;
    otherwise ``witness(ctx, cases, values)`` builds the witness from the cases
    and the word values.  ``value(factors)`` reduces one word: ``ga.word``
    for a dense word, ``systems.word`` for a joint-algebra one.  Each word is
    compared with ``equals``: exact coefficients compare exactly, the float
    ``ga.*`` words of ``--mode approx`` within the default tolerance, and the
    joint algebra is exact in either mode.
    """

    __slots__ = ("cases", "witness", "value")

    def __init__(self, cases, witness, value):
        self.cases = cases
        self.witness = witness
        self.value = value

    def __call__(self, ctx: Context):
        cases = self.cases(ctx)
        ok, values = True, []
        for case in cases:
            for factors, expected in case:
                value = self.value(factors)
                ok = ok and value.equals(expected)
                values.append(value)
        if isinstance(self.witness, str):
            return ok, {self.witness: len(cases)}
        return ok, self.witness(ctx, cases, values)


def _identified_word(factors):
    """A joint-algebra word with its trivector pairs collapsed."""
    return systems.identify_pseudoscalars(systems.word(factors))


def _ga(witness, build):
    """Words built by ``build(e, one, minus_one)`` from the basis vectors
    ``e[1..3]`` and the scalars of the run's mode."""

    def cases(ctx):
        e = (None, *(basis_vector(i, ctx.mode) for i in AXES))
        return build(e, Multivector.scalar(1, ctx.mode), Multivector.scalar(-1, ctx.mode))

    return Words(cases, witness, ga.word)


@cache
def _blade_table(mode: str) -> tuple:
    """The eight basis blades ``e[a]`` of the mode and the table
    ``p[a][b] = e[a] * e[b]`` of their 64 products, formed by the dense
    product once per process and mode, for ``ga.distributivity`` and
    ``iso.blade-map``."""
    e = tuple(Multivector.from_blades({a: 1}, mode) for a in range(BLADE_COUNT))
    return e, tuple(tuple(x * y for y in e) for x in e)


def _associativity(ctx):
    """``(e_a e_b) e_c == e_a (e_b e_c)`` for every blade triple: the product
    is linear in each factor, so this decides it for all multivectors.

    The 64 blade products are formed by the dense product on every call, so
    a fault in it shows whenever the row runs.  Each must be one blade with
    coefficient +1 or -1; the triples are then decided on the integer table
    of ``(sign, mask)`` pairs: both bracketings give one mask and one sign.
    """
    witness = {"triples": BLADE_COUNT**3}
    e, _ = _blade_table(ctx.mode)
    table = []
    for x in e:
        for y in e:
            coeffs = (x * y).coeffs
            masks = [mask for mask, v in enumerate(coeffs) if v]
            if len(masks) != 1 or coeffs[masks[0]] not in (1, -1):
                return False, witness
            table.append((int(coeffs[masks[0]]), masks[0]))
    ok = True
    for a, b, c in itertools.product(range(BLADE_COUNT), repeat=3):
        s_ab, ab = table[a * BLADE_COUNT + b]
        s_left, left = table[ab * BLADE_COUNT + c]
        s_bc, bc = table[b * BLADE_COUNT + c]
        s_right, right = table[a * BLADE_COUNT + bc]
        ok = ok and left == right and s_ab * s_left == s_bc * s_right
    return ok, witness


def _distributivity(ctx):
    """A sum of two blades (a doubled blade when they coincide) distributes
    on either side of each blade."""
    e, p = _blade_table(ctx.mode)
    sums = [
        (b, c, e[b] + e[c])
        for b, c in itertools.combinations_with_replacement(range(BLADE_COUNT), 2)
    ]
    return [
        [((e[a], s), p[a][b] + p[a][c]), ((s, e[a]), p[b][a] + p[c][a])]
        for a in range(BLADE_COUNT)
        for b, c, s in sums
    ]


def _pseudoscalar(e, one, minus_one):
    t = pseudoscalar(one.mode)
    return [[((t, t), minus_one)] + [((t, e[i]), e[i] * t) for i in AXES]]


def _generators(n: int) -> list:
    """The embedded basis vectors, ``[system][axis]`` from 0, of n subsystems."""
    return [[systems.generator(s, a) for a in AXES] for s in range(1, n + 1)]


def _cross_commutation(ctx):
    gens = [(s, x) for s, xs in enumerate(_generators(3)) for x in xs]
    return [[((x, y), y * x)] for s, x in gens for t, y in gens if s != t]


def _embedded_relations(ctx):
    one = systems.ONE
    cases = []
    for es in _generators(3):
        word = es[0] * es[1] * es[2]
        cases.append(
            [((x, x), one) for x in es]
            + [((x, y), -(y * x)) for x, y in itertools.permutations(es, 2)]
            + [((word, word), -one)]
        )
    return cases


def _two_systems():
    """The six generators of two subsystems, the second basis in the order
    (2, 1, 3) and then in axis order, and the identity."""
    (e1, e2, e3), (f1, f2, f3) = _generators(2)
    return (e1, e2, e3, f2, f1, f3), (e1, e2, e3, f1, f2, f3), systems.ONE


def _two_basis_words(ctx):
    opposite, aligned, one = _two_systems()
    return [[(opposite, one), (aligned, -one)]]


def _signed(xs) -> list:
    """``{1: x, -1: -x}`` per generator x, each generator negated once."""
    return [{1: x, -1: -x} for x in xs]


def _even_flips(ctx):
    opposite, _, one = _two_systems()
    signed, value = _signed(opposite), {1: one, -1: -one}
    return [
        [(tuple(x[s] for x, s in zip(signed, signs)), value[math.prod(signs)])]
        for signs in itertools.product((1, -1), repeat=6)
    ]


def _three_system_word(ctx):
    e, f, g = _generators(3)
    minus_one = -systems.ONE
    axis_pairs = itertools.permutations(range(3), 2)
    halves = (e[i] * f[i] * g[i] * e[j] * f[j] * g[j] for i, j in axis_pairs)
    return [[((half, half), minus_one)] for half in halves]


def _free_flips(ctx):
    signed = _signed(x for xs in _generators(3) for x in xs[:2])
    minus_one = -systems.ONE
    cases = []
    for signs in itertools.product((1, -1), repeat=6):
        a, b, c, d, e, f = (x[s] for x, s in zip(signed, signs))
        cases.append([((a, b, a, b, c, d, c, d, e, f, e, f), minus_one)])
    return cases


GA_AXIOMS = (
    ("ga.contraction", "each basis vector squares to 1",
     _ga("axes", lambda e, one, neg: [[((e[i], e[i]), one)] for i in AXES])),
    ("ga.anticommutation", "distinct basis vectors anticommute",
     _ga("ordered_pairs", lambda e, one, neg: [
         [((e[i], e[j]), -(e[j] * e[i]))] for i, j in PAIRS
     ])),
    ("ga.bivector-cancel", "e_i e_j e_j e_i equals 1 for distinct axes",
     _ga("ordered_pairs", lambda e, one, neg: [
         [((e[i], e[j], e[j], e[i]), one)] for i, j in PAIRS
     ])),
    ("ga.bivector-square", "e_i e_j e_i e_j equals -1 for distinct axes",
     _ga("ordered_pairs", lambda e, one, neg: [
         [((e[i], e[j], e[i], e[j]), neg)] for i, j in PAIRS
     ])),
    ("ga.trivector-cancel", "e_i e_j e_k e_k e_j e_i equals 1 for every axis permutation",
     _ga("permutations", lambda e, one, neg: [
         [((e[i], e[j], e[k], e[k], e[j], e[i]), one)] for i, j, k in PERMUTATIONS
     ])),
    ("ga.trivector-square", "e_i e_j e_k e_i e_j e_k equals -1 for every axis permutation",
     _ga("permutations", lambda e, one, neg: [
         [((e[i], e[j], e[k], e[i], e[j], e[k]), neg)] for i, j, k in PERMUTATIONS
     ])),
    ("ga.pseudoscalar", "the unit trivector squares to -1 and commutes with each basis vector",
     _ga(lambda ctx, cases, values: {"square": str(values[0])}, _pseudoscalar)),
    ("ga.sign-flips-plane", "signed in-plane words keep their values for every sign choice",
     _ga("cases", lambda e, one, neg: [
         [((a, b, b, a), one), ((a, b, a, b), neg)]
         for i, j in PAIRS
         for a in (e[i], -e[i])
         for b in (e[j], -e[j])
     ])),
    ("ga.sign-flips-space", "signed space words keep their values for every sign choice",
     _ga("cases", lambda e, one, neg: [
         [((a, b, c, c, b, a), one), ((a, b, c, a, b, c), neg)]
         for i, j, k in PERMUTATIONS
         for a in (e[i], -e[i])
         for b in (e[j], -e[j])
         for c in (e[k], -e[k])
     ])),
    ("ga.associativity", "the product is associative on all 512 basis-blade triples",
     _associativity),
    ("ga.distributivity",
     "the product distributes over sums of two basis blades, on either side",
     Words(_distributivity, "triples", ga.word)),
)

SYSTEMS_AXIOMS = (
    ("systems.cross-commutation",
     "embedded generators of distinct subsystems commute (three subsystems)",
     Words(_cross_commutation, "ordered_pairs", systems.word)),
    ("systems.embedded-relations",
     "each embedded subsystem copy satisfies the single-copy relations",
     Words(_embedded_relations, "systems", systems.word)),
    ("systems.two-basis-words",
     "the six-generator words reduce to 1 (opposite order) and -1 (same order)",
     Words(_two_basis_words,
           lambda ctx, cases, values: {
               "opposite_order": str(values[0]), "same_order": str(values[1])
           },
           _identified_word)),
    ("systems.even-flips", "flipping an even number of the six generators keeps the word value",
     Words(_even_flips, "sign_choices", _identified_word)),
    ("systems.three-system-word",
     "the squared three-subsystem word equals -1 for all distinct axis pairs",
     Words(_three_system_word, "axis_pairs", systems.word)),
    ("systems.free-flips", "the per-subsystem squared word equals -1 for all 64 sign choices",
     Words(_free_flips, "sign_choices", systems.word)),
)


# -- the matrix claims ------------------------------------------------------------


def _pauli_anticommutation(ctx):
    two = quantum.ComplexMatrix.identity(2)
    pairs = list(itertools.product("xyz", repeat=2))
    ok = all(
        quantum.anticommutator(quantum.pauli(i), quantum.pauli(j)) == two.scale(2 if i == j else 0)
        for i, j in pairs
    )
    return ok, {"pairs": len(pairs)}


def _pauli_cross_commutation(ctx):
    """The single-site words of two and of three subsystems; a word leaves
    the sites its masks do not reach at the identity, so the nine words of
    three subsystems are formed once and two subsystems take the first six."""
    words = [
        [quantum.pauli_word(ObservableProduct.parse(f"{a}{s}")) for a in "xyz"]
        for s in (1, 2, 3)
    ]
    pairs = [
        (u, w)
        for n in (2, 3)
        for us, ws in itertools.permutations(words[:n], 2)
        for u in us
        for w in ws
    ]
    return all(quantum.words_commute(u, w) for u, w in pairs), {"ordered_pairs": len(pairs)}


def _line_commutation(name: str, ctx):
    """Each distinct observable's word is formed once, as in
    ``quantum.verify_operator_identities``."""
    cs = builtin_constraints(name)
    words = [quantum.pauli_word(term) for term in cs.observables]
    ok = all(
        quantum.words_commute(words[j], words[k])
        for indices in cs.term_indices
        for j, k in itertools.combinations(indices, 2)
    )
    return ok, {"lines": len(cs.lines)}


def _blade_map(ctx):
    """A blade's spin matrix is the product of its axes' matrices, and a
    multivector's is the coefficient-weighted sum of its blades', summed from
    its first term (the zero matrix when it has none)."""
    one, paulis = quantum.ComplexMatrix.identity(2), [quantum.pauli(n) for n in "xyz"]
    spin = [
        reduce(operator.matmul, [p for k, p in enumerate(paulis) if mask >> k & 1], one)
        for mask in range(BLADE_COUNT)
    ]
    _, products = _blade_table(EXACT)
    witness = {"blade_pairs": BLADE_COUNT**2}
    for a, b in itertools.product(range(BLADE_COUNT), repeat=2):
        terms = [spin[m].scale(v) for m, v in enumerate(products[a][b].coeffs) if v]
        if (sum(terms[1:], terms[0]) if terms else one.scale(0)) != spin[a] @ spin[b]:
            return False, witness
    return True, witness


OPERATORS = (
    *GA_AXIOMS,
    ("pauli.anticommutation", "spin matrices anticommute off-axis and square to the identity",
     _pauli_anticommutation),
    ("pauli.xy-product", "the x and y spin matrices multiply to i times the z matrix",
     lambda ctx: (
         quantum.pauli("x") @ quantum.pauli("y") == quantum.pauli("z").scale(quantum.I),
         {"product": "i*z"},
     )),
    ("pauli.cross-commutation", "spin matrices of distinct subsystems commute",
     _pauli_cross_commutation),
    *(
        (f"{name}.line-commutation", f"the members of every {name} line mutually commute",
         partial(_line_commutation, name))
        for name in (PM, GHZ)
    ),
    ("iso.blade-map", "mapping basis vectors to spin matrices preserves all 64 blade products",
     _blade_map),
    *SYSTEMS_AXIOMS,
)


# -- the line systems ---------------------------------------------------------------


def _enumeration(cs, ctx):
    """The scalar no-go: it holds when no sign map meets every line."""
    enum = constraints.enumerate_scalar_assignments(cs)
    return enum.satisfying_count == 0, {
        "assignments": enum.total,
        "satisfying": enum.satisfying_count,
        "lhs_parity": enum.parity_witness.lhs_product,
        "rhs_parity": enum.parity_witness.rhs_product,
    }


def _value_table(cs, assignment, ctx):
    audit = constraints.non_contextuality_audit(cs, assignment)
    return audit.all_single_valued, {
        entry.observable.label: {"value": entry.value, "occurrences": len(entry.occurrences)}
        for entry in audit.entries
    }


def _lines(name: str, ctx):
    """The pm or ghz rows: one operator word per line, the scalar no-go and,
    when the lines are the built-in pm or ghz lines, the vector model and
    its value table."""
    cs = ctx.document if ctx.document is not None else builtin_constraints(name)
    words = quantum.verify_operator_identities(cs)
    for k, ((labels, required), ok) in enumerate(zip(cs.label_rows, words), start=1):
        yield (
            f"{name}.word.{k}",
            f"operator word {' '.join(labels)} equals {required:+d} times the identity",
            _given(ok, {"terms": list(labels), "required": required}),
        )
    yield (f"{name}.enumeration", "no assignment of scalar signs satisfies every line at once",
           partial(_enumeration, cs))
    if not (constraints.has_builtin_lines(cs, PM) or constraints.has_builtin_lines(cs, GHZ)):
        return
    assignment = constraints.VectorAssignment.all_positive(cs.n_systems)
    for k, evaluation in enumerate(constraints.evaluate_vector_model(cs, assignment), start=1):
        yield (
            f"{name}.vector-line.{k}",
            f"vector-valued line {k} reduces to {evaluation.line.required:+d}",
            _given(evaluation.matches_required, {"value": str(evaluation.value)}),
        )
    yield (f"{name}.value-table",
           "every observable reads one value from the single assignment table",
           partial(_value_table, cs, assignment))


# -- Bell-GHZ: every column row reads the one table of 64 columns --------------------


def _named_column(imap, expected: tuple, ctx):
    column = identities.columns()[imap]
    ok = column.labels() == expected and column.product == MINUS_ONE
    return ok, {
        "map": imap.as_dict(), "column": list(column.labels()), "product": str(column.product)
    }


def _all_maps(ctx):
    table = identities.columns()
    for imap, column in table.items():
        if column.product != MINUS_ONE:
            return False, {"maps": len(table), "map": imap.as_dict(), "product": str(column.product)}
    return True, {"maps": len(table), "product": "-1"}


def _search(label: str, ctx):
    found = identities.find_identity_maps(identities.in_plane_vector(label))
    table = identities.columns()
    witness = {"target": label, "maps_found": len(found)}
    if label == "e1":
        witness["includes_negated_f1"] = NEGATED_F1_MAP in found
    return bool(found) and all(table[m].product == MINUS_ONE for m in found), witness


def _orientation(imap, rule, ctx):
    reading = identities.orientation_reading(imap)
    return rule(reading), {"orientations": [str(o) for o in reading.orientations]}


BELL_GHZ_COLUMNS = (
    *(
        (f"bellghz.column.{label}",
         f"the {label} map gives the column {list(expected)} with product -1",
         partial(_named_column, imap, expected))
        for label, imap, expected in (
            ("negated-f1", NEGATED_F1_MAP, ("e1", "e1", "e1", "-e1")),
            ("uniform", UNIFORM_MAP, ("e1", "-e1", "e1", "e1")),
        )
    ),
    ("bellghz.column.all-maps", "every valid identification map gives a column multiplying to -1",
     _all_maps),
    *(
        (f"bellghz.search.{label}",
         f"some identification map yields the column ({label}, ..., -{label})",
         partial(_search, label))
        for label in ("e1", "-e1", "e2", "-e2")
    ),
    ("bellghz.orientation.negated-f1",
     "under the negated-f1 map all three subsystems share the orientation e12",
     partial(_orientation, NEGATED_F1_MAP, lambda r: all(o == E12 for o in r.orientations))),
    ("bellghz.orientation.uniform",
     "under the uniform map subsystems 1 and 3 agree and subsystem 2 is opposite",
     partial(_orientation, UNIFORM_MAP, lambda r: (
         r.identical(1, 3) and not r.identical(1, 2) and r.orientations[1] == -E12
     ))),
)


def _bell_ghz(ctx):
    cs = ctx.document if ctx.document is not None else builtin_constraints(BELL_GHZ)
    enumeration = ("bellghz.enumeration",
                   "no assignment of scalar signs satisfies the four lines at once",
                   partial(_enumeration, cs))
    # The column, search and orientation rows are claims about the built-in
    # lines (identities.COLUMN_LINES); a document with other lines gets the
    # enumeration only, whatever its name.
    if constraints.has_builtin_lines(cs, BELL_GHZ):
        return (enumeration, *BELL_GHZ_COLUMNS)
    return (enumeration,)


# -- states and a3 -------------------------------------------------------------------


def _eigenvalues(state, values: tuple, ctx):
    ok = all(
        quantum.eigencheck(state(), product, value)
        for product, value in zip(identities.COLUMN_LINES, values)
    )
    return ok, {"eigenvalues": list(values)}


def _random_unit(gauss) -> tuple:
    """A seeded direction.  Its norm and :func:`_singlet`'s dot product are
    plain left-to-right sums, so no Python version's ``sum()`` moves them."""
    while True:
        x, y, z = gauss(0.0, 1.0), gauss(0.0, 1.0), gauss(0.0, 1.0)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-6:
            return x / norm, y / norm, z / norm


def _singlet(samples: int, ctx):
    gauss = Random(ctx.seed).gauss
    worst = 0.0
    for _ in range(samples):
        a = _random_unit(gauss)
        b = _random_unit(gauss)
        dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
        worst = max(worst, abs(quantum.singlet_correlation(a, b) + dot))
    return worst <= 1e-12, {"samples": samples, "seed": ctx.seed, "max_deviation": worst}


STATES = (
    ("states.convention", "basis convention on record",
     _given(True, "kets are z-diagonal with plus mapped to bit 0; x*y = i*z")),
    ("states.ghz.eigenvalues",
     "the symmetric state has eigenvalues (1, 1, 1, -1) on (xyy, yxy, yyx, xxx)",
     partial(_eigenvalues, quantum.ghz_state, (1, 1, 1, -1))),
    ("states.alternating.eigenvalues",
     "the alternating state has eigenvalues (1, -1, 1, 1) on (xyy, yxy, yyx, xxx)",
     partial(_eigenvalues, quantum.alternating_ghz_state, (1, -1, 1, 1))),
    ("states.ghz.not-eigenstate-x1",
     "the symmetric state is no eigenstate of a single-subsystem spin",
     lambda ctx: (
         not quantum.is_eigenstate(quantum.ghz_state(), ObservableProduct.parse("x1")),
         {"observable": "x1"},
     )),
    ("states.singlet", "singlet correlations equal minus the dot product on 100 seeded pairs",
     partial(_singlet, 100)),
)


def _a3(i: int, j: int, ctx):
    """Commutator witness for identified bases: with the second basis
    identified with the first, the commutator of e_i with the bivector
    e_i e_j is 2 e_j, never zero, so a generator cannot commute with the
    identified pair it now overlaps."""
    ei = basis_vector(i)
    bivector = ei * basis_vector(j)
    commutator = ei * bivector - bivector * ei
    return commutator == basis_vector(j).scale(2), {"commutator": str(commutator)}


A3 = tuple(
    (f"a3.commutator.{i}{j}",
     f"e{i} fails to commute with the identified pair e{i}e{j}: commutator 2*e{j}",
     partial(_a3, i, j))
    for i, j in PAIRS
)


#: Every ``verify`` target but ``all``, in the order ``all`` runs them.
SUITES = {
    "pm": partial(_lines, PM),
    "ghz": partial(_lines, GHZ),
    "bell-ghz": _bell_ghz,
    "operators": lambda ctx: OPERATORS,
    "states": lambda ctx: STATES,
    "a3": lambda ctx: A3,
}

#: The targets whose suites read ``ctx.document``, so ``verify --constraints``
#: applies to them and to no other.
DOCUMENT_TARGETS = ("pm", "ghz", "bell-ghz")
