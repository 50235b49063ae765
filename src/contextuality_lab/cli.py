"""Command-line front end emitting machine-readable verification reports.

Subcommands:

* ``verify <target>`` runs one of the named check suites and emits a JSON
  report; the process exits 0 exactly when every check passed.
* ``chsh <start> <end> <steps>`` scans the coplanar correlation curve and
  optionally writes the grid as CSV.
* ``search-identities <target>`` lists every basis-identification map whose
  four-line column is (x, x, x, -x) for the requested vector x.

Reports are deterministic byte for byte for fixed flags: randomized suites
draw from a seeded generator (``--seed``, overridden by the environment
variable ``CONTEXTUALITY_LAB_SEED``) and no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import re
import sys
from random import Random

from . import __version__, chsh, constraints, identities, quantum, systems
from .constraints import builtin_constraints
from .ga import APPROX, EXACT, Multivector, basis_vector, pseudoscalar, random_multivector
from .identities import NEGATED_F1_MAP, UNIFORM_MAP, SignedAxisVector

SCHEMA_VERSION = 1
DEFAULT_SEED = 1729
SEED_ENV_VAR = "CONTEXTUALITY_LAB_SEED"

VERIFY_TARGETS = ("pm", "ghz", "bell-ghz", "operators", "states", "a3", "all")


def _check(check_id: str, claim: str, ok: bool, witness) -> dict:
    return {
        "id": check_id,
        "claim": claim,
        "status": "pass" if ok else "fail",
        "witness": witness,
    }


# -- constraint suites (pm / ghz) -------------------------------------------


def _constraint_suite(name: str, custom=None) -> list:
    cs = custom if custom is not None else builtin_constraints(name)
    tag = name
    checks = []
    word_results = quantum.verify_operator_identities(cs)
    for index, (line, ok) in enumerate(zip(cs.lines, word_results), start=1):
        labels = [t.label for t in line.terms]
        checks.append(
            _check(
                f"{tag}.word.{index}",
                f"operator word {' '.join(labels)} equals {line.required:+d} times the identity",
                ok,
                {"terms": labels, "required": line.required},
            )
        )
    enum = constraints.enumerate_scalar_assignments(cs)
    checks.append(
        _check(
            f"{tag}.enumeration",
            "no assignment of scalar signs satisfies every line at once",
            enum.satisfying_count == 0,
            {
                "assignments": enum.total,
                "satisfying": enum.satisfying_count,
                "lhs_parity": enum.parity_witness.lhs_product,
                "rhs_parity": enum.parity_witness.rhs_product,
            },
        )
    )
    if cs.name not in (constraints.PM, constraints.GHZ):
        return checks
    assignment = constraints.VectorAssignment.all_positive(cs.n_systems)
    try:
        evaluations = constraints.evaluate_vector_model(cs, assignment)
    except ValueError as exc:
        checks.append(
            _check(
                f"{tag}.vector-model",
                "every line word reduces to a scalar",
                False,
                str(exc),
            )
        )
        return checks
    for index, evaluation in enumerate(evaluations, start=1):
        checks.append(
            _check(
                f"{tag}.vector-line.{index}",
                f"vector-valued line {index} reduces to {evaluation.line.required:+d}",
                evaluation.matches_required,
                {"value": str(evaluation.value)},
            )
        )
    audit = constraints.non_contextuality_audit(cs, assignment)
    checks.append(
        _check(
            f"{tag}.value-table",
            "every observable reads one value from the single assignment table",
            audit.all_single_valued,
            {
                entry.observable.label: {
                    "value": entry.value,
                    "occurrences": len(entry.occurrences),
                }
                for entry in audit.entries
            },
        )
    )
    return checks


# -- bell-ghz suite -----------------------------------------------------------


def _bell_ghz_suite(custom=None) -> list:
    checks = []
    cs = custom if custom is not None else builtin_constraints(constraints.BELL_GHZ)
    enum = constraints.enumerate_scalar_assignments(cs)
    checks.append(
        _check(
            "bellghz.enumeration",
            "no assignment of scalar signs satisfies the four lines at once",
            enum.satisfying_count == 0,
            {
                "assignments": enum.total,
                "satisfying": enum.satisfying_count,
                "lhs_parity": enum.parity_witness.lhs_product,
                "rhs_parity": enum.parity_witness.rhs_product,
            },
        )
    )
    named = (
        ("negated-f1", NEGATED_F1_MAP, ("e1", "e1", "e1", "-e1")),
        ("uniform", UNIFORM_MAP, ("e1", "-e1", "e1", "e1")),
    )
    for label, imap, expected in named:
        column = identities.bell_ghz_column(imap)
        ok = column.labels() == expected and str(column.product) == "-1"
        checks.append(
            _check(
                f"bellghz.column.{label}",
                f"the {label} map gives the column {list(expected)} with product -1",
                ok,
                {
                    "map": imap.as_dict(),
                    "column": list(column.labels()),
                    "product": str(column.product),
                },
            )
        )
    minus_one = Multivector.scalar(-1)
    all_products = [
        identities.bell_ghz_column(imap).product for imap in identities.all_identity_maps()
    ]
    checks.append(
        _check(
            "bellghz.column.all-maps",
            "every valid identification map gives a column multiplying to -1",
            all(p == minus_one for p in all_products),
            {"maps": len(all_products), "product": "-1"},
        )
    )
    for target_label in ("e1", "-e1", "e2", "-e2"):
        target = SignedAxisVector.parse(target_label)
        found = identities.find_identity_maps(target)
        verified = all(
            identities.bell_ghz_column(m).product == minus_one for m in found
        )
        witness = {"target": target_label, "maps_found": len(found)}
        if target_label == "e1":
            witness["includes_negated_f1"] = NEGATED_F1_MAP in found
        checks.append(
            _check(
                f"bellghz.search.{target_label}",
                f"some identification map yields the column ({target_label}, ..., -{target_label})",
                len(found) > 0 and verified,
                witness,
            )
        )
    e12 = basis_vector(1) * basis_vector(2)
    reading = identities.orientation_reading(NEGATED_F1_MAP)
    checks.append(
        _check(
            "bellghz.orientation.negated-f1",
            "under the negated-f1 map all three subsystems share the orientation e12",
            all(o == e12 for o in reading.orientations),
            {"orientations": [str(o) for o in reading.orientations]},
        )
    )
    reading = identities.orientation_reading(UNIFORM_MAP)
    checks.append(
        _check(
            "bellghz.orientation.uniform",
            "under the uniform map subsystems 1 and 3 agree and subsystem 2 is opposite",
            reading.identical(1, 3)
            and not reading.identical(1, 2)
            and reading.orientations[1] == -e12,
            {"orientations": [str(o) for o in reading.orientations]},
        )
    )
    return checks


# -- a3 suite -------------------------------------------------------------------


def _a3_suite() -> list:
    checks = []
    for i, j in itertools.permutations((1, 2, 3), 2):
        witness_mv = identities.check_a3_incompatibility(i, j)
        expected = basis_vector(j).scale(2)
        checks.append(
            _check(
                f"a3.commutator.{i}{j}",
                f"e{i} fails to commute with the identified pair e{i}e{j}: commutator 2*e{j}",
                witness_mv == expected and not witness_mv.is_zero(),
                {"commutator": str(witness_mv)},
            )
        )
    return checks


# -- operators suite --------------------------------------------------------------


def _equals(a: Multivector, b: Multivector) -> bool:
    return a.equals(b) if a.mode == APPROX else a == b


def _ga_axiom_checks(mode: str, seed: int) -> list:
    checks = []
    e = [None] + [basis_vector(i, mode) for i in (1, 2, 3)]
    one = Multivector.scalar(1, mode)
    minus_one = Multivector.scalar(-1, mode)

    checks.append(
        _check(
            "ga.contraction",
            "each basis vector squares to 1",
            all(_equals(e[i] * e[i], one) for i in (1, 2, 3)),
            {"axes": 3},
        )
    )
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    checks.append(
        _check(
            "ga.anticommutation",
            "distinct basis vectors anticommute",
            all(_equals(e[i] * e[j], -(e[j] * e[i])) for i, j in pairs),
            {"ordered_pairs": len(pairs)},
        )
    )
    checks.append(
        _check(
            "ga.bivector-cancel",
            "e_i e_j e_j e_i equals 1 for distinct axes",
            all(_equals(e[i] * e[j] * e[j] * e[i], one) for i, j in pairs),
            {"ordered_pairs": len(pairs)},
        )
    )
    checks.append(
        _check(
            "ga.bivector-square",
            "e_i e_j e_i e_j equals -1 for distinct axes",
            all(_equals(e[i] * e[j] * e[i] * e[j], minus_one) for i, j in pairs),
            {"ordered_pairs": len(pairs)},
        )
    )
    perms = list(itertools.permutations((1, 2, 3)))
    checks.append(
        _check(
            "ga.trivector-cancel",
            "e_i e_j e_k e_k e_j e_i equals 1 for every axis permutation",
            all(
                _equals(e[i] * e[j] * e[k] * e[k] * e[j] * e[i], one)
                for i, j, k in perms
            ),
            {"permutations": len(perms)},
        )
    )
    checks.append(
        _check(
            "ga.trivector-square",
            "e_i e_j e_k e_i e_j e_k equals -1 for every axis permutation",
            all(
                _equals(e[i] * e[j] * e[k] * e[i] * e[j] * e[k], minus_one)
                for i, j, k in perms
            ),
            {"permutations": len(perms)},
        )
    )
    unit_trivector = pseudoscalar(mode)
    checks.append(
        _check(
            "ga.pseudoscalar",
            "the unit trivector squares to -1 and commutes with each basis vector",
            _equals(unit_trivector * unit_trivector, minus_one)
            and all(_equals(unit_trivector * e[i], e[i] * unit_trivector) for i in (1, 2, 3)),
            {"square": str(unit_trivector * unit_trivector)},
        )
    )
    sign_pairs = list(itertools.product((1, -1), repeat=2))
    checks.append(
        _check(
            "ga.sign-flips-plane",
            "signed in-plane words keep their values for every sign choice",
            all(
                _equals((s * e[i]) * (t * e[j]) * (t * e[j]) * (s * e[i]), one)
                and _equals((s * e[i]) * (t * e[j]) * (s * e[i]) * (t * e[j]), minus_one)
                for i, j in pairs
                for s, t in sign_pairs
            ),
            {"cases": len(pairs) * len(sign_pairs)},
        )
    )
    sign_triples = list(itertools.product((1, -1), repeat=3))
    checks.append(
        _check(
            "ga.sign-flips-space",
            "signed space words keep their values for every sign choice",
            all(
                _equals(
                    (s * e[i]) * (t * e[j]) * (u * e[k]) * (u * e[k]) * (t * e[j]) * (s * e[i]),
                    one,
                )
                and _equals(
                    (s * e[i]) * (t * e[j]) * (u * e[k]) * (s * e[i]) * (t * e[j]) * (u * e[k]),
                    minus_one,
                )
                for i, j, k in perms
                for s, t, u in sign_triples
            ),
            {"cases": len(perms) * len(sign_triples)},
        )
    )
    rng = Random(seed)
    associative = all(
        _equals(
            (a * b) * c,
            a * (b * c),
        )
        for a, b, c in (
            tuple(random_multivector(rng, mode) for _ in range(3)) for _ in range(200)
        )
    )
    checks.append(
        _check(
            "ga.associativity",
            "the product is associative on 200 seeded random triples",
            associative,
            {"samples": 200, "seed": seed},
        )
    )
    rng = Random(seed + 1)
    distributive = all(
        _equals(a * (b + c), a * b + a * c)
        for a, b, c in (
            tuple(random_multivector(rng, mode) for _ in range(3)) for _ in range(200)
        )
    )
    checks.append(
        _check(
            "ga.distributivity",
            "the product distributes over addition on 200 seeded random triples",
            distributive,
            {"samples": 200, "seed": seed + 1},
        )
    )
    return checks


def _blade_matrix(mask: int) -> quantum.ComplexMatrix:
    result = quantum.ComplexMatrix.identity(2)
    for axis, name in ((1, "x"), (2, "y"), (3, "z")):
        if mask & (1 << (axis - 1)):
            result = result @ quantum.pauli(name)
    return result


def _operators_suite(mode: str, seed: int) -> list:
    checks = _ga_axiom_checks(mode, seed)

    two_identity = quantum.ComplexMatrix.identity(2)
    ok = True
    for i in "xyz":
        for j in "xyz":
            expected = two_identity.scale(2 if i == j else 0)
            ok = ok and quantum.anticommutator(quantum.pauli(i), quantum.pauli(j)) == expected
    checks.append(
        _check(
            "pauli.anticommutation",
            "spin matrices anticommute off-axis and square to the identity",
            ok,
            {"pairs": 9},
        )
    )
    xy = quantum.pauli("x") @ quantum.pauli("y")
    checks.append(
        _check(
            "pauli.xy-product",
            "the x and y spin matrices multiply to i times the z matrix",
            xy == quantum.pauli("z").scale(quantum.I),
            {"product": "i*z"},
        )
    )
    cross_ok = True
    cross_pairs = 0
    for n in (2, 3):
        for sa, sb in itertools.permutations(range(1, n + 1), 2):
            for ax_a in "xyz":
                for ax_b in "xyz":
                    a = quantum.observable_matrix(
                        constraints.ObservableProduct.parse(f"{ax_a}{sa}"), n
                    )
                    b = quantum.observable_matrix(
                        constraints.ObservableProduct.parse(f"{ax_b}{sb}"), n
                    )
                    cross_ok = cross_ok and quantum.commutes(a, b)
                    cross_pairs += 1
    checks.append(
        _check(
            "pauli.cross-commutation",
            "spin matrices of distinct subsystems commute",
            cross_ok,
            {"ordered_pairs": cross_pairs},
        )
    )
    for name in (constraints.PM, constraints.GHZ):
        cs = builtin_constraints(name)
        n = cs.n_systems
        ok = True
        for line in cs.lines:
            for ta, tb in itertools.combinations(line.terms, 2):
                ok = ok and quantum.commutes(
                    quantum.observable_matrix(ta, n), quantum.observable_matrix(tb, n)
                )
        checks.append(
            _check(
                f"{name}.line-commutation",
                f"the members of every {name} line mutually commute",
                ok,
                {"lines": len(cs.lines)},
            )
        )
    iso_ok = True
    for mask_a in range(8):
        for mask_b in range(8):
            product = basis_blade(mask_a) * basis_blade(mask_b)
            iso_ok = iso_ok and _multivector_matrix(product) == (
                _blade_matrix(mask_a) @ _blade_matrix(mask_b)
            )
    checks.append(
        _check(
            "iso.blade-map",
            "mapping basis vectors to spin matrices preserves all 64 blade products",
            iso_ok,
            {"blade_pairs": 64},
        )
    )
    checks.extend(_systems_checks())
    return checks


def basis_blade(mask: int) -> Multivector:
    return Multivector.from_blades({mask: 1}, EXACT)


def _multivector_matrix(mv: Multivector) -> quantum.ComplexMatrix:
    result = quantum.ComplexMatrix.identity(2).scale(0)
    for mask, value in enumerate(mv.coeffs):
        if value:
            result = result + _blade_matrix(mask).scale(value)
    return result


def _systems_checks() -> list:
    checks = []
    n = 3
    gens = [
        (s, a, systems.generator(s, a, n))
        for s in (1, 2, 3)
        for a in (1, 2, 3)
    ]
    cross_ok = all(
        ga_a * ga_b == ga_b * ga_a
        for sa, _, ga_a in gens
        for sb, _, ga_b in gens
        if sa != sb
    )
    checks.append(
        _check(
            "systems.cross-commutation",
            "embedded generators of distinct subsystems commute (three subsystems)",
            cross_ok,
            {"ordered_pairs": sum(1 for s, _, _ in gens for t, _, _ in gens if s != t)},
        )
    )
    one3 = systems.identity(n)
    embedded_ok = True
    for s in (1, 2, 3):
        es = [systems.generator(s, a, n) for a in (1, 2, 3)]
        for a in range(3):
            embedded_ok = embedded_ok and es[a] * es[a] == one3
            for b in range(3):
                if a != b:
                    embedded_ok = embedded_ok and es[a] * es[b] == -(es[b] * es[a])
        word = es[0] * es[1] * es[2]
        embedded_ok = embedded_ok and word * word == -one3
    checks.append(
        _check(
            "systems.embedded-relations",
            "each embedded subsystem copy satisfies the single-copy relations",
            embedded_ok,
            {"systems": 3},
        )
    )
    two = 2
    e = [systems.generator(1, a, two) for a in (1, 2, 3)]
    f = [systems.generator(2, a, two) for a in (1, 2, 3)]
    one2 = systems.identity(two)
    opposite = systems.identify_pseudoscalars(e[0] * e[1] * e[2] * f[1] * f[0] * f[2])
    aligned = systems.identify_pseudoscalars(e[0] * e[1] * e[2] * f[0] * f[1] * f[2])
    checks.append(
        _check(
            "systems.two-basis-words",
            "the six-generator words reduce to 1 (opposite order) and -1 (same order)",
            opposite == one2 and aligned == -one2,
            {"opposite_order": str(opposite), "same_order": str(aligned)},
        )
    )
    flips_ok = True
    for signs in itertools.product((1, -1), repeat=6):
        parity = 1
        for s in signs:
            parity *= s
        word = systems.identify_pseudoscalars(
            (signs[0] * e[0])
            * (signs[1] * e[1])
            * (signs[2] * e[2])
            * (signs[3] * f[1])
            * (signs[4] * f[0])
            * (signs[5] * f[2])
        )
        flips_ok = flips_ok and word == one2.scale(parity)
    checks.append(
        _check(
            "systems.even-flips",
            "flipping an even number of the six generators keeps the word value",
            flips_ok,
            {"sign_choices": 64},
        )
    )
    g3 = [systems.generator(3, a, n) for a in (1, 2, 3)]
    e3 = [systems.generator(1, a, n) for a in (1, 2, 3)]
    f3 = [systems.generator(2, a, n) for a in (1, 2, 3)]
    three_ok = True
    for i, j in itertools.permutations(range(3), 2):
        half = e3[i] * f3[i] * g3[i] * e3[j] * f3[j] * g3[j]
        three_ok = three_ok and half * half == -systems.identity(n)
    checks.append(
        _check(
            "systems.three-system-word",
            "the squared three-subsystem word equals -1 for all distinct axis pairs",
            three_ok,
            {"axis_pairs": 6},
        )
    )
    free_ok = True
    for signs in itertools.product((1, -1), repeat=6):
        se = [signs[0] * e3[0], signs[1] * e3[1]]
        sf = [signs[2] * f3[0], signs[3] * f3[1]]
        sg = [signs[4] * g3[0], signs[5] * g3[1]]
        word = (
            se[0] * se[1] * se[0] * se[1]
            * sf[0] * sf[1] * sf[0] * sf[1]
            * sg[0] * sg[1] * sg[0] * sg[1]
        )
        free_ok = free_ok and word == -systems.identity(n)
    checks.append(
        _check(
            "systems.free-flips",
            "the per-subsystem squared word equals -1 for all 64 sign choices",
            free_ok,
            {"sign_choices": 64},
        )
    )
    return checks


# -- states suite -----------------------------------------------------------------


def _states_suite(seed: int) -> list:
    checks = [
        _check(
            "states.convention",
            "basis convention on record",
            True,
            "kets are z-diagonal with plus mapped to bit 0; x*y = i*z",
        )
    ]
    lines = [
        ("x1*y2*y3", 1),
        ("y1*x2*y3", 1),
        ("y1*y2*x3", 1),
        ("x1*x2*x3", -1),
    ]
    state = quantum.ghz_state()
    results = [
        quantum.eigencheck(state, constraints.ObservableProduct.parse(label), value, 3)
        for label, value in lines
    ]
    checks.append(
        _check(
            "states.ghz.eigenvalues",
            "the symmetric state has eigenvalues (1, 1, 1, -1) on (xyy, yxy, yyx, xxx)",
            all(results),
            {"eigenvalues": [value for _, value in lines]},
        )
    )
    alternating = [
        ("x1*y2*y3", 1),
        ("y1*x2*y3", -1),
        ("y1*y2*x3", 1),
        ("x1*x2*x3", 1),
    ]
    state2 = quantum.alternating_ghz_state()
    results2 = [
        quantum.eigencheck(state2, constraints.ObservableProduct.parse(label), value, 3)
        for label, value in alternating
    ]
    checks.append(
        _check(
            "states.alternating.eigenvalues",
            "the alternating state has eigenvalues (1, -1, 1, 1) on (xyy, yxy, yyx, xxx)",
            all(results2),
            {"eigenvalues": [value for _, value in alternating]},
        )
    )
    checks.append(
        _check(
            "states.ghz.not-eigenstate-x1",
            "the symmetric state is no eigenstate of a single-subsystem spin",
            not quantum.is_eigenstate(
                state, constraints.ObservableProduct.parse("x1"), 3
            ),
            {"observable": "x1"},
        )
    )
    rng = Random(seed)
    worst = 0.0
    for _ in range(100):
        a = _random_unit(rng)
        b = _random_unit(rng)
        dot = sum(x * y for x, y in zip(a, b))
        worst = max(worst, abs(quantum.singlet_correlation(a, b) + dot))
    checks.append(
        _check(
            "states.singlet",
            "singlet correlations equal minus the dot product on 100 seeded pairs",
            worst <= 1e-12,
            {"samples": 100, "seed": seed, "max_deviation": worst},
        )
    )
    return checks


def _random_unit(rng: Random) -> tuple:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-6:
            return tuple(x / norm for x in v)


# -- report assembly -----------------------------------------------------------------


def _build_suite(target: str, mode: str, seed: int, custom=None) -> list:
    if target == "pm":
        return _constraint_suite(constraints.PM, custom)
    if target == "ghz":
        return _constraint_suite(constraints.GHZ, custom)
    if target == "bell-ghz":
        return _bell_ghz_suite(custom)
    if target == "operators":
        return _operators_suite(mode, seed)
    if target == "states":
        return _states_suite(seed)
    if target == "a3":
        return _a3_suite()
    if target == "all":
        checks = []
        for name in ("pm", "ghz", "bell-ghz", "operators", "states", "a3"):
            checks.extend(_build_suite(name, mode, seed))
        return checks
    raise ValueError(f"unknown verify target {target!r}")


def build_report(target: str, mode: str = EXACT, seed: int = DEFAULT_SEED, custom=None) -> dict:
    checks = _build_suite(target, mode, seed, custom)
    failed = sum(1 for c in checks if c["status"] != "pass")
    return {
        "schema": SCHEMA_VERSION,
        "suite": target,
        "environment": {"version": __version__, "mode": mode, "seed": seed},
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
        "all_pass": failed == 0,
    }


def _resolve_seed(flag_value: int, parser) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            parser.error(f"bad {SEED_ENV_VAR} value {env!r}: not an integer")
    return flag_value


# -- subcommand handlers ------------------------------------------------------------------


def _cmd_verify(args, parser) -> int:
    custom = None
    if args.constraints:
        if args.target not in ("pm", "ghz", "bell-ghz"):
            parser.error("--constraints applies to the pm, ghz and bell-ghz targets")
        try:
            with open(args.constraints, "r", encoding="utf-8") as handle:
                custom = constraints.ConstraintSet.from_json(handle.read())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load constraint set: {exc}")
        count = len(custom.observables)
        if count > constraints.MAX_ENUMERATED_OBSERVABLES:
            parser.error(
                f"constraint set has {count} observables; the scalar enumeration "
                f"handles at most {constraints.MAX_ENUMERATED_OBSERVABLES}"
            )
    report = build_report(args.target, args.mode, _resolve_seed(args.seed, parser), custom)
    text = json.dumps(report, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            parser.error(f"cannot write report: {exc}")
    else:
        print(text)
    return 0 if report["all_pass"] else 1


def _cmd_chsh(args, parser) -> int:
    if not (0.0 <= args.start < args.end <= math.pi + 1e-9):
        parser.error(f"bad angle range [{args.start}, {args.end}]")
    if args.steps < 3:
        parser.error("steps must be at least 3")
    if args.csv:
        # One pass: each row is written as it is computed, and the maximum is
        # tracked from its F column with scan_F's rule (first strict maximum).
        argmax, maximum = args.start, -math.inf
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(chsh.CSV_HEADER)
                for row in chsh.csv_rows(args.start, args.end, args.steps):
                    writer.writerow(
                        [f"{row[0]:.9f}", f"{row[1]:.9f}", f"{row[2]:.9f}", row[3], row[4]]
                    )
                    if row[1] > maximum:
                        argmax, maximum = row[0], row[1]
        except OSError as exc:
            parser.error(f"cannot write CSV: {exc}")
    else:
        result = chsh.scan_F(args.steps, args.start, args.end)
        argmax, maximum = result.argmax, result.maximum
    print(f"max={maximum:.6f} at phi={argmax:.6f}")
    print(f"classical_bound={chsh.CLASSICAL_BOUND} vector_bound={chsh.VECTOR_BOUND}")
    return 0


def _cmd_search_identities(args) -> int:
    try:
        target = SignedAxisVector.parse(args.target)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    maps = identities.find_identity_maps(target)
    print(json.dumps([m.as_dict() for m in maps], indent=2))
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality-lab",
        description="exact verification of the built-in constraint systems "
        "and the coplanar correlation sweep",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a check suite, emit a JSON report")
    verify.add_argument("target", choices=VERIFY_TARGETS)
    verify.add_argument("--out", help="write the JSON report to a file")
    verify.add_argument(
        "--constraints",
        metavar="FILE",
        help="JSON constraint-set document to check instead of the builtin lines",
    )
    verify.add_argument(
        "--mode",
        choices=(EXACT, APPROX),
        default=EXACT,
        help="coefficient mode for the algebra-axiom checks",
    )
    verify.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"seed for randomized checks ({SEED_ENV_VAR} overrides)",
    )

    sweep = sub.add_parser("chsh", help="scan the correlation curve F over [start, end]")
    sweep.add_argument("start", type=float)
    sweep.add_argument("end", type=float)
    sweep.add_argument("steps", type=int)
    sweep.add_argument("--csv", help="write the grid as CSV to a file")

    search = sub.add_parser(
        "search-identities",
        help="list identification maps producing the column (x, x, x, -x)",
    )
    search.add_argument(
        "target",
        help="signed in-plane vector, e.g. e1 or -e2 (letters e, f, g accepted)",
    )
    return parser


def _shield_dash_target(argv: list) -> list:
    """Let a ``-e2`` style target through argparse by swapping in the
    typographic minus, which the target parser accepts."""
    argv = list(argv)
    try:
        at = argv.index("search-identities")
    except ValueError:
        return argv
    if at + 1 < len(argv) and re.fullmatch(r"-[efg][12]", argv[at + 1]):
        argv[at + 1] = "−" + argv[at + 1][1:]
    return argv


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(_shield_dash_target(sys.argv[1:] if argv is None else argv))
    if args.command == "verify":
        return _cmd_verify(args, parser)
    if args.command == "chsh":
        return _cmd_chsh(args, parser)
    if args.command == "search-identities":
        return _cmd_search_identities(args)
    parser.error("no command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
