"""Independent references for every verdict the benchmark requests.

Nothing here imports the library: each expected output is derived from the
mathematics (closed forms, GF(2) linear algebra, Pauli phase tracking) or
pinned from the published check list.  Each ``check_*`` function returns a
list of problems; an empty list means the verdict agrees with the reference.
"""

from __future__ import annotations

import csv
import math
import re

# -- verify all --------------------------------------------------------------

#: Check ids of ``verify all`` in report order.
VERIFY_ALL_IDS = (
    *(f"pm.word.{i}" for i in range(1, 7)),
    "pm.enumeration",
    *(f"pm.vector-line.{i}" for i in range(1, 7)),
    "pm.value-table",
    *(f"ghz.word.{i}" for i in range(1, 6)),
    "ghz.enumeration",
    *(f"ghz.vector-line.{i}" for i in range(1, 6)),
    "ghz.value-table",
    "bellghz.enumeration",
    "bellghz.column.negated-f1",
    "bellghz.column.uniform",
    "bellghz.column.all-maps",
    "bellghz.search.e1",
    "bellghz.search.-e1",
    "bellghz.search.e2",
    "bellghz.search.-e2",
    "bellghz.orientation.negated-f1",
    "bellghz.orientation.uniform",
    "ga.contraction",
    "ga.anticommutation",
    "ga.bivector-cancel",
    "ga.bivector-square",
    "ga.trivector-cancel",
    "ga.trivector-square",
    "ga.pseudoscalar",
    "ga.sign-flips-plane",
    "ga.sign-flips-space",
    "ga.associativity",
    "ga.distributivity",
    "pauli.anticommutation",
    "pauli.xy-product",
    "pauli.cross-commutation",
    "pm.line-commutation",
    "ghz.line-commutation",
    "iso.blade-map",
    "systems.cross-commutation",
    "systems.embedded-relations",
    "systems.two-basis-words",
    "systems.even-flips",
    "systems.three-system-word",
    "systems.free-flips",
    "states.convention",
    "states.ghz.eigenvalues",
    "states.alternating.eigenvalues",
    "states.ghz.not-eigenstate-x1",
    "states.singlet",
    *(f"a3.commutator.{i}{j}" for i, j in ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))),
)

#: Headline no-go witnesses: (assignments, satisfying) per enumeration check.
NO_GO_COUNTS = {
    "pm.enumeration": (512, 0),
    "ghz.enumeration": (1024, 0),
    "bellghz.enumeration": (64, 0),
}


def check_verify_all(code, report: dict, seed: int) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    ids = [check.get("id") for check in report.get("checks", ())]
    if tuple(ids) != VERIFY_ALL_IDS:
        missing = sorted(set(VERIFY_ALL_IDS) - set(ids))
        extra = sorted(set(ids) - set(VERIFY_ALL_IDS))
        problems.append(f"check ids differ: missing {missing}, unexpected {extra}")
    failing = [check.get("id") for check in report.get("checks", ()) if check.get("status") != "pass"]
    if failing:
        problems.append(f"failing checks {failing}")
    if report.get("all_pass") is not True or report.get("failed") != 0:
        problems.append("report does not claim all_pass with 0 failed")
    if report.get("passed") != len(VERIFY_ALL_IDS):
        problems.append(f"passed={report.get('passed')}, expected {len(VERIFY_ALL_IDS)}")
    environment = report.get("environment", {})
    if environment.get("seed") != seed or environment.get("mode") != "exact":
        problems.append(f"environment {environment} does not echo exact mode and seed {seed}")
    by_id = {check.get("id"): check for check in report.get("checks", ())}
    for check_id, (total, satisfying) in NO_GO_COUNTS.items():
        witness = by_id.get(check_id, {}).get("witness", {})
        if (witness.get("assignments"), witness.get("satisfying")) != (total, satisfying):
            problems.append(f"{check_id} witness {witness}, expected {total} assignments, {satisfying} satisfying")
    return problems


# -- chsh sweep ----------------------------------------------------------------

CSV_HEADER = ["phi", "F", "qm_lhs", "classical_bound", "qm_bound"]
#: Allowed deviation of a printed 9-decimal CSV value from the closed form.
CSV_TOLERANCE = 1e-8
#: Allowed deviation of the 6-decimal summary line from the grid maximum.
SUMMARY_TOLERANCE = 1e-6

_SUMMARY_RE = re.compile(r"max=(\S+) at phi=(\S+)")


def closed_form_f(phi: float) -> float:
    """F(phi) = |1 + 2 cos(phi) - cos(2 phi)|, the coplanar sweep curve."""
    return abs(1.0 + 2.0 * math.cos(phi) - math.cos(2.0 * phi))


def check_chsh(code, stdout: str, csv_text: str, start: float, end: float, steps: int) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    spacing = (end - start) / (steps - 1)
    grid = [start + k * spacing for k in range(steps)]
    expected = [closed_form_f(phi) for phi in grid]
    rows = list(csv.reader(csv_text.splitlines()))
    if not rows or rows[0] != CSV_HEADER:
        problems.append(f"CSV header {rows[:1]}, expected {CSV_HEADER}")
    body = rows[1:]
    if len(body) != steps:
        problems.append(f"{len(body)} CSV rows, expected {steps}")
    for k, (row, phi, value) in enumerate(zip(body, grid, expected)):
        if len(row) != 5:
            problems.append(f"row {k} has {len(row)} fields")
            break
        try:
            printed = [float(field) for field in row]
        except ValueError:
            problems.append(f"row {k} is not numeric: {row}")
            break
        bad = (
            abs(printed[0] - phi) > CSV_TOLERANCE
            or abs(printed[1] - value) > CSV_TOLERANCE
            or abs(printed[2] - value) > CSV_TOLERANCE
            or printed[3:] != [2.0, 2.5]
        )
        if bad:
            problems.append(f"row {k} {row} disagrees with phi={phi!r}, F={value!r}")
            break
    lines = stdout.splitlines()
    match = _SUMMARY_RE.fullmatch(lines[0]) if lines else None
    if match is None:
        problems.append(f"no summary line in {stdout!r}")
    else:
        maximum, argmax = float(match.group(1)), float(match.group(2))
        best = max(expected)
        k = round((argmax - start) / spacing)
        if abs(maximum - best) > SUMMARY_TOLERANCE:
            problems.append(f"printed max {maximum} vs grid max {best!r}")
        if not 0 <= k < steps or abs(grid[k] - argmax) > SUMMARY_TOLERANCE or expected[k] < best - 1e-9:
            problems.append(f"printed argmax {argmax} is not a maximizing grid point")
    if lines[1:] != ["classical_bound=2.0 vector_bound=2.5"]:
        problems.append(f"bounds line {lines[1:]}")
    return problems


# -- constraint files ------------------------------------------------------------

_PAULI_BITS = {"x": (1, 0), "y": (1, 1), "z": (0, 1)}


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent g with P(x1,z1) P(x2,z2) = i^g P(x1^x2, z1^z2) on one qubit
    (Aaronson and Gottesman, quant-ph/0406196, with Y = P(1,1))."""
    if x1 and z1:
        return z2 - x2
    if x1:
        return z2 * (2 * x2 - 1)
    if z1:
        return x2 * (1 - 2 * z2)
    return 0


def pauli_of(label: str) -> dict:
    """Observable label such as ``x1*y3`` -> {subsystem: (x, z)}."""
    return {int(part[1]): _PAULI_BITS[part[0]] for part in label.split("*")}


def pauli_word(labels) -> tuple:
    """Product of the observables in order as (phase exponent mod 4, {subsystem: (x, z)})."""
    phase = 0
    word: dict = {}
    for label in labels:
        for system, (x2, z2) in pauli_of(label).items():
            x1, z1 = word.get(system, (0, 0))
            phase += _phase_exponent(x1, z1, x2, z2)
            word[system] = (x1 ^ x2, z1 ^ z2)
    return phase % 4, {s: bits for s, bits in word.items() if bits != (0, 0)}


def line_holds(terms, required: int) -> bool:
    """True when the operator word of the line is ``required`` times the identity."""
    phase, rest = pauli_word(terms)
    return not rest and phase == (0 if required == 1 else 2)


def satisfying_count(lines, n_observables: int, index: dict) -> int:
    """Sign assignments meeting every line, from the GF(2) rank: 0 or 2^(n - rank).

    A value (-1)^b per observable turns each line into the equation
    sum of b over its terms = [required == -1] (mod 2).
    """
    pivots: dict = {}  # leading bit -> (row, rhs)
    for terms, required in lines:
        row = 0
        for label in terms:
            row ^= 1 << index[label]
        rhs = 1 if required == -1 else 0
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (row, rhs)
                break
            pivot_row, pivot_rhs = pivots[lead]
            row ^= pivot_row
            rhs ^= pivot_rhs
        else:
            if rhs:
                return 0
    return 2 ** (n_observables - len(pivots))


def check_constraint_report(code, report: dict, doc: dict, target: str) -> list:
    problems = []
    lines = [(entry["terms"], entry["required"]) for entry in doc["lines"]]
    index: dict = {}
    occurrences: dict = {}
    for terms, _ in lines:
        for label in terms:
            index.setdefault(label, len(index))
            occurrences[label] = occurrences.get(label, 0) + 1
    by_id = {check.get("id"): check for check in report.get("checks", ())}
    words_hold = True
    for number, (terms, required) in enumerate(lines, start=1):
        holds = line_holds(terms, required)
        words_hold = words_hold and holds
        check = by_id.get(f"{target}.word.{number}")
        if check is None:
            problems.append(f"missing {target}.word.{number}")
        elif check.get("status") != ("pass" if holds else "fail"):
            problems.append(f"{target}.word.{number} is {check.get('status')}, reference says holds={holds}")
    count = satisfying_count(lines, len(index), index)
    rhs = 1
    for _, required in lines:
        rhs *= required
    expected_witness = {
        "assignments": 2 ** len(index),
        "satisfying": count,
        "lhs_parity": 1 if all(c % 2 == 0 for c in occurrences.values()) else None,
        "rhs_parity": rhs,
    }
    enumeration = by_id.get(f"{target}.enumeration")
    if enumeration is None:
        problems.append(f"missing {target}.enumeration")
    else:
        if enumeration.get("witness") != expected_witness:
            problems.append(f"enumeration witness {enumeration.get('witness')}, expected {expected_witness}")
        if enumeration.get("status") != ("pass" if count == 0 else "fail"):
            problems.append(f"enumeration status {enumeration.get('status')} with {count} satisfying")
    expected_code = 0 if words_hold and count == 0 else 1
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    if report.get("all_pass") is not (expected_code == 0):
        problems.append(f"all_pass={report.get('all_pass')} with expected exit code {expected_code}")
    return problems
