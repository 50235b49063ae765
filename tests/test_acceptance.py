"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the suite is also part of the default ``pytest`` run.
"""

import itertools
import json
import math
import subprocess
import sys
from random import Random

from contextuality_lab import checks, chsh, identities, quantum
from contextuality_lab.constraints import (
    BELL_GHZ,
    GHZ,
    PM,
    ObservableProduct,
    VectorAssignment,
    builtin_constraints,
    enumerate_scalar_assignments,
    evaluate_vector_model,
    non_contextuality_audit,
)
from contextuality_lab.ga import EXACT, Multivector, basis_vector
from contextuality_lab.systems import ONE
from identities_oracle import dense
from random_multivectors import random_multivector
from sweep_oracle import CoplanarConfig, classical_gamma_enumeration, gamma_vector
from vector_tables import signed_table

SEED = 1729


def report(line):
    print(f"[PASS] {line}")


def test_criterion_1_algebra_axioms():
    e = {i: basis_vector(i) for i in (1, 2, 3)}
    one = Multivector.scalar(1)
    minus_one = Multivector.scalar(-1)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert e[i] * e[j] + e[j] * e[i] == Multivector.scalar(2 if i == j else 0)
    for i, j in itertools.permutations((1, 2, 3), 2):
        assert e[i] * e[i] == one
        assert e[i] * e[j] == -(e[j] * e[i])
        assert e[i] * e[j] * e[j] * e[i] == one
        assert e[i] * e[j] * e[i] * e[j] == minus_one
    for i, j, k in itertools.permutations((1, 2, 3)):
        assert e[i] * e[j] * e[k] * e[k] * e[j] * e[i] == one
        assert e[i] * e[j] * e[k] * e[i] * e[j] * e[k] == minus_one
    rng = Random(SEED)
    for _ in range(200):
        a, b, c = (random_multivector(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    report("criterion 1: algebra axioms exact, 200 seeded associativity/distributivity checks")


def test_criterion_2_operator_identities():
    pm = builtin_constraints(PM)
    assert quantum.verify_operator_identities(pm) == (True,) * 6
    ghz = builtin_constraints(GHZ)
    assert quantum.verify_operator_identities(ghz) == (True,) * 5
    report("criterion 2: six 4x4 words and five 8x8 words equal their signed identity")


def test_criterion_3_scalar_no_go():
    expected = {PM: 512, GHZ: 1024, BELL_GHZ: 64}
    for name, total in expected.items():
        result = enumerate_scalar_assignments(builtin_constraints(name))
        assert result.total == total
        assert result.satisfying_count == 0
        assert result.lhs_parity == 1
        assert result.rhs_parity == -1
    report("criterion 3: 0/512, 0/1024 and 0/64 satisfying assignments, parity (+1, -1)")


def test_criterion_4_vector_model():
    assignment = VectorAssignment.all_positive()
    assert assignment == signed_table(3)
    pm = builtin_constraints(PM)
    assert evaluate_vector_model(pm, assignment) == (ONE, ONE, ONE, ONE, ONE, -ONE)
    assert all(entry.single_valued for entry in non_contextuality_audit(pm, assignment))
    ghz = builtin_constraints(GHZ)
    assert evaluate_vector_model(ghz, assignment) == (ONE, ONE, ONE, ONE, -ONE)
    assert all(entry.single_valued for entry in non_contextuality_audit(ghz, assignment))
    report("criterion 4: vector model meets every line exactly, values single across lines")


def test_criterion_5_bell_ghz_proxy():
    minus_one = Multivector.scalar(-1)
    column = identities.bell_ghz_column(identities.NEGATED_F1_MAP)
    assert column.labels() == ("e1", "e1", "e1", "-e1")
    assert dense(column.product) == minus_one
    column = identities.bell_ghz_column(identities.UNIFORM_MAP)
    assert column.labels() == ("e1", "-e1", "e1", "e1")
    assert dense(column.product) == minus_one
    for imap in identities.all_identity_maps():
        assert dense(identities.bell_ghz_column(imap).product) == minus_one
    for label in ("e1", "-e1", "e2", "-e2"):
        target = identities.in_plane_vector(label)
        assert identities.find_identity_maps(target)
    report("criterion 5: featured columns as stated, 64/64 map products -1, all targets reachable")


def test_criterion_6_a3_witness():
    rows = {check_id: compute for check_id, _, compute in checks.A3}
    for i, j in itertools.permutations((1, 2, 3), 2):
        ei, bivector = basis_vector(i), basis_vector(i) * basis_vector(j)
        witness = ei * bivector - bivector * ei
        assert witness == basis_vector(j).scale(2)
        assert witness != Multivector.scalar(0)
        ok, row_witness = rows[f"a3.commutator.{i}{j}"](checks.Context(EXACT, SEED))
        assert ok and row_witness == {"commutator": str(witness)}
    report("criterion 6: commutator witness 2*e_j nonzero on all 6 ordered pairs")


def test_criterion_7_eigenstates():
    state = quantum.ghz_state()
    for label, value in (
        ("x1*y2*y3", 1),
        ("y1*x2*y3", 1),
        ("y1*y2*x3", 1),
        ("x1*x2*x3", -1),
    ):
        assert quantum.eigencheck(state, ObservableProduct.parse(label), value)
    state = quantum.alternating_ghz_state()
    for label, value in (
        ("x1*y2*y3", 1),
        ("y1*x2*y3", -1),
        ("y1*y2*x3", 1),
        ("x1*x2*x3", 1),
    ):
        assert quantum.eigencheck(state, ObservableProduct.parse(label), value)
    report("criterion 7: eigenvalues (1,1,1,-1) and (1,-1,1,1) exact under the recorded basis")


def test_criterion_8_orientation_readings():
    e12 = basis_vector(1) * basis_vector(2)
    reading = identities.orientation_reading(identities.NEGATED_F1_MAP)
    assert tuple(map(dense, reading)) == (e12, e12, e12)
    reading = identities.orientation_reading(identities.UNIFORM_MAP)
    assert tuple(map(dense, reading)) == (e12, -e12, e12)
    report("criterion 8: orientations all equal for one map, middle opposite for the other")


def test_criterion_9_chsh_numbers():
    assert abs(chsh.F(math.pi / 4) - (1.0 + math.sqrt(2.0))) <= 1e-12
    assert abs(chsh.F(math.pi / 3) - 2.5) <= 1e-12
    scan = chsh.scan_F(100_000)
    assert abs(scan.maximum - 2.5) <= 1e-8
    assert abs(scan.argmax - math.pi / 3) <= 1e-4
    for k in range(1001):
        phi = math.pi * k / 1000
        gamma = gamma_vector(CoplanarConfig.at(phi))
        scalar = 1.0 + 2.0 * math.cos(phi) - math.cos(2.0 * phi)
        bivector = 2.0 * math.sin(phi) - math.sin(2.0 * phi)
        assert abs(gamma.coeffs[0] - scalar) <= 1e-12
        assert abs(gamma.coeffs[5] + bivector) <= 1e-12
        assert abs(gamma.coeffs[1]) <= 1e-12 and abs(gamma.coeffs[2]) <= 1e-12
        assert abs(gamma.coeffs[4]) <= 1e-12 and abs(gamma.coeffs[7]) <= 1e-12
    for _, gamma_value in classical_gamma_enumeration():
        assert gamma_value in (2, -2)
    for k in range(0, 1001, 10):
        phi = math.pi * k / 1000
        assert abs(chsh.quantum_lhs(phi) - chsh.F(phi)) <= 1e-12
    report("criterion 9: curve values, scan maximum, closed form, 16 classical cases, matrix agreement")


def test_criterion_10_verify_all_headless():
    result = subprocess.run(
        [sys.executable, "-m", "contextuality_lab.cli", "verify", "all"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    parsed = json.loads(result.stdout)
    assert parsed["all_pass"] is True
    assert parsed["failed"] == 0
    report(f"criterion 10: verify all exits 0 with {parsed['passed']} checks passing")
