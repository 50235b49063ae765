"""Self-tests of the benchmark: spans, bypass predictions, exact counts,
generated inputs and the reference checkers.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import cmath
import contextlib
import copy
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import references
import run
import tracing
import workloads

LIB = run.load_library()
BENCH = Path(__file__).resolve().parent

#: Spans each workload must fire: the layers it is chosen to stress.
HEAVY_SPANS = {
    "verify-all": (
        "ga.mul", "systems.mul", "systems.identify", "constraints.enumerate",
        "constraints.vector_model", "constraints.audit", "quantum.matmul", "quantum.kron",
        "quantum.opid", "quantum.singlet", "identities.column", "identities.search", "cli",
    ),
    "chsh-sweep": (
        "ga.mul", "quantum.singlet", "chsh.F", "chsh.scan", "chsh.csv_rows",
        "chsh.quantum_lhs", "cli",
    ),
    "constraint-files": (
        "constraints.parse", "constraints.enumerate", "quantum.opid", "quantum.matmul",
        "quantum.kron", "cli",
    ),
}

#: Span prefixes each workload is predicted never to reach.
BYPASSED = {
    "verify-all": ("chsh.",),
    "chsh-sweep": ("identities.",),
    "constraint-files": ("chsh.", "identities."),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass of every workload's batch, seed 7."""
    tracers = {}
    for workload, (make_cases, size) in workloads.WORKLOADS.items():
        batch = list(itertools.islice(make_cases(Random(7)), size))
        tracer = tracing.Tracer()
        _, failed, _, _ = run.closed_loop(batch, tmp_path_factory.mktemp(workload), math.inf, tracer)
        assert failed == 0
        tracers[workload] = tracer
    return tracers


@pytest.mark.parametrize("workload", sorted(HEAVY_SPANS))
def test_spans_fire_on_heavy_workload(traced, workload):
    silent = [span for span in HEAVY_SPANS[workload] if traced[workload].calls[span] == 0]
    assert silent == []


@pytest.mark.parametrize("workload", sorted(BYPASSED))
def test_bypass_predictions(traced, workload):
    reached = {
        span: calls
        for span, calls in traced[workload].calls.items()
        if span.startswith(BYPASSED[workload]) and calls
    }
    assert reached == {}


def test_spans_nest_under_the_verdict(traced):
    spans = traced["chsh-sweep"].spans
    roots = [span for span in spans if span[2] == 0]
    assert [span[3] for span in roots] == [tracing.CLI]
    assert all(start <= end for *_, start, end in spans)


def test_uninstall_restores_entry_points(traced):
    for owner, attribute, _, _ in tracing.entry_points(sys.modules[run.PACKAGE]):
        value = getattr(owner, attribute)
        assert not hasattr(value, "__wrapped__"), f"{attribute} still wrapped"


def test_each_verdict_gets_fresh_modules(tmp_path):
    """State a verdict leaves in a module, such as a module-level cache, is
    gone by the next verdict."""
    make_cases, _ = workloads.WORKLOADS["constraint-files"]
    cases = list(itertools.islice(make_cases(Random(5)), 2))
    run.closed_loop(cases[:1], tmp_path, math.inf)
    before = {name: module for name, module in sys.modules.items() if name.startswith(run.PACKAGE)}
    before[run.PACKAGE + ".constraints"].leftover = True
    _, failed, _, _ = run.closed_loop(cases[1:], tmp_path, math.inf)
    assert failed == 0
    after = sys.modules[run.PACKAGE + ".constraints"]
    assert not hasattr(after, "leftover")
    assert all(sys.modules[name] is not module for name, module in before.items())


def _traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize(
    "workload, metric",
    [("chsh-sweep", "chsh.F_per_point"), ("constraint-files", "constraints.enumerate.space")],
)
def test_counts_repeat_exactly(workload, metric):
    first, second = _traced_run(workload, 11), _traced_run(workload, 11)
    assert first[metric] > 0
    assert first[metric] == second[metric]
    assert set(first) == {name for name, _, _ in tracing.LAYER_METRICS}


def test_end_to_end_reports_every_metric():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "constraint-files", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    for source in BENCH.glob("*.py"):
        shutil.copy(source, tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- generated inputs ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_line_systems_are_well_formed(seed):
    rng = Random(seed)
    size = rng.choice(workloads.CONSTRAINT_SIZES)
    doc = workloads.line_system(rng, size, "lines")
    observables = {label for line in doc["lines"] for label in line["terms"]}
    assert len(observables) == size
    assert doc["name"] not in ("pm", "ghz")
    for line in doc["lines"]:
        assert 2 <= len(line["terms"]) <= 4
        assert len(set(line["terms"])) == len(line["terms"])
        assert line["required"] in (1, -1)
    LIB.constraints.ConstraintSet.from_json(json.dumps(doc))


def test_streams_repeat_for_a_seed(tmp_path):
    for make_cases, _ in workloads.WORKLOADS.values():
        first = [case.prepare(tmp_path) for case in itertools.islice(make_cases(Random(5)), 12)]
        second = [case.prepare(tmp_path) for case in itertools.islice(make_cases(Random(5)), 12)]
        assert first == second


# -- the references themselves -------------------------------------------------------

PM_LINES = [
    (["x1*x2", "x1", "x2"], 1), (["y1*y2", "y1", "y2"], 1), (["x1*y2", "x1", "y2"], 1),
    (["y1*x2", "y1", "x2"], 1), (["x1*y2", "y1*x2", "z1*z2"], 1), (["x1*x2", "y1*y2", "z1*z2"], -1),
]
GHZ_LINES = [
    (["x1*y2*y3", "x1", "y2", "y3"], 1), (["y1*x2*y3", "y1", "x2", "y3"], 1),
    (["y1*y2*x3", "y1", "y2", "x3"], 1), (["x1*x2*x3", "x1", "x2", "x3"], 1),
    (["x1*x2*x3", "x1*y2*y3", "y1*x2*y3", "y1*y2*x3"], -1),
]


@pytest.mark.parametrize("lines, total", [(PM_LINES, 9), (GHZ_LINES, 10)])
def test_references_reproduce_the_no_go_systems(lines, total):
    index = {}
    for terms, _ in lines:
        for label in terms:
            index.setdefault(label, len(index))
    assert len(index) == total
    assert all(references.line_holds(terms, required) for terms, required in lines)
    assert references.satisfying_count(lines, total, index) == 0


def _brute_force_count(lines, index) -> int:
    count = 0
    for values in itertools.product((1, -1), repeat=len(index)):
        count += all(
            math.prod(values[index[label]] for label in terms) == required
            for terms, required in lines
        )
    return count


_DENSE = {
    "x": [[0, 1], [1, 0]],
    "y": [[0, -1j], [1j, 0]],
    "z": [[1, 0], [0, -1]],
    "i": [[1, 0], [0, 1]],
}


def _dense_word(terms, systems):
    def kron(a, b):
        return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]

    def matmul(a, b):
        return [[sum(a[r][k] * b[k][c] for k in range(len(b))) for c in range(len(b))] for r in range(len(a))]

    word = [[complex(r == c) for c in range(2**systems)] for r in range(2**systems)]
    for label in terms:
        axes = {int(part[1]): part[0] for part in label.split("*")}
        matrix = [[1]]
        for slot in range(1, systems + 1):
            matrix = kron(matrix, _DENSE[axes.get(slot, "i")])
        word = matmul(word, matrix)
    return word


@pytest.mark.parametrize("seed", range(8))
def test_references_match_brute_force(seed):
    rng = Random(100 + seed)
    doc = workloads.line_system(rng, 10, "lines")
    lines = [(line["terms"], line["required"]) for line in doc["lines"]]
    index = {}
    for terms, _ in lines:
        for label in terms:
            index.setdefault(label, len(index))
    assert references.satisfying_count(lines, len(index), index) == _brute_force_count(lines, index)
    systems = max(int(part[1]) for label in index for part in label.split("*"))
    for terms, required in lines:
        word = _dense_word(terms, systems)
        dense_holds = all(
            cmath.isclose(word[r][c], required * (r == c), abs_tol=1e-12)
            for r in range(len(word)) for c in range(len(word))
        )
        assert references.line_holds(terms, required) == dense_holds


# -- each reference rejects a corrupted output -----------------------------------------


def _verdict(workload, work: Path):
    """Run the first verdict of a workload; returns (argv, exit code, stdout)."""
    make_cases, _ = workloads.WORKLOADS[workload]
    argv = next(make_cases(Random(3))).prepare(work)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = LIB.cli.main(argv)
    return argv, code, out.getvalue()


def test_verify_all_reference_rejects_corruption(tmp_path):
    _, code, _ = _verdict("verify-all", tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    seed = report["environment"]["seed"]
    assert references.check_verify_all(code, report, seed) == []
    missing = copy.deepcopy(report)
    del missing["checks"][7]
    assert references.check_verify_all(code, missing, seed)
    flipped = copy.deepcopy(report)
    next(c for c in flipped["checks"] if c["id"] == "ghz.enumeration")["witness"]["satisfying"] = 1
    assert references.check_verify_all(code, flipped, seed)
    assert references.check_verify_all(1, report, seed)


def test_chsh_reference_rejects_corruption(tmp_path):
    argv, code, out = _verdict("chsh-sweep", tmp_path)
    start, end, steps = float(argv[1]), float(argv[2]), int(argv[3])
    text = (tmp_path / "curve.csv").read_text()
    assert references.check_chsh(code, out, text, start, end, steps) == []
    rows = text.splitlines()
    fields = rows[500].split(",")
    fields[1] = f"{float(fields[1]) + 1e-6:.9f}"
    perturbed = "\n".join(rows[:500] + [",".join(fields)] + rows[501:])
    assert references.check_chsh(code, out, perturbed, start, end, steps)
    assert references.check_chsh(code, out, "\n".join(rows[:-1]), start, end, steps)
    assert references.check_chsh(code, "max=2.6 at phi=1.0\n", text, start, end, steps)


def test_constraint_reference_rejects_corruption(tmp_path):
    _, code, _ = _verdict("constraint-files", tmp_path)
    doc = json.loads((tmp_path / "lines.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    target = report["suite"]
    assert references.check_constraint_report(code, report, doc, target) == []
    flipped = copy.deepcopy(report)
    enumeration = next(c for c in flipped["checks"] if c["id"] == f"{target}.enumeration")
    enumeration["witness"]["satisfying"] += 1
    assert references.check_constraint_report(code, flipped, doc, target)
    word = copy.deepcopy(report)
    check = word["checks"][0]
    check["status"] = "fail" if check["status"] == "pass" else "pass"
    assert references.check_constraint_report(code, word, doc, target)
    assert references.check_constraint_report(1 - code, report, doc, target)
