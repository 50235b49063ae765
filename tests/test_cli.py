"""Command-line interface: reports, exit codes, determinism, CSV output."""

import contextlib
import csv
import errno
import io
import itertools
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
from collections import Counter
from functools import partial, reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_oracle
import tensor_oracle
from constraint_documents import document
from contextuality_lab import checks, chsh, cli, constraints, ga, identities, quantum, systems
from contextuality_lab.checks import OPERATORS, STATES, Context, Words, run
from contextuality_lab.cli import DEFAULT_SEED, build_report, main
from contextuality_lab.constraints import BELL_GHZ, GHZ, PM, ObservableProduct, builtin_constraints
from contextuality_lab.ga import APPROX, EXACT, Multivector
from quantum_oracle import PAULI_CODES, factor_word
from sweep_oracle import dense_F, dense_quantum_lhs


GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(argv):
    """(exit code, stdout) of one in-process run, for tests that cannot take
    the function-scoped ``capsys`` fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def dense_sweep_csv(start, end, steps):
    """(the ``chsh --csv`` file bytes, the first maximising angle, the maximum)
    of the grid, from ``csv.writer`` over the dense sweep oracle."""
    spacing = (end - start) / (steps - 1)
    expected_csv = io.StringIO(newline="")
    writer = csv.writer(expected_csv)
    writer.writerow(chsh.CSV_HEADER)
    best_phi, best = start, -math.inf
    for k in range(steps):
        phi = start + k * spacing
        value = dense_F(phi)
        writer.writerow(
            [f"{phi:.9f}", f"{value:.9f}", f"{dense_quantum_lhs(phi):.9f}",
             chsh.CLASSICAL_BOUND, chsh.VECTOR_BOUND]
        )
        if value > best:
            best_phi, best = phi, value
    return expected_csv.getvalue().encode("utf-8"), best_phi, best


def assert_usage_error(argv, capsys, fragment):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err
    assert fragment in err


class TestVerify:
    def test_pm_report_content(self, capsys):
        code, out, _ = run_cli(["verify", "pm"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["suite"] == "pm"
        assert report["all_pass"] is True
        ids = [c["id"] for c in report["checks"]]
        assert sum(1 for i in ids if i.startswith("pm.word.")) == 6
        assert sum(1 for i in ids if i.startswith("pm.vector-line.")) == 6
        enum = next(c for c in report["checks"] if c["id"] == "pm.enumeration")
        assert enum["witness"]["assignments"] == 512
        assert enum["witness"]["satisfying"] == 0
        assert enum["witness"]["lhs_parity"] == 1
        assert enum["witness"]["rhs_parity"] == -1
        assert len(set(ids)) == len(ids)

    def test_bell_ghz_report_contains_column(self, capsys):
        code, out, _ = run_cli(["verify", "bell-ghz"], capsys)
        assert code == 0
        report = json.loads(out)
        column = next(
            c for c in report["checks"] if c["id"] == "bellghz.column.negated-f1"
        )
        assert column["witness"]["column"] == ["e1", "e1", "e1", "-e1"]
        assert column["witness"]["product"] == "-1"
        search = next(c for c in report["checks"] if c["id"] == "bellghz.search.e1")
        assert search["witness"]["includes_negated_f1"] is True

    def test_a_line_word_that_is_no_scalar_fails_its_row(self, monkeypatch, capsys):
        """With the trivector identification switched off, the pm lines 5 and
        6, whose words hold a trivector in both slots, reduce to no scalar:
        their rows fail with the word as the witness and nothing raises.
        Lines 1-4 hold no trivector and pass."""
        monkeypatch.setattr(constraints, "identify_pseudoscalars", lambda tm: tm)
        code, out, err = run_cli(["verify", "pm"], capsys)
        assert code == 1 and err == ""
        rows = {c["id"]: c for c in json.loads(out)["checks"]}
        lines = [rows[f"pm.vector-line.{k}"] for k in range(1, 7)]
        assert [(row["status"], row["witness"]["value"]) for row in lines] == [
            *[("pass", "1")] * 4, ("fail", "-e123*f123"), ("fail", "e123*f123")
        ]

    def test_unknown_target_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "bogus"])
        assert excinfo.value.code == 2

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(["verify", "a3", "--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["suite"] == "a3"
        assert len(report["checks"]) == 6

    def test_reports_are_byte_stable(self, capsys):
        _, first, _ = run_cli(["verify", "operators"], capsys)
        _, second, _ = run_cli(["verify", "operators"], capsys)
        assert first == second

    def test_exit_code_tracks_check_status(self, capsys):
        for target in ("pm", "ghz", "states"):
            code, out, _ = run_cli(["verify", target], capsys)
            report = json.loads(out)
            assert (code == 0) == report["all_pass"]
            assert report["failed"] == 0

    def test_approx_mode_runs(self, capsys):
        code, out, _ = run_cli(["verify", "operators", "--mode", "approx"], capsys)
        assert code == 0
        assert json.loads(out)["environment"]["mode"] == "approx"

    def test_seed_comes_from_argv_only(self, capsys, monkeypatch):
        monkeypatch.delenv("CONTEXTUALITY_LAB_SEED", raising=False)
        code, plain, _ = run_cli(["verify", "states", "--seed", "3"], capsys)
        monkeypatch.setenv("CONTEXTUALITY_LAB_SEED", "7")
        code_with_env, out, _ = run_cli(["verify", "states", "--seed", "3"], capsys)
        assert code == code_with_env == 0
        assert json.loads(out)["environment"]["seed"] == 3
        assert out == plain

    def test_singlet_witness_is_pinned(self):
        # the norm and dot product are explicit left-to-right sums: under
        # Python 3.12's compensated sum() seed 6 read 2.220446049250313e-16
        rows = {check_id: compute for check_id, _, compute in STATES}
        assert rows["states.singlet"](Context(EXACT, 6)) == (
            True, {"samples": 100, "seed": 6, "max_deviation": 1.1102230246251565e-16}
        )

    def test_build_report_all_targets(self):
        report = build_report("all", seed=DEFAULT_SEED)
        assert report["all_pass"] is True
        suites = {c["id"].split(".")[0] for c in report["checks"]}
        assert {"pm", "ghz", "bellghz", "ga", "pauli", "iso", "systems", "states", "a3"} <= suites

    def test_constraints_file_round_trip(self, tmp_path, capsys):
        from contextuality_lab.constraints import builtin_constraints

        path = tmp_path / "pm.json"
        path.write_text(json.dumps(document(builtin_constraints("pm"))))
        code, out, _ = run_cli(["verify", "pm", "--constraints", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_constraints_file_with_flipped_sign_fails(self, tmp_path, capsys):
        from contextuality_lab.constraints import builtin_constraints

        doc = document(builtin_constraints("pm"))
        doc["lines"][5]["required"] = 1
        path = tmp_path / "flipped.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", "pm", "--constraints", str(path)], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["all_pass"] is False
        assert report["failed"] > 0

    def test_constraints_flag_limited_to_line_targets(self, tmp_path):
        path = tmp_path / "pm.json"
        path.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "operators", "--constraints", str(path)])
        assert excinfo.value.code == 2

    def test_constraints_bad_file_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "pm", "--constraints", str(path)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "lines,fragment",
        [([], "at least one line"), ([{"terms": [], "required": 1}], "at least one term")],
    )
    def test_constraints_empty_lines_exits_2(self, lines, fragment, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "pm", "lines": lines}))
        assert_usage_error(
            ["verify", "pm", "--constraints", str(path)], capsys, fragment
        )

    def test_constraints_unknown_key_exits_2_and_writes_no_report(self, tmp_path, capsys):
        doc = {
            "name": "pm",
            "subsystems": 7,
            "lines": [{"terms": ["x1*x2", "x1", "x2"], "required": 1, "negate": True}],
        }
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "r.json"
        assert_usage_error(
            ["verify", "pm", "--constraints", str(path), "--out", str(report)],
            capsys,
            "unknown key 'subsystems'",
        )
        assert not report.exists()

    def test_constraints_with_21_observables_are_decided(self, tmp_path, capsys):
        # a 21-observable document is decided, not refused: its one
        # satisfying assignment (all +1) fails the no-go check
        labels = [f"{a}{s}" for a in "xyz" for s in "123"]
        labels += [f"{a}1*{b}2" for a in "xyz" for b in "xyz"]
        labels += ["x1*x3", "y1*y3", "z1*z3"]
        doc = {"name": "big", "lines": [{"terms": [l], "required": 1} for l in labels]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", "ghz", "--constraints", str(path)], capsys)
        assert code == 1
        enum = next(c for c in json.loads(out)["checks"] if c["id"] == "ghz.enumeration")
        assert enum["status"] == "fail"
        assert enum["witness"] == {
            "assignments": 2097152, "satisfying": 1, "lhs_parity": None, "rhs_parity": 1
        }

    @pytest.mark.parametrize("target", ["pm", "ghz"])
    def test_vector_model_chosen_by_lines_not_name(self, target, tmp_path, capsys):
        from contextuality_lab.constraints import builtin_constraints

        doc = document(builtin_constraints(target))
        doc["name"] = "mine"
        path = tmp_path / "mine.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", target, "--constraints", str(path)], capsys)
        assert code == 0
        model_ids = (f"{target}.vector-line.", f"{target}.value-table")
        custom = [c for c in json.loads(out)["checks"] if c["id"].startswith(model_ids)]
        builtin = [c for c in build_report(target)["checks"] if c["id"].startswith(model_ids)]
        assert len(custom) == len(doc["lines"]) + 1
        assert custom == builtin

    @staticmethod
    def bell_ghz_document(tmp_path, last_required=-1):
        doc = document(builtin_constraints(BELL_GHZ))
        doc["name"] = "mine"
        doc["lines"][-1]["required"] = last_required
        path = tmp_path / "mine.json"
        path.write_text(json.dumps(doc))
        return path

    def test_bell_ghz_other_lines_get_the_enumeration_only(self, tmp_path, capsys):
        path = self.bell_ghz_document(tmp_path, last_required=1)
        code, out, _ = run_cli(["verify", "bell-ghz", "--constraints", str(path)], capsys)
        assert code == 1
        checks = json.loads(out)["checks"]
        assert [c["id"] for c in checks] == ["bellghz.enumeration"]
        assert checks[0]["status"] == "fail"
        assert checks[0]["witness"]["satisfying"] == 8

    def test_bell_ghz_lines_chosen_by_structure_not_name(self, tmp_path, capsys):
        path = self.bell_ghz_document(tmp_path)
        code, out, _ = run_cli(["verify", "bell-ghz", "--constraints", str(path)], capsys)
        assert code == 0
        custom = [c["id"] for c in json.loads(out)["checks"]]
        assert len(custom) == 10
        assert custom == [c["id"] for c in build_report("bell-ghz")["checks"]]

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ({"name": 7, "lines": [{"terms": ["x1"], "required": 1}]}, "'name' must be a string"),
            ({"name": "pm", "lines": [["x1"]]}, "line 0 must be an object"),
            ({"name": "pm", "lines": [{"terms": [5], "required": 1}]}, "list of strings"),
            ({"name": "pm", "lines": [{"terms": "x1*y2", "required": 1}]}, "list of strings"),
            ({"name": "pm", "lines": [{"terms": ["x1"], "required": -1.7}]}, "must be 1 or -1"),
            ({"name": "pm", "lines": [{"terms": ["x1"], "required": True}]}, "must be 1 or -1"),
        ],
        ids=["name-not-str", "line-not-object", "terms-int", "terms-str", "required-float",
             "required-bool"],
    )
    def test_constraints_bad_shape_exits_2(self, doc, fragment, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert_usage_error(
            ["verify", "pm", "--constraints", str(path)], capsys, fragment
        )

    def test_repeated_subsystem_is_named_by_labels(self, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({"name": "pm", "lines": [{"terms": ["x1*y1"], "required": 1}]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "pm", "--constraints", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "repeated subsystem in observable x1*y1" in err
        assert "PauliSymbol(" not in err and "Traceback" not in err

    @pytest.mark.parametrize("written", ["y2*x1", " y2 * x1 ", "x1*y2", " x1 * y2"])
    def test_factor_order_and_spaces_leave_the_pm_verdict(self, written, tmp_path, capsys):
        doc = document(builtin_constraints(PM))
        assert doc["lines"][4]["terms"][0] == "x1*y2"
        doc["lines"][4]["terms"][0] = written
        path = tmp_path / "pm.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", "pm", "--constraints", str(path)], capsys)
        assert code == 0
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        assert checks["pm.enumeration"]["witness"] == {
            "assignments": 512, "satisfying": 0, "lhs_parity": 1, "rhs_parity": -1
        }
        assert all(checks[f"pm.word.{k}"]["status"] == "pass" for k in range(1, 7))
        shown = written.replace(" ", "")
        assert checks["pm.word.5"]["witness"]["terms"] == [shown, "y1*x2", "z1*z2"]
        assert checks["pm.word.5"]["claim"].startswith(f"operator word {shown} y1*x2 ")

    def test_deeply_nested_constraints_exit_2_without_traceback(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        result = subprocess.run(
            [sys.executable, "-m", "contextuality_lab.cli", "verify", "pm", "--constraints",
             str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("usage:")
        assert "nested too deeply" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unwritable_out_path_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "a3", "--out", str(tmp_path / "missing" / "r.json")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "case",
        ["missing-directory", "directory", "unwritable-directory", "unwritable-file", "long-name"],
    )
    def test_out_is_refused_before_any_check_runs(self, case, tmp_path, monkeypatch, capsys):
        existing = tmp_path / "r.json"
        existing.write_bytes(b"an earlier report\n")
        out = {
            "missing-directory": tmp_path / "missing" / "r.json",
            "directory": tmp_path,
            "unwritable-directory": tmp_path / "new.json",
            "unwritable-file": existing,
            "long-name": tmp_path / ("r" * 300),
        }[case]
        if case.startswith("unwritable"):
            # a test may run as a user who can write anywhere, so cli's open
            # refuses every file in tmp_path, or the existing file only
            def refusing_open(path, *args, **kwargs):
                if Path(path) == existing or (
                    case == "unwritable-directory" and Path(path).parent == tmp_path
                ):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
                return open(path, *args, **kwargs)

            monkeypatch.setattr(cli, "open", refusing_open, raising=False)
        runs = []
        monkeypatch.setattr(checks, "run", lambda rows, ctx: runs.append(ctx) or [])
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "all", "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "Traceback" not in err
        assert "cannot write report: " in err
        assert runs == []
        assert existing.read_bytes() == b"an earlier report\n"
        assert list(tmp_path.iterdir()) == [existing]

    def test_unwritable_csv_path_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["chsh", "0", "1", "5", "--csv", str(tmp_path / "missing" / "c.csv")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["verify", "pm", "--constraints", ""], "cannot load constraint set"),
            (["verify", "pm", "--out", ""], "cannot write report"),
            (["chsh", "0", "1", "3", "--csv", ""], "cannot write CSV"),
        ],
        ids=["constraints", "out", "csv"],
    )
    def test_empty_path_is_a_usage_error(self, argv, fragment, tmp_path):
        # an empty path is a path that cannot be opened, not an absent option
        result = subprocess.run(
            [sys.executable, "-m", "contextuality_lab.cli", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("usage:") and fragment in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert list(tmp_path.iterdir()) == []


class TestOperatorsSuiteWork:
    def test_each_pauli_word_is_built_once_per_row(self, monkeypatch):
        built = []
        pauli_word = quantum.pauli_word

        def counted(product):
            built.append(product.label)
            return pauli_word(product)

        monkeypatch.setattr(quantum, "pauli_word", counted)
        ids = [c["id"] for c in run(OPERATORS, Context(EXACT, DEFAULT_SEED))]
        assert "pauli.cross-commutation" in ids
        # pauli.cross-commutation: the nine single-site words of three subsystems
        expected = Counter(f"{a}{s}" for s in (1, 2, 3) for a in "xyz")
        # the pm and ghz line-commutation checks: each distinct observable
        for name in (PM, GHZ):
            expected.update(term.label for term in builtin_constraints(name).observables)
        assert Counter(built) == expected

    def test_shared_operands_are_formed_once(self, monkeypatch):
        """The 64-product blade table is formed once per mode, however many
        rows read it, no dense multivector is scaled, and the flip rows
        negate each of their 12 generators once instead of once per sign
        choice."""
        scaled, negated = Counter(), Counter()
        scale, neg = Multivector.scale, systems.TensorMultivector.__neg__

        def counted_scale(self, factor):
            scaled[str(self)] += 1
            return scale(self, factor)

        def counted_neg(self):
            if self.key.bit_count() == 1:
                negated[self.key] += 1
            return neg(self)

        monkeypatch.setattr(Multivector, "scale", counted_scale)
        monkeypatch.setattr(systems.TensorMultivector, "__neg__", counted_neg)
        checks._blade_table.cache_clear()
        for mode in (EXACT, APPROX, EXACT):
            entries = run(OPERATORS, Context(mode, DEFAULT_SEED))
            assert all(entry["status"] == "pass" for entry in entries)
        assert checks._blade_table.cache_info().misses == 2
        assert scaled == {}
        # even-flips: the six generators of two subsystems; free-flips: the
        # axis 1 and 2 generators of three; each row negates its own, once
        # per run
        flipped = [1 << 3 * s << a for s in range(2) for a in range(3)]
        flipped += [1 << 3 * s << a for s in range(3) for a in range(2)]
        assert negated == Counter(flipped * 3)


class TestConstraintDocumentWork:
    """A document's work is done once per distinct observable, not once per
    mention of it."""

    @staticmethod
    def count_calls(monkeypatch):
        parsed, words = [], []
        parse, pauli_word = ObservableProduct.parse, quantum.pauli_word

        def counted_parse(label):
            parsed.append(label)
            return parse(label)

        def counted_word(product):
            words.append(product.label)
            return pauli_word(product)

        monkeypatch.setattr(ObservableProduct, "parse", staticmethod(counted_parse))
        monkeypatch.setattr(quantum, "pauli_word", counted_word)
        return parsed, words

    @pytest.mark.parametrize("target", [PM, GHZ])
    def test_each_observable_is_parsed_and_worded_once(self, target, monkeypatch, tmp_path, capsys):
        doc = document(builtin_constraints(target))
        # every built-in line system repeats terms across its lines
        mentions = [t for line in doc["lines"] for t in line["terms"]]
        distinct = list(dict.fromkeys(mentions))
        assert len(mentions) > len(distinct)
        doc["name"] = "mine"
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(doc))
        parsed, words = self.count_calls(monkeypatch)
        code, _, _ = run_cli(["verify", target, "--constraints", str(path)], capsys)
        assert code == 0
        assert parsed == distinct
        assert words == distinct

    def test_a_reordered_observable_is_parsed_per_text_and_worded_once(
        self, monkeypatch, tmp_path, capsys
    ):
        doc = {"name": "mine", "lines": [
            {"terms": ["x1*y2", "y2*x1"], "required": 1},
            {"terms": ["x1*y2", "z1"], "required": 1},
        ]}
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(doc))
        parsed, words = self.count_calls(monkeypatch)
        code, out, _ = run_cli(["verify", PM, "--constraints", str(path)], capsys)
        assert code == 1
        assert parsed == ["x1*y2", "y2*x1", "z1"]
        assert words == ["x1*y2", "z1"]
        enum = next(c for c in json.loads(out)["checks"] if c["id"] == "pm.enumeration")
        assert enum["witness"]["assignments"] == 4


def _cross_slot_product(key_a, key_b):
    """``ga.blade_product`` that also counts the swaps of factors from
    distinct slots, as if the subsystems anticommuted."""
    swaps = sum(
        (key_b & (1 << bit) - 1).bit_count() for bit in range(key_a.bit_length()) if key_a >> bit & 1
    )
    return (-1) ** swaps, key_a ^ key_b


#: name -> (attribute of ``systems``, its faulty replacement, the rows of
#: ``OPERATORS`` that fail under it).
JOINT_ALGEBRA_FAULTS = {
    "unsigned": ("blade_product", lambda key_a, key_b: (1, key_a ^ key_b), {
        "systems.embedded-relations", "systems.two-basis-words", "systems.even-flips",
        "systems.three-system-word", "systems.free-flips",
    }),
    "cross-slot": ("blade_product", _cross_slot_product, {"systems.cross-commutation"}),
    "no-identification": ("identify_pseudoscalars", lambda tm: tm, {
        "systems.two-basis-words", "systems.even-flips",
    }),
}


def dense_associativity(mode: str) -> bool:
    """The oracle of ``ga.associativity``: the 512 dense words
    ``(e_a e_b) e_c`` and ``e_a (e_b e_c)``, both inner products read from one
    table of the 64 dense blade products."""
    e = tuple(Multivector.from_blades({a: 1}, mode) for a in range(ga.BLADE_COUNT))
    p = [[x * y for y in e] for x in e]
    return all(
        (p[a][b] * e[c]).equals(e[a] * p[b][c])
        for a, b, c in itertools.product(range(ga.BLADE_COUNT), repeat=3)
    )


class TestAxiomRows:
    """The ga.* and systems.* checks but ga.associativity are rows decided
    by one loop; ga.associativity decides its table of signed blades."""

    ROWS = [row for row in OPERATORS if isinstance(row[2], Words)]
    ASSOCIATIVITY = staticmethod(next(row[2] for row in OPERATORS if row[0] == "ga.associativity"))

    @pytest.fixture
    def fresh_blade_table(self):
        """Empties ``checks._blade_table`` now and after the test, and hands
        back the call that empties it, to call once each fault is installed:
        a table is then formed under the fault, as in a faulty build, and
        never outlives it."""
        checks._blade_table.cache_clear()
        yield checks._blade_table.cache_clear
        checks._blade_table.cache_clear()

    def test_every_axiom_check_is_a_row_check(self):
        ids = [c["id"] for c in build_report("operators")["checks"]]
        assert [row[0] for row in self.ROWS] == [
            i for i in ids if i.startswith(("ga.", "systems.")) and i != "ga.associativity"
        ]

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_every_axiom_check_evaluates_rows(self, mode):
        ctx = Context(mode, DEFAULT_SEED)
        for check_id, _, words in self.ROWS:
            cases = words.cases(ctx)
            assert cases and all(len(case) > 0 for case in cases), check_id
            ok, witness = words(ctx)
            assert ok, check_id
            counts = [v for v in witness.values() if isinstance(v, int) and not isinstance(v, bool)]
            assert counts in ([], [len(cases)]), check_id

    def test_a_wrong_blade_sign_fails_the_ga_words(self, monkeypatch, fresh_blade_table, capsys):
        dense = ga._product

        def blade(coeffs):
            masks = [m for m, v in enumerate(coeffs) if v]
            return masks[0] if len(masks) == 1 else None

        def wrong(left, right, mode):
            product = dense(left, right, mode)
            # e1 times e2, whatever the signs of the factors, comes out negated
            if (blade(left), blade(right)) == (1, 2):
                return tuple(-v for v in product)
            return product

        # both ``*`` and ``ga.word`` reduce through the coefficient kernel
        monkeypatch.setattr(ga, "_product", wrong)
        fresh_blade_table()
        for mode in (EXACT, APPROX):
            entries = run(OPERATORS, Context(mode, DEFAULT_SEED))
            failed = {c["id"] for c in entries if c["status"] == "fail"}
            assert {i for i in failed if i.startswith("ga.")} == {
                "ga.anticommutation", "ga.bivector-cancel", "ga.bivector-square",
                "ga.trivector-cancel", "ga.trivector-square", "ga.sign-flips-plane",
                "ga.sign-flips-space", "ga.associativity", "ga.distributivity",
            }
        code, out, _ = run_cli(["verify", "operators"], capsys)
        assert code == 1
        assert json.loads(out)["all_pass"] is False

    def test_any_wrong_cayley_sign_fails_associativity(self, monkeypatch, fresh_blade_table):
        """The row and its dense oracle both fail under each of the 64
        single sign flips of the blade table."""
        cayley, passed = ga.CAYLEY, []
        for a, b in itertools.product(range(ga.BLADE_COUNT), repeat=2):
            table = [list(row) for row in cayley]
            sign, mask = table[a][b]
            table[a][b] = (-sign, mask)
            monkeypatch.setattr(ga, "CAYLEY", tuple(map(tuple, table)))
            fresh_blade_table()
            for mode in (EXACT, APPROX):
                verdicts = (self.ASSOCIATIVITY(Context(mode, DEFAULT_SEED))[0],
                            dense_associativity(mode))
                if verdicts != (False, False):
                    passed.append((a, b, mode, verdicts))
        assert passed == []

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_associativity_agrees_with_its_dense_oracle(self, mode):
        assert self.ASSOCIATIVITY(Context(mode, DEFAULT_SEED)) == (True, {"triples": 512})
        assert dense_associativity(mode)

    @pytest.mark.parametrize("fault", ["two blades", "doubled", "zero"])
    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_a_blade_product_that_is_no_signed_blade_fails_associativity(
        self, mode, fault, monkeypatch, fresh_blade_table
    ):
        dense = Multivector.__mul__
        e1, e2, e3 = (ga.basis_vector(i, mode) for i in (1, 2, 3))
        faulty = {
            "two blades": lambda product: product + e3,
            "doubled": lambda product: product.scale(2),
            "zero": lambda product: product.scale(0),
        }[fault]

        def wrong(self, other):
            product = dense(self, other)
            return faulty(product) if (self, other) == (e1, e2) else product

        monkeypatch.setattr(Multivector, "__mul__", wrong)
        fresh_blade_table()
        assert self.ASSOCIATIVITY(Context(mode, DEFAULT_SEED)) == (False, {"triples": 512})
        assert not dense_associativity(mode)

    def test_systems_words_agree_with_the_dense_and_dict_algebras(self):
        """Each word of each systems.* row: ``systems.word`` gives the
        product of its factors and the value of ``tests/tensor_oracle.py``."""
        ctx, words = Context(EXACT, DEFAULT_SEED), 0
        # every row's words live in the algebra of three subsystems
        n = systems.MAX_SYSTEMS
        for check_id, _, compute in self.ROWS:
            if not check_id.startswith("systems."):
                continue
            for case in compute.cases(ctx):
                for factors, _ in case:
                    value = systems.word(factors)
                    assert value == reduce(operator.mul, factors), check_id
                    sparse = tensor_oracle.word([tensor_oracle.of(f, n) for f in factors], n)
                    assert tensor_oracle.of(value, n) == sparse, check_id
                    words += 1
        # cross-commutation, embedded-relations, two-basis-words, even-flips,
        # three-system-word, free-flips
        assert words == 54 + 3 * 10 + 2 + 64 + 6 + 64

    @pytest.mark.parametrize("fault", JOINT_ALGEBRA_FAULTS)
    def test_a_joint_algebra_fault_fails_the_systems_words(self, monkeypatch, fault):
        attribute, replacement, failing = JOINT_ALGEBRA_FAULTS[fault]
        monkeypatch.setattr(systems, attribute, replacement)
        entries = run(OPERATORS, Context(EXACT, DEFAULT_SEED))
        assert {c["id"] for c in entries if c["status"] == "fail"} == failing

    def test_every_systems_word_fails_under_some_fault(self):
        failing = set().union(*(faulted for _, _, faulted in JOINT_ALGEBRA_FAULTS.values()))
        assert failing == {row[0] for row in self.ROWS if row[0].startswith("systems.")}

    def test_ga_proofs_do_not_read_the_seed(self):
        ids = ("ga.associativity", "ga.distributivity")
        first, second = (
            [c for c in build_report("operators", seed=seed)["checks"] if c["id"] in ids]
            for seed in (1, 2)
        )
        assert len(first) == 2 and first == second


#: name -> per-axis codes of a faulty word encoding, for the factor-loop
#: reference ``quantum_oracle.factor_word``: (x bit, z bit, phase exponent).
WORD_ENCODING_FAULTS = {
    "y-as-x-only": {**PAULI_CODES, "y": (1, 0, 0)},
    "y-as-z-only": {**PAULI_CODES, "y": (0, 1, 0)},
    "y-phase-dropped": {**PAULI_CODES, "y": (1, 1, 0)},
    "x-sets-both-bits": {**PAULI_CODES, "x": (1, 1, 0)},
}

#: The rows of ``verify all`` that read an observable's word and fail under
#: some encoding fault.  pm.word.1/.2, ghz.line-commutation and
#: pauli.cross-commutation pass under every one: they need a fault of
#: ``word_product`` or ``words_commute``.
ENCODING_ROWS = {
    *(f"pm.word.{k}" for k in range(3, 7)),
    *(f"ghz.word.{k}" for k in range(1, 6)),
    "pm.line-commutation",
    "states.ghz.eigenvalues",
    "states.alternating.eigenvalues",
}


class TestWordEncodingFaults:
    def test_every_encoding_row_fails_under_some_fault(self, monkeypatch):
        # the reference, at the subsystem limit, stands in for the one-argument kernel
        n = systems.MAX_SYSTEMS
        monkeypatch.setattr(quantum, "pauli_word", partial(factor_word, n=n))
        assert build_report("all")["all_pass"] is True
        failing = set()
        for codes in WORD_ENCODING_FAULTS.values():
            monkeypatch.setattr(quantum, "pauli_word", partial(factor_word, n=n, codes=codes))
            # a faulty word fails rows; it never makes the report raise
            report = build_report("all")
            failing.update(c["id"] for c in report["checks"] if c["status"] == "fail")
        assert ENCODING_ROWS <= failing


def _drops_last_right_term(left, right, mode, product=ga._product):
    """A dense product kernel that loses the last nonzero term of a right
    operand with two or more terms."""
    nonzero = [m for m, v in enumerate(right) if v]
    if len(nonzero) > 1:
        zero = 0 if mode == EXACT else 0.0
        right = tuple(zero if m == nonzero[-1] else v for m, v in enumerate(right))
    return product(left, right, mode)


def _i_squared_plus_one(self, other):
    """A Gaussian product with i * i = +1."""
    if isinstance(other, quantum.GaussianRational):
        return quantum.GaussianRational(
            self.real * other.real + self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )
    return quantum.GaussianRational(self.real * other, self.imag * other)


def _f_images_swapped(self, *images, init=identities.IdentityMap.__init__):
    """A map built with f1 and f2 swapped in its image table."""
    init(self, *images)
    e1, e2, f1, f2, g1, g2 = self._images
    object.__setattr__(self, "_images", (e1, e2, f2, f1, g1, g2))


#: name -> (owner, attribute, faulty replacement, the rows of ``verify all``
#: that fail under it).  Any bilinear table distributes, so only a product
#: that drops a term fails ga.distributivity.
KERNEL_FAULTS = {
    "dense-product-drops-a-term": (
        ga, "_product", _drops_last_right_term, {"ga.distributivity"}
    ),
    "gaussian-i-squared-plus-one": (
        quantum.GaussianRational, "__mul__", _i_squared_plus_one,
        {"iso.blade-map", "pauli.anticommutation"},
    ),
    "image-table-f1-f2-swapped": (
        identities.IdentityMap, "__init__", _f_images_swapped,
        {"bellghz.column.negated-f1", "bellghz.column.uniform"},
    ),
}


def _or_masks(a, b, product=quantum.word_product):
    """A word product that ORs the masks instead of XORing them."""
    k, _, _ = product(a, b)
    return k, a[1] | b[1], a[2] | b[2]


#: ``quantum`` attribute -> (faulty replacement, rows that must fail under
#: it): the four word rows that no encoding fault reaches.
WORD_KERNEL_FAULTS = {
    "word_product": (_or_masks, {"pm.word.1", "pm.word.2"}),
    "words_commute": (lambda a, b: False, {"ghz.line-commutation", "pauli.cross-commutation"}),
}


class TestKernelFaults:
    @pytest.fixture
    def fresh_tables(self):
        """The blade table and the 64 columns, formed under the test's fault
        and emptied after it."""
        checks._blade_table.cache_clear()
        identities.columns.cache_clear()
        yield
        checks._blade_table.cache_clear()
        identities.columns.cache_clear()

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    @pytest.mark.parametrize("fault", sorted(KERNEL_FAULTS))
    def test_a_kernel_fault_fails_exactly_its_rows(self, fault, mode, fresh_tables, monkeypatch):
        owner, attribute, replacement, failing = KERNEL_FAULTS[fault]
        monkeypatch.setattr(owner, attribute, replacement)
        # a fault fails rows; it never makes the report raise
        report = build_report("all", mode)
        assert {c["id"] for c in report["checks"] if c["status"] == "fail"} == failing

    def test_a_word_kernel_fault_fails_the_rows_no_encoding_fault_reaches(self, monkeypatch):
        for attribute, (replacement, rows) in WORD_KERNEL_FAULTS.items():
            with monkeypatch.context() as patched:
                patched.setattr(quantum, attribute, replacement)
                report = build_report("all")
            assert rows <= {c["id"] for c in report["checks"] if c["status"] == "fail"}
        assert build_report("all")["all_pass"] is True


class TestBellGhzColumnWork:
    @pytest.fixture
    def column_calls(self, monkeypatch):
        calls = []
        column = identities.bell_ghz_column

        def counted(imap):
            calls.append(imap)
            return column(imap)

        monkeypatch.setattr(identities, "bell_ghz_column", counted)
        identities.columns.cache_clear()
        yield calls
        identities.columns.cache_clear()

    def test_verify_all_reduces_each_column_once(self, column_calls, capsys):
        assert build_report("all")["all_pass"] is True
        assert len(column_calls) == 64
        assert set(column_calls) == set(identities.all_identity_maps())
        code, out, _ = run_cli(["search-identities", "e1"], capsys)
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN_DIR / "search-identities-e1.stdout").read_bytes()
        assert len(column_calls) == 64

    def test_a_kernel_fault_fails_every_column_row(self, monkeypatch):
        # the columns, searches and orientations multiply through systems'
        # one signed-blade kernel, so an unsigned product fails all nine rows
        attribute, replacement, _ = JOINT_ALGEBRA_FAULTS["unsigned"]
        monkeypatch.setattr(systems, attribute, replacement)
        identities.columns.cache_clear()
        try:
            entries = build_report("bell-ghz")["checks"]
        finally:
            identities.columns.cache_clear()
        rows = {
            c["id"]: c for c in entries
            if c["id"].startswith(("bellghz.column.", "bellghz.search.", "bellghz.orientation."))
        }
        assert len(rows) == 9
        assert [i for i, c in rows.items() if c["status"] != "fail"] == []
        # the all-maps row names its counterexample: the first map and its product
        first = identities.all_identity_maps()[0]
        assert rows["bellghz.column.all-maps"]["witness"] == {
            "maps": 64, "map": first.as_dict(), "product": "1"
        }


class TestNoDenseWords:
    """n-site claims are decided on Pauli words, never on Kronecker matrices."""

    @pytest.fixture
    def dense_calls(self, monkeypatch):
        calls = Counter()
        for name in ("kron", "__matmul__"):
            method = getattr(quantum.ComplexMatrix, name)

            def counted(self, other, name=name, method=method):
                calls[name] += 1
                return method(self, other)

            monkeypatch.setattr(quantum.ComplexMatrix, name, counted)
        return calls

    def test_constraint_document_and_states_suite(self, dense_calls, tmp_path, capsys):
        # 18 distinct three-subsystem observables, three to a line
        labels = [
            f"{a}1*{b}2*{c}3" for a, b, c in itertools.product("xyz", repeat=3)
        ][:18]
        doc = {
            "name": "eighteen",
            "lines": [
                {"terms": labels[k : k + 3], "required": (1, -1)[k % 2]}
                for k in range(0, 18, 3)
            ],
        }
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(["verify", "ghz", "--constraints", str(path)], capsys)
        assert code in (0, 1)
        ids = [c["id"] for c in json.loads(out)["checks"]]
        assert sum(1 for i in ids if i.startswith("ghz.word.")) == 6
        assert all(c["status"] == "pass" for c in run(STATES, Context(EXACT, DEFAULT_SEED)))
        assert dense_calls == Counter()

    def test_counter_sees_dense_products(self, dense_calls):
        two = quantum.pauli("x")
        two.kron(two) @ two.kron(two)
        assert dense_calls == Counter({"kron": 2, "__matmul__": 1})


class TestChsh:
    def test_summary_line(self, capsys):
        code, out, _ = run_cli(["chsh", "0", "3.14159265", "2001"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("max=2.5")
        assert "classical_bound=2.0" in out

    def test_csv_row_count(self, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(["chsh", "0", "0.1", "3", "--csv", str(csv_path)], capsys)
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "phi,F,qm_lhs,classical_bound,qm_bound"
        assert len(lines) == 1 + 3

    @staticmethod
    def record_batches(monkeypatch, name):
        """Record the first column handed to each call of the batch kernel
        ``chsh.<name>``: the angles for ``_plane_columns``, cos(phi) for the
        F and qm_lhs columns."""
        batches = []
        original = getattr(chsh, name)

        def recorded(first, *rest):
            batches.append(list(first))
            return original(first, *rest)

        monkeypatch.setattr(chsh, name, recorded)
        return batches

    @staticmethod
    def grid(start, end, steps):
        spacing = (end - start) / (steps - 1)
        return [start + k * spacing for k in range(steps)]

    STEPS_OVER_TWO_SEAMS = 2 * chsh.BATCH_SIZE + 37

    def test_csv_evaluates_F_once_per_point(self, tmp_path, monkeypatch, capsys):
        angles = self.record_batches(monkeypatch, "_plane_columns")
        f_columns = self.record_batches(monkeypatch, "_F_column")
        steps = self.STEPS_OVER_TWO_SEAMS
        csv_path = tmp_path / "c.csv"
        code, _, _ = run_cli(["chsh", "0.5", "2.0", str(steps), "--csv", str(csv_path)], capsys)
        assert code == 0
        grid = self.grid(0.5, 2.0, steps)
        assert [len(batch) for batch in angles] == [chsh.BATCH_SIZE, chsh.BATCH_SIZE, 37]
        assert [phi for batch in angles for phi in batch] == grid
        assert [c for batch in f_columns for c in batch] == [math.cos(phi) for phi in grid]

    def test_csv_summary_keeps_the_first_of_tied_maxima(self, tmp_path, monkeypatch, capsys):
        # F reads 2.0 from the third-last angle of the first batch on, so the
        # maximum ties inside the first batch, across the seam and inside the
        # second batch.
        seam = chsh.BATCH_SIZE
        seen = []

        def tied(cs, *rest):
            first = len(seen)
            seen.extend(cs)
            return [2.0 if first + i >= seam - 3 else 1.0 for i in range(len(cs))]

        monkeypatch.setattr(chsh, "_F_column", tied)
        steps = seam + 2
        _, plain, _ = run_cli(["chsh", "0.5", "2.0", str(steps)], capsys)
        seen.clear()
        _, out, _ = run_cli(
            ["chsh", "0.5", "2.0", str(steps), "--csv", str(tmp_path / "c.csv")], capsys
        )
        first_max = self.grid(0.5, 2.0, steps)[seam - 3]
        assert out.splitlines()[0] == f"max=2.000000 at phi={first_max:.6f}"
        assert out == plain

    def test_summary_without_csv_skips_the_matrix_path(self, monkeypatch, capsys):
        angles = self.record_batches(monkeypatch, "_plane_columns")
        qm_columns = self.record_batches(monkeypatch, "_qm_lhs_column")
        kernel = self.record_batches(monkeypatch, "_singlet_column")
        steps = self.STEPS_OVER_TWO_SEAMS
        code, _, _ = run_cli(["chsh", "0.5", "2.0", str(steps)], capsys)
        assert code == 0
        assert qm_columns == [] and kernel == []
        assert [phi for batch in angles for phi in batch] == self.grid(0.5, 2.0, steps)

    @staticmethod
    def count_singlet_calls(monkeypatch, name):
        """Count calls of ``quantum.<name>``, through chsh's binding too."""
        calls = []
        original = getattr(quantum, name)

        def counted(*directions):
            calls.append(directions)
            return original(*directions)

        monkeypatch.setattr(quantum, name, counted)
        if hasattr(chsh, name):
            monkeypatch.setattr(chsh, name, counted)
        return calls

    def test_csv_makes_one_singlet_call_per_point(self, tmp_path, monkeypatch, capsys):
        qm_columns = self.record_batches(monkeypatch, "_qm_lhs_column")
        kernel = self.record_batches(monkeypatch, "_singlet_column")
        pair_calls = self.count_singlet_calls(monkeypatch, "singlet_correlation")
        steps = self.STEPS_OVER_TWO_SEAMS
        code, _, _ = run_cli(["chsh", "0.5", "2.0", str(steps), "--csv", str(tmp_path / "c.csv")], capsys)
        assert code == 0
        cosines = [math.cos(phi) for phi in self.grid(0.5, 2.0, steps)]
        assert [c for batch in qm_columns for c in batch] == cosines
        assert kernel == qm_columns
        assert pair_calls == []

    def test_csv_checks_b_prime_once_and_a_a_prime_at_every_angle(
        self, tmp_path, monkeypatch, capsys
    ):
        units = self.count_singlet_calls(monkeypatch, "_unit")
        steps = self.STEPS_OVER_TWO_SEAMS
        code, _, _ = run_cli(["chsh", "0.5", "2.0", str(steps), "--csv", str(tmp_path / "c.csv")], capsys)
        assert code == 0
        assert [name for _, name in units] == ["b_prime"]
        # batches of 8, 8 and 3 angles: a NaN planted at any angle of any of
        # the four plane columns (cs, ss, c2s, s2s) is named as a or a'
        monkeypatch.setattr(chsh, "BATCH_SIZE", 8)
        original = chsh._plane_columns
        argv = ["chsh", "0.5", "2.0", "19", "--csv", str(tmp_path / "planted.csv")]
        for column, name in enumerate(("a", "a", "a_prime", "a_prime")):
            for planted in range(19):
                seen = []

                def plane_columns(phis):
                    plane = original(phis)
                    if 0 <= planted - len(seen) < len(phis):
                        plane[column][planted - len(seen)] = math.nan
                    seen.extend(phis)
                    return plane

                monkeypatch.setattr(chsh, "_plane_columns", plane_columns)
                with pytest.raises(ValueError) as raised:
                    main(argv)
                assert str(raised.value) == f"direction {name} is not a unit vector (|{name}|^2=nan)"
                assert len(seen) == min(8 * (planted // 8 + 1), 19)

    def test_verify_states_keeps_its_sampled_singlet_pairs(self, monkeypatch, capsys):
        pair_calls = self.count_singlet_calls(monkeypatch, "singlet_correlation")
        code, _, _ = run_cli(["verify", "states"], capsys)
        assert code == 0
        assert len(pair_calls) == 100

    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)).filter(
            lambda span: span[0] < span[1]
        ),
        st.integers(3, 300),
    )
    @example((0.25, 3.0), 2001)
    @example((0.25, 3.0), chsh.BATCH_SIZE)
    @example((0.25, 3.0), chsh.BATCH_SIZE + 1)
    @example((0.25, 3.0), 2 * chsh.BATCH_SIZE + 1)
    def test_csv_and_summary_match_the_dense_oracle(self, span, steps):
        start, end = span
        expected_csv, best_phi, best = dense_sweep_csv(start, end, steps)
        grid = ["chsh", repr(start), repr(end), str(steps)]
        with tempfile.TemporaryDirectory() as workdir:
            csv_path = Path(workdir) / "curve.csv"
            code, out = run_quiet([*grid, "--csv", str(csv_path)])
            assert code == 0
            assert csv_path.read_bytes() == expected_csv
        assert out.splitlines()[0] == f"max={best:.6f} at phi={best_phi:.6f}"
        assert run_quiet(grid) == (0, out)

    def test_bad_range_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["chsh", "1", "0", "10"])
        assert excinfo.value.code == 2

    def test_too_few_steps_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["chsh", "0", "1", "2"])
        assert excinfo.value.code == 2

    def test_second_dash_dash_is_read_as_an_angle(self, capsys):
        assert_usage_error(
            ["chsh", "0", "--", "--", "5"], capsys, "argument end: invalid float value: '--'"
        )

    @pytest.mark.parametrize(
        "argv,fragment",
        [(["1", "0", "10"], "bad angle range [1.0, 0.0]"),
         (["0", "1", "2"], "grid needs at least 3 points")],
    )
    def test_grid_errors_come_from_chsh_before_any_csv(self, argv, fragment, tmp_path, capsys):
        csv_path = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["chsh", *argv, "--csv", str(csv_path)])
        assert excinfo.value.code == 2
        assert fragment in capsys.readouterr().err
        assert not csv_path.exists()


class TestRenderJson:
    """``cli.render_json`` writes the bytes of ``json.dumps(value, indent=2)``."""

    scalars = (
        st.text()
        | st.integers()
        | st.integers(min_value=2**64, max_value=2**200)
        | st.floats()
        | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, True, False, None])
    )
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=30,
    )

    @settings(max_examples=300, deadline=None)
    @given(values)
    @example({'a"\\\n\té☃\U0001f600': [[], {}, [{}], (), -0.0, -(10**30)]})
    @example("\x7f")
    @example("\ud800")
    @example("\U0010ffff")
    @example([math.nan, math.inf, -math.inf, -0.0, True, False, None])
    @example({"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0,
              "true": True, "false": False, "null": None})
    def test_matches_json_dumps_with_indent(self, value):
        assert cli.render_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_matches_json_dumps_on_the_verify_all_report(self, mode):
        report = build_report("all", mode)
        assert cli.render_json(report) == json.dumps(report, indent=2)


class TestSearchIdentities:
    def test_target_e1_lists_negated_f1_map(self, capsys):
        code, out, _ = run_cli(["search-identities", "e1"], capsys)
        assert code == 0
        maps = json.loads(out)
        assert {"f1": "-e1", "f2": "e2", "g1": "e1", "g2": "e2"} in maps

    def test_negative_target_nonempty(self, capsys):
        code, out, _ = run_cli(["search-identities", "-e2"], capsys)
        assert code == 0
        assert len(json.loads(out)) > 0

    def test_out_of_plane_target_exits_2(self, capsys):
        assert_usage_error(["search-identities", "e3"], capsys, "vector 'e3'")

    def test_unparsable_target_exits_2(self, capsys):
        assert_usage_error(["search-identities", "zap"], capsys, "vector 'zap'")

    @pytest.mark.parametrize("target", ["-e3", "-x1"])
    def test_dash_target_is_read_as_the_target(self, target, capsys):
        assert_usage_error(
            ["search-identities", target], capsys, f"cannot parse signed in-plane vector '{target}'"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["chsh", "1", "0", "5"],
        ["search-identities", "e3"],
        ["verify", "pm", "--constraints", "{tmp}/missing.json"],
        ["verify", "all", "--out", "{tmp}"],
        ["verify", "all", "--bogus"],
        ["chsh", "0", "1", "5", "extra"],
        ["search-identities", "e1", "e2"],
    ],
    ids=[
        "chsh-grid", "search-target", "verify-constraints", "verify-out",
        "verify-unknown-option", "chsh-extra-positional", "search-extra-positional",
    ],
)
def test_errors_after_parsing_show_the_subcommand_usage(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([a.format(tmp=tmp_path) for a in argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: contextuality-lab {argv[0]} ")
    assert f"contextuality-lab {argv[0]}: error: " in err and "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="efg123+-− ", max_size=5).map(lambda t: ["search-identities", t]),
        st.tuples(st.floats(-4, 4), st.floats(-4, 4), st.integers(-2, 40)).map(
            lambda grid: ["chsh", *map(str, grid)]
        ),
    )
)
def test_search_and_sweep_argv_exit_0_or_with_usage(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 0:
        assert out.getvalue() and err.getvalue() == ""
    else:
        assert code == 2
        assert err.getvalue().startswith("usage:") and out.getvalue() == ""


#: (argv with ``{}`` for the output path, the bytes that path must hold).
PATH_COMMANDS = (
    (["verify", "pm", "--out", "{}"], (GOLDEN_DIR / "verify-pm.stdout").read_bytes()),
    (["chsh", "0", "1", "5", "--csv", "{}"], dense_sweep_csv(0.0, 1.0, 5)[0]),
)
#: Paths whose outcome does not depend on how they are passed, relative to a
#: directory that holds one empty directory ``d``.
REFUSED_PATHS = ("", ".", "..", "d", "d/", "missing/r.out", "new/")
ACCEPTED_PATHS = ("r.out", "d/r.out", "a b.out", "résumé λ.out", "-1", "- x")
#: Names that the parser reads as an option, or as the end of options,
#: unless they are joined to the flag with ``=``.
FLAG_LIKE_PATHS = ("-e1", "-e2.csv", "--", "-x", "--out")
path_names = st.one_of(
    st.sampled_from(REFUSED_PATHS + ACCEPTED_PATHS + FLAG_LIKE_PATHS),
    st.text(
        st.characters(exclude_categories=("Cs", "Cc"), exclude_characters="/"),
        min_size=1,
        max_size=12,
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PATH_COMMANDS), path_names, st.booleans())
@example(PATH_COMMANDS[0], "-e1", False)
@example(PATH_COMMANDS[1], "-e1", True)
@example(PATH_COMMANDS[0], "--", True)
@example(PATH_COMMANDS[1], "missing/r.out", False)
@example(PATH_COMMANDS[0], "", False)
@example(PATH_COMMANDS[1], "", True)
@example(PATH_COMMANDS[1], "-1", False)
def test_output_paths_get_the_golden_bytes_or_a_usage_error(command, path, joined):
    """Exit 0 writes exactly the expected bytes to the path; exit 2 is a
    usage error that leaves the directory as it was; nothing else."""
    argv_template, expected = command
    argv = [a.replace("{}", path) for a in argv_template]
    if joined:
        argv[-2:] = [f"{argv[-2]}={path}"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, contextlib.chdir(workdir):
        os.mkdir("d")
        before = sorted(os.walk("."))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        after = sorted(os.walk("."))
        if code == 0:
            assert err.getvalue() == ""
            with open(path, "rb") as handle:
                assert handle.read() == expected
            assert sum(len(files) for *_, files in after) == 1
        else:
            assert code == 2, (code, err.getvalue())
            assert err.getvalue().startswith("usage:") and "Traceback" not in err.getvalue()
            assert after == before
    if path in REFUSED_PATHS:
        assert code == 2
    elif path in ACCEPTED_PATHS or (joined and path in FLAG_LIKE_PATHS):
        assert code == 0
    elif path in FLAG_LIKE_PATHS:
        assert code == 2


def no_space():
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class FullDevice(io.StringIO):
    """A text stream on a full device: write number ``fail_at`` (counting
    from 0) raises ENOSPC, and so do flush and close.  With a ``path``, each
    write that succeeds is also appended to that file."""

    def __init__(self, fail_at, path=None):
        super().__init__()
        self.writes_left = fail_at
        self.path = path

    def write(self, text):
        if self.writes_left == 0:
            raise no_space()
        self.writes_left -= 1
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(text)
        return super().write(text)

    def flush(self):
        if not self.closed:
            raise no_space()

    def close(self):
        if not self.closed:
            super().close()
            raise no_space()


#: Argv that write to stdout, or to the file ``r.out`` when they name it.
OUTPUT_COMMANDS = (
    ["verify", "pm"],
    ["verify", "pm", "--out", "r.out"],
    ["chsh", "0", "1", "5"],
    ["chsh", "0", "1", "5", "--csv", "r.out"],
    ["search-identities", "e1"],
    ["-h"],
    ["verify", "-h"],
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(OUTPUT_COMMANDS), st.integers(0, 3))
def test_a_failed_write_is_a_usage_error(argv, fail_at):
    """stdout, or the output file, fails at write ``fail_at`` or, after
    fewer writes, at flush or close: exit 2 with a usage error, and no
    partial output file is left."""
    to_file = "r.out" in argv
    device = FullDevice(fail_at, "r.out" if to_file else None)

    def full_open(path, mode="r", **kwargs):
        assert (path, mode) == ("r.out", "w")
        Path(path).write_text("")  # opening creates the file
        return device

    stdout = io.StringIO() if to_file else device
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch):
        with mock.patch.object(cli, "open", full_open, create=True), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
        io.StringIO.close(device)  # so that collecting it raises nothing more
        assert os.listdir() == []
    assert excinfo.value.code == 2
    usage, message = err.getvalue().splitlines()
    assert usage.startswith("usage: contextuality-lab ")
    assert message.split(": error: ")[1].startswith("cannot write ")
    assert message.endswith(": [Errno 28] No space left on device")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [["verify", "pm", "--out", "/dev/full"], ["chsh", "0", "1", "5", "--csv", "/dev/full"]],
    ids=["verify-out", "chsh-csv"],
)
def test_a_full_output_device_is_a_usage_error_and_stays(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert ": error: cannot write " in capsys.readouterr().err
    assert os.path.exists("/dev/full") and not os.path.isfile("/dev/full")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [["verify", "all"], ["chsh", "0", "3.14159265", "100"], ["search-identities", "e1"], ["-h"]],
    ids=["verify", "chsh", "search-identities", "help"],
)
def test_stdout_on_a_full_device_is_a_usage_error(argv):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "contextuality_lab.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert result.returncode == 2
    assert result.stderr.startswith("usage: ") and ": error: cannot write " in result.stderr
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_is_built_from_the_command_table(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["-h"] if command is None else [command, "--help"])
    assert excinfo.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command is None:
        assert out.startswith("usage: contextuality-lab [-h] {verify,chsh,search-identities} ...\n")
        assert cli.DESCRIPTION in out
        for name, (_, text, _, _) in cli.COMMANDS.items():
            assert f"  {name}  " in out and text in out
        return
    _, text, positionals, options = cli.COMMANDS[command]
    assert out.startswith(f"usage: contextuality-lab {command} [-h] ") and text in out
    for name, converter, help_text in positionals:
        assert f"  {name}  " in out and help_text in out
        if type(converter) is tuple:
            assert ", ".join(converter) in out
    for flag, (_, metavar, converter, _, help_text) in options.items():
        shown = metavar or "{" + ",".join(converter) + "}"
        assert f"  {flag} {shown}  " in out and help_text in out


# -- the argparse definition as the oracle of cli.parse ---------------------------------------

ORACLE_FLAGS = ["--help", *sorted({flag for *_, options in cli.COMMANDS.values() for flag in options})]
ORACLE_VALUES = [
    *cli.COMMANDS, "verif", *cli.VERIFY_TARGETS, "e1", "e3", "approx", "exact",
    "0", "3", "2001", "0.5", "3.14159265", "1e3", "-1", "-0.5", "-.5",
    "--", "-h", "-e2", "-", "", "bogus", "x y", "-x y",
]
ORACLE_TOKENS = st.one_of(
    st.sampled_from(ORACLE_VALUES),
    st.sampled_from(ORACLE_FLAGS),
    st.builds(lambda flag, size: flag[:size], st.sampled_from(ORACLE_FLAGS), st.integers(3, 12)),
    st.builds(
        lambda flag, size, value: f"{flag[:size]}={value}",
        st.sampled_from(ORACLE_FLAGS), st.integers(3, 12), st.sampled_from(ORACLE_VALUES),
    ),
)


def parse_outcome(parse, argv):
    """(exit status or None, parsed values, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    values = status = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values = parse(argv)
        except SystemExit as exc:
            status = exc.code
    return status, values, out.getvalue(), err.getvalue()


def table_parse(argv):
    usage, args = cli.parse(argv)
    return {"command": usage.command, **vars(args)}


#: The flags that take a value, every flag but ``--help``.
VALUE_FLAGS = ORACLE_FLAGS[1:]


def differs_on_purpose(argv) -> bool:
    """Argv the two parsers read differently by design: a single-dash token
    other than ``-h`` before any ``--`` is an unknown option to argparse and
    a positional here; argparse strips a second ``--``, read as a
    positional, to an empty list, which ``chsh`` met with a traceback; and
    argparse strips the value of a value-taking flag given as ``--flag=--``
    the same way, storing ``[]`` where the table keeps ``--`` as the value
    (see ``test_attached_dash_dash_is_the_flag_value``)."""
    before = argv[: argv.index("--")] if "--" in argv else argv
    single_dash = any(
        t[:1] == "-" and t[:2] != "--" and t not in ("-", "-h")
        and (t[:2] == "-h" or " " not in t and not cli._is_negative_number(t))
        for t in before
    )
    attached_dash_dash = any(
        value == "--" and len(flag) > 2 and any(f.startswith(flag) for f in VALUE_FLAGS)
        for flag, _, value in (t.partition("=") for t in before)
    )
    return single_dash or attached_dash_dash or argv.count("--") > 1


def test_attached_dash_dash_is_the_flag_value(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert_usage_error(
        ["verify", "all", "--mode=--"], capsys, "argument --mode: invalid choice: '--'"
    )
    code, out, _ = run_cli(["verify", "a3", "--out=--"], capsys)
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "--").read_text())["all_pass"] is True
    (tmp_path / "--").unlink()
    code, out, _ = run_cli(["chsh", "0", "1", "3", "--csv=--"], capsys)
    assert code == 0
    assert (tmp_path / "--").read_text().splitlines()[0] == ",".join(chsh.CSV_HEADER)


def error_line(stderr):
    """(prog, message) of a usage error's last line."""
    return tuple(stderr.splitlines()[-1].split(": error: ", 1))


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.lists(st.sampled_from(list(cli.COMMANDS)), max_size=1), st.lists(ORACLE_TOKENS, max_size=6))
    .map(lambda parts: parts[0] + parts[1])
    .filter(lambda argv: not differs_on_purpose(argv))
)
@example(["verify", "a3", "--mo", "approx"])
@example(["verify", "all", "--mode", "approx", "--"])
@example(["verify", "--", "all"])
@example(["--", "verify", "all"])
@example(["--"])
@example(["--zz", "verify", "all", "--bogus"])
@example(["chsh", "0", "--", "-1", "2"])
@example(["chsh", "0", "1", "5", "--csv"])
@example(["verify", "all", "--help=x"])
@example(["verify", "all", "--=x"])
@example(["--=x"])
@example(["verify", "--constraints", "--h=x y"])
@example(["verify", "--out", "-x y", "all"])
def test_parse_agrees_with_the_argparse_oracle(argv):
    want = parse_outcome(cli_oracle.parse, argv)
    got = parse_outcome(table_parse, argv)
    assert got[0] == want[0]
    if want[0] is None:
        assert got[1] == want[1]
    elif want[0] == 0:
        assert got[2].split(" [-h]")[0] == want[2].split(" [-h]")[0]
    else:
        (want_prog, want_message), (got_prog, got_message) = error_line(want[3]), error_line(got[3])
        assert got_message == want_message
        if got_prog == want_prog:
            assert got_prog != "contextuality-lab" or got[3] == want[3]
        else:
            # argparse reports unrecognized arguments with the program's
            # usage line; here the command's usage line shows
            assert want_prog == "contextuality-lab"
            assert want_message.startswith("unrecognized arguments: ")
            assert got_prog.split(" ", 1)[1] in cli.COMMANDS
            assert got[3].startswith(f"usage: {got_prog} [-h] ")


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "contextuality_lab.cli", "verify", "a3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["all_pass"] is True


def test_import_needs_no_numeric_library():
    # dataclasses (and the inspect it pulls in) would cost the import more
    # than a constraint-file verdict takes
    probe = (
        "import sys, contextuality_lab, contextuality_lab.cli; print(sorted(m for m in "
        "('numpy', 'sympy', 'dataclasses', 'inspect') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
