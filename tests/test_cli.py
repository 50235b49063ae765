"""Command-line interface: reports, exit codes, determinism, CSV output."""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextuality_lab import checks, chsh, ga, identities, quantum
from contextuality_lab.checks import OPERATORS, STATES, Context, Words, run
from contextuality_lab.cli import DEFAULT_SEED, build_report, main
from contextuality_lab.constraints import BELL_GHZ, GHZ, PM, builtin_constraints
from contextuality_lab.ga import APPROX, EXACT, Multivector
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

    def test_build_report_all_targets(self):
        report = build_report("all", seed=DEFAULT_SEED)
        assert report["all_pass"] is True
        suites = {c["id"].split(".")[0] for c in report["checks"]}
        assert {"pm", "ghz", "bellghz", "ga", "pauli", "iso", "systems", "states", "a3"} <= suites

    def test_constraints_file_round_trip(self, tmp_path, capsys):
        from contextuality_lab.constraints import builtin_constraints

        path = tmp_path / "pm.json"
        path.write_text(builtin_constraints("pm").to_json())
        code, out, _ = run_cli(["verify", "pm", "--constraints", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_constraints_file_with_flipped_sign_fails(self, tmp_path, capsys):
        from contextuality_lab.constraints import builtin_constraints

        doc = json.loads(builtin_constraints("pm").to_json())
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

        doc = json.loads(builtin_constraints(target).to_json())
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
        doc = json.loads(builtin_constraints(BELL_GHZ).to_json())
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
        "case", ["missing-directory", "directory", "unwritable-directory", "unwritable-file"]
    )
    def test_out_is_refused_before_any_check_runs(self, case, tmp_path, monkeypatch, capsys):
        existing = tmp_path / "r.json"
        existing.write_bytes(b"an earlier report\n")
        out = {"missing-directory": tmp_path / "missing" / "r.json", "directory": tmp_path}
        if case == "unwritable-directory":
            # a test may run as a user who can write anywhere
            monkeypatch.setattr(os, "access", lambda path, mode: False)
        if case == "unwritable-file":
            # refuse the file only; its directory stays writable
            access = os.access
            monkeypatch.setattr(
                os, "access", lambda path, mode: path != str(existing) and access(path, mode)
            )
        runs = []
        monkeypatch.setattr(checks, "run", lambda rows, ctx: runs.append(ctx) or [])
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "all", "--out", str(out.get(case, existing))])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "Traceback" not in err
        assert runs == []
        assert existing.read_bytes() == b"an earlier report\n"

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
    def test_each_single_site_word_is_built_once_per_n(self, monkeypatch):
        built = []
        pauli_word = quantum.pauli_word

        def counted(product, n):
            built.append((product.label, n))
            return pauli_word(product, n)

        monkeypatch.setattr(quantum, "pauli_word", counted)
        ids = [c["id"] for c in run(OPERATORS, Context(EXACT, DEFAULT_SEED))]
        assert "pauli.cross-commutation" in ids
        # pauli.cross-commutation: the 15 single-site words, once per n
        expected = Counter((f"{a}{s}", n) for n in (2, 3) for s in range(1, n + 1) for a in "xyz")
        # the pm and ghz line-commutation checks build both members of each pair
        for name in (PM, GHZ):
            cs = builtin_constraints(name)
            for line in cs.lines:
                for pair in itertools.combinations(line.terms, 2):
                    expected.update((term.label, cs.n_systems) for term in pair)
        assert Counter(built) == expected


class TestAxiomRows:
    """The ga.* and systems.* checks are rows decided by one loop."""

    ROWS = [row for row in OPERATORS if isinstance(row[2], Words)]

    def test_every_axiom_check_is_a_row_check(self):
        ids = [c["id"] for c in build_report("operators")["checks"]]
        assert [row[0] for row in self.ROWS] == [i for i in ids if i.startswith(("ga.", "systems."))]

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

    def test_a_wrong_blade_sign_fails_the_ga_words(self, monkeypatch, capsys):
        dense = Multivector.__mul__

        def blade(mv):
            masks = [m for m, v in enumerate(mv.coeffs) if v]
            return masks[0] if len(masks) == 1 else None

        def wrong(self, other):
            product = dense(self, other)
            # e1 times e2, whatever the signs of the factors, comes out negated
            if isinstance(other, Multivector) and (blade(self), blade(other)) == (1, 2):
                return -product
            return product

        monkeypatch.setattr(Multivector, "__mul__", wrong)
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

    def test_any_wrong_cayley_sign_fails_associativity(self, monkeypatch):
        words = next(row[2] for row in self.ROWS if row[0] == "ga.associativity")
        cayley, missed = ga.CAYLEY, []
        for a, b in itertools.product(range(ga.BLADE_COUNT), repeat=2):
            table = [list(row) for row in cayley]
            sign, mask = table[a][b]
            table[a][b] = (-sign, mask)
            monkeypatch.setattr(ga, "CAYLEY", tuple(map(tuple, table)))
            for mode in (EXACT, APPROX):
                if words(Context(mode, DEFAULT_SEED))[0]:
                    missed.append((a, b, mode))
        assert missed == []

    def test_ga_proofs_do_not_read_the_seed(self):
        ids = ("ga.associativity", "ga.distributivity")
        first, second = (
            [c for c in build_report("operators", seed=seed)["checks"] if c["id"] in ids]
            for seed in (1, 2)
        )
        assert len(first) == 2 and first == second


class TestBellGhzColumnWork:
    @pytest.fixture
    def column_calls(self, monkeypatch):
        calls = []
        column = identities.bell_ghz_column

        def counted(imap, signs=None):
            calls.append(imap)
            return column(imap, signs)

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
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(chsh, name)

        def counted(phi):
            calls.append(phi)
            return original(phi)

        monkeypatch.setattr(chsh, name, counted)
        return calls

    def test_csv_evaluates_F_once_per_point(self, tmp_path, monkeypatch, capsys):
        f_calls = self.count_calls(monkeypatch, "F")
        csv_path = tmp_path / "c.csv"
        code, _, _ = run_cli(["chsh", "0.5", "2.0", "37", "--csv", str(csv_path)], capsys)
        assert code == 0
        assert len(f_calls) == 37

    def test_csv_summary_keeps_the_first_of_tied_maxima(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(chsh, "F", lambda phi: 2.0 if phi > 1.0 else 1.0)
        _, plain, _ = run_cli(["chsh", "0.5", "2.0", "4"], capsys)
        _, out, _ = run_cli(["chsh", "0.5", "2.0", "4", "--csv", str(tmp_path / "c.csv")], capsys)
        assert out.splitlines()[0] == "max=2.000000 at phi=1.500000"
        assert out == plain

    def test_summary_without_csv_skips_the_matrix_path(self, monkeypatch, capsys):
        lhs_calls = self.count_calls(monkeypatch, "quantum_lhs")
        f_calls = self.count_calls(monkeypatch, "F")
        code, _, _ = run_cli(["chsh", "0.5", "2.0", "37"], capsys)
        assert code == 0
        assert lhs_calls == []
        assert len(f_calls) == 37

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
        lhs_calls = self.count_calls(monkeypatch, "quantum_lhs")
        chsh_calls = self.count_singlet_calls(monkeypatch, "singlet_chsh")
        pair_calls = self.count_singlet_calls(monkeypatch, "singlet_correlation")
        code, _, _ = run_cli(["chsh", "0.5", "2.0", "37", "--csv", str(tmp_path / "c.csv")], capsys)
        assert code == 0
        assert len(lhs_calls) == 37
        assert len(chsh_calls) == 37
        assert pair_calls == []

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
    def test_csv_and_summary_match_the_dense_oracle(self, span, steps):
        start, end = span
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
        grid = ["chsh", repr(start), repr(end), str(steps)]
        with tempfile.TemporaryDirectory() as workdir:
            csv_path = Path(workdir) / "curve.csv"
            code, out = run_quiet([*grid, "--csv", str(csv_path)])
            assert code == 0
            assert csv_path.read_bytes() == expected_csv.getvalue().encode("utf-8")
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


@pytest.mark.parametrize(
    "argv",
    [
        ["chsh", "1", "0", "5"],
        ["search-identities", "e3"],
        ["verify", "pm", "--constraints", "{tmp}/missing.json"],
        ["verify", "all", "--out", "{tmp}"],
    ],
    ids=["chsh-grid", "search-target", "verify-constraints", "verify-out"],
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
