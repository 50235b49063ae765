"""Command-line interface: reports, exit codes, determinism, CSV output."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from contextuality_lab import chsh
from contextuality_lab.cli import DEFAULT_SEED, build_report, main
from sweep_oracle import dense_F, dense_quantum_lhs


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTEXTUALITY_LAB_SEED", "7")
        code, out, _ = run_cli(["verify", "states", "--seed", "3"], capsys)
        assert code == 0
        assert json.loads(out)["environment"]["seed"] == 7

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

    def assert_usage_error(self, argv, capsys, fragment):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert fragment in err

    @pytest.mark.parametrize(
        "lines,fragment",
        [([], "at least one line"), ([{"terms": [], "required": 1}], "at least one term")],
    )
    def test_constraints_empty_lines_exits_2(self, lines, fragment, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "pm", "lines": lines}))
        self.assert_usage_error(
            ["verify", "pm", "--constraints", str(path)], capsys, fragment
        )

    def test_constraints_over_enumeration_bound_exits_2(self, tmp_path, capsys):
        labels = [f"{a}{s}" for a in "xyz" for s in "123"]
        labels += [f"{a}1*{b}2" for a in "xyz" for b in "xyz"]
        labels += ["x1*x3", "y1*y3", "z1*z3"]
        doc = {"name": "big", "lines": [{"terms": [l], "required": 1} for l in labels]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        self.assert_usage_error(
            ["verify", "ghz", "--constraints", str(path)], capsys, "21 observables"
        )

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
        self.assert_usage_error(
            ["verify", "pm", "--constraints", str(path)], capsys, fragment
        )

    def test_non_integer_seed_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTEXTUALITY_LAB_SEED", "seven")
        self.assert_usage_error(["verify", "a3"], capsys, "CONTEXTUALITY_LAB_SEED")

    def test_unwritable_out_path_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "a3", "--out", str(tmp_path / "missing" / "r.json")])
        assert excinfo.value.code == 2

    def test_unwritable_csv_path_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["chsh", "0", "1", "5", "--csv", str(tmp_path / "missing" / "c.csv")])
        assert excinfo.value.code == 2


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

    def test_csv_and_summary_match_the_dense_oracle(self, tmp_path, capsys):
        start, end, steps = 0.25, 3.0, 2001
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
        csv_path = tmp_path / "curve.csv"
        code, out, _ = run_cli(["chsh", "0.25", "3.0", "2001", "--csv", str(csv_path)], capsys)
        assert code == 0
        assert csv_path.read_bytes() == expected_csv.getvalue().encode("utf-8")
        assert out.splitlines()[0] == f"max={best:.6f} at phi={best_phi:.6f}"
        _, plain, _ = run_cli(["chsh", "0.25", "3.0", "2001"], capsys)
        assert plain == out

    def test_bad_range_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["chsh", "1", "0", "10"])
        assert excinfo.value.code == 2

    def test_too_few_steps_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["chsh", "0", "1", "2"])
        assert excinfo.value.code == 2


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
        code, _, err = run_cli(["search-identities", "e3"], capsys)
        assert code == 2
        assert "error" in err

    def test_unparsable_target_exits_2(self, capsys):
        code, _, _ = run_cli(["search-identities", "zap"], capsys)
        assert code == 2


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "contextuality_lab.cli", "verify", "a3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["all_pass"] is True


def test_import_needs_no_numeric_library():
    probe = (
        "import sys, contextuality_lab, contextuality_lab.cli; "
        "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
