"""Command-line interface tests: JSON payloads, env overrides, exit codes."""

import dataclasses
import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mpecq
from mpecq import (BhoInstance, Dataset, Tolerances, assemble_feasible_point,
                   kernels, solve_all_folds, split_folds)
from mpecq.cli import _TOL_SOURCES, build_parser, main
from mpecq.fixtures import fixture_e2

TOL = Tolerances()

CSV_TEXT = ("1.0,0.5,1\n-0.8,0.3,0\n0.6,-1.2,1\n-0.4,0.9,0\n1.1,1.0,1\n")
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def e2_record(with_grad=True):
    record = fixture_e2().evaluation.to_dict()
    record["affine"] = True
    if with_grad:
        record["grad_f"] = [1.0, 1.0]
    return record


def near_biactive_record():
    # G = v1 with value 1e-7: inactive at the default threshold 1e-8,
    # biactive once the threshold is raised to 1e-6
    return {"n": 2, "m": 0, "p": 0, "l": 1, "point": [1e-7, 0.0],
            "g_vals": [], "h_vals": [], "G_vals": [1e-7], "H_vals": [0.0],
            "g_grads": [], "h_grads": [], "G_grads": [[1.0, 0.0]],
            "H_grads": [[0.0, 1.0]], "affine": True}


class TestCheck:
    def test_feasible_point_payload(self, capsys, tmp_path):
        path = write_json(tmp_path, "e2.json", e2_record())
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["feasibility"]["feasible"] is True
        verdicts = payload["cq"]["verdicts"]
        assert verdicts["MPEC_MFCQ_TNLP"]["status"] == "fails"
        assert verdicts["NNAMCQ"]["status"] == "holds"
        assert payload["cq"]["implication_violations"] == []

    def test_infeasible_point_reports_and_exits_zero(self, capsys, tmp_path):
        record = near_biactive_record()
        record["G_vals"] = [-1.0]
        record["point"] = [-1.0, 0.0]
        path = write_json(tmp_path, "bad.json", record)
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["feasibility"]["feasible"] is False
        assert "note" in payload and "cq" not in payload

    def test_env_threshold_flips_pattern(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "near.json", near_biactive_record())
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert json.loads(out)["active_pattern"]["I_GH"] == []
        monkeypatch.setenv("MPECQ_TOL_ACTIVITY", "1e-6")
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert json.loads(out)["active_pattern"]["I_GH"] == [0]

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "near.json", near_biactive_record())
        monkeypatch.setenv("MPECQ_TOL_ACTIVITY", "1e-6")
        code, out, _ = run_cli(capsys, ["check", "--input", path,
                                        "--tol-activity", "1e-8"])
        assert code == 0
        assert json.loads(out)["active_pattern"]["I_GH"] == []

    def test_timing_key(self, capsys, tmp_path):
        path = write_json(tmp_path, "e2.json", e2_record())
        _, out, _ = run_cli(capsys, ["check", "--input", path, "--timing"])
        assert "timing_seconds" in json.loads(out)

    def test_bho_input_gets_structured_sections(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(7, 2)), rng.choice([-1.0, 1.0], size=7))
        split = split_folds(ds, 1, 2, 3, seed=0)
        instance = BhoInstance.from_dataset(ds, split)
        point, _ = assemble_feasible_point(
            instance, 1.0, solve_all_folds(instance, 1.0), TOL)
        path = write_json(tmp_path, "bho.json",
                          {"instance": instance.to_dict(),
                           "point": point.to_dict()})
        code, out, _ = run_cli(capsys, ["check", "--input", path])
        assert code == 0
        payload = json.loads(out)
        for key in ("activity_classes", "licq_theorem", "mfcq_r_theorem",
                    "validation_error"):
            assert key in payload
        assert payload["cq"]["verdicts"]["MPEC_ACQ_AFFINE"]["status"] == "holds"


class TestStationarity:
    def test_reports_strongest_class(self, capsys, tmp_path):
        path = write_json(tmp_path, "e2.json", e2_record())
        code, out, _ = run_cli(capsys, ["stationarity", "--input", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["stationarity"]["strongest"] == "strong"

    def test_missing_grad_f_is_input_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "e2.json", e2_record(with_grad=False))
        code, _, err = run_cli(capsys, ["stationarity", "--input", path])
        assert code == 2
        assert "grad_f" in err


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["check", "--input", "/nonexistent.json"])
        assert code == 2 and "cannot read" in err

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        code, _, err = run_cli(capsys, ["check", "--input", str(path)])
        assert code == 2 and err.startswith("error: cannot read")

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["check", "--input", str(path)])
        assert code == 2 and "invalid JSON" in err

    def test_top_level_not_object(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, _ = run_cli(capsys, ["check", "--input", str(path)])
        assert code == 2

    def test_unrecognized_record(self, capsys, tmp_path):
        path = write_json(tmp_path, "odd.json", {"foo": 1})
        code, _, err = run_cli(capsys, ["check", "--input", str(path)])
        assert code == 2 and "G_grads" in err

    def test_bad_env_value(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "e2.json", e2_record())
        monkeypatch.setenv("MPECQ_TOL_ACTIVITY", "abc")
        code, _, err = run_cli(capsys, ["check", "--input", path])
        assert code == 2 and "MPECQ_TOL_ACTIVITY" in err

    def test_kernel_runtime_error_exits_one(self, capsys, tmp_path, monkeypatch):
        def crash(self):
            raise RuntimeError("kernel failure")

        monkeypatch.setattr(kernels.LinearProgram, "solve", crash)
        path = write_json(tmp_path, "e2.json", e2_record())
        code, out, err = run_cli(capsys, ["check", "--input", path])
        assert code == 1 and out == ""
        assert err == "error: RuntimeError: kernel failure\n"

    def test_nonpositive_tolerance_flag(self, capsys, tmp_path):
        path = write_json(tmp_path, "e2.json", e2_record())
        code, _, _ = run_cli(capsys, ["check", "--input", path,
                                      "--tol-activity", "-1"])
        assert code == 2

    @pytest.mark.parametrize("flag, env, value", [
        ("--tol-rank", "MPECQ_TOL_RANK", "inf"),
        ("--tol-activity", "MPECQ_TOL_ACTIVITY", "inf"),
        ("--tol-feas", "MPECQ_TOL_FEAS", "nan")])
    def test_non_finite_tolerance(self, capsys, tmp_path, monkeypatch, flag, env, value):
        path = write_json(tmp_path, "e2.json", e2_record())
        code, out, err = run_cli(capsys, ["check", "--input", path, flag, value])
        assert code == 2 and out == "" and "finite" in err
        monkeypatch.setenv(env, value)
        code, out, err = run_cli(capsys, ["check", "--input", path])
        assert code == 2 and out == "" and "finite" in err

    def test_negative_point_count(self, capsys):
        code, out, err = run_cli(capsys, ["fuzz", "--points", "-1"])
        assert (code, out) == (2, "") and "--points" in err

    def test_negative_cap_flag(self, capsys, tmp_path):
        path = write_json(tmp_path, "e2.json", e2_record())
        code, out, err = run_cli(capsys, ["check", "--input", path, "--cap", "-1"])
        assert (code, out) == (2, "") and "--cap" in err

    def test_negative_cap_env(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "e2.json", e2_record())
        monkeypatch.setenv("MPECQ_CAP_GH", "-1")
        code, out, err = run_cli(capsys, ["stationarity", "--input", path])
        assert (code, out) == (2, "") and "MPECQ_CAP_GH" in err

    def test_removed_margin_flag_is_unknown(self, capsys, tmp_path):
        path = write_json(tmp_path, "e2.json", e2_record())
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", path, "--tol-margin", "1e-6"])
        assert exc.value.code == 2
        assert "--tol-margin" in capsys.readouterr().err

    def test_removed_pd_flag_is_unknown(self, capsys, tmp_path):
        path = write_json(tmp_path, "e2.json", e2_record())
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", path, "--tol-pd", "1e-10"])
        assert exc.value.code == 2
        assert "--tol-pd" in capsys.readouterr().err

    def test_removed_pd_env_is_ignored(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path, "e2.json", e2_record())
        expected = run_cli(capsys, ["check", "--input", path])
        monkeypatch.setenv("MPECQ_TOL_PD", "abc")  # malformed if it were read
        assert run_cli(capsys, ["check", "--input", path]) == expected


def fold_knot_record():
    return json.loads((GOLDEN / "cli" / "fold_knot.input.json").read_text())


def malformed(edit, base):
    record = base()
    edit(record)
    return record


def misplaced_block(record):
    # fold_knot's point with z[0] moved to the end of zeta: the right
    # total length, the wrong blocks
    point = record["point"]
    point["zeta"].append(point["z"].pop(0))


# one malformed field each: evaluation records, then {instance, point} pairs
MALFORMED = {
    "n_not_a_number": (lambda r: r.update(n="abc"), e2_record),
    "n_infinite": (lambda r: r.update(n=float("inf")), e2_record),
    "n_fraction": (lambda r: r.update(n=2.5), e2_record),
    "G_grads_string_entry": (lambda r: r.update(G_grads=[[1, "a"]]), e2_record),
    "G_grads_ragged": (lambda r: r.update(G_grads=[[1, 0], [1]]), e2_record),
    "grad_f_string_entry": (lambda r: r.update(grad_f=["a", 1]), e2_record),
    "grad_f_nan": (lambda r: r.update(grad_f=[float("nan"), 1]), e2_record),
    "grad_f_infinity": (lambda r: r.update(grad_f=[float("inf"), 1]), e2_record),
    "T_not_a_number": (lambda r: r["instance"].update(T="two"), fold_knot_record),
    "T_fraction": (lambda r: r["instance"].update(T=2.5), fold_knot_record),
    "A_string_entry": (lambda r: r["instance"]["A"][0].__setitem__(0, "a"), fold_knot_record),
    "A_ragged_row": (lambda r: r["instance"]["A"][0].pop(), fold_knot_record),
    "C_not_a_number": (lambda r: r["point"].update(C="abc"), fold_knot_record),
    "alpha_null": (lambda r: r["point"].update(alpha=None), fold_knot_record),
    "misplaced_block": (misplaced_block, fold_knot_record),
    "point_not_an_object": (lambda r: r.update(point=[1.0]), fold_knot_record),
}


class TestMalformedRecords:
    @pytest.mark.parametrize("command", ["check", "stationarity"])
    @pytest.mark.parametrize("case", MALFORMED)
    def test_exits_two_with_an_error_line(self, capsys, tmp_path, case, command):
        path = write_json(tmp_path, "bad.json", malformed(*MALFORMED[case]))
        code, out, err = run_cli(capsys, [command, "--input", path])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_misplaced_block_is_named(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json", malformed(*MALFORMED["misplaced_block"]))
        _, _, err = run_cli(capsys, ["check", "--input", path])
        assert err == "error: point block zeta must have length 6, got shape (7,)\n"


class TestAffineKey:
    """An evaluation record's `affine` is a JSON boolean, read from e2's
    golden input."""

    @staticmethod
    def check(capsys, tmp_path, edit):
        record = json.loads((GOLDEN / "cli" / "e2.input.json").read_text())
        edit(record)
        return run_cli(capsys, ["check", "--input", write_json(tmp_path, "e2.json", record)])

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_non_boolean_exits_two(self, capsys, tmp_path, value):
        code, out, err = self.check(capsys, tmp_path, lambda r: r.update(affine=value))
        assert (code, out) == (2, "")
        assert err == f"error: evaluation record: affine: expected true or false, got {value!r}\n"

    @pytest.mark.parametrize("edit, status", [
        (lambda r: r.update(affine=True), "holds"),
        (lambda r: r.update(affine=False), "undecided"),
        (lambda r: r.pop("affine"), "undecided")], ids=["true", "false", "absent"])
    def test_boolean_or_absent_is_read(self, capsys, tmp_path, edit, status):
        code, out, _ = self.check(capsys, tmp_path, edit)
        assert code == 0
        assert json.loads(out)["cq"]["verdicts"]["MPEC_ACQ_AFFINE"]["status"] == status


class TestGoldenReports:
    """`check` and `stationarity` output pinned byte for byte.

    The inputs are the three fixtures, the perfbench `biactive_record`
    points k = 1..3 of both families (seed 0, draw 0), and the first
    fold knot of sweep_data.csv's instance (T = 2, m1 = 3, m2 = 8,
    seed 5), a k = 1 SVC point.
    """

    CASES = ("e1", "e2", "e3", "fold_knot",
             *(f"biactive_{family}_k{k}" for family in ("holds", "fails") for k in (1, 2, 3)))

    @pytest.mark.parametrize("command", ["check", "stationarity"])
    @pytest.mark.parametrize("case", CASES)
    def test_output_matches_golden_file(self, capsys, case, command):
        path = GOLDEN / "cli" / f"{case}.input.json"
        code, out, err = run_cli(capsys, [command, "--input", str(path)])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "cli" / f"{case}.{command}.json").read_text()

    def test_no_stationarity_golden_holds_a_negative_zero(self):
        # the classifier writes +0.0 for a -0.0 multiplier
        paths = sorted((GOLDEN / "cli").glob("*.stationarity.json"))
        assert len(paths) == len(self.CASES)
        for path in paths:
            literals = []
            json.loads(path.read_text(),
                       parse_float=lambda text: literals.append(text) or float(text))
            assert not [t for t in literals if float(t) == 0.0 and t.startswith("-")], path.name


class TestFixturesCommand:
    def test_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, ["fixtures"])
        code2, out2, _ = run_cli(capsys, ["fixtures"])
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["ok"] is True
        assert set(payload["fixtures"]) == {"E1", "E2", "E3"}


class TestParserReuse:
    def test_calls_in_sequence_match_a_first_call(self, capsys, tmp_path):
        # the parser is built once per process; no call may leak into the next
        path = write_json(tmp_path, "near.json",
                          dict(near_biactive_record(), grad_f=[-1.0, 1.0]))
        commands = [["check", "--input", path, "--tol-activity", "1e-6"],
                    ["check", "--input", path],
                    ["stationarity", "--input", path, "--tol-activity", "1e-6"],
                    ["stationarity", "--input", path],
                    ["fixtures"]]
        first = []
        for argv in commands:
            build_parser.cache_clear()
            first.append(run_cli(capsys, argv))
        assert first[0] != first[1] and first[2] != first[3]
        for _ in range(2):
            for argv, expected in zip(commands, first):
                assert run_cli(capsys, argv) == expected
        assert build_parser.cache_info().hits == 2 * len(commands)


class TestBhoCommands:
    def test_build_writes_instance(self, capsys, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text(CSV_TEXT)
        out_path = tmp_path / "instance.json"
        code, out, _ = run_cli(capsys, [
            "bho", "build", "--csv", str(csv), "--T", "1", "--m1", "1",
            "--m2", "2", "--seed", "0", "--out", str(out_path)])
        assert code == 0
        summary = json.loads(out)
        assert summary["n"] == 7
        record = json.loads(out_path.read_text())
        assert record["kind"] == "bho_instance"
        assert record["meta"]["csv"] == "data.csv"
        assert len(record["meta"]["training_indices"][0]) == 2

    def test_build_takes_no_tolerance_flag(self, capsys, tmp_path):
        # building an instance decides nothing, so it resolves no tolerance
        csv = tmp_path / "data.csv"
        csv.write_text(CSV_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["bho", "build", "--csv", str(csv), "--T", "1", "--m1", "1",
                  "--m2", "2", "--out", str(tmp_path / "instance.json"),
                  "--tol-rank", "1e-10"])
        assert exc.value.code == 2
        assert "--tol-rank" in capsys.readouterr().err

    def test_sweep_reports_grid_and_best(self, capsys, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text(CSV_TEXT)
        code, out, _ = run_cli(capsys, [
            "bho", "sweep", "--csv", str(csv), "--T", "1", "--m1", "1",
            "--m2", "2", "--seed", "0", "--grid", "0.5,1.0"])
        assert code == 0
        payload = json.loads(out)
        assert [row["C"] for row in payload["sweep"]] == [0.5, 1.0]
        for row in payload["sweep"]:
            assert "validation_error" in row
            if not row["flagged"]:
                assert row["validation_error"] == row["oracle_error"]
        assert payload["best"] in payload["sweep"]

    def test_sweep_matches_golden_output(self, capsys):
        # bho_sweep.json was written by the projected-gradient solver that
        # answered every C before the regularization path replaced it; the
        # path, which now answers every solve alone, matches it byte for byte
        code, out, err = run_cli(capsys, [
            "bho", "sweep", "--csv", str(GOLDEN / "sweep_data.csv"), "--T", "2",
            "--m1", "3", "--m2", "8", "--seed", "5",
            "--grid", "0.01,0.03162,0.1,0.3162,1,3.162,10,31.62,100"])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "bho_sweep.json").read_text()

    @pytest.mark.parametrize("command", ["build", "sweep"])
    def test_missing_csv_exits_two(self, capsys, tmp_path, command):
        extra = ["--out", str(tmp_path / "x.json")] if command == "build" else ["--grid", "1"]
        code, out, err = run_cli(capsys, [
            "bho", command, "--csv", str(tmp_path / "nonexistent.csv"), "--T", "1",
            "--m1", "1", "--m2", "2", *extra])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read")

    @pytest.mark.parametrize("content", [b"\xff\xfe1,2,1\n", b"1," + b"2" * 200000 + b",1\n"],
                             ids=["undecodable", "oversized_field"])
    def test_unreadable_csv_exits_two(self, capsys, tmp_path, content):
        csv = tmp_path / "data.csv"
        csv.write_bytes(content)
        code, out, err = run_cli(capsys, [
            "bho", "sweep", "--csv", str(csv), "--T", "1", "--m1", "1", "--m2", "2",
            "--grid", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read")

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text(CSV_TEXT)
        code, out, err = run_cli(capsys, [
            "bho", "build", "--csv", str(csv), "--T", "1", "--m1", "1", "--m2", "2",
            "--out", str(tmp_path / "nonexistent" / "x.json")])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write")

    def test_sweep_bad_grid(self, capsys, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_text(CSV_TEXT)
        code, _, err = run_cli(capsys, [
            "bho", "sweep", "--csv", str(csv), "--T", "1", "--m1", "1",
            "--m2", "2", "--grid", "0.5,oops"])
        assert code == 2 and "--grid" in err

    @pytest.mark.parametrize("grid", ["nan", "inf", "0.5,-inf"])
    def test_sweep_rejects_non_finite_grid_before_solving(self, capsys, tmp_path,
                                                          monkeypatch, grid):
        csv = tmp_path / "data.csv"
        csv.write_text(CSV_TEXT)
        monkeypatch.setattr("mpecq.bho.solve_all_folds",
                            lambda *a, **kw: pytest.fail("solved a grid C"))
        code, out, err = run_cli(capsys, [
            "bho", "sweep", "--csv", str(csv), "--T", "1", "--m1", "1",
            "--m2", "2", "--grid", grid])
        assert (code, out) == (2, "")
        assert "--grid" in err and "finite" in err


class TestFuzzCommand:
    def test_small_sweep_is_clean(self, capsys):
        code, out, _ = run_cli(capsys, ["fuzz", "--points", "2", "--seed", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["counts"]["affine_points"] == 2
        assert payload["counts"]["bho_forced_points"] == 50


class TestToleranceDocs:
    def test_readme_table_lists_exactly_the_tolerances(self):
        # field, flag, env var and default of every row of README's
        # tolerance table, against the CLI's sources and the defaults
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        lines = readme.splitlines()
        start = lines.index("| field | flag | env var | default | meaning |") + 2
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
        table = [tuple(cell.strip().strip("`") for cell in row.split("|")[1:5])
                 for row in rows]
        defaults = Tolerances()
        expected = [(field, "--" + attr.replace("_", "-"), env, getattr(defaults, field))
                    for field, attr, env in _TOL_SOURCES]
        assert [(f, flag, env, float(d)) for f, flag, env, d in table] == expected
        assert [f.name for f in dataclasses.fields(Tolerances)] == [e[0] for e in expected]


class TestDependencies:
    def test_package_and_cli_import_no_scipy(self):
        # scipy is a test-time oracle only; the package must run on numpy alone
        src = str(pathlib.Path(mpecq.__file__).parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, mpecq, mpecq.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out == "[]\n"
