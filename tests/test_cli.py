import argparse
import csv
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cfstcol import (MethodId, OliveiraMode, PredictionSettings, evaluate_dataset, parse_dataset,
                     predict, predict_oliveira, response_curve)
from cfstcol.capacity import ARITHMETIC_ERROR, DEFAULT_SETTINGS
from cfstcol.cli import OLIVEIRA_MODES, _cell, _settings, build_parser, main
from cfstcol.dataset import CSV_HEADER

from conftest import build_column
from golden_cases import GOLDEN, NOT_TAKEN, R1_ARGS, taken
from test_acceptance import GATING_ROWS

# the flags of the steel curve at f_y = f_u = 900 MPa, and of the concrete curve above 105 MPa
STEEL_FLAGS = ("f_y=900 MPa outside steel model range [200, 800] MPa",
               "hardening strains extrapolated beyond 800 MPa",
               "f_u equals f_y; hardening stage degenerates to a plateau")
FIT_FLAG = "peak-strain regression fitted for f_c in [6, 105] MPa"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_single_method_table(self, capsys):
        code, out, _ = run(capsys, ["predict", *R1_ARGS, "--method", "aci"])
        assert code == 0
        assert "609.9" in out
        assert "yes" in out

    def test_inapplicable_method_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["predict", *R1_ARGS, "--method", "yu"])
        assert code == 0
        assert "0.2 <= xi <= 2" in out
        assert "817.5" in out

    def test_all_methods_table(self, capsys):
        code, out, _ = run(capsys, ["predict", *R1_ARGS])
        assert code == 0
        for method in MethodId:
            assert method.value in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["predict", *R1_ARGS, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        by_method = {p["method"]: p for p in payload["predictions"]}
        assert by_method["aci"]["Nu_kN"] == 609.9
        assert by_method["ec4"]["Nu_kN"] == 832.8
        assert by_method["yu"]["applicable"] is False
        assert payload["config"]["ratio_orientation"] == "N_test/N_u"

    def test_json_round_trip_idempotent(self, capsys):
        _, out, _ = run(capsys, ["predict", *R1_ARGS, "--format", "json"])
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["predict", *R1_ARGS, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# defaulted: d_max, E_c"
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "method,Nu_kN,applicable,violations,diagnostics"

    def test_csv_format_writes_validity_flags(self, capsys):
        code, out, _ = run(capsys, ["predict", "--D", "100", "--t", "5", "--L", "300",
                                    "--fy", "900", "--fc", "200", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[:4] == [
            "# defaulted: f_u, E_s, d_max, E_c",
            "# validity: f_y=900 MPa outside steel model range [200, 800] MPa",
            "# validity: f_c=200 MPa outside database range [12.5, 185.6] MPa",
            "method,Nu_kN,applicable,violations,diagnostics",
        ]

    # the card adds the flag of the concrete curve it tabulates
    @pytest.mark.parametrize("command,prefix,curve_flags", [(["predict"], "validity: ", []),
                                                            (["cdpm"], "# validity: ", [FIT_FLAG])])
    def test_table_and_card_write_validity_flags(self, capsys, command, prefix, curve_flags):
        code, out, _ = run(capsys, [*command, "--D", "100", "--t", "5", "--L", "300",
                                    "--fy", "900", "--fc", "200"])
        assert code == 0
        assert [line for line in out.splitlines() if "validity" in line] == [
            f"{prefix}f_y=900 MPa outside steel model range [200, 800] MPa",
            f"{prefix}f_c=200 MPa outside database range [12.5, 185.6] MPa",
            *(prefix + flag for flag in curve_flags),
        ]

    def test_defaulted_inputs_marked(self, capsys):
        _, out, _ = run(capsys, ["predict", "--D", "100", "--t", "5", "--L", "300",
                                 "--fy", "300", "--fc", "30", "--method", "aci"])
        assert "defaulted inputs" in out
        assert "f_u" in out and "E_s" in out

    def test_a_column_with_nothing_defaulted_gets_no_defaulted_line(self, capsys):
        column = [*R1_ARGS, "--dmax", "20", "--ec", "25000"]
        for command in (["predict"], ["predict", "--format", "csv"], ["cdpm"]):
            code, out, err = run(capsys, [*command, *column])
            assert code == 0, err
            assert "defaulted" not in out
        _, out, _ = run(capsys, ["predict", *column, "--format", "json"])
        assert json.loads(out)["column"]["defaulted"] == []

    def test_bad_geometry_exits_2(self, capsys):
        code, _, err = run(capsys, ["predict", "--D", "100", "--t", "50", "--L", "300",
                                    "--fy", "300", "--fc", "30"])
        assert code == 2
        assert "error" in err

    def test_unknown_method_exits_2(self, capsys):
        code, _, err = run(capsys, ["predict", *R1_ARGS, "--method", "bogus"])
        assert code == 2
        assert "unknown method" in err

    @pytest.mark.parametrize("spec", ["aci,ACI", "ec4,aci, ec4"])
    def test_duplicate_method_exits_2(self, capsys, spec):
        code, out, err = run(capsys, ["predict", *R1_ARGS, "--method", spec])
        assert code == 2
        assert out == ""
        assert "given more than once" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "pred.json"
        code, out, _ = run(capsys, ["predict", *R1_ARGS, "--format", "json", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["predictions"]

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, ["predict", *R1_ARGS, "--format", "json"])
        _, second, _ = run(capsys, ["predict", *R1_ARGS, "--format", "json"])
        assert first == second


class TestCurve:
    def test_steel_two_points(self, capsys):
        code, out, _ = run(capsys, ["curve", "steel", *taken(["curve", "steel"], R1_ARGS),
                                    "--n", "2", "--eps-max", "0.0015"])
        assert code == 0
        assert out.splitlines() == ["strain,stress_MPa", "0,0", "0.0015,300"]

    def test_concrete_peak_row_present(self, capsys):
        code, out, _ = run(capsys, ["curve", "concrete", *taken(["curve", "concrete"], R1_ARGS)])
        assert code == 0
        assert "0.0018897,30" in out.splitlines()

    def test_n_too_small_exits_2(self, capsys):
        code, _, err = run(capsys, ["curve", "steel", *taken(["curve", "steel"], R1_ARGS),
                                    "--n", "1"])
        assert code == 2
        assert err == "error: need at least two samples\n"

    def test_concrete_beyond_the_peak_strain_regression_exits_2(self, capsys):
        code, out, err = run(capsys, ["curve", "concrete", "--D", "100", "--t", "5", "--fy", "300",
                                      "--fc", "480"])
        assert (code, out) == (2, "")
        assert err == "error: peak-strain regression gives eps_c0 = -3.18e-05 <= 0 at f_c=480 MPa\n"


class TestCdpm:
    def test_card_sections_and_values(self, capsys):
        code, out, _ = run(capsys, ["cdpm", *R1_ARGS])
        assert code == 0
        lines = out.splitlines()
        for section in ("[ELASTIC]", "[CDPM]", "[COMPRESSION TABLE]", "[TENSION]"):
            assert section in lines
        assert lines.index("[ELASTIC]") < lines.index("[CDPM]") < lines.index("[COMPRESSION TABLE]") < lines.index("[TENSION]")
        cdpm_line = lines[lines.index("[CDPM]") + 1].split()
        expected = [19.25, 0.1, 1.162, 0.7255, 0.0]
        for got, want in zip(map(float, cdpm_line), expected):
            assert got == pytest.approx(want, rel=5e-3)
        elastic_line = lines[lines.index("[ELASTIC]") + 1].split()
        assert float(elastic_line[0]) == pytest.approx(25743.0, rel=5e-3)
        assert float(elastic_line[1]) == 0.2
        assert any(line.startswith("Gf ") for line in lines)

    def test_header_documents_fe_constants_and_poisson(self, capsys):
        _, out, _ = run(capsys, ["cdpm", *R1_ARGS])
        assert "friction 0.6" in out
        assert "L/1000" in out
        assert "D/10" in out
        assert "Poisson 0.2 is a tool default" in out


class TestRespond:
    def test_curve_and_summary(self, capsys):
        code, out, err = run(capsys, ["respond", *taken(["respond"], R1_ARGS)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "strain,N_kN"
        assert lines[1] == "0,0.0"
        assert "peak 638.5 kN" in err
        peak = max(float(line.split(",")[1]) for line in lines[1:])
        assert 609.9 <= peak <= 832.8

    def test_zero_eps_max_exits_2(self, capsys):
        code, _, _ = run(capsys, ["respond", *taken(["respond"], R1_ARGS), "--eps-max", "0"])
        assert code == 2

    def test_two_samples_give_the_knots(self, capsys):
        # the grid grows beyond n to hold every breakpoint, so n = 2 gives just the knots
        code, out, err = run(capsys, ["respond", *taken(["respond"], R1_ARGS), "--n", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "strain,N_kN"
        rows = [line.split(",") for line in lines[1:]]
        assert [strain for strain, _ in rows] == ["0", "0.0015", "0.0018897", "0.008903362037",
                                                   "0.0225", "0.03"]
        strain, load = max(rows, key=lambda row: float(row[1]))
        assert err == f"peak {load} kN at strain {strain}\n"

    @pytest.mark.parametrize("command", [["curve", "concrete"], ["respond"]])
    def test_one_sample_exits_2_with_the_grids_message(self, capsys, command):
        code, out, err = run(capsys, [*command, *taken(command, R1_ARGS), "--n", "1"])
        assert (code, out, err) == (2, "", "error: need at least two samples\n")


@pytest.mark.parametrize("command,n", [(["curve", "steel"], "3"), (["curve", "concrete"], "8"),
                                       (["respond"], "8")])
def test_a_grid_that_repeats_a_strain_exits_2(capsys, command, n):
    # the smallest subnormal extent leaves no float between 0 and eps_max for the samples
    code, out, err = run(capsys, [*command, *taken(command, R1_ARGS), "--n", n,
                                  "--eps-max", "5e-324"])
    assert code == 2
    assert out == ""
    assert err == "error: strains must be strictly increasing\n"


class TestModelFlags:
    """Each flag of the models a subcommand samples is one line: ``validity:`` on stderr
    after the CSV subcommands' output, ``# validity:`` in the card."""

    @pytest.mark.parametrize("argv,card_lines,err_lines", [
        (["respond", "--D", "100", "--t", "5", "--fy", "900", "--fu", "900", "--fc", "30"], [],
         ["peak 1533.9 kN at strain 0.00465319", *(f"validity: {f}" for f in STEEL_FLAGS)]),
        (["curve", "steel", "--fy", "900", "--fu", "900"], [],
         [f"validity: {f}" for f in STEEL_FLAGS]),
        (["curve", "concrete", "--D", "100", "--t", "5", "--fy", "900", "--fc", "120"], [],
         [f"validity: {FIT_FLAG}"]),
        (["cdpm", "--D", "100", "--t", "5", "--L", "300", "--fy", "300", "--fc", "120"],
         [f"# validity: {FIT_FLAG}"], []),
        # the database-range flag is the column's and the concrete curve's: the card writes it once
        (["cdpm", "--D", "100", "--t", "5", "--L", "300", "--fy", "300", "--fc", "200"],
         ["# validity: f_c=200 MPa outside database range [12.5, 185.6] MPa",
          f"# validity: {FIT_FLAG}"], []),
    ], ids=["respond", "curve steel", "curve concrete", "cdpm", "cdpm shared flag"])
    def test_each_model_flag_is_one_line(self, capsys, argv, card_lines, err_lines):
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert [line for line in out.splitlines() if "validity" in line] == card_lines
        assert err.splitlines() == err_lines

    @pytest.mark.parametrize("command", [["respond"], ["curve", "steel"], ["curve", "concrete"],
                                         ["cdpm"]])
    def test_an_unflagged_column_gains_no_line(self, capsys, command):
        code, out, err = run(capsys, [*command, *taken(command, R1_ARGS)])
        assert code == 0, err
        assert "validity" not in out + err
        assert len(err.splitlines()) == (command == ["respond"])  # respond's peak line alone


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(5e-324)
@example(-2.225073858507201e-308)
@example(1.7976931348623157e308)
@example(-50.0)
@example(150.0)
def test_batch_load_cell_matches_the_rounded_kn_value(newtons):
    # the text and CSV cells write N_u / 1e3 at .1f; JSON writes round(N_u / 1e3, 1)
    assert f"{newtons / 1e3:.1f}" == f"{round(newtons / 1e3, 1):.1f}"


def batch_fixture_text():
    """Three rows with N_test equal to the ACI prediction plus one low-strength row."""
    rows = []
    for i, (D, t, fy, fc) in enumerate([(150, 4, 350, 40), (250, 6, 300, 25), (120, 3, 420, 55)]):
        column = build_column(D, t, 3 * D, fy, fc)
        aci_kN = predict(column, MethodId.ACI).N_u / 1e3
        rows.append(f"s{i},{D},{t},{3 * D},{fy},,,{fc},CYL150,,{aci_kN!r}")
    rows.append("low,200,5,600,300,,,15,CYL150,,500")
    return ",".join(CSV_HEADER) + "\n" + "\n".join(rows) + "\n"


class TestBatch:
    def test_end_to_end(self, capsys, tmp_path):
        source = tmp_path / "specimens.csv"
        source.write_text(batch_fixture_text())
        rows_out = tmp_path / "rows.csv"
        summary_out = tmp_path / "summary.json"
        code, _, _ = run(capsys, ["batch", "--input", str(source),
                                  "--out", str(rows_out), "--summary-out", str(summary_out)])
        assert code == 0
        summary = json.loads(summary_out.read_text())
        by_method = {s["method"]: s for s in summary["summaries"]}
        assert by_method["aci"]["n_applicable"] == 3
        assert by_method["aci"]["n_total"] == 4
        assert by_method["aci"]["mean"] == 1.0
        assert by_method["aci"]["std"] == 0.0
        assert by_method["ec4"]["n_applicable"] == 3
        assert by_method["liu"]["n_applicable"] == 4
        assert summary["config"]["ratio_orientation"] == "N_test/N_u"
        header = rows_out.read_text().splitlines()[0]
        assert header.startswith("index,source_id")
        assert "Nu_aci_kN" in header and "applicable_aci" in header
        # identical inputs and config reproduce byte-identical outputs
        rerun_rows = tmp_path / "rows2.csv"
        rerun_summary = tmp_path / "summary2.json"
        run(capsys, ["batch", "--input", str(source),
                     "--out", str(rerun_rows), "--summary-out", str(rerun_summary)])
        assert rerun_rows.read_text() == rows_out.read_text()
        assert rerun_summary.read_text() == summary_out.read_text()

    def test_echo_cells_read_back_to_the_evaluated_values(self, capsys, tmp_path):
        # the numeric echo cells are written as repr, so that N_test/N_u can be recomputed
        # from the rows CSV's own cells; %g kept six significant digits
        text = ",".join(CSV_HEADER) + "\n" + \
            "p,219.1234,4.0125,657.3702,355.55555,,,41.234567,,,1234.56789\n" + \
            "r1,100,5,300,300,450,200000,30,CYL150,20,650\n"
        source = tmp_path / "echo.csv"
        source.write_text(text)
        rows_out = tmp_path / "rows.csv"
        code, _, err = run(capsys, ["batch", "--input", str(source), "--method", "aci",
                                    "--out", str(rows_out)])
        assert code == 0, err
        lines = [line.split(",") for line in rows_out.read_text().splitlines()]
        echoed = [line[1:len(CSV_HEADER) + 1] for line in lines[1:]]
        assert lines[0][1:len(CSV_HEADER) + 1] == list(CSV_HEADER)
        assert echoed == [
            ["p", "219.1234", "4.0125", "657.3702", "355.55555", "", "", "41.234567", "CYL150",
             "", "1234.56789"],
            ["r1", "100.0", "5.0", "300.0", "300.0", "450.0", "200000.0", "30.0", "CYL150",
             "20.0", "650.0"],
        ]

    def test_row_errors_reported_inline_and_run_continues(self, capsys, tmp_path):
        text = ",".join(CSV_HEADER) + "\n" + \
            "ok,100,5,300,300,450,200000,30,CYL150,20,650\n" + \
            "bad,100,50,300,300,450,200000,30,CYL150,20,650\n"
        source = tmp_path / "mixed.csv"
        source.write_text(text)
        summary_out = tmp_path / "summary.json"
        code, out, _ = run(capsys, ["batch", "--input", str(source), "--method", "aci",
                                    "--summary-out", str(summary_out)])
        assert code == 0
        summary = json.loads(summary_out.read_text())
        assert summary["row_errors"][0]["line"] == 3
        assert summary["summaries"][0]["n_total"] == 1

    def test_ratio_cov_fixture(self, capsys, tmp_path):
        column = build_column(200, 5, 600, 300, 30)
        aci_kN = predict(column, MethodId.ACI).N_u / 1e3
        lines = [",".join(CSV_HEADER)]
        for i, ratio in enumerate((0.9, 1.0, 1.1)):
            lines.append(f"r{i},200,5,600,300,,,30,CYL150,,{ratio * aci_kN!r}")
        source = tmp_path / "cov.csv"
        source.write_text("\n".join(lines) + "\n")
        summary_out = tmp_path / "summary.json"
        code, _, _ = run(capsys, ["batch", "--input", str(source), "--method", "aci",
                                  "--summary-out", str(summary_out)])
        assert code == 0
        s = json.loads(summary_out.read_text())["summaries"][0]
        assert s["mean"] == pytest.approx(1.0, rel=1e-12)
        assert s["cov"] == pytest.approx(0.1, rel=1e-9)

    def test_utf8_bom_input_accepted(self, capsys, tmp_path):
        # spreadsheet exports often start the file with a UTF-8 byte-order mark
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(batch_fixture_text(), encoding="utf-8")
        bom.write_text(batch_fixture_text(), encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = []
        for source in (plain, bom):
            rows_out = tmp_path / f"rows_{source.stem}.csv"
            summary_out = tmp_path / f"summary_{source.stem}.json"
            code, _, err = run(capsys, ["batch", "--input", str(source), "--out", str(rows_out),
                                        "--summary-out", str(summary_out)])
            assert code == 0, err
            outputs.append((rows_out.read_bytes(), summary_out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_duplicate_method_exits_2_before_writing(self, capsys, tmp_path):
        source = tmp_path / "specimens.csv"
        source.write_text(batch_fixture_text())
        rows_out, summary_out = tmp_path / "rows.csv", tmp_path / "summary.json"
        code, _, err = run(capsys, ["batch", "--input", str(source), "--method", "aci,ACI",
                                    "--out", str(rows_out), "--summary-out", str(summary_out)])
        assert code == 2
        assert "given more than once" in err
        assert not rows_out.exists() and not summary_out.exists()

    def test_unknown_method_reported_before_the_input_is_read(self, capsys, tmp_path):
        code, _, err = run(capsys, ["batch", "--input", str(tmp_path / "absent.csv"),
                                    "--method", "bogus"])
        assert code == 2
        assert "unknown method 'bogus'" in err
        assert "cannot read" not in err

    @pytest.mark.parametrize("value,message", [("-1", "E_c must be positive"),
                                               ("nan", "E_c must be finite, got nan")])
    def test_invalid_ec_is_a_usage_error_before_any_row(self, capsys, tmp_path, value, message):
        rows_out, summary_out = tmp_path / "rows.csv", tmp_path / "summary.json"
        code, _, err = run(capsys, ["batch", "--input", str(GOLDEN / "batch_input.csv"),
                                    "--method", "aci", "--ec", value, "--out", str(rows_out),
                                    "--summary-out", str(summary_out)])
        _, _, predict_err = run(capsys, ["predict", *R1_ARGS, "--ec", value])
        assert code == 2
        assert err == predict_err == f"error: {message}\n"
        assert not rows_out.exists() and not summary_out.exists()

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["batch", "--input", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "cannot read" in err

    def test_ec_override_flows_through(self, capsys, tmp_path):
        source = tmp_path / "specimens.csv"
        source.write_text(batch_fixture_text())
        outputs = {}
        for label, extra in (("plain", []), ("stiff", ["--ec", "60000"])):
            rows_out = tmp_path / f"rows_{label}.csv"
            summary_out = tmp_path / f"summary_{label}.json"
            run(capsys, ["batch", "--input", str(source), "--method", "ec4", *extra,
                         "--out", str(rows_out), "--summary-out", str(summary_out)])
            outputs[label] = (rows_out.read_text(), json.loads(summary_out.read_text()))
        assert outputs["plain"][0] != outputs["stiff"][0]
        assert outputs["plain"][1]["config"]["Ec_override"] is None
        assert outputs["stiff"][1]["config"]["Ec_override"] == 60000.0

    def test_streamed_summary_matches_evaluate_dataset(self, capsys, tmp_path):
        # the acceptance gating rows with varied N_test, a row whose strength
        # cannot be converted and a row that does not parse
        lines = [f"{s},{D},{t},{L},{fy},,,{fc},{kind},,{500 + 37 * i}"
                 for i, (s, D, t, L, fy, fc, kind) in enumerate(GATING_ROWS)]
        lines += ["uhsc,200,5,600,400,,,150,CUBE100,,900", "nocore,100,50,300,300,,,30,CYL150,,650"]
        text = ",".join(CSV_HEADER) + "\n" + "\n".join(lines) + "\n"
        source = tmp_path / "specimens.csv"
        source.write_text(text)
        summary_out = tmp_path / "summary.json"
        code, _, _ = run(capsys, ["batch", "--input", str(source), "--out", str(tmp_path / "rows.csv"),
                                  "--summary-out", str(summary_out)])
        assert code == 0
        parsed = parse_dataset(text)
        rows, summaries = evaluate_dataset(parsed.records)
        assert len(parsed.errors) == 1 and sum(row.error is not None for row in rows) == 1
        expected = [{"method": s.method.value, "n_applicable": s.n_applicable, "n_total": s.n_total,
                     "mean": s.mean, "std": s.std, "cov": s.cov} for s in summaries]
        assert json.loads(summary_out.read_text())["summaries"] == expected

    def test_summary_json_round_trip(self, capsys, tmp_path):
        source = tmp_path / "specimens.csv"
        source.write_text(batch_fixture_text())
        summary_out = tmp_path / "summary.json"
        run(capsys, ["batch", "--input", str(source), "--summary-out", str(summary_out)])
        text = summary_out.read_text()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text


class TestUnwritableOutput:
    """An output that cannot be opened is a usage error, found before any row is evaluated."""

    @pytest.mark.parametrize("command", [["predict"], ["curve", "steel"], ["cdpm"], ["respond"]])
    def test_single_column_out_exits_2(self, capsys, tmp_path, command):
        target = tmp_path / "absent" / "out.txt"
        code, out, err = run(capsys, [*command, *taken(command, R1_ARGS), "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--out", "--summary-out"])
    def test_batch_checks_both_outputs_before_the_row_loop(self, capsys, tmp_path, flag):
        source = tmp_path / "specimens.csv"
        source.write_text(batch_fixture_text())
        outputs = {"--out": tmp_path / "rows.csv", "--summary-out": tmp_path / "summary.json"}
        outputs[flag] = tmp_path / "absent" / "out.txt"
        code, out, err = run(capsys, ["batch", "--input", str(source),
                                      *(arg for pair in outputs.items() for arg in map(str, pair))])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {outputs[flag]}: ")
        # no row was written: the other output is absent or empty
        assert all(not p.exists() or p.read_text() == "" for p in outputs.values())

    def test_batch_outputs_must_be_two_files(self, capsys, tmp_path):
        source = tmp_path / "specimens.csv"
        source.write_text(batch_fixture_text())
        target = tmp_path / "both.txt"
        code, _, err = run(capsys, ["batch", "--input", str(source), "--out", str(target),
                                    "--summary-out", str(tmp_path / "." / "both.txt")])
        assert code == 2
        assert err == f"error: --out and --summary-out both name {target}\n"
        assert not target.exists()

    def test_batch_out_may_name_its_input(self, capsys, tmp_path):
        # the input is read before any output is opened, so it is not truncated first
        source, expected = tmp_path / "specimens.csv", tmp_path / "rows.csv"
        source.write_text(batch_fixture_text())
        for out, summary in ((expected, "first.json"), (source, "second.json")):
            code, _, err = run(capsys, ["batch", "--input", str(source), "--out", str(out),
                                        "--summary-out", str(tmp_path / summary)])
            assert code == 0, err
        assert source.read_bytes() == expected.read_bytes()


# xi_c = 990: the softening exponential overflows a float
THICK_TUBE_ARGS = ["--D", "100", "--t", "45", "--L", "300", "--fy", "300", "--fc", "30"]


class TestThickTube:
    def test_cdpm_writes_a_finite_table(self, capsys):
        code, out, err = run(capsys, ["cdpm", *THICK_TUBE_ARGS])
        assert code == 0, err
        lines = out.splitlines()
        table = lines[lines.index("[COMPRESSION TABLE]") + 1:lines.index("[TENSION]")]
        assert len(table) >= 50
        assert all(math.isfinite(float(cell)) for line in table for cell in line.split())

    @pytest.mark.parametrize("command", [["respond"], ["curve", "concrete"]])
    def test_curve_commands_succeed(self, capsys, command):
        code, out, err = run(capsys, [*command, *taken(command, THICK_TUBE_ARGS)])
        assert code == 0, err
        assert all(math.isfinite(float(cell)) for line in out.splitlines()[1:]
                   for cell in line.split(","))


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=reject)


class TestNonFiniteInputs:
    def test_cdpm_nan_strength_exits_2(self, capsys):
        code, out, err = run(capsys, ["cdpm", "--D", "100", "--t", "5", "--L", "300",
                                      "--fy", "300", "--fc", "nan"])
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_predict_nan_length_exits_2_without_json(self, capsys):
        code, out, err = run(capsys, ["predict", "--D", "100", "--t", "5", "--L", "nan",
                                      "--fy", "300", "--fc", "30", "--format", "json"])
        assert code == 2
        assert out == ""
        assert "L must be finite" in err

    def test_respond_nan_eps_max_exits_2_with_a_clear_message(self, capsys):
        code, _, err = run(capsys, ["respond", *taken(["respond"], R1_ARGS), "--eps-max", "nan"])
        assert code == 2
        assert "eps_max must be finite" in err
        assert "integer" not in err

    @pytest.mark.parametrize("command,flag,value,message", [
        *[("predict", flag, value, "finite") for flag, value in [
            ("--fu", "inf"), ("--Es", "nan"), ("--dmax", "inf"), ("--ec", "nan"), ("--ke", "inf"),
            ("--keff", "nan"), ("--rcc", "inf")]],
        ("predict", "--ec", "-1", "E_c must be positive"),
        *[("batch", flag, value, "finite") for flag, value in [
            ("--ec", "nan"), ("--ec", "inf"), ("--ke", "inf"), ("--keff", "nan"), ("--rcc", "inf")]],
        ("batch", "--ec", "-1", "E_c must be positive"),
    ])
    def test_every_numeric_flag_rejects_non_finite(self, capsys, command, flag, value, message):
        # the batch checks its flags before it reads its input, so the absent input is never read
        args = [*R1_ARGS, "--format", "json"] if command == "predict" else ["--input", "absent.csv"]
        code, out, err = run(capsys, [command, *args, flag, value])
        assert code == 2
        assert out == ""
        assert message in err
        assert "cannot read" not in err

    def test_batch_rows_become_row_errors_and_summary_is_strict_json(self, capsys, tmp_path):
        text = ",".join(CSV_HEADER) + "\n" + \
            "ok,100,5,300,300,450,200000,30,CYL150,20,650\n" + \
            "longinf,100,5,inf,300,450,200000,30,CYL150,20,650\n" + \
            "ntestnan,100,5,300,300,450,200000,30,CYL150,20,nan\n"
        source = tmp_path / "nonfinite.csv"
        source.write_text(text)
        summary_out = tmp_path / "summary.json"
        code, _, err = run(capsys, ["batch", "--input", str(source), "--method", "all",
                                    "--out", str(tmp_path / "rows.csv"),
                                    "--summary-out", str(summary_out)])
        assert code == 0, err
        summary = _strict_json(summary_out.read_text())
        assert [e["line"] for e in summary["row_errors"]] == [3, 4]
        assert "L must be finite" in summary["row_errors"][0]["message"]
        assert "Ntest_kN" in summary["row_errors"][1]["message"]
        assert summary["n_rows"] == 1
        assert all(s["n_total"] == 1 for s in summary["summaries"])


# a cell of every kind a spreadsheet export may hold, the unreadable ones included
_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "", " ", '"300"',
                     '"a,b"', '"two\nlines"', "x" * 200_000, "\0", "3\x000", "cube150"]),
)
_VALID_CELLS = "s,100,5,300,300,450,200000,30,CYL150,20,650".split(",")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, len(CSV_HEADER) - 1), _CELL, max_size=4),
                min_size=1, max_size=4),
       st.sampled_from(["all", "aci"]))
# an over-long cell and a two-line cell in one record once read as two records
@example([{0: "x" * 200_000, 1: '"two\nlines"'}], "aci")
def test_batch_on_any_cells_exits_0_with_strict_json(replacements, method):
    # each row is a valid one with up to four cells replaced; comma and newline source_ids
    # still break the rows CSV, so the width of its rows is not asserted
    rows = []
    for replaced in replacements:
        cells = list(_VALID_CELLS)
        for i, cell in replaced.items():
            cells[i] = cell
        rows.append(",".join(cells))
    with tempfile.TemporaryDirectory() as tmp:
        source, rows_out, summary_out = (Path(tmp, name) for name in ("in.csv", "rows.csv", "s.json"))
        source.write_text(",".join(CSV_HEADER) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["batch", "--input", str(source), "--method", method, "--out", str(rows_out),
                     "--summary-out", str(summary_out)]) == 0
        summary = _strict_json(summary_out.read_text(encoding="utf-8"))
        assert "\0" not in rows_out.read_text(encoding="utf-8")
    assert summary["n_rows"] + len(summary["row_errors"]) <= len(rows)


def _ci_checks():
    """tools/ci_checks.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "ci_checks", Path(__file__).parent.parent / "tools" / "ci_checks.py")
    ci_checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ci_checks)
    return ci_checks


def test_a_failed_benchmark_run_is_a_traced_miss(monkeypatch, capsys):
    # a run that crashes prints no JSON line: each workload is one miss, and the step goes on
    ci_checks = _ci_checks()
    monkeypatch.setattr(ci_checks.subprocess, "run",
                        lambda command, **kwargs: subprocess.CompletedProcess(command, 1, ""))
    assert ci_checks.traced(None) is False
    assert capsys.readouterr().out.splitlines() == [
        f"traced: {workload}: bench/run.py exited 1" for workload in ci_checks.TRACED]


def test_batch_on_the_adversarial_file_gives_its_pinned_outcome(tmp_path):
    # the outcome that tools/ci_checks.py cross-interpreter holds every interpreter to
    ci_checks = _ci_checks()
    source, summary = tmp_path / "adversarial.csv", tmp_path / "summary.json"
    source.write_text(ci_checks.ADVERSARIAL, encoding="utf-8")
    assert main(["batch", "--input", str(source), "--out", str(tmp_path / "rows.csv"),
                 "--summary-out", str(summary)]) == 0
    outcome = ci_checks.adversarial_outcome(summary.read_text(encoding="utf-8"))
    assert outcome == ci_checks.ADVERSARIAL_OUTCOME


def test_the_workflow_runs_each_check_once():
    # every tools/ci_checks.py step runs once, and pytest runs directly only on the
    # benchmark's self-tests: the statements step is CI's tier-1 run
    steps = list(_ci_checks().STEPS)
    root = Path(__file__).parent.parent
    workflow = root / ".github" / "workflows" / "tests.yml"
    invoked, pytest_targets = [], []
    for line in workflow.read_text(encoding="utf-8").splitlines():
        words = line.strip().removeprefix("run:").split()
        while words and "=" in words[0]:
            words.pop(0)  # an environment assignment before the command
        if words[:2] == ["python", "tools/ci_checks.py"]:
            # the step names come before any option; with none, every step runs
            named = list(itertools.takewhile(lambda w: not w.startswith("-"), words[2:]))
            invoked += named or steps
        elif words[:3] == ["python", "-m", "pytest"] or words[:1] == ["pytest"]:
            # the paths of the checkout it names; none means the whole rootdir, tests/ included
            pytest_targets.append([w for w in words if (root / w).exists()])
    assert sorted(invoked) == sorted(steps)
    assert pytest_targets == [["bench/selftest.py"]]


def test_predict_gives_the_batch_loads_of_every_golden_row(capsys, tmp_path):
    # the CLI flags and the dataset row both reach column_from_inputs, so every load agrees
    flags = dict(zip(CSV_HEADER[1:], ["--D", "--t", "--L", "--fy", "--fu", "--Es", "--fc",
                                      "--fc-kind", "--dmax"]))
    rows_out = tmp_path / "rows.csv"
    assert main(["batch", "--input", str(GOLDEN / "batch_input.csv"), "--out", str(rows_out),
                 "--summary-out", str(tmp_path / "summary.json")]) == 0
    inputs = {row["source_id"]: row for row in
              csv.DictReader((GOLDEN / "batch_input.csv").read_text(encoding="utf-8").splitlines())}
    compared = 0
    for row in csv.DictReader(rows_out.read_text(encoding="utf-8").splitlines()):
        if row["error"]:
            continue
        argv = ["predict", "--format", "json"]
        for name, flag in flags.items():
            cell = inputs[row["source_id"]][name].strip()
            if cell:
                argv += [flag, cell.lower() if flag == "--fc-kind" else cell]
        capsys.readouterr()
        assert main(argv) == 0
        predictions = json.loads(capsys.readouterr().out)["predictions"]
        assert len(predictions) == 13
        for p in predictions:
            batch_kN = float(row[f"Nu_{p['method']}_kN"])
            assert (p["Nu_kN"] is None and math.isnan(batch_kN)) or p["Nu_kN"] == batch_kN
        compared += 1
    assert compared == 21


class TestHugeFiniteInputs:
    """Huge finite inputs are usage errors or one method's nan, never a traceback."""

    HUGE = ["--t", "1", "--L", "300", "--fy", "300", "--fc", "30"]
    LONG = ["--D", "100", "--t", "5", "--L", "1e200", "--fy", "300", "--fc", "30"]
    SLENDER = ("ec4", "aisc", "cisc")  # (K*L)**2 overflows in each of them

    @pytest.mark.parametrize("D", ["1e80", "1e100"])
    def test_predict_huge_second_moment_gives_every_load(self, capsys, D):
        code, out, err = run(capsys, ["predict", "--D", D, *self.HUGE, "--format", "json"])
        assert code == 0, err
        loads = [p["Nu_kN"] for p in _strict_json(out)["predictions"]]
        assert len(loads) == 13 and all(isinstance(n, float) and math.isfinite(n) for n in loads)

    @pytest.mark.parametrize("method", ["all", "aci"])
    def test_predict_non_finite_areas_exit_2(self, capsys, method):
        code, out, err = run(capsys, ["predict", "--D", "1e200", *self.HUGE, "--method", method])
        assert code == 2
        assert out == ""
        assert "error: A_c must be finite" in err

    def test_predict_overflowing_formula_reports_nan_for_its_method_only(self, capsys):
        code, out, err = run(capsys, ["predict", *self.LONG, "--format", "json"])
        assert code == 0, err
        by_method = {p["method"]: p for p in _strict_json(out)["predictions"]}
        for method, p in by_method.items():
            if method in self.SLENDER:
                assert p["Nu_kN"] is None and p["intermediates"] == {}
                assert p["diagnostics"] == [
                    f"{ARITHMETIC_ERROR}: OverflowError: (34, 'Numerical result out of range')"]
            else:
                assert math.isfinite(p["Nu_kN"])
        code, out, _ = run(capsys, ["predict", *self.LONG])
        assert code == 0
        for line in out.splitlines()[1:]:
            if line.split()[0] in self.SLENDER:
                assert line.split()[1] == "nan" and ARITHMETIC_ERROR in line

    def test_batch_row_whose_formula_overflows_keeps_every_other_load(self, capsys, tmp_path):
        text = ",".join(CSV_HEADER) + "\n" + \
            "first,100,5,300,300,450,200000,30,CYL150,20,650\n" + \
            "long,100,5,1e200,300,,,30,,,650\n" + \
            "last,100,5,300,300,450,200000,30,CYL150,20,650\n"
        source = tmp_path / "huge.csv"
        source.write_text(text)
        rows_out, summary_out = tmp_path / "rows.csv", tmp_path / "summary.json"
        code, _, err = run(capsys, ["batch", "--input", str(source), "--method", "all",
                                    "--out", str(rows_out), "--summary-out", str(summary_out)])
        assert code == 0, err
        lines = rows_out.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [r["source_id"] for r in rows] == ["first", "long", "last"]
        assert all(len(line.split(",")) == len(header) for line in lines)
        assert all(r["error"] == "" for r in rows)
        loads = {m.value: rows[1][f"Nu_{m.value}_kN"] for m in MethodId}
        assert sorted(m for m, n in loads.items() if n == "nan") == sorted(self.SLENDER)
        assert sum(math.isfinite(float(n)) for n in loads.values()) == 10
        for method in self.SLENDER:
            assert f"{method}: {ARITHMETIC_ERROR}: OverflowError" in rows[1]["diagnostics"]
        summary = _strict_json(summary_out.read_text())
        assert summary["n_rows"] == 3
        assert all(s["n_total"] == 3 for s in summary["summaries"])
        by_method = {s["method"]: s for s in summary["summaries"]}
        # the row passes CISC's gate but gives it no ratio; ACI's takes all three
        assert by_method["cisc"]["n_applicable"] == 3 and by_method["cisc"]["std"] == 0.0
        assert by_method["aci"]["n_applicable"] == 3

    def test_batch_row_whose_core_force_underflows_is_a_row_error(self, capsys, tmp_path):
        source = tmp_path / "tiny.csv"
        source.write_text(",".join(CSV_HEADER) + "\n" + "ok,100,5,300,300,,,30,,,650\n"
                          "tiny,1e-100,1e-101,1,300,,,1e-250,,,650\n"
                          "last,100,5,300,300,,,30,,,650\n")
        rows_out = tmp_path / "rows.csv"
        code, _, err = run(capsys, ["batch", "--input", str(source), "--method", "aci",
                                    "--out", str(rows_out), "--summary-out", str(tmp_path / "s.json")])
        assert code == 0, err
        rows = rows_out.read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["ok", "tiny", "last"]
        assert "A_c*f_c must be positive" in rows[1]

    @pytest.mark.parametrize("command", [["curve", "concrete"], ["cdpm", "--L", "300"], ["respond"]],
                             ids=["curve-concrete", "cdpm", "respond"])
    def test_strength_whose_square_overflows_fails_the_peak_strain_check(self, capsys, command):
        # f_c**2 overflows above about 1.34e154 MPa: eps_c0 is -inf, not an OverflowError
        code, out, err = run(capsys, [*command, "--D", "100", "--t", "5", "--fy", "300",
                                      "--fc", "1e200"])
        assert (code, out) == (2, "")
        assert err == "error: peak-strain regression gives eps_c0 = -inf <= 0 at f_c=1e+200 MPa\n"

    def test_respond_overflow_is_still_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["respond", "--D", "100", "--t", "5", "--fy", "300",
                                      "--fc", "1e-70"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: OverflowError")


class TestHugeValueCells:
    """From 1e16 on, a load or strength cell is the float's repr, not a 300-digit fixed point."""

    HUGE = ["--D", "1e80", "--t", "1", "--L", "300", "--fy", "300", "--fc", "30"]

    @pytest.mark.parametrize("value, spec, text", [
        (123.45, "%.1f", "123.5"), (-0.04, "%.1f", "-0.0"), (9999999999999998.0, "%.1f",
         "9999999999999998.0"), (1e16, "%.1f", "1e+16"), (-2.5e300, "%.4f", "-2.5e+300"),
        (-1.7976931348623157e308, "%.1f", "-1.7976931348623157e+308"),
        (math.nan, "%.1f", "nan"), (math.inf, "%.4f", "inf"), (-math.inf, "%.1f", "-inf"),
    ])
    def test_rule(self, value, spec, text):
        assert _cell(value, spec) == text

    def test_predict_table_and_csv(self, capsys):
        code, out, err = run(capsys, ["predict", *self.HUGE, "--method", "aci", "--format", "json"])
        assert code == 0, err
        (pred,) = _strict_json(out)["predictions"]
        assert pred["Nu_kN"] > 1e16
        code, out, _ = run(capsys, ["predict", *self.HUGE, "--method", "aci"])
        assert code == 0
        assert out.splitlines()[1].split()[1] == repr(pred["Nu_kN"])
        assert len(out.splitlines()[1]) < 100  # 222 characters when written at .1f
        code, out, _ = run(capsys, ["predict", *self.HUGE, "--method", "aci", "--format", "csv"])
        assert code == 0
        (row,) = [line for line in out.splitlines() if line.startswith("aci,")]
        assert row.split(",")[1] == repr(pred["Nu_kN"])

    @given(st.floats())
    @example(9999999999999998.0 * 1e3)
    @example(1e19)
    def test_batch_load_cell_matches_the_rounded_kn_cell(self, newtons):
        # the text and CSV cell of N_u / 1e3 is that of the JSON's round(N_u / 1e3, 1)
        assert _cell(newtons / 1e3) == _cell(round(newtons / 1e3, 1))

    def test_respond_cells_and_peak_line(self, capsys):
        code, out, err = run(capsys, ["respond", *taken(["respond"], self.HUGE)])
        assert code == 0, err
        response = response_curve(build_column(1e80, 1.0, 300.0, 300.0, 30.0), 0.03)
        cells = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert cells == [_cell(load / 1e3) for _, load in response.points]
        assert max(map(len, cells)) <= 24 and "e+" in cells[-1]
        assert float(cells[-1]) == response.points[-1][1] / 1e3
        assert err == (f"peak {round(response.peak_load / 1e3, 1)!r} kN at strain "
                       f"{response.peak_strain:.6g}\n")

    def test_batch_load_and_strength_cells(self, capsys, tmp_path):
        text = ",".join(CSV_HEADER) + "\nbig,100,5,300,300,,,1e300,,,650\nr1,100,5,300,300,,,30,,,650\n"
        source = tmp_path / "big.csv"
        source.write_text(text)
        rows_out = tmp_path / "rows.csv"
        code, _, err = run(capsys, ["batch", "--input", str(source), "--method", "aci,proposed",
                                    "--out", str(rows_out), "--summary-out", str(tmp_path / "s.json")])
        assert code == 0, err
        lines = rows_out.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        methods = (MethodId.ACI, MethodId.PROPOSED)
        expected, _ = evaluate_dataset(parse_dataset(text).records, methods)
        for row, result in zip(rows, expected):
            assert row["fc_MPa"] == _cell(result.f_c, "%.4f")
            for m, p in zip(methods, result.predictions):
                assert row[f"Nu_{m.value}_kN"] == _cell(p.N_u / 1e3)
        assert rows[0]["fc_MPa"] == repr(expected[0].f_c) and rows[1]["fc_MPa"] == "30.0000"
        assert rows[0]["Nu_aci_kN"] == repr(expected[0].predictions[0].N_u / 1e3)
        assert max(map(len, lines)) < 300


def _batch_summary(capsys, tmp_path, rows, method):
    """Run ``cfstcol batch`` on dataset rows, assert it succeeds and return the summary text."""
    source = tmp_path / "rows.csv"
    source.write_text(",".join(CSV_HEADER) + "\n" + "".join(f"{r}\n" for r in rows))
    summary_out = tmp_path / "summary.json"
    code, _, err = run(capsys, ["batch", "--input", str(source), "--method", method,
                                "--out", str(tmp_path / "out.csv"),
                                "--summary-out", str(summary_out)])
    assert code == 0, err
    return summary_out.read_text()


# N_test near the float maximum over a tiny column: each N_test/N_u ratio is huge
TINY_ROW = "a,3,0.4,9,200,,,20,,,1.7e308"  # ACI N_u 0.7 kN: the ratio overflows to inf
SMALL_ROW = "a,4,0.5,12,200,,,20,,,1.7e308"  # ACI N_u 1.2 kN: a finite ratio near 1.4e308
# de_oliveira as printed is negative above L/D = 3: ratios of -inf and about -1.5e308
NEGATIVE_INF_ROW = "b,4,0.5,36,200,,,20,,,1.7e308"
NEGATIVE_ROW = "b,6,0.75,54,200,,,20,,,1.7e308"


class TestStrictJson:
    """Every JSON document cfstcol writes parses without NaN or Infinity tokens."""

    def test_predict_writes_a_non_finite_load_as_null(self, capsys):
        code, out, err = run(capsys, ["predict", "--D", "100", "--t", "40", "--L", "300",
                                      "--fy", "120", "--fc", "100", "--method", "oshea",
                                      "--format", "json"])
        assert code == 0, err
        (pred,) = _strict_json(out)["predictions"]
        assert pred["Nu_kN"] is None
        assert pred["intermediates"]["sigma_cp"] is None
        assert pred["diagnostics"]

    def test_batch_writes_an_infinite_mean_as_null(self, capsys, tmp_path):
        summary = _strict_json(_batch_summary(capsys, tmp_path, [TINY_ROW], "aci"))
        assert summary["summaries"][0]["mean"] is None


class TestSummaryBeyondFloatRange:
    """Rows that parse never abort the summary, however large their ratios."""

    def test_mean_whose_sum_overflows_equals_the_one_row_mean(self, capsys, tmp_path):
        one = _strict_json(_batch_summary(capsys, tmp_path, [SMALL_ROW], "aci"))["summaries"][0]
        two = _strict_json(_batch_summary(capsys, tmp_path, [SMALL_ROW] * 2, "aci"))["summaries"][0]
        assert one["mean"] > 1e308
        assert two["mean"] == one["mean"]
        assert two["std"] == 0.0 and two["cov"] == 0.0

    def test_infinite_ratios_of_both_signs_give_a_null_mean(self, capsys, tmp_path):
        text = _batch_summary(capsys, tmp_path, [TINY_ROW, NEGATIVE_INF_ROW], "de_oliveira")
        s = _strict_json(text)["summaries"][0]
        assert (s["n_applicable"], s["mean"], s["std"], s["cov"]) == (2, None, None, None)

    def test_std_beyond_the_float_range_is_null(self, capsys, tmp_path):
        text = _batch_summary(capsys, tmp_path, [SMALL_ROW, NEGATIVE_ROW], "de_oliveira")
        s = _strict_json(text)["summaries"][0]
        assert math.isfinite(s["mean"]) and s["std"] is None

    def test_load_that_underflows_in_kn_gives_no_ratio(self, capsys, tmp_path):
        # Liu's load here is about 1.9e-321 N: finite and nonzero, but 0.0 in kN
        row = "a,100,5,300,300,,,30,,,700"
        text = _batch_summary(capsys, tmp_path, [row, "b,3e-162,3e-163,3e-162,300,,,30,,,700", row],
                              "liu")
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["a", "b", "a"]
        s = _strict_json(text)["summaries"][0]
        (expected,) = evaluate_dataset(parse_dataset(",".join(CSV_HEADER) + f"\n{row}\n").records,
                                       (MethodId.LIU,))[1]
        assert (s["n_applicable"], s["n_total"]) == (3, 3)
        assert s["mean"] == expected.mean and s["std"] == 0.0


# flags that these subcommands would not read: each is a usage error
REMOVED_FLAGS = [pytest.param(command, flag, value, id=f"{' '.join(command)} {flag}")
                 for command in (["curve", "steel"], ["cdpm"], ["respond"])
                 for flag, value in (("--ke", "0.9"), ("--keff", "2"), ("--rcc", "3"),
                                     ("--oliveira-mode", "corrected"), ("--format", "json"))]
REMOVED_FLAGS += [pytest.param(list(command), flag, "cube150" if flag == "--fc-kind" else "10",
                               id=f"{' '.join(command)} {flag}")
                  for command, flags in NOT_TAKEN.items() for flag in flags]
REMOVED_FLAGS.append(pytest.param(["batch", "--input", "specimens.csv"], "--format", "json",
                                  id="batch --format"))


def _without(flag):
    """R1's column flags without ``flag`` and its value."""
    return [arg for pair in zip(R1_ARGS[::2], R1_ARGS[1::2]) if pair[0] != flag for arg in pair]


class TestUsage:
    @pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
    def test_flag_the_subcommand_does_not_read_exits_2(self, capsys, command, flag, value):
        column = taken(command, R1_ARGS) if command[0] != "batch" else []
        with pytest.raises(SystemExit) as exc:
            main([*command, *column, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # reported by the subcommand under its own usage line, not by the top-level parser
        words = " ".join(itertools.takewhile(lambda word: not word.startswith("-"), command))
        assert err.startswith(f"usage: cfstcol {words} [-h]")
        assert err.endswith(f"cfstcol {words}: error: unrecognized arguments: {flag} {value}\n")

    @pytest.mark.parametrize("material", ["steel", "concrete"])
    def test_curve_material_flag_exits_2(self, capsys, material):
        command = ["curve", "--material", material]
        with pytest.raises(SystemExit) as exc:
            main([*command, *taken(["curve", material], R1_ARGS)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --material" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["curve", "concrete"], ["cdpm"], ["respond"]])
    def test_ec_override_changes_single_column_output(self, capsys, command):
        _, plain, _ = run(capsys, [*command, *taken(command, R1_ARGS)])
        code, stiff, err = run(capsys, [*command, *taken(command, R1_ARGS), "--ec", "60000"])
        assert code == 0, err
        assert stiff != plain

    def test_readme_flag_list_matches_the_parser(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### Flags\n", 1)[1].split("\n#", 1)[0]
        listed = [line for line in section.splitlines() if line.startswith("- ")]

        def commands(name, parser):
            """Each command under ``parser`` (named ``name``) and the parser that runs it."""
            subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subparsers:
                yield name, parser
            for sub in subparsers:
                for child, subparser in sub.choices.items():
                    yield from commands(f"{name} {child}".lstrip(), subparser)
        expected = []
        for name, sub in commands("", build_parser()):
            flags = [a.option_strings[-1] for a in sub._actions if a.option_strings[-1] != "--help"]
            expected.append(f"- `{name}`: " + ", ".join(f"`{flag}`" for flag in flags))
        assert listed == expected

    def test_oliveira_mode_choices_are_the_modes_hyphenated(self):
        assert OLIVEIRA_MODES == tuple(m.value.replace("_", "-") for m in OliveiraMode)
        for mode in OLIVEIRA_MODES:
            assert main(["predict", *R1_ARGS, "--method", "de_oliveira", "--oliveira-mode", mode]) == 0

    @pytest.mark.parametrize("argv", [["predict", *R1_ARGS], ["batch", "--input", "specimens.csv"]])
    def test_settings_without_their_flags_are_the_library_defaults(self, argv):
        """The settings flags' defaults are literals, so that building the parser loads no
        capacity code; they must read as DEFAULT_SETTINGS."""
        assert _settings(build_parser().parse_args(argv)) == DEFAULT_SETTINGS

    @pytest.mark.parametrize("argv", [["--fy", "300", "curve", "steel", "--fy", "300"],
                                      ["--fy", "curve", "steel", "--fy", "300"]])
    def test_flag_before_the_subcommand_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cfstcol [-h] {predict,curve,cdpm,respond,batch} ...\n")
        assert err.endswith("cfstcol: error: unrecognized arguments: --fy\n")

    def test_double_dash_before_the_subcommand_is_dropped(self, capsys):
        """A leading -- ends the top-level options, of which there are none."""
        _, plain, _ = run(capsys, ["predict", *R1_ARGS])
        code, out, err = run(capsys, ["--", "predict", *R1_ARGS])
        assert (code, out, err) == (0, plain, "")

    @pytest.mark.parametrize("argv,stray", [
        (["-", "predict", *R1_ARGS], "-"),
        (["--", "--fy", "300", "curve", "steel", "--fy", "300"], "--fy"),
        (["--", "--", "predict", *R1_ARGS], "--"),
    ], ids=["dash", "flag-after-double-dash", "second-double-dash"])
    def test_dash_or_flag_before_the_subcommand_exits_2(self, capsys, argv, stray):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cfstcol [-h] {predict,curve,cdpm,respond,batch} ...\n")
        assert err.endswith(f"cfstcol: error: unrecognized arguments: {stray}\n")

    @pytest.mark.parametrize("help_flag", ["-h", "--h", "--he", "--help"])
    def test_help_before_the_subcommand_prints_the_top_level_help(self, capsys, help_flag):
        with pytest.raises(SystemExit) as exc:
            main([help_flag, "curve"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cfstcol [-h] {predict,curve,")

    @pytest.mark.parametrize("spec", ["aci,all", "all,aci", "ALL, aci"])
    @pytest.mark.parametrize("command", ["predict", "batch"])
    def test_all_beside_other_methods_exits_2(self, capsys, tmp_path, command, spec):
        rest = R1_ARGS if command == "predict" else ["--input", str(tmp_path / "absent.csv")]
        code, out, err = run(capsys, [command, *rest, "--method", spec])
        assert (code, out) == (2, "")
        assert err == f"error: method 'all' stands alone, not beside other ids: {spec!r}\n"

    def test_zero_settings_factor_exits_2(self, capsys):
        code, _, err = run(capsys, ["predict", *R1_ARGS, "--ke", "0"])
        assert code == 2
        assert err == "error: all settings factors must be positive\n"

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--D", "100"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,missing", [
        *[pytest.param(["predict", *_without(flag)], flag, id=f"predict {flag}")
          for flag in ("--D", "--t", "--L", "--fy", "--fc")],
        pytest.param(["batch"], "--input", id="batch --input"),
        pytest.param(["curve"], "material", id="curve material"),
        pytest.param([], "command", id="command"),
    ])
    def test_each_missing_required_argument_is_named(self, capsys, argv, missing):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: the following arguments are required: {missing}\n")

    @pytest.mark.parametrize("flag,value", [("--format", "xml"), ("--fc-kind", "cube200"),
                                            ("--oliveira-mode", "foo")])
    def test_a_value_outside_the_choices_is_an_invalid_choice(self, capsys, flag, value):
        # without choices, --fc-kind and --oliveira-mode would still exit 2, through the enum
        with pytest.raises(SystemExit) as exc:
            main(["predict", *R1_ARGS, flag, value])
        assert exc.value.code == 2
        assert f"cfstcol predict: error: argument {flag}: invalid choice: {value!r}" in \
            capsys.readouterr().err

    def test_oliveira_mode_reaches_the_formula(self, capsys, tmp_path):
        column = ["--D", "100", "--t", "5", "--L", "800", "--fy", "300", "--fc", "30"]
        code, out, err = run(capsys, ["predict", *column, "--method", "de_oliveira",
                                      "--format", "json", "--oliveira-mode", "corrected"])
        assert code == 0, err
        (prediction,) = json.loads(out)["predictions"]
        corrected = PredictionSettings(oliveira_mode=OliveiraMode.CORRECTED)
        N_u = predict_oliveira(build_column(100, 5, 800, 300, 30), corrected).N_u
        assert prediction["Nu_kN"] == round(N_u / 1e3, 1) == 525.8  # -239.0 as printed
        assert prediction["diagnostics"] == []
        source = tmp_path / "specimens.csv"
        source.write_text(batch_fixture_text())
        summary = tmp_path / "summary.json"
        code, _, err = run(capsys, ["batch", "--input", str(source), "--method", "de_oliveira",
                                    "--oliveira-mode", "corrected", "--summary-out", str(summary)])
        assert code == 0, err
        assert json.loads(summary.read_text())["config"]["oliveira_mode"] == "corrected"


class TestClosedStdout:
    """A reader that stops early ends the command with status 1 and no traceback."""

    @pytest.mark.parametrize("argv", [
        ["batch", "--method", "all", "--input", str(GOLDEN / "batch_input.csv"),
         "--summary-out", "summary.json"],
        ["curve", "steel", "--fy", "300", "--n", "200000"],
        ["predict", *R1_ARGS],  # all of it buffered until the flush at the end
    ], ids=["batch", "curve-steel", "predict"])
    def test_in_a_child_process(self, tmp_path, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")]))
        env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as it is on a pipe by default
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "cfstcol.cli", *argv], cwd=tmp_path,
                                  env=env, stdout=write, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_in_process(self, monkeypatch):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w", encoding="utf-8") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["predict", *R1_ARGS]) == 1
            monkeypatch.undo()
