"""Single-column CLI outputs compared byte for byte with committed golden files.

The files under ``golden/`` hold stdout followed by stderr of ``respond``,
``cdpm``, ``curve`` (steel and concrete) and ``predict`` (table, json and
csv) for the reference column R1, a high-strength cube-tested column with a 10 mm
aggregate, two columns that between them break every applicability
limit on every side it has (a thin, low-strength, squat tube and a thick,
high-strength, slender one), and a column whose f_y = f_u = 900 MPa and
f_c = 120 MPa raise every flag of the steel curve and the peak-strain
regression, so that the ``validity:`` lines are pinned too.
``batch_input.csv`` is a hand-written dataset covering every ``fc_kind``
spelling, empty optional cells, a strength that cannot be converted, each
kind of row error and rows that fire every diagnostic; ``batch --method
all`` on it must reproduce ``batch_all_rows.csv`` and
``batch_all_summary.json``.  Any change to the curve arithmetic, the
sampling grid, the number formatting or the applicability gating (its
limit texts, bounds and actual values at full ``repr`` precision) shows up
here as a byte difference.
"""

from pathlib import Path

import pytest

from cfstcol.cli import main

from test_cli import R1_ARGS, taken

GOLDEN = Path(__file__).parent / "golden"

COLUMNS = {
    "r1": R1_ARGS,
    "hsc_cube": ["--D", "219", "--t", "3", "--L", "650", "--fy", "460", "--fc", "95",
                 "--fc-kind", "cube150", "--dmax", "10"],
    "thin_squat": ["--D", "540", "--t", "2", "--L", "270", "--fy", "200", "--fc", "15"],
    "thick_slender": ["--D", "200", "--t", "20", "--L", "2400", "--fy", "600", "--fc", "80"],
    "flagged": ["--D", "100", "--t", "5", "--L", "300", "--fy", "900", "--fu", "900",
                "--fc", "120"],
}
COMMANDS = {
    "respond": ["respond"],
    "cdpm": ["cdpm"],
    "curve_steel": ["curve", "steel"],
    "curve_concrete": ["curve", "concrete"],
    "predict_table": ["predict"],
    "predict_json": ["predict", "--format", "json"],
    "predict_csv": ["predict", "--format", "csv"],
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("column", COLUMNS)
def test_output_matches_golden_file(capsys, column, command):
    assert main([*COMMANDS[command], *taken(COMMANDS[command], COLUMNS[column])]) == 0
    captured = capsys.readouterr()
    expected = (GOLDEN / f"{column}_{command}.txt").read_text(encoding="utf-8")
    assert captured.out + captured.err == expected


def test_batch_matches_golden_files(capsys, tmp_path):
    rows, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
    argv = ["batch", "--method", "all", "--input", str(GOLDEN / "batch_input.csv"),
            "--out", str(rows), "--summary-out", str(summary)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert rows.read_bytes() == (GOLDEN / "batch_all_rows.csv").read_bytes()
    assert summary.read_bytes() == (GOLDEN / "batch_all_summary.json").read_bytes()
