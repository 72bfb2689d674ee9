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
here as a byte difference.  The single-column cases are declared in
``golden_cases.py``, which the golden step of ``tools/ci_checks.py`` runs too.
"""

from collections import Counter

import pytest

from cfstcol import cards, cli, materials, response
from cfstcol.cli import main

from golden_cases import COLUMNS, COMMANDS, GOLDEN, golden_case


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("column", COLUMNS)
def test_output_matches_golden_file(capsys, column, command):
    argv, expected = golden_case(column, command)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out + captured.err == expected.read_text(encoding="utf-8")


def test_batch_matches_golden_files(capsys, tmp_path):
    rows, summary = tmp_path / "rows.csv", tmp_path / "summary.json"
    argv = ["batch", "--method", "all", "--input", str(GOLDEN / "batch_input.csv"),
            "--out", str(rows), "--summary-out", str(summary)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert rows.read_bytes() == (GOLDEN / "batch_all_rows.csv").read_bytes()
    assert summary.read_bytes() == (GOLDEN / "batch_all_summary.json").read_bytes()


@pytest.mark.parametrize("command,calls", [
    ("cdpm", {"confined_concrete_params": 1}),
    ("respond", {"steel_curve_params": 1, "confined_concrete_params": 1}),
    ("curve_steel", {"steel_curve_params": 1}),
    ("curve_concrete", {"confined_concrete_params": 1}),
])
def test_each_output_computes_its_curve_parameters_once(capsys, monkeypatch, command, calls):
    """The flags a subcommand prints come from the parameter set its numbers come from."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in ("steel_curve_params", "confined_concrete_params"):
        original = getattr(materials, name)
        wrapper = counted(name, original)
        # wrapped wherever a module these subcommands run binds it, as bench/spans.py does
        for module in (cards, cli, materials, response):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    argv, _ = golden_case("flagged", command)
    assert main(argv) == 0, capsys.readouterr().err
    assert counts == calls
