"""Single-column CLI outputs compared byte for byte with committed golden files.

The files under ``golden/`` hold stdout followed by stderr of ``respond``,
``cdpm`` and ``curve`` (steel and concrete) for the reference column R1 and
for a high-strength cube-tested column with a 10 mm aggregate.  Any change
to the curve arithmetic, the sampling grid or the number formatting shows up
here as a byte difference.
"""

from pathlib import Path

import pytest

from cfstcol.cli import main

from test_cli import R1_ARGS

GOLDEN = Path(__file__).parent / "golden"

COLUMNS = {
    "r1": R1_ARGS,
    "hsc_cube": ["--D", "219", "--t", "3", "--L", "650", "--fy", "460", "--fc", "95",
                 "--fc-kind", "cube150", "--dmax", "10"],
}
COMMANDS = {
    "respond": ["respond"],
    "cdpm": ["cdpm"],
    "curve_steel": ["curve", "--material", "steel"],
    "curve_concrete": ["curve", "--material", "concrete"],
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("column", COLUMNS)
def test_output_matches_golden_file(capsys, column, command):
    assert main([*COMMANDS[command], *COLUMNS[column]]) == 0
    captured = capsys.readouterr()
    expected = (GOLDEN / f"{column}_{command}.txt").read_text(encoding="utf-8")
    assert captured.out + captured.err == expected
