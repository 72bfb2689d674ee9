"""The single-column golden cases: each column of COLUMNS under each subcommand of
COMMANDS, given the column flags that subcommand takes, and the file under ``golden/``
that holds its stdout followed by its stderr.

A plain module, so that ``tests/test_golden.py`` and the golden step of
``tools/ci_checks.py`` run the same cases without the latter importing pytest.
"""

from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

R1_ARGS = ["--D", "100", "--t", "5", "--L", "300", "--fy", "300", "--fu", "450",
           "--Es", "200000", "--fc", "30"]
# the column flags that a single-column subcommand does not take, since its output
# does not depend on them
NOT_TAKEN = {("curve", "steel"): ("--D", "--t", "--L", "--fc", "--fc-kind", "--dmax", "--ec"),
             ("curve", "concrete"): ("--L", "--fu", "--Es", "--dmax"),
             ("respond",): ("--L", "--dmax")}

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


def taken(command, column):
    """The flag-value pairs of ``column`` that the subcommand ``command`` takes."""
    skip = NOT_TAKEN.get(tuple(command), ())
    return [arg for flag, value in zip(column[::2], column[1::2]) if flag not in skip
            for arg in (flag, value)]


def golden_case(column, command):
    """The arguments of the column named ``column`` under the subcommand named ``command``,
    and the golden file of their output."""
    argv = [*COMMANDS[command], *taken(COMMANDS[command], COLUMNS[column])]
    return argv, GOLDEN / f"{column}_{command}.txt"
