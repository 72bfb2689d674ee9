"""The gates of the CI workflow (.github/workflows/tests.yml) as one script.

Run from anywhere in a checkout:

    python tools/ci_checks.py [STEP ...] [--command CMD]

STEP is any of imports, statements, traced, golden and cross-interpreter; with
none, all run in that order.  Each step prints ``ok`` or ``FAIL``, and the exit
status is 1 if any step failed.  The statements step is CI's tier-1 run: the
test suite under tests/, in this process with ``-W error``, Hypothesis seed 0 and
the ``gate`` profile of tests/conftest.py, which reads and writes no example
database (it needs pytest and hypothesis); it lists each statement of src/cfstcol/
left unexecuted.  The traced step runs each workload of ``bench/run.py`` once, for
two seconds on seed 1 with ``--trace 1``, and prints each TRACED pin it misses;
a run that exits non-zero or ends in no JSON line is a miss, and the next runs.
The golden step runs every single-column case of ``tests/golden_cases.py``, the
batch on the golden input, and the batch on each seed-1 batch fixture of
``bench/gen.py``, whose outputs must have the pinned SHA-256 digests of
FIXTURE_DIGESTS; ``--command`` is the cfstcol command it runs,
split on spaces (default: this interpreter's ``python -m cfstcol.cli`` on
``src/`` of the checkout; CI passes the installed ``cfstcol`` console script).
It also runs ``bench/run.py``'s call on each seed-1 column-sweep column in this
process, on ``src/``, and the results must have the SHA-256 of SWEEP_DIGEST.
The cross-interpreter step runs the golden step, then the batch on an adversarial
input, under every pyenv interpreter from 3.10 on, and is skipped without pyenv.
"""

from __future__ import annotations

import argparse
import ast
import difflib
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the golden cases that tests/test_golden.py runs, from a plain module of tests/
sys.path.insert(0, str(ROOT / "tests"))
from golden_cases import COLUMNS, COMMANDS, GOLDEN, golden_case

# the SHA-256 of the rows CSV and the summary JSON that the batch writes on the seed-1 input
# of each bench/gen.py batch workload, under every interpreter
FIXTURE_DIGESTS = {
    "batch-all": ("e10723a7742ec2c20df10fbc20bab21de932bacfe00e8a8f4b0fa0820b59c57e",
                  "b58ccd6492864a2f1268850813077424ee39de00733cf35a86cc69cffffc0111"),
    "batch-ingest": ("e2743b2dd18c9c9ab5477df53979837dcf254c756127d8e5746f1304db967e99",
                     "933a3703f83f3397e54012d2d85af5987d80b00f35233e4048666b731baa77b0"),
}
# the SHA-256 over the repr of each bench/run.py column_call result, (f_c, predictions,
# response, card), on the seed-1 column-sweep columns in order
SWEEP_DIGEST = "5c8d0b680cbd5de9bbc6c1bad53bd15f042a2080fc5827ed54d913504da41321"
# nor may the batch outputs depend on the interpreter on a file of the records that readers
# disagree on or cannot read: after a byte-order mark, a 200 000-character cell, a NUL cell,
# nan, inf, 1e308, -0, a blank line, quoted fields, a two-line quoted cell, a NUL in one and
# a row error after them, each a row error or a value; last, a quoted 200 000-character cell
# whose second line reads as a valid record, and a valid row after it: one row error, then
# one record
ADVERSARIAL = "\ufeff" + "\n".join([
    "source_id,D_mm,t_mm,L_mm,fy_MPa,fu_MPa,Es_MPa,fc_measured_MPa,fc_kind,dmax_mm,Ntest_kN",
    "ok,100,5,300,300,450,200000,30,CYL150,20,650",
    "x" * 200_000 + ",100,5,300,300,,,30,,,650",
    "nul,100,5,300,300,,,\0,,,650",
    "nan,100,5,300,300,,,nan,,,650",
    "inf,100,5,inf,300,,,30,,,650",
    "huge,100,5,300,300,,,30,,,1e308",
    "negative_zero,100,5,300,300,,,30,,-0,650",
    "",
    '"quoted, id",100,"5",300,300,,,30,"CYL150",,650',
    "after,219.1234,4.0125,657.3702,355.55555,,,41.234567,,,1234.56789",
    '"two\nlines",100,5,300,300,450,200000,30,CYL150,20,650',
    '"nul\0\nsecond",100,5,300,300,450,200000,30,CYL150,20,650',
    "nocore,100,50,300,300,,,30,,,650",
    '"' + "x" * 200_000 + '\nphantom",100,5,300,300,450,200000,30,CYL150,20,650',
    "ok_after,100,5,300,300,450,200000,30,CYL150,20,650",
]) + "\n"
# the records and row errors of its batch summary, the same under every interpreter
ADVERSARIAL_OUTCOME = {
    "n_rows": 7,
    "row_errors": [{"line": line, "message": message} for line, message in [
        (3, "unreadable record: field larger than field limit (131072)"),
        (4, "unreadable record: line contains NUL"),
        (5, "measured_strength must be finite, got nan"),
        (6, "L must be finite, got inf"),
        (14, "unreadable record: line contains NUL"),
        (16, "D=100 mm and t=50 mm leave no concrete core (need D > 2t)"),
        (17, "unreadable record: field larger than field limit (131072)"),
    ]],
}
# the traced step's pins on each workload's seed-1 run, metric: (total, operations), whose
# value must be total / operations; and whether each of the 13 per-method spans has time
TRACED = {
    # the gate's calls, each method's applicable rows of the 9356 predicted, and one
    # second-moment call per column built; the spans are timed in dataset.predict
    "batch-all": ({"capacity.check_applicability.calls": (121628, 1),
                   "section.section_second_moments.calls_per_row": (9356, 10_000),
                   **{f"capacity.applicable_share.{method}": (n, 9356) for method, n in {
                       "ec4": 4686, "aisc": 2130, "cisc": 9356, "dbj": 1130, "aci": 4686,
                       "oshea": 9032, "yu": 424, "liu": 9356, "sun": 9356, "zhong_miao": 9356,
                       "guo": 6445, "de_oliveira": 8193, "proposed": 9356}.items()}}, True),
    # one conversion per parsed row; one gate and one second-moment call per column built
    "batch-ingest": ({"section.convert_strength.calls": (38068, 1),
                      "capacity.check_applicability.calls": (36086, 1),
                      "section.section_second_moments.calls_per_row": (36086, 40_000)}, False),
    # predict_all gates 13 methods x 3000 columns and dispatches through capacity.predict
    "column-sweep": ({"capacity.check_applicability.calls": (39000, 1),
                      "section.section_second_moments.calls_per_row": (1, 1)}, True),
}


def adversarial_outcome(summary_text: str) -> dict:
    """The entries of a batch summary's JSON text that ADVERSARIAL_OUTCOME pins."""
    summary = json.loads(summary_text)
    return {key: summary[key] for key in ADVERSARIAL_OUTCOME}


def _src_env() -> dict:
    """This process's environment with src/ of the checkout first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def imports(command: list[str] | None) -> bool:
    """No file under src/, tests/, tools/ or bench/ imports a name that it never uses."""
    ok = True
    tops = ("src", "tests", "tools", "bench")
    for path in sorted(p for top in tops for p in (ROOT / top).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}  # the name an import binds, and the line of its first import
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:  # ``import a.b`` binds a
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in imported.items():
            if name not in used:
                print(f"{path.relative_to(ROOT)}:{line}: {name} is imported and never used")
                ok = False
    return ok


def _statement_lines(path: Path) -> set[int]:
    """The first line of each statement in ``path``, but docstrings and the
    ``if __name__ == "__main__":`` body."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            skipped.add(node.body[0])
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            skipped.update(n for statement in node.body for n in ast.walk(statement))
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in skipped}


def statements(command: list[str] | None) -> bool:
    """Tier-1 passes, run in this process under a line tracer with ``-W error``, a fixed
    Hypothesis seed and no example database, and executes every statement of src/cfstcol/
    but docstrings and the ``if __name__ == "__main__":`` body; each one it does not is
    listed as file:line."""
    import threading

    import pytest

    executed = {str(path): set() for path in sorted((SRC / "cfstcol").glob("*.py"))}

    def tracer(frame, event, arg):
        lines = executed.get(frame.f_code.co_filename)
        if lines is None:
            return None  # no line events for frames outside the package

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    for name in [m for m in sys.modules if m.split(".")[0] == "cfstcol"]:
        del sys.modules[name]  # imported again under the tracer, module bodies included
    sys.path.insert(0, str(SRC))
    cwd = os.getcwd()
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        ok = pytest.main(["-q", "-W", "error", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider", "--hypothesis-seed=0",
                          "--hypothesis-profile=gate", "tests"]) == 0
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os.chdir(cwd)
    for filename, lines in executed.items():
        for line in sorted(_statement_lines(Path(filename)) - lines):
            print(f"{Path(filename).relative_to(ROOT)}:{line}: statement not executed")
            ok = False
    return ok


def traced(command: list[str] | None) -> bool:
    """Each workload's seed-1 run with ``--trace 1`` is correct (run.traced_run checks the
    untraced and the traced output of every call, and that the two are the same bytes),
    every TRACED pin holds, and where asked, each of the 13 per-method spans has time."""
    ok = True
    for workload, (pins, spans) in TRACED.items():
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                               "--seconds", "2", "--trace", "1"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            d = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
        except (IndexError, ValueError):  # no output, or a last line that is not JSON
            d = None
        if d is None:  # the run's own traceback, if any, is already on stderr
            print(f"traced: {workload}: bench/run.py exited {done.returncode}")
            ok = False
            continue
        m = {k: v["value"] for k, v in d["metrics"].items()}
        misses = [f"{name} is {m[name]!r}, pinned at {total} of {operations}"
                  for name, (total, operations) in pins.items() if m[name] != total / operations]
        timed = sum(k.startswith("capacity.predict.") and m[k] > 0 for k in m)
        if spans and timed != 13:
            misses.append(f"{timed} of 13 capacity.predict.* spans have time")
        if d["correct"] is not True:
            misses.append("an output failed the benchmark's checker")
        for miss in misses:
            print(f"traced: {workload}: {miss}")
        ok &= not misses
    return ok


def _same(actual: str, expected: Path, label: str) -> bool:
    """Whether ``actual`` is the text of ``expected``; if not, print the difference."""
    want = expected.read_text(encoding="utf-8")
    if actual == want:
        return True
    diff = difflib.unified_diff(want.splitlines(True), actual.splitlines(True),
                                str(expected.relative_to(ROOT)), label)
    sys.stdout.writelines(list(diff)[:40])
    return False


def _batch(command: list[str], cwd: str, env: dict | None, methods: str,
           source: Path) -> tuple[str, str] | None:
    """The rows CSV and summary JSON that ``command batch`` writes for ``source``, or None,
    after printing the end of its stderr, if it exits non-zero."""
    done = subprocess.run([*command, "batch", "--method", methods, "--input", str(source),
                           "--out", "rows.csv", "--summary-out", "summary.json"],
                          cwd=cwd, env=env, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print(f"batch on {source.name} exited {done.returncode}: {done.stderr[-400:]}")
        return None
    return tuple(Path(cwd, name).read_text(encoding="utf-8") for name in ("rows.csv", "summary.json"))


def _same_batch(outputs: tuple[str, str] | None, label: str) -> bool:
    """Whether ``outputs`` are the golden batch files' text."""
    if outputs is None:
        return False
    return (_same(outputs[0], GOLDEN / "batch_all_rows.csv", f"batch rows{label}")
            & _same(outputs[1], GOLDEN / "batch_all_summary.json", f"batch summary{label}"))


def _bench_on_path() -> None:
    """Put src/ and bench/ of the checkout first on the path, once."""
    if str(ROOT / "bench") not in sys.path:
        sys.path[:0] = [str(SRC), str(ROOT / "bench")]


def _write_fixtures(directory: str) -> list[tuple[str, str, Path]]:
    """The seed-1 input of each FIXTURE_DIGESTS workload, written by bench/gen.py into
    ``directory``: the workload's name, its ``--method`` value and the file."""
    _bench_on_path()
    import gen

    fixtures = []
    for name in FIXTURE_DIGESTS:
        workload = gen.build(name, 1)
        source = Path(directory, f"{name}.csv")
        source.write_text(workload.csv_text(), encoding="utf-8")
        fixtures.append((name, workload.methods, source))
    return fixtures


def _golden(command: list[str], env: dict | None, fixtures: list[tuple[str, str, Path]],
            label: str = "") -> bool:
    """Whether ``command``'s stdout and stderr in each single-column golden case of
    tests/golden_cases.py, and its batch outputs on the golden input, are the goldens'
    bytes, and its batch outputs on each of ``fixtures`` have the FIXTURE_DIGESTS.  It runs
    outside the checkout, so that an installed command imports nothing from src/."""
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for column in COLUMNS:
            for name in COMMANDS:
                argv, expected = golden_case(column, name)
                out = subprocess.run([*command, *argv], cwd=tmp, env=env, text=True,
                                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT).stdout
                ok &= _same(out, expected, " ".join(argv) + label)
        ok &= _same_batch(_batch(command, tmp, env, "all", GOLDEN / "batch_input.csv"), label)
        for name, methods, source in fixtures:
            if _batch(command, tmp, env, methods, source) is None:
                ok = False
                continue
            digests = tuple(hashlib.sha256(Path(tmp, output).read_bytes()).hexdigest()
                            for output in ("rows.csv", "summary.json"))
            if digests != FIXTURE_DIGESTS[name]:
                print(f"batch on the {name} fixture{label}: SHA-256 {digests}, "
                      f"pinned at {FIXTURE_DIGESTS[name]}")
                ok = False
    return ok


def _same_sweep() -> bool:
    """Whether the seed-1 column-sweep results of bench/run.py's column_call, in this
    process on src/, have SWEEP_DIGEST; if not, print theirs."""
    _bench_on_path()
    import gen
    import run

    digest = hashlib.sha256()
    for args in run.column_inputs(gen.build("column-sweep", 1)):
        digest.update(repr(run.column_call(args)).encode())
    if digest.hexdigest() == SWEEP_DIGEST:
        return True
    print(f"column-sweep results: SHA-256 {digest.hexdigest()}, pinned at {SWEEP_DIGEST}")
    return False


def golden(command: list[str] | None) -> bool:
    """The golden cases through ``command``, or through this interpreter on src/, and the
    column-sweep results."""
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = _write_fixtures(tmp)
        if command:
            ok = _golden(command, None, fixtures)
        else:
            ok = _golden([sys.executable, "-m", "cfstcol.cli"], _src_env(), fixtures)
    return _same_sweep() & ok


def _pyenv_pythons() -> list[Path]:
    """The python of every pyenv version 3.10 or later, oldest first (none without pyenv)."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return []
    root = Path(subprocess.run([pyenv, "root"], stdout=subprocess.PIPE, text=True,
                               check=True).stdout.strip())
    versions = []
    for path in (root / "versions").iterdir() if (root / "versions").is_dir() else ():
        match = re.fullmatch(r"3\.(\d+)\.(\d+)", path.name)
        if match and int(match[1]) >= 10:
            versions.append(((int(match[1]), int(match[2])), path / "bin" / "python"))
    return [python for _, python in sorted(versions)]


def cross_interpreter(command: list[str] | None) -> bool:
    """Under every pyenv interpreter, the golden step passes, the pinned fixtures included,
    and the batch on the adversarial file exits 0, gives the same bytes as under the oldest
    one and gives ADVERSARIAL_OUTCOME."""
    pythons = _pyenv_pythons()
    if not pythons:
        print("cross-interpreter: skipped, no pyenv interpreter from 3.10 on")
        return True
    env = _src_env()
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = _write_fixtures(tmp)
        source = Path(tmp, "adversarial.csv")
        source.write_text(ADVERSARIAL, encoding="utf-8")
        first = None
        for python in pythons:
            version = python.parent.parent.name
            print(f"cross-interpreter: Python {version}", flush=True)
            command = [str(python), "-m", "cfstcol.cli"]
            ok &= _golden(command, env, fixtures, f", Python {version}")
            outputs = _batch(command, tmp, env, "all", source)
            if outputs is None:
                ok = False
                continue
            if adversarial_outcome(outputs[1]) != ADVERSARIAL_OUTCOME:
                print(f"cross-interpreter: adversarial outcome under Python {version}: "
                      f"{adversarial_outcome(outputs[1])}")
                ok = False
            first = first or outputs
            if outputs != first:
                print(f"cross-interpreter: adversarial outputs under Python {version} differ "
                      f"from those under Python {pythons[0].parent.parent.name}")
                ok = False
    return ok


STEPS = {
    "imports": imports,
    "statements": statements,
    "traced": traced,
    "golden": golden,
    "cross-interpreter": cross_interpreter,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("steps", nargs="*", metavar="STEP", help=", ".join(STEPS))
    parser.add_argument("--command", help="cfstcol command for the golden step")
    args = parser.parse_args(argv)
    unknown = [s for s in args.steps if s not in STEPS]
    if unknown:
        parser.error(f"unknown step {unknown[0]!r} (known: {', '.join(STEPS)})")
    command = args.command.split() if args.command else None
    failed = []
    for name in args.steps or STEPS:
        ok = STEPS[name](command)
        print(f"{name}: {'ok' if ok else 'FAIL'}", flush=True)
        if not ok:
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
