"""The gates of the CI workflow (.github/workflows/tests.yml) as one script.

Run from anywhere in a checkout:

    python tools/ci_checks.py [STEP ...] [--command CMD]

STEP is any of smoke, traced-batch-all, traced-batch-ingest, traced-column-sweep,
golden and cross-interpreter; with none, all run in that order.  Each step prints
``ok`` or ``FAIL``, and the exit status is 1 if any step failed.  The benchmark
steps run ``bench/run.py`` for two seconds on seed 1.  ``--command`` is the
cfstcol command the golden step runs, split on spaces (default: this
interpreter's ``python -m cfstcol.cli`` on ``src/`` of the checkout; CI passes
the installed ``cfstcol`` console script).  The cross-interpreter step runs the
batch under every pyenv interpreter from 3.10 on, and is skipped without pyenv.
"""

from __future__ import annotations

import argparse
import difflib
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
GOLDEN = ROOT / "tests" / "golden"
R1 = "--D 100 --t 5 --L 300 --fy 300 --fu 450 --Es 200000 --fc 30"
# a subcommand with the column flags it takes, and the golden file each must reproduce: the
# R1 column, and one that raises every flag of the steel curve and the peak-strain regression
GOLDEN_RUNS = (
    (f"predict {R1}", "r1_predict_table.txt"),
    (f"cdpm {R1}", "r1_cdpm.txt"),
    ("respond --D 100 --t 5 --fy 300 --fu 450 --Es 200000 --fc 30", "r1_respond.txt"),
    ("curve steel --fy 300 --fu 450 --Es 200000", "r1_curve_steel.txt"),
    ("curve concrete --D 100 --t 5 --fy 300 --fc 30", "r1_curve_concrete.txt"),
    ("respond --D 100 --t 5 --fy 900 --fu 900 --fc 120", "flagged_respond.txt"),
    ("cdpm --D 100 --t 5 --L 300 --fy 900 --fu 900 --fc 120", "flagged_cdpm.txt"),
    ("curve steel --fy 900 --fu 900", "flagged_curve_steel.txt"),
    ("curve concrete --D 100 --t 5 --fy 900 --fc 120", "flagged_curve_concrete.txt"),
)
# the bench/gen.py fixtures whose batch outputs must not depend on the interpreter
FIXTURES = ("batch-all", "batch-ingest")
# nor may they on a file of the records that readers disagree on or cannot read: after a
# byte-order mark, a 200 000-character cell, a NUL cell, nan, inf, 1e308, -0, a blank line,
# quoted fields, a two-line quoted cell, a NUL in one and a row error after them, each a
# row error or a value; last, a quoted 200 000-character cell whose second line reads as a
# valid record, and a valid row after it: one row error, then one record
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


def adversarial_outcome(summary_text: str) -> dict:
    """The entries of a batch summary's JSON text that ADVERSARIAL_OUTCOME pins."""
    summary = json.loads(summary_text)
    return {key: summary[key] for key in ADVERSARIAL_OUTCOME}


def _src_env() -> dict:
    """This process's environment with src/ of the checkout first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    """The final JSON line of a two-second seed-1 benchmark run, and its metric values."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    d = json.loads(out.splitlines()[-1])
    return d, {k: v["value"] for k, v in d["metrics"].items()}


def _spans(m: dict) -> list[str]:
    return [k for k in m if k.startswith("capacity.predict.") and k.endswith(".self_us")]


def smoke(command: list[str] | None) -> bool:
    """Every workload's outputs pass the benchmark's checker."""
    return all(_bench(w, 0)[0]["correct"] is True
               for w in ("batch-all", "batch-ingest", "column-sweep"))


def traced_batch_all(command: list[str] | None) -> bool:
    """Every prediction passes through the traced capacity.check_applicability, and the row
    loop dispatches through dataset.predict, where the 13 per-method spans live; the gate
    admits each method's seed-1 applicable count of the 9356 predicted rows, and the
    section's second moments are computed once per column built."""
    d, m = _bench("batch-all", 1)
    spans = _spans(m)
    applicable = {"ec4": 4686, "aisc": 2130, "cisc": 9356, "dbj": 1130, "aci": 4686,
                  "oshea": 9032, "yu": 424, "liu": 9356, "sun": 9356, "zhong_miao": 9356,
                  "guo": 6445, "de_oliveira": 8193, "proposed": 9356}
    return (d["correct"] is True and m["capacity.check_applicability.calls"] == 121628
            and round(m["section.section_second_moments.calls_per_row"] * 10000) == 9356
            and len(spans) == 13 and all(m[k] > 0 for k in spans)
            and all(round(m[f"capacity.applicable_share.{k}"] * 9356) == n
                    for k, n in applicable.items()))


def traced_batch_ingest(command: list[str] | None) -> bool:
    """Parsing validates rows without building value types: strength conversion runs once
    per parsed row, and the applicability gate and the second moments once per column
    built, all in column_from_record."""
    d, m = _bench("batch-ingest", 1)
    return (d["correct"] is True and m["section.convert_strength.calls"] == 38068
            and m["capacity.check_applicability.calls"] == 36086
            and round(m["section.section_second_moments.calls_per_row"] * 40000) == 36086)


def traced_column_sweep(command: list[str] | None) -> bool:
    """The in-process predict_all path: 13 methods x 3000 columns pass the applicability
    gate, predict_all dispatches through capacity.predict, where the per-method spans live,
    and each column computes its second moments once."""
    d, m = _bench("column-sweep", 1)
    spans = _spans(m)
    return (d["correct"] is True and m["capacity.check_applicability.calls"] == 39000
            and m["section.section_second_moments.calls_per_row"] == 1.0
            and len(spans) == 13 and all(m[k] > 0 for k in spans))


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


def golden(command: list[str] | None) -> bool:
    """The CLI's stdout and stderr in each of GOLDEN_RUNS, and its batch outputs on the
    golden input, are the goldens' bytes.  The command runs outside the checkout, so that an
    installed one imports nothing from src/."""
    env = None if command else _src_env()
    command = command or [sys.executable, "-m", "cfstcol.cli"]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for args, name in GOLDEN_RUNS:
            out = subprocess.run([*command, *args.split()], cwd=tmp, env=env, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.STDOUT).stdout
            ok &= _same(out, GOLDEN / name, args)
        ok &= _same_batch(_batch(command, tmp, env, "all", GOLDEN / "batch_input.csv"), "")
    return ok


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
    """Under every pyenv interpreter, the batch on the golden input gives the goldens, the
    batch on each seed-1 fixture and on the adversarial file exits 0 and gives the same
    bytes as under the oldest one, and the adversarial file gives ADVERSARIAL_OUTCOME."""
    pythons = _pyenv_pythons()
    if not pythons:
        print("cross-interpreter: skipped, no pyenv interpreter from 3.10 on")
        return True
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    import gen

    env = _src_env()
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = []
        for name in FIXTURES:
            workload = gen.build(name, 1)
            source = Path(tmp, f"{name}.csv")
            source.write_text(workload.csv_text(), encoding="utf-8")
            fixtures.append((name, workload.methods, source))
        source = Path(tmp, "adversarial.csv")
        source.write_text(ADVERSARIAL, encoding="utf-8")
        fixtures.append(("adversarial", "all", source))
        first: dict[str, tuple[str, str]] = {}
        for python in pythons:
            version = python.parent.parent.name
            print(f"cross-interpreter: Python {version}", flush=True)
            command = [str(python), "-m", "cfstcol.cli"]
            golden_input = GOLDEN / "batch_input.csv"
            ok &= _same_batch(_batch(command, tmp, env, "all", golden_input), f", Python {version}")
            for name, methods, source in fixtures:
                outputs = _batch(command, tmp, env, methods, source)
                if outputs is None:
                    ok = False
                    continue
                if name == "adversarial" and adversarial_outcome(outputs[1]) != ADVERSARIAL_OUTCOME:
                    print(f"cross-interpreter: adversarial outcome under Python {version}: "
                          f"{adversarial_outcome(outputs[1])}")
                    ok = False
                reference = first.setdefault(name, outputs)
                if outputs != reference:
                    print(f"cross-interpreter: {name} outputs under Python {version} differ from "
                          f"those under Python {pythons[0].parent.parent.name}")
                    ok = False
    return ok


STEPS = {
    "smoke": smoke,
    "traced-batch-all": traced_batch_all,
    "traced-batch-ingest": traced_batch_ingest,
    "traced-column-sweep": traced_column_sweep,
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
