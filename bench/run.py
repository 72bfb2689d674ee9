"""cfstcol benchmark: seeded workloads against the library and its CLI.

Run from the repository root:

    python3 bench/run.py --workload batch-all --seed 1 --seconds 20 --trace 0

Workloads (see NOTES.md for why each was chosen):

* ``batch-all``     ``cfstcol batch`` with all 13 methods, one fresh child
                    process per call, on a seeded specimen database.
* ``batch-ingest``  ``cfstcol batch --method aci`` on a larger, messier
                    spreadsheet-export file (empty, malformed and quoted cells).
* ``column-sweep``  in-process single-column use: ``predict_all``,
                    ``response_curve`` and ``render_cdpm_card`` per column.

All are closed loops with one caller.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped.  Times are reported in units of a fixed
reference workload timed between the program's calls (``ref``), so that the
shared host's changing speed cancels out; the raw figures are printed too.
``--trace 1`` runs the same calls in-process,
alternating untraced and traced ones, and reports per-layer metrics from
the traced calls plus the tracing overhead.  Every call's output is checked.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The program is imported from ``src/`` of this checkout and nothing
is installed; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# setup_s is the median of fresh-interpreter samples spread over the run,
# so that it sees the same machine as the other metrics
SETUP_EVERY_S = 2.0
CHILD_TIMEOUT_S = 120.0
SWEEP_WARMUP = 300  # columns run once before timing starts
SWEEP_CHUNK = 250  # calls per throughput sample in the sweep
SWEEP_EPS_MAX, SWEEP_POINTS = 0.03, 200
REF_EVERY_S = 1.0  # the sweep times the reference workload this often
REF_ITEMS = 10_000  # size of the reference workload; never change it


def reference_work() -> int:
    """A fixed pure-Python workload, independent of cfstcol, that yardsticks the host.

    It mixes what the program does: float arithmetic, small objects, dict
    lookups, sorting and string formatting, over a few MB of objects.
    """
    rng = random.Random(12345)
    rows = [(rng.random(), f"S{i:05d}", {"a": i, "b": i * 0.5}) for i in range(REF_ITEMS)]
    rows.sort()
    totals: dict[int, float] = {}
    for x, _, cells in rows:
        key = cells["a"] % 97
        totals[key] = totals.get(key, 0.0) + math.sqrt(x * 3.0 + 1.0) ** 1.5
    return len("\n".join(f"{x:.6f},{name},{cells['b']}" for x, name, cells in rows)) + len(totals)


def ref_sample() -> float:
    """Seconds the reference workload takes now: the median of three timings."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def bracketed(refs: list[float]) -> list[float]:
    """Reference time for each interval between consecutive samples."""
    return [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def load_program() -> None:
    """Put this checkout's ``src`` first on the path and prove cfstcol comes from it."""
    package = SRC / "cfstcol"
    if not (package / "__init__.py").is_file():
        print(f"error: program source not found at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cfstcol

    if Path(cfstcol.__file__).resolve().parent != package.resolve():
        print(f"error: cfstcol imported from {cfstcol.__file__}, not from {package}", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_sample(env: dict) -> float:
    """Seconds from spawning an interpreter to ``import cfstcol.cli`` done."""
    code = "import time, cfstcol.cli; print(repr(time.monotonic()))"
    started = time.monotonic()  # CLOCK_MONOTONIC is shared with the child
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return float(done.stdout) - started


def batch_argv(workload, data: Path, out_csv: Path, out_json: Path) -> list[str]:
    return ["batch", "--input", str(data), "--method", workload.methods,
            "--out", str(out_csv), "--summary-out", str(out_json)]


def run_child(argv: list[str], env: dict, stderr_path: Path):
    """Run ``cfstcol`` in a fresh child; returns (exit code, wall s, peak RSS MB)."""
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "cfstcol.cli", *argv], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


class Tally:
    """Operations are the workload's rows or columns, each counted once however often it ran.

    An operation fails when any of its runs fails, so ``attempted`` and
    ``failed`` depend on the seed alone, not on how many runs fit in the time.
    ``correct`` stays true while every failure is the known defect.
    """

    def __init__(self) -> None:
        self.ran: set[int] = set()
        self.failures: dict[int, set[str]] = {}
        self.correct = True

    def add(self, verdict, known_only: bool) -> None:
        self.ran.update(range(verdict.attempted))
        for op, reasons in verdict.reasons.items():
            self.failures.setdefault(op, set()).update(reasons)
        self.correct &= known_only

    @property
    def attempted(self) -> int:
        return len(self.ran)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def reasons(self) -> dict[str, int]:
        """Failed operations per failure reason."""
        counts: dict[str, int] = {}
        for reasons in self.failures.values():
            for r in reasons:
                counts[r] = counts.get(r, 0) + 1
        return counts


class BatchChecker:
    """Checks each batch output; identical bytes reuse the first verdict."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.seen: dict[tuple[str, str], object] = {}

    def __call__(self, returncode: int, out_csv: Path, out_json: Path):
        import check

        def read(p: Path) -> str:
            return p.read_text(encoding="utf-8") if p.is_file() else ""

        key = (read(out_csv), read(out_json)) if returncode == 0 else ("", "")
        if key not in self.seen:
            self.seen[key] = check.check_batch(self.workload, returncode, *key)
        verdict = self.seen[key]
        return verdict, check.only_known_defect(verdict, self.workload)


def batch_untraced(workload, seconds: float, tally: Tally) -> dict:
    env = child_env()
    data = OUT / f"{workload.name}.csv"
    data.write_text(workload.csv_text(), encoding="utf-8")
    out_csv, out_json, err = (OUT / f"{workload.name}.out.{ext}" for ext in ("csv", "json", "err"))
    checker = BatchChecker(workload)
    setups = [setup_sample(env)]
    walls, rss, refs = [], [], [ref_sample()]
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        for p in (out_csv, out_json):
            p.unlink(missing_ok=True)
        code, wall, peak = run_child(batch_argv(workload, data, out_csv, out_json), env, err)
        refs.append(ref_sample())
        if code != 0:
            sys.stderr.write(err.read_text(encoding="utf-8", errors="replace")[-2000:])
        walls.append(wall)
        rss.append(peak)
        tally.add(*checker(code, out_csv, out_json))
        setups.append(setup_sample(env))
    n = len(workload.rows)
    # each child in units of the reference workload timed just before and after it
    in_ref = [wall / ref for wall, ref in zip(walls, bracketed(refs))]
    print(f"{workload.name}: {len(walls)} child processes of cfstcol batch on {n} rows "
          f"(--method {workload.methods})")
    setup = statistics.median(setups)
    report = {
        "setup_s": (setup, "s"),
        "rows_per_s": (statistics.median(n / w for w in walls), "1/s"),
        "batch_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "ref_ms": (statistics.median(refs) * 1e3, "ms"),
        "rows_per_ref": (statistics.median(n / r for r in in_ref), "1/ref"),
        "batch_p50_ref": (statistics.median(in_ref), "ref"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    for name, (value, unit) in report.items():
        print(f"  {name:<16} {value:14.4f} {unit}")
    return {
        "setup_s": setup,
        "ops_per_ref": report["rows_per_ref"][0],
        "call_p50_ref": report["batch_p50_ref"][0],
        "peak_rss_mb": report["peak_rss_mb"][0],
    }


def column_inputs(workload):
    """Per row: (row, D, t, L, f_y, f_u, E_s, f_c measured, kind, d_max) as library values."""
    from cfstcol.section import SpecimenKind

    def num(row, name):
        cell = row.cell(name)
        return float(cell) if cell else None

    return [
        (row, num(row, "D_mm"), num(row, "t_mm"), num(row, "L_mm"), num(row, "fy_MPa"),
         num(row, "fu_MPa"), num(row, "Es_MPa"), num(row, "fc_measured_MPa"),
         SpecimenKind((row.cell("fc_kind") or "cyl150").upper()), num(row, "dmax_mm"))
        for row in workload.rows
    ]


def column_call(args):
    """One single-column user call, through the module attributes tracing wraps."""
    from cfstcol import capacity, cards, response, section

    _, D, t, L, f_y, f_u, E_s, fc, kind, d_max = args
    converted = section.convert_strength(section.MeasuredStrength(fc, kind))
    column = section.ColumnSpec(
        section.CircularSection(D, t, L),
        section.SteelMaterial(f_y, f_u, E_s),
        section.ConcreteMaterial(converted.f_c, d_max, None),
    )
    predictions = capacity.predict_all(column)
    curve = response.response_curve(column, SWEEP_EPS_MAX, SWEEP_POINTS)
    card = cards.render_cdpm_card(column)
    return converted.f_c, predictions, curve, card


def sweep_calls(columns, indices, tally: Tally, tracer=None) -> array:
    """Run and check the columns at ``indices`` once each; returns the seconds of each call that returned."""
    import check

    latencies = array("d")
    for index in indices:
        args = columns[index]
        if tracer is not None:
            tracer.request_id = index
        started = time.perf_counter()
        try:
            result = column_call(args)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            reasons = [f"raised {type(exc).__name__}"]
        else:
            latencies.append(time.perf_counter() - started)
            reasons = check.check_column(args[0], *result)
        tally.ran.add(index)
        if reasons:
            tally.failures.setdefault(index, set()).update(reasons)
            tally.correct = False
    return latencies


def sweep_untraced(workload, seconds: float, tally: Tally) -> dict:
    env = child_env()
    setups = [setup_sample(env)]
    columns = column_inputs(workload)
    sweep_calls(columns, range(min(SWEEP_WARMUP, len(columns))), Tally())
    # blocks of chunks between reference timings: per block, chunk rates and call latencies
    blocks: list[tuple[list[float], array]] = [([], array("d"))]
    refs = [ref_sample()]
    start = 0
    deadline = time.perf_counter() + seconds
    next_ref = time.perf_counter() + REF_EVERY_S
    next_setup = time.perf_counter() + SETUP_EVERY_S
    while len(refs) < 2 or time.perf_counter() < deadline:
        chunk = sweep_calls(columns, [(start + k) % len(columns) for k in range(SWEEP_CHUNK)], tally)
        start = (start + SWEEP_CHUNK) % len(columns)
        rates, latencies = blocks[-1]
        latencies.extend(chunk)
        if chunk:
            rates.append(len(chunk) / sum(chunk))
        if time.perf_counter() >= next_ref or time.perf_counter() >= deadline:
            refs.append(ref_sample())
            blocks.append(([], array("d")))
            next_ref = time.perf_counter() + REF_EVERY_S
        if time.perf_counter() >= next_setup:
            setups.append(setup_sample(env))
            next_setup = time.perf_counter() + SETUP_EVERY_S
    blocks.pop()  # opened after the last reference timing, so empty
    # read before the statistics below, whose sorted copies grow with the call count
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    latencies = array("d", (x for _, block in blocks for x in block))
    rates_in_ref = [rate * ref for (rates, _), ref in zip(blocks, bracketed(refs)) for rate in rates]
    latencies_in_ref = [x / ref for (_, block), ref in zip(blocks, bracketed(refs)) for x in block]
    cut = statistics.quantiles(latencies, n=100)
    setup = statistics.median(setups)
    print(f"{workload.name}: {len(latencies)} column calls over {len(columns)} columns "
          "(predict_all + response_curve + render_cdpm_card)")
    report = {
        "setup_s": (setup, "s"),
        "columns_per_s": (statistics.median(r for rates, _ in blocks for r in rates), "1/s"),
        "column_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "column_p99_ms": (cut[98] * 1e3, "ms"),
        "ref_ms": (statistics.median(refs) * 1e3, "ms"),
        "columns_per_ref": (statistics.median(rates_in_ref), "1/ref"),
        "column_p50_ref": (statistics.median(latencies_in_ref), "ref"),
        "peak_rss_mb": (peak, "MB"),
    }
    for name, (value, unit) in report.items():
        print(f"  {name:<16} {value:14.4f} {unit}")
    return {
        "setup_s": setup,
        "ops_per_ref": report["columns_per_ref"][0],
        "call_p50_ref": report["column_p50_ref"][0],
        "peak_rss_mb": peak,
    }


def layer_metrics(tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced call over ``ops`` rows or columns."""
    from check import METHODS

    agg = tracer.aggregate()

    def calls(span):
        return agg.get(span, (0, 0.0, 0.0))[0]

    def per_call_us(span, own=False):
        c, inclusive, self_s = agg.get(span, (0, 0.0, 0.0))
        return (self_s if own else inclusive) / c * 1e6 if c else 0.0

    def per_op_us(span, own=False):
        _, inclusive, self_s = agg.get(span, (0, 0.0, 0.0))
        return (self_s if own else inclusive) / ops * 1e6

    counts = tracer.counts
    m = {
        "cli.main.self_us_per_row": per_op_us("cli.main", own=True),
        "dataset.parse_dataset.us_per_row": per_op_us("dataset.parse_dataset"),
        "dataset.column_from_record.us_per_row": per_op_us("dataset.column_from_record"),
        "dataset.evaluate_dataset.self_us_per_row": per_op_us("dataset.evaluate_dataset", own=True),
        "dataset.row_errors": counts.get("row_errors", 0),
        "section.convert_strength.calls": calls("section.convert_strength"),
        "section.convert_strength.us": per_call_us("section.convert_strength"),
        "section.section_areas.calls_per_row": calls("section.section_areas") / ops,
        "section.section_second_moments.calls_per_row": calls("section.section_second_moments") / ops,
    }
    for method in METHODS:
        m[f"capacity.predict.{method}.self_us"] = per_call_us(f"capacity.predict.{method}", own=True)
    m["capacity.check_applicability.calls"] = calls("capacity.check_applicability")
    m["capacity.check_applicability.us"] = per_call_us("capacity.check_applicability")
    for method in METHODS:
        predicted = counts.get(f"predicted.{method}", 0)
        m[f"capacity.applicable_share.{method}"] = (
            counts.get(f"applicable.{method}", 0) / predicted if predicted else 0.0
        )
    m["capacity.predict_all.us"] = per_call_us("capacity.predict_all")
    for fname in ("steel_curve_params", "confined_concrete_params", "sample_grid",
                  "sample_concrete_curve", "cdpm_parameters"):
        m[f"materials.{fname}.us"] = per_call_us(f"materials.{fname}")
    m["materials.stress_evals_per_column"] = counts.get("stress_evals", 0) / ops
    m["response.response_curve.self_us"] = per_call_us("response.response_curve", own=True)
    m["cards.render_cdpm_card.self_us"] = per_call_us("cards.render_cdpm_card", own=True)
    return m


def traced_run(workload, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced in-process calls; per-layer medians plus overhead."""
    from spans import Tracer, traced

    if workload.name != "column-sweep":
        import check
        from cfstcol import cli

        data = OUT / f"{workload.name}.csv"
        data.write_text(workload.csv_text(), encoding="utf-8")
        checker = BatchChecker(workload)
        outputs = {mode: (OUT / f"{workload.name}.{mode}.csv", OUT / f"{workload.name}.{mode}.json")
                   for mode in ("untraced", "traced")}

        def call(mode, tracer=None):
            argv = batch_argv(workload, data, *outputs[mode])
            started = time.perf_counter()
            code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
            wall = time.perf_counter() - started
            if mode == "traced" and [p.read_bytes() for p in outputs["traced"]] != [
                    p.read_bytes() for p in outputs["untraced"]]:
                verdict = check.Verdict(len(workload.rows))
                verdict.fail_all("traced-output-differs")
                tally.add(verdict, False)
            else:
                tally.add(*checker(code, *outputs[mode]))
            return wall
    else:
        columns = column_inputs(workload)
        sweep_calls(columns, range(min(SWEEP_WARMUP, len(columns))), Tally())

        def call(mode, tracer=None):
            started = time.perf_counter()
            sweep_calls(columns, range(len(columns)), tally, tracer=tracer)
            return time.perf_counter() - started

    untraced_walls, traced_walls, per_call, first = [], [], [], None
    deadline = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < deadline:
        untraced_walls.append(call("untraced"))
        tracer = Tracer()
        with traced(tracer):
            traced_walls.append(call("traced", tracer))
        per_call.append(layer_metrics(tracer, len(workload.rows)))
        first = first or tracer
    spans = OUT / f"spans-{workload.name}.tsv"
    first.write(spans)
    metrics = {k: statistics.median(c[k] for c in per_call) for k in per_call[0]}
    metrics["trace.overhead_share"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
    print(f"{workload.name}: {len(traced_walls)} traced and {len(untraced_walls)} untraced calls; "
          f"{len(first.start)} spans of the first traced call in {spans}")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:14.4f}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch-all", "batch-ingest", "column-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind like an exception, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    load_program()
    import gen

    OUT.mkdir(exist_ok=True)
    workload = gen.build(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        metrics = traced_run(workload, args.seconds, tally)
    elif workload.name == "column-sweep":
        metrics = sweep_untraced(workload, args.seconds, tally)
    else:
        metrics = batch_untraced(workload, args.seconds, tally)
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  failed_share {share:.6f} ({tally.failed} of {tally.attempted} operations)"
          + (f"; reasons {dict(sorted(tally.reasons.items()))}" if tally.reasons else ""))
    print(json.dumps({
        "correct": tally.correct and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
