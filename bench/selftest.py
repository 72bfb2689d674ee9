"""Self-tests of the benchmark's generator, checker and tracer.

Run from the repository root with ``python3 -m pytest -q bench/selftest.py``.
The file name keeps these tests out of the library's default test run.
"""

from __future__ import annotations

import ast
import csv
import io
import json
from pathlib import Path

import pytest

import run

run.load_program()

import check  # noqa: E402  (needs the program on the path)
import gen  # noqa: E402
from cfstcol import cli  # noqa: E402

SMALL = {"batch-all": 300, "batch-ingest": 1500, "column-sweep": 40}


def small(name: str, seed: int = 3) -> gen.Workload:
    return gen.build(name, seed, size=SMALL[name])


def batch_outputs(workload: gen.Workload, tmp_path: Path) -> tuple[str, str]:
    data, out_csv, out_json = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "out.json"
    data.write_text(workload.csv_text(), encoding="utf-8")
    assert cli.main(run.batch_argv(workload, data, out_csv, out_json)) == 0
    return out_csv.read_text(encoding="utf-8"), out_json.read_text(encoding="utf-8")


def edit_csv(text: str, position: int, edit) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    edit(rows[0], rows[1 + position])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(gen.SIZES))
def test_generator_is_deterministic_per_seed(name):
    first, again, other = small(name, 5), small(name, 5), small(name, 6)
    assert first.csv_text() == again.csv_text()
    assert first.rows == again.rows
    assert first.csv_text() != other.csv_text()
    references = [row for row in first.rows if row.reference]
    assert len(references) == 1
    assert dict(zip(gen.CSV_HEADER, references[0].cells)) == gen.REFERENCE_CELLS
    assert [row.line for row in first.rows] == list(range(2, len(first.rows) + 2))


def test_ingest_carries_every_malformation():
    rows = gen.build("batch-ingest", 3, size=4000).rows
    expects = {row.expect for row in rows}
    assert expects == {gen.VALID, gen.PARSE_ERROR, gen.CONVERSION_ERROR}
    assert sum(row.comma_id for row in rows) == round(gen.COMMA_SHARE * len(rows))
    assert not any(row.comma_id and row.expect == gen.PARSE_ERROR for row in rows)


@pytest.mark.parametrize("name", ["batch-all", "batch-ingest"])
def test_program_meets_generator_expectations(name, tmp_path):
    workload = small(name)
    verdict = check.check_batch(workload, 0, *batch_outputs(workload, tmp_path))
    assert check.only_known_defect(verdict, workload)
    comma_rows = {op for op, row in enumerate(workload.rows) if row.comma_id}
    assert set(verdict.reasons) == comma_rows


def _valid_position(workload: gen.Workload) -> tuple[int, int]:
    """(row index, CSV data-row position) of the first valid non-reference row."""
    evaluated = [op for op, row in enumerate(workload.rows) if row.expect != gen.PARSE_ERROR]
    for position, op in enumerate(evaluated):
        row = workload.rows[op]
        if row.expect == gen.VALID and not row.reference and not row.comma_id:
            return op, position
    raise AssertionError("no valid row")


def test_checker_flags_shifted_row(tmp_path):
    workload = small("batch-all")
    out_csv, out_json = batch_outputs(workload, tmp_path)
    op, position = _valid_position(workload)
    shifted = edit_csv(out_csv, position, lambda header, row: row.insert(2, "extra"))
    verdict = check.check_batch(workload, 0, shifted, out_json)
    assert check.WIDTH in verdict.reasons[op]
    assert not check.only_known_defect(verdict, workload)


def test_checker_flags_wrong_aci_load(tmp_path):
    workload = small("batch-all")
    out_csv, out_json = batch_outputs(workload, tmp_path)
    op, position = _valid_position(workload)

    def bump(header, row):
        i = header.index("Nu_aci_kN")
        row[i] = f"{float(row[i]) + 1.0:.1f}"

    verdict = check.check_batch(workload, 0, edit_csv(out_csv, position, bump), out_json)
    assert "aci" in verdict.reasons[op]


def test_checker_flags_missing_expected_errors(tmp_path):
    workload = small("batch-ingest")
    out_csv, out_json = batch_outputs(workload, tmp_path)
    summary = json.loads(out_json)
    dropped = summary["row_errors"].pop(0)
    verdict = check.check_batch(workload, 0, out_csv, json.dumps(summary))
    op = next(op for op, row in enumerate(workload.rows) if row.line == dropped["line"])
    assert "error-state" in verdict.reasons[op]

    evaluated = [op for op, row in enumerate(workload.rows) if row.expect != gen.PARSE_ERROR]
    position = next(p for p, op in enumerate(evaluated)
                    if workload.rows[op].expect == gen.CONVERSION_ERROR)
    cleared = edit_csv(out_csv, position, lambda header, row: row.__setitem__(header.index("error"), ""))
    verdict = check.check_batch(workload, 0, cleared, out_json)
    assert "error-state" in verdict.reasons[evaluated[position]]


def test_tally_counts_each_operation_once(tmp_path):
    workload = small("batch-ingest")
    verdict = check.check_batch(workload, 0, *batch_outputs(workload, tmp_path))
    tally = run.Tally()
    for _ in range(3):
        tally.add(verdict, check.only_known_defect(verdict, workload))
    assert tally.correct
    assert (tally.attempted, tally.failed) == (len(workload.rows), verdict.failed)
    assert tally.failed == sum(row.comma_id for row in workload.rows)


def test_checker_fails_every_row_on_nonzero_exit():
    workload = small("batch-all")
    verdict = check.check_batch(workload, 1, "", "")
    assert verdict.failed == len(workload.rows)


@pytest.mark.parametrize("name", sorted(gen.SIZES))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    tally = run.Tally()
    measure = run.sweep_untraced if name == "column-sweep" else run.batch_untraced
    metrics = measure(small(name), 0.0, tally)
    names = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(metrics) == names
    assert all(value > 0 for value in metrics.values())
    assert tally.correct and tally.attempted > 0


def _traced(name: str, tmp_path, monkeypatch) -> tuple[dict, run.Tally]:
    monkeypatch.setattr(run, "OUT", tmp_path)
    tally = run.Tally()
    metrics = run.traced_run(small(name), 0.0, tally)
    return metrics, tally


@pytest.mark.parametrize("name", sorted(gen.SIZES))
def test_traced_run_matches_untraced_and_counts_repeat(name, tmp_path, monkeypatch):
    first, tally = _traced(name, tmp_path, monkeypatch)
    assert tally.correct and tally.attempted > 0
    assert "traced-output-differs" not in tally.reasons
    again, _ = _traced(name, tmp_path, monkeypatch)
    units = {m["name"]: m["unit"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(first) == set(units)
    counts = [k for k, unit in units.items() if unit.startswith("count") or k.startswith("capacity.applicable_share")]
    assert {k: first[k] for k in counts} == {k: again[k] for k in counts}


def test_oracle_matches_acceptance_suite():
    tree = ast.parse((run.ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    node = next(n.value for n in tree.body
                if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "R1_ORACLE" for t in n.targets))
    from cfstcol import MethodId

    suite = {MethodId[k.attr].value: ast.literal_eval(v) for k, v in zip(node.keys, node.values)}
    assert suite == check.R1_ORACLE
    assert tuple(m.value for m in MethodId) == check.METHODS
