import csv
import dataclasses
import json
import math
import pickle
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cfstcol
from cfstcol import (
    ApplicabilityReport,
    MethodId,
    ParsedDataset,
    RowError,
    SpecimenKind,
    SpecimenRecord,
    StatsSummary,
    Violation,
    column_from_record,
    evaluate_dataset,
    parse_dataset,
    predict,
    predict_all,
    sample_concrete_curve,
)
from cfstcol.capacity import CapacityPrediction
from cfstcol.dataset import CSV_HEADER, RatioStats, RowResult, _Moments, evaluate_rows

approx = pytest.approx

HEADER = ",".join(CSV_HEADER)


def record(source_id="s", D=200.0, t=5.0, L=600.0, fy=300.0, fu=None, Es=None,
           fc=30.0, kind=SpecimenKind.CYL150, dmax=None, ntest=700.0):
    return SpecimenRecord(source_id, D, t, L, fy, fu, Es, fc, kind, dmax, ntest)


@st.composite
def _dataset_rows(draw):
    """(kind, source_id, text) of one generated row; text may span lines."""
    kind = draw(st.sampled_from(["valid", "bad", "blank", "nul", "over-long",
                                 "over-long-two-line", "bare-cr"]))
    tail = ",100,5,300,300,450,200000,30,CYL150,20,650"
    if kind == "blank":
        return kind, None, draw(st.sampled_from(["", "  ", ",,,", ",,,,,,,,,,"]))
    if kind.startswith("over-long"):  # beyond the 131 072-character cell limit
        long = "x" * draw(st.integers(131_073, 131_200))
        if kind == "over-long":
            return kind, None, long + ",100,5,300,300,,,30,,,650"
        # a quoted over-long cell holding a line break, before or after the long part
        lines = [long, draw(st.text(alphabet="ab ,", max_size=8))]
        if draw(st.booleans()):
            lines.reverse()
        return kind, None, '"' + "\n".join(lines) + '"' + tail
    if kind == "bare-cr":  # the CR ends a line: a one-cell row error, then a valid record
        head = draw(st.text(alphabet="ab-", min_size=1, max_size=4))
        source_id = draw(st.text(alphabet="ab -", max_size=8))
        return kind, source_id.strip(), head + "\r" + source_id + tail
    quoted = draw(st.booleans())
    source_id = draw(st.text(alphabet='ab, \n"' if quoted else "ab -", max_size=8))
    if kind == "nul":
        i = draw(st.integers(0, len(source_id)))
        source_id = source_id[:i] + "\0" + source_id[i:]
    cell = '"' + source_id.replace('"', '""') + '"' if quoted else source_id
    if kind == "bad":
        tail = draw(st.sampled_from([",100,50,300,300,,,30,,,650", ",100,5,300,abc,,,30,,,650",
                                     ",100,5", ",100,5,300,300,,,30,PRISM,,650"]))
    return kind, source_id.strip(), cell + tail


class TestParse:
    def test_header_only(self):
        parsed = parse_dataset(HEADER + "\n")
        assert parsed.records == ()
        assert parsed.errors == ()

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_dataset("a,b,c\n1,2,3\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="^empty file: missing header row$"):
            parse_dataset("")

    def test_valid_row(self):
        text = HEADER + "\nA1,100,5,300,300,450,200000,30,CYL150,20,650\n"
        parsed = parse_dataset(text)
        assert len(parsed.records) == 1
        rec = parsed.records[0]
        assert rec.source_id == "A1"
        assert rec.f_u == 450.0
        assert rec.fc_kind is SpecimenKind.CYL150
        assert rec.defaulted == ()

    def test_empty_cells_defaulted(self):
        text = HEADER + "\nA1,100,5,300,300,,,41.2,cyl100,,650\n"
        parsed = parse_dataset(text)
        rec = parsed.records[0]
        assert rec.f_u is None and rec.E_s is None and rec.d_max is None
        assert rec.fc_kind is SpecimenKind.CYL100
        assert rec.defaulted == ("f_u", "E_s", "d_max")

    def test_fc_kind_defaults_to_cyl150(self):
        text = HEADER + "\nA1,100,5,300,300,,,30,,,650\n"
        rec = parse_dataset(text).records[0]
        assert rec.fc_kind is SpecimenKind.CYL150
        assert "fc_kind" in rec.defaulted

    def test_row_errors_carry_line_numbers(self):
        text = HEADER + "\n".join(
            [
                "",
                "ok,100,5,300,300,450,200000,30,CYL150,20,650",
                "nocore,100,50,300,300,450,200000,30,CYL150,20,650",
                "badnum,100,5,300,xyz,450,200000,30,CYL150,20,650",
                "badkind,100,5,300,300,450,200000,30,PRISM,20,650",
                "negtest,100,5,300,300,450,200000,30,CYL150,20,-5",
            ]
        ) + "\n"
        parsed = parse_dataset(text)
        assert len(parsed.records) == 1
        lines = [e.line for e in parsed.errors]
        assert lines == [3, 4, 5, 6]
        assert "no concrete core" in parsed.errors[0].message
        assert "fy_MPa" in parsed.errors[1].message

    @pytest.mark.parametrize("cell", ["D_mm", "t_mm", "L_mm", "fy_MPa", "fu_MPa", "Es_MPa",
                                      "fc_measured_MPa", "dmax_mm", "Ntest_kN"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-nan", "Infinity"])
    def test_non_finite_cells_are_row_errors(self, cell, value):
        cells = dict(zip(CSV_HEADER, "s,100,5,300,300,450,200000,30,CYL150,20,650".split(",")))
        cells[cell] = value
        parsed = parse_dataset(HEADER + "\n" + ",".join(cells.values()) + "\n")
        assert parsed.records == ()
        # an infinite wall or yield strength was refused before, and keeps its message
        kept = {"t_mm": "no concrete core", "fy_MPa": "below f_y"}
        expected = "must be finite" if "nan" in value else kept.get(cell, "must be finite")
        assert len(parsed.errors) == 1 and expected in parsed.errors[0].message

    # rows with two faults each: the message names the fault checked first
    @pytest.mark.parametrize("cells,message", [
        ({"D_mm": "abc", "fy_MPa": ""}, "fy_MPa: required value is empty"),
        ({"Ntest_kN": "-5", "t_mm": "50"}, "Ntest_kN: must be positive"),
        ({"Ntest_kN": "0", "t_mm": "50"}, "Ntest_kN: must be positive"),
        ({"t_mm": "50", "fu_MPa": "200"},
         "D=100 mm and t=50 mm leave no concrete core (need D > 2t)"),
        ({"D_mm": "-100", "fy_MPa": "-1"}, "D, t and L must all be positive"),
        ({"fu_MPa": "200", "fc_measured_MPa": "-3"}, "f_u=200 MPa below f_y=300 MPa"),
        ({"Es_MPa": "0", "fc_measured_MPa": "-1"}, "E_s must be positive"),
        ({"fc_kind": "PRISM", "dmax_mm": "-5"}, "fc_kind: unknown specimen kind 'PRISM'"),
        ({"fc_measured_MPa": "0", "dmax_mm": "-1"}, "measured strength must be positive"),
        ({"dmax_mm": "-1", "Ntest_kN": "inf"}, "dmax_mm: must be non-negative"),
        # the default f_u = 1.25*f_y overflows to infinity
        ({"fu_MPa": "", "fy_MPa": "1.5e308"}, "f_u must be finite, got inf"),
    ])
    def test_first_of_two_faults_is_reported(self, cells, message):
        row = dict(zip(CSV_HEADER, "s,100,5,300,300,450,200000,30,CYL150,20,650".split(",")))
        row.update(cells)
        parsed = parse_dataset(HEADER + "\n" + ",".join(row.values()) + "\n")
        assert parsed.records == ()
        assert parsed.errors == (RowError(2, message),)

    def test_wrong_column_count(self):
        parsed = parse_dataset(HEADER + "\nA1,100,5,300\n")
        assert parsed.errors[0].line == 2

    def test_blank_lines_skipped(self):
        parsed = parse_dataset(HEADER + "\n\nA1,100,5,300,300,450,200000,30,CYL150,20,650\n\n")
        assert len(parsed.records) == 1
        assert parsed.errors == ()

    OK_ROW = "ok,100,5,300,300,450,200000,30,CYL150,20,650"

    @pytest.mark.parametrize("bad,reason", [
        ("x" * 200_000 + ",100,5,300,300,,,30,,,650", "field larger than field limit (131072)"),
        ("nul\0,100,5,300,300,,,30,,,650", "line contains NUL"),
        ("q,100,5,300,300,,,30,\"CYL\x00150\",,650", "line contains NUL"),
        ("\0", "line contains NUL"),
        (" " * 200_000, "field larger than field limit (131072)"),
        ("\0" + "x" * 200_000, "field larger than field limit (131072)"),
    ], ids=["over-long", "nul", "quoted-nul", "nul-only", "over-long-blank", "over-long-nul"])
    def test_unreadable_record_is_a_row_error_and_parsing_resumes(self, bad, reason):
        text = "\n".join([HEADER, self.OK_ROW, bad, self.OK_ROW, "", "short", self.OK_ROW]) + "\n"
        parsed = parse_dataset(text)
        assert [r.source_id for r in parsed.records] == ["ok"] * 3
        # a later error names its own line
        assert parsed.errors == (RowError(3, f"unreadable record: {reason}"),
                                 RowError(6, "expected 11 columns, got 1"))

    @pytest.mark.parametrize("length,records,errors", [
        (131_072, 1, ()),
        (131_073, 0, (RowError(2, "unreadable record: field larger than field limit (131072)"),)),
    ])
    def test_the_longest_cell_read_is_131072_characters(self, length, records, errors):
        parsed = parse_dataset(HEADER + "\n" + "x" * length + ",100,5,300,300,,,30,,,650\n")
        assert [r.source_id for r in parsed.records] == ["x" * length] * records
        assert parsed.errors == errors

    TWO_LINE_ROW = '"two\nlines",100,5,300,300,450,200000,30,CYL150,20,650'

    def test_row_error_names_its_start_line_after_a_two_line_cell(self):
        text = "\n".join([HEADER, self.TWO_LINE_ROW, self.OK_ROW,
                          "bad,100,50,300,300,,,30,,,650"]) + "\n"
        parsed = parse_dataset(text)
        assert [r.source_id for r in parsed.records] == ["two\nlines", "ok"]
        assert parsed.errors == (
            RowError(5, "D=100 mm and t=50 mm leave no concrete core (need D > 2t)"),)

    def test_unreadable_record_names_its_start_line_after_a_two_line_cell(self):
        text = "\n".join([HEADER, self.TWO_LINE_ROW, "x" * 200_000, "short", self.OK_ROW]) + "\n"
        parsed = parse_dataset(text)
        assert [r.source_id for r in parsed.records] == ["two\nlines", "ok"]
        assert parsed.errors == (
            RowError(4, "unreadable record: field larger than field limit (131072)"),
            RowError(5, "expected 11 columns, got 1"))

    def test_nul_in_a_two_line_cell_is_one_unreadable_record(self):
        text = "\n".join(['"nul\0\nsecond",100,5,300,300,450,200000,30,CYL150,20,650',
                          self.OK_ROW])
        parsed = parse_dataset(HEADER + "\n" + text + "\n")
        assert [r.source_id for r in parsed.records] == ["ok"]
        assert parsed.errors == (RowError(2, "unreadable record: line contains NUL"),)

    def test_two_unreadable_records_in_a_row(self):
        long = "x" * 200_000
        text = "\n".join([HEADER, long, long, self.OK_ROW]) + "\n"
        parsed = parse_dataset(text)
        assert len(parsed.records) == 1
        assert [e.line for e in parsed.errors] == [2, 3]

    # a quoted cell beyond the limit, whose second line looks like a valid record
    PHANTOM_ROW = '"' + "x" * 200_000 + '\nphantom",100,5,300,300,450,200000,30,CYL150,20,650'

    def test_over_long_two_line_cell_is_one_row_error(self):
        parsed = parse_dataset("\n".join([HEADER, self.PHANTOM_ROW, self.OK_ROW]) + "\n")
        assert [r.source_id for r in parsed.records] == ["ok"]
        assert parsed.errors == (
            RowError(2, "unreadable record: field larger than field limit (131072)"),)

    def test_bare_cr_before_a_two_line_cell_reads_no_phantom_record(self):
        text = 'a\rb,"q\nphantom",100,5,300,300,450,200000,30,CYL150,20,650'
        parsed = parse_dataset("\n".join([HEADER, text, self.OK_ROW]) + "\n")
        assert [r.source_id for r in parsed.records] == ["ok"]
        assert parsed.errors == (RowError(2, "expected 11 columns, got 1"),
                                 RowError(3, "expected 11 columns, got 12"))

    def test_bare_cr_ends_a_line(self):
        # as a universal-newline read ends it, with one message on every Python
        text = "a\rb,100,5,300,300,450,200000,30,CYL150,20,650\rbad,100,5\n" + self.OK_ROW
        parsed = parse_dataset(HEADER + "\n" + text + "\n")
        assert [r.source_id for r in parsed.records] == ["b", "ok"]
        assert parsed.errors == (RowError(2, "expected 11 columns, got 1"),
                                 RowError(4, "expected 11 columns, got 3"))

    # (line end, quoted line break): CR LF files, and a bare CR inside the quotes
    LINE_BREAKS = pytest.mark.parametrize("end, brk", [("\r\n", "\r\n"), ("\n", "\r"), ("\r", "\r")],
                                          ids=["crlf", "bare-cr-in-lf", "bare-cr"])

    def _quoted_break_text(self, end, brk):
        return end.join([HEADER, '"a' + brk + 'b"' + self.OK_ROW[2:],
                         "bad,100,50,300,300,,,30,,,650", self.OK_ROW]) + end

    @LINE_BREAKS
    def test_quoted_line_break_reads_as_lf(self, end, brk):
        parsed = parse_dataset(self._quoted_break_text(end, brk))
        assert [r.source_id for r in parsed.records] == ["a\nb", "ok"]
        assert parsed.errors == (
            RowError(4, "D=100 mm and t=50 mm leave no concrete core (need D > 2t)"),)

    @LINE_BREAKS
    def test_batch_reads_the_records_and_lines_parse_dataset_reads(self, tmp_path, end, brk):
        from cfstcol.cli import main

        text = self._quoted_break_text(end, brk)
        source, rows, summary = (tmp_path / name for name in ("in.csv", "rows.csv", "s.json"))
        source.write_bytes(text.encode("utf-8"))
        assert main(["batch", "--method", "aci", "--input", str(source), "--out", str(rows),
                     "--summary-out", str(summary)]) == 0
        parsed = parse_dataset(text)
        got = json.loads(summary.read_text(encoding="utf-8"))
        assert got["n_rows"] == len(parsed.records)
        assert got["row_errors"] == [{"line": e.line, "message": e.message} for e in parsed.errors]
        written = rows.read_text(encoding="utf-8")
        for i, r in enumerate(parsed.records):  # the source_id echoed as the library reads it
            assert f"\n{i},{r.source_id},{r.D!r}," in written

    def test_field_size_limit_is_the_same_after_every_parse(self):
        # the 131 072-character rule holds whatever the caller's own limit
        before, interval = csv.field_size_limit(1000), sys.getswitchinterval()
        try:
            parsed = parse_dataset(HEADER + "\n" + "y" * 2000 + self.OK_ROW[2:] + "\n")
            assert [r.source_id for r in parsed.records] == ["y" * 2000]
            assert csv.field_size_limit() == 1000
            with pytest.raises(ValueError, match="header does not match"):
                parse_dataset("x" * 200_000 + "\n" + self.OK_ROW + "\n")
            assert csv.field_size_limit() == 1000
            # parses at once, of files of different lengths, leave it as it was; frequent
            # thread switches make an unguarded limit fail here most of the time
            sys.setswitchinterval(1e-5)
            extras = (0, 25_000, 50_000)  # more threads than the two cores of a small runner
            start = threading.Barrier(len(extras))
            results = []

            def parse(extra):
                start.wait(timeout=60)
                for _ in range(10):
                    results.append(parse_dataset("\n".join(
                        [HEADER, '"' + "x" * extra + self.PHANTOM_ROW[1:], self.OK_ROW]) + "\n"))

            threads = [threading.Thread(target=parse, args=(extra,)) for extra in extras]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert csv.field_size_limit() == 1000
            expected = (["ok"], (
                RowError(2, "unreadable record: field larger than field limit (131072)"),))
            got = [([r.source_id for r in parsed.records], parsed.errors) for parsed in results]
            assert got == [expected] * 30
        finally:
            csv.field_size_limit(before)
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("header", ["x" * 200_000, HEADER.replace("D_mm", "D_mm\0")])
    def test_unreadable_header_is_a_wrong_header(self, header):
        with pytest.raises(ValueError, match="header does not match the documented schema"):
            parse_dataset(header + "\n" + self.OK_ROW + "\n")

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(_dataset_rows(), max_size=12))
    def test_errors_name_their_rows_start_lines(self, rows):
        line = 2  # the line the next row starts on
        starts = []
        for _, _, text in rows:
            starts.append(line)
            line += text.count("\n") + text.count("\r") + 1
        parsed = parse_dataset("\n".join([HEADER, *[text for _, _, text in rows]]) + "\n")
        assert [r.source_id for r in parsed.records] == [
            source_id for kind, source_id, _ in rows if kind in ("valid", "bare-cr")]
        assert [e.line for e in parsed.errors] == [
            start for start, (kind, _, _) in zip(starts, rows) if kind not in ("valid", "blank")]


class TestColumnFromRecord:
    def test_strength_converted_on_evaluation(self):
        rec = record(fc=41.2, kind=SpecimenKind.CYL100)
        column, converted = column_from_record(rec)
        assert converted.f_c == approx(40.0, rel=1e-9)
        assert column.concrete.f_c == approx(40.0, rel=1e-9)

    def test_defaults_applied(self):
        column, _ = column_from_record(record())
        assert column.steel.f_u == approx(375.0)
        assert column.steel.E_s == 200000.0
        assert column.concrete.d_max == 20.0


class TestEvaluate:
    def test_symmetric_ratios(self):
        base = record()
        aci_kN = predict(column_from_record(base)[0], MethodId.ACI).N_u / 1e3
        records = [record(source_id=f"r{i}", ntest=ratio * aci_kN) for i, ratio in enumerate((0.9, 1.0, 1.1))]
        _, summaries = evaluate_dataset(records, (MethodId.ACI,))
        s = summaries[0]
        assert s.n_applicable == 3 and s.n_total == 3
        assert s.mean == approx(1.0, rel=1e-12)
        assert s.std == approx(0.1, rel=1e-9)
        assert s.cov == approx(0.1, rel=1e-9)

    def test_self_consistent_dataset_exact(self):
        base = record()
        aci_kN = predict(column_from_record(base)[0], MethodId.ACI).N_u / 1e3
        records = [record(source_id=f"r{i}", ntest=aci_kN) for i in range(3)]
        _, summaries = evaluate_dataset(records, (MethodId.ACI,))
        assert summaries[0].mean == 1.0
        assert summaries[0].std == 0.0
        assert summaries[0].cov == 0.0

    def test_single_row_std_undefined(self):
        _, summaries = evaluate_dataset([record()], (MethodId.ACI,))
        assert summaries[0].mean is not None
        assert summaries[0].std is None
        assert summaries[0].cov is None

    def test_zero_applicable_rows(self):
        _, summaries = evaluate_dataset([record(fc=15.0)], (MethodId.YU,))
        s = summaries[0]
        assert s.n_applicable == 0 and s.n_total == 1
        assert s.mean is None and s.std is None and s.cov is None

    def test_gating_counts_four_rows(self):
        records = [record(source_id=f"r{i}") for i in range(3)] + [record(source_id="low", fc=15.0)]
        _, summaries = evaluate_dataset(records, (MethodId.EC4, MethodId.ACI, MethodId.LIU))
        by_method = {s.method: s for s in summaries}
        assert by_method[MethodId.EC4].n_applicable == 3
        assert by_method[MethodId.ACI].n_applicable == 3
        assert by_method[MethodId.LIU].n_applicable == 4
        assert all(s.n_total == 4 for s in summaries)

    def test_conversion_error_row_isolated(self):
        records = [record(), record(source_id="bad", fc=150.0, kind=SpecimenKind.CUBE100)]
        rows, summaries = evaluate_dataset(records, (MethodId.ACI,))
        assert rows[1].error is not None
        assert rows[1].predictions == ()
        assert summaries[0].n_applicable == 1
        assert summaries[0].n_total == 2

    def test_permutation_invariance(self):
        rng = random.Random(7)
        records = [
            record(source_id=f"r{i}", D=150 + 10 * i, ntest=500 + 40 * i) for i in range(12)
        ]
        _, summaries = evaluate_dataset(records, (MethodId.ACI, MethodId.PROPOSED))
        shuffled = records[:]
        rng.shuffle(shuffled)
        _, summaries_shuffled = evaluate_dataset(shuffled, (MethodId.ACI, MethodId.PROPOSED))
        for a, b in zip(summaries, summaries_shuffled):
            assert a.n_applicable == b.n_applicable
            assert a.mean == approx(b.mean, rel=1e-12)
            assert a.std == approx(b.std, rel=1e-12)

    def test_value_types_survive_pickle(self):
        column, _ = column_from_record(record(fu=450.0, dmax=16.0))
        restored = pickle.loads(pickle.dumps(column))
        assert restored == column
        assert (restored.A_s, restored.A_c, restored.xi_c) == (column.A_s, column.A_c, column.xi_c)
        predictions = predict_all(column)
        assert pickle.loads(pickle.dumps(predictions)) == predictions
        rows, _ = evaluate_dataset([record(), record(fc=150.0, kind=SpecimenKind.CUBE100)])
        assert pickle.loads(pickle.dumps(rows)) == rows

    def test_plain_records_reject_attribute_assignment(self):
        column, converted = column_from_record(record())
        rows, _ = evaluate_dataset([record()], (MethodId.ACI,))
        values = [record(), rows[0], converted, predict(column, MethodId.ACI),
                  sample_concrete_curve(column, 8, 0.03)]
        for value in values:
            with pytest.raises(AttributeError):
                setattr(value, type(value)._fields[0], None)
            with pytest.raises(AttributeError):
                value.extra = None

    @pytest.mark.parametrize("methods", [(MethodId.ACI, MethodId.ACI),
                                         (MethodId.EC4, MethodId.ACI, MethodId.EC4)])
    def test_repeated_method_rejected(self, methods):
        with pytest.raises(ValueError, match="given more than once"):
            evaluate_dataset([record()], methods)
        with pytest.raises(ValueError, match="given more than once"):
            predict_all(column_from_record(record())[0], methods)

    @pytest.mark.parametrize("E_c,message", [(-1.0, "E_c must be positive"), (0.0, "E_c must be positive"),
                                             (math.nan, "E_c must be finite, got nan")])
    def test_invalid_ec_override_raises_before_any_row(self, E_c, message):
        def records():
            raise AssertionError("no record may be read")
            yield
        with pytest.raises(ValueError, match=message):
            evaluate_dataset(records(), (MethodId.ACI,), Ec_override=E_c)
        rows = evaluate_rows([record()], (MethodId.ACI,), Ec_override=E_c)
        with pytest.raises(ValueError, match=message):
            next(rows)

    def test_defaulted_names_fields_on_error_rows_too(self):
        text = (HEADER + "\nok,100,5,300,300,,,30,,,650"
                "\nuhsc_cube,200,5,600,400,,,150,CUBE100,,900\n")
        rows, _ = evaluate_dataset(parse_dataset(text).records, (MethodId.ACI,))
        assert rows[0].error is None
        assert rows[0].defaulted == ("fc_kind", "f_u", "E_s", "d_max", "E_c")
        assert rows[1].error is not None
        assert rows[1].defaulted == ("f_u", "E_s", "d_max")

    def test_rows_keep_predictions_when_inapplicable(self):
        rows, _ = evaluate_dataset([record(fc=15.0)], (MethodId.EC4,))
        pred = rows[0].predictions[0]
        assert not pred.applicability.applicable
        assert pred.N_u > 0

    def test_accepts_one_shot_generator(self):
        records = [record(source_id=f"r{i}", D=150 + 10 * i, ntest=500 + 40 * i) for i in range(5)]
        rows, summaries = evaluate_dataset((rec for rec in records), (MethodId.ACI, MethodId.YU))
        assert [row.index for row in rows] == list(range(5))
        assert [row.record for row in rows] == records
        assert (rows, summaries) == evaluate_dataset(records, (MethodId.ACI, MethodId.YU))

    def test_non_finite_ntest_gives_nan_std_not_a_crash(self):
        records = [record(), record(ntest=math.nan), record(ntest=900.0)]
        _, summaries = evaluate_dataset(records, (MethodId.ACI,))
        s = summaries[0]
        assert s.n_applicable == 3
        assert math.isnan(s.mean) and math.isnan(s.std) and s.cov is None

    def test_load_that_underflows_in_kn_counts_as_applicable_without_a_ratio(self):
        tiny = record(D=3e-162, t=3e-163, L=3e-162)
        (pred,) = predict_all(column_from_record(tiny)[0], (MethodId.LIU,))
        assert 0.0 < pred.N_u < 1e-320 and pred.N_u / 1e3 == 0.0
        _, (s,) = evaluate_dataset([record(), tiny, record()], (MethodId.LIU,))
        (alone,) = evaluate_dataset([record()], (MethodId.LIU,))[1]
        assert (s.n_applicable, s.n_total) == (3, 3)
        assert s.mean == alone.mean and s.std == 0.0

    def test_overflowing_formula_leaves_the_row_and_other_methods_intact(self):
        long = record(D=100.0, L=1e200)
        rows, summaries = evaluate_dataset([record(), long, record(ntest=800.0)])
        assert rows[1].error is None and rows[1].f_c == 30.0
        loads = {p.method: p.N_u for p in rows[1].predictions}
        failed = {m for m, N in loads.items() if math.isnan(N)}
        assert failed == {MethodId.EC4, MethodId.AISC, MethodId.CISC}
        assert all(math.isfinite(N) for m, N in loads.items() if m not in failed)
        by_method = {s.method: s for s in summaries}
        cisc = evaluate_dataset([record(), record(ntest=800.0)], (MethodId.CISC,))[1][0]
        assert by_method[MethodId.CISC].n_applicable == 3
        assert (by_method[MethodId.CISC].mean, by_method[MethodId.CISC].std) == (cisc.mean, cisc.std)


class TestRecordRule:
    """A public type that validates is a dataclass; every other record is a NamedTuple."""

    def test_every_public_dataclass_validates(self):
        types = [getattr(cfstcol, name) for name in cfstcol.__all__]
        dataclass_types = [t for t in types if isinstance(t, type) and dataclasses.is_dataclass(t)]
        assert dataclass_types
        for t in dataclass_types:
            assert "__post_init__" in vars(t), t.__name__

    def test_plain_records_are_tuples_that_round_trip_through_pickle(self):
        report = ApplicabilityReport((Violation("fy <= 525 MPa", 525.0, 600.0),))
        _, (summary,) = evaluate_dataset([record(), record(ntest=800.0)], (MethodId.ACI,))
        parsed = parse_dataset(HEADER + "\nok,100,5,300,300,,,30,,,650\nbad,1\n")
        curve = sample_concrete_curve(column_from_record(record())[0], 8, 0.03)
        for value in (report, ApplicabilityReport(), summary, parsed, curve):
            assert isinstance(value, tuple) and not dataclasses.is_dataclass(value)
            assert pickle.loads(pickle.dumps(value)) == value
        assert type(summary) is StatsSummary and type(parsed) is ParsedDataset
        assert len(parsed.records) == len(parsed.errors) == 1


# ratios as a database gives them, zeros, every finite float (subnormals and
# negatives included), and values near 2**-1000 and 2**1000
_RATIO = st.one_of(
    st.floats(0.5, 2.0),
    st.just(0.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-2.0, 2.0), st.integers(-1074, -990)),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(990, 1023)),
)


@st.composite
def _overflowing_ratios(draw):
    """Ratios of one sign whose exact sum lies beyond the float range: two or more of at
    least 2**1023 and a tail of any magnitude, in any order."""
    huge = draw(st.lists(st.floats(2.0**1023, 1.7976931348623157e308), min_size=2, max_size=10))
    tail = draw(st.lists(_RATIO, max_size=20))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return draw(st.permutations([math.copysign(x, sign) for x in huge + tail]))


def _moments(ratios):
    """(mean, STD) of a list of ratios, fed one at a time through one accumulator."""
    moments = _Moments()
    for x in ratios:
        moments.add(x)
    return moments.result()


class TestSampleStd:
    def test_correctly_rounded_literal(self):
        # statistics.stdev gives 0.2803121771644369 under Python 3.10; the
        # correctly rounded value (3.11+) is one unit in the last place above
        assert _moments([0.789, 1.461, 1.039, 1.178])[1] == 0.28031217716443696

    def test_exact_variances(self):
        assert _moments([1.0, 3.0])[1] == math.sqrt(2.0)
        assert _moments([0.1, 0.1, 0.1])[1] == 0.0
        assert _moments([2.0**-1000, 3 * 2.0**-1000])[1] == math.sqrt(2.0) * 2.0**-1000
        assert _moments([2.0**60, 2.0**60 + 2.0**9])[1] == math.sqrt(2.0) * 2.0**8

    def test_zero_ratio_is_not_the_scale(self):
        # a tiny Ntest_kN against a huge N_u gives a ratio of 0.0; the scale
        # must come from the smallest nonzero ratio, or 1e-300 scales to 0
        assert _moments([0.0, 1e-300, 2e-300])[1] == 1e-300

    @given(ratios=st.one_of(st.lists(_RATIO, min_size=2, max_size=30),
                            st.lists(st.floats(0.5, 2.0), min_size=2, max_size=30)))
    @example(ratios=[0.0, 0.0])
    @example(ratios=[0.0, -0.0, 5e-324])
    @example(ratios=[5e-324, 1.0])  # 2**k itself beyond the float range
    @example(ratios=[1e-10, 1e300])  # 2**k finite, the largest scaled ratio not
    @example(ratios=[1e300, 1.5e300])  # every ratio an integer: no scaling at all
    @example(ratios=[-1.7e308, 1.7e308])  # a STD beyond the float range
    def test_matches_the_integer_ratio_oracle(self, ratios):
        assert _moments(ratios)[1] == _oracle_std(ratios)


class TestAccumulator:
    @given(ratios=st.lists(_RATIO, min_size=1, max_size=30),
           special=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=3),
           data=st.data())
    def test_the_order_of_the_ratios_does_not_matter(self, ratios, special, data):
        ratios = ratios + special
        shuffled = data.draw(st.permutations(ratios))

        def bits(pair):  # a float's hex form; every nan reads as "nan"
            return tuple(None if x is None else x.hex() for x in pair)
        assert bits(_moments(shuffled)) == bits(_moments(ratios))

    def test_the_state_does_not_grow_with_the_rows(self):
        prediction = CapacityPrediction(MethodId.ACI, 700e3, ApplicabilityReport(), {})
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            stats = RatioStats((MethodId.ACI,))
            for i in range(10_000):
                row = RowResult(i, record(ntest=500.0 + i / 7), 30.0, "NSC", (), None, (prediction,))
                stats.add(row)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # only what cfstcol/dataset.py allocates: a tracer's or a test runner's own growth
        # during the loop is not the accumulator's
        only = [tracemalloc.Filter(True, cfstcol.dataset.__file__)]
        held = sum(d.size_diff for d in after.filter_traces(only).compare_to(
            before.filter_traces(only), "filename"))
        assert stats.n_applicable == [10_000]
        assert held < 64 * 1024


class TestCov:
    def test_a_zero_mean_gives_no_cov(self):
        stats = RatioStats((MethodId.ACI,))
        for i, N_u in enumerate((1000.0, -1000.0)):  # N_test = 1 kN: ratios 1 and -1
            prediction = CapacityPrediction(MethodId.ACI, N_u, ApplicabilityReport(), {})
            stats.add(RowResult(i, record(ntest=1.0), 30.0, "NSC", (), None, (prediction,)))
        (summary,) = stats.summaries()
        assert (summary.mean, summary.std, summary.cov) == (0.0, math.sqrt(2.0), None)


class TestMean:
    """The mean read off the STD's integer sums has the bits of ``fsum(r)/n``."""

    def test_literal(self):
        ratios = [0.789, 1.461, 1.039, 1.178]
        assert _moments(ratios)[0] == math.fsum(ratios) / 4
        assert _moments([0.1] * 10)[0] == 0.1 and _moments([2.5]) == (2.5, None)

    @given(ratios=st.one_of(st.lists(_RATIO, min_size=1, max_size=30),
                            st.lists(st.floats(0.5, 2.0), min_size=1, max_size=30)))
    @example(ratios=[0.0, -0.0])
    @example(ratios=[5e-324, 1.0, -1.0])  # an exact sum below the normal range
    @example(ratios=[1e300, 1e-300])
    def test_matches_fsum_where_the_sum_is_a_float(self, ratios):
        try:
            expected = math.fsum(ratios) / len(ratios)
        except OverflowError:
            assume(False)
        assert _moments(ratios)[0] == expected

    @given(ratios=_overflowing_ratios())
    # the sum is exactly half-way between two floats of 2**-3 of it but for 5e-324, which
    # a float rescale by 2**-3 drops: only exact integer sums round it up
    @example(ratios=[math.ldexp(2**53 - 3, 971), 2.0**1023, 5e-324])
    @example(ratios=[-1.7e308, -1.7e308])
    def test_matches_the_rescaled_fraction_where_the_sum_overflows(self, ratios):
        n = len(ratios)
        total = sum(map(Fraction, ratios))
        assert abs(total) >= 2**1024
        j = n.bit_length() + 1
        expected = math.ldexp(float(total / 2**j) / n, j)
        assert _moments(ratios)[0] == expected

    @pytest.mark.parametrize("ratios, mean, std", [
        ([1.0, math.inf], math.inf, math.nan),
        ([math.inf], math.inf, None),
        ([-math.inf, 1.0, -math.inf], -math.inf, math.nan),
        ([math.inf, 1.0, -math.inf], math.nan, math.nan),
        ([1.0, math.nan], math.nan, math.nan),
        ([math.nan], math.nan, None),
        ([1.7e308, 1.7e308, math.inf], math.inf, math.nan),
    ])
    def test_non_finite_ratios(self, ratios, mean, std):
        got_mean, got_std = _moments(ratios)
        assert got_mean == mean or math.isnan(got_mean) and math.isnan(mean)
        assert got_std is std or math.isnan(got_std) and math.isnan(std)


def _oracle_std(ratios):
    """The STD as first written: every ratio's integer ratio, shifted to one denominator."""
    pairs = [x.as_integer_ratio() for x in ratios]
    k = max(d for _, d in pairs).bit_length() - 1
    xs = [p << (k + 1 - d.bit_length()) for p, d in pairs]
    n, sx = len(xs), sum(xs)
    num = n * sum(x * x for x in xs) - sx * sx
    den = n * (n - 1) << 2 * k
    q = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = (num, den << 2 * q) if q >= 0 else (num << -2 * q, den)
    a = math.isqrt(num // den)
    a |= a * a * den != num
    return float(a) * 2.0**q if q >= 0 else a / (1 << -q)
