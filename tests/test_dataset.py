import math
import pickle
import random

import pytest

from cfstcol import (
    MethodId,
    RowError,
    SpecimenKind,
    SpecimenRecord,
    column_from_record,
    ec4_coefficients,
    evaluate_dataset,
    parse_dataset,
    predict,
    predict_all,
    proposed_factors,
)
from cfstcol.dataset import CSV_HEADER, _sample_std

approx = pytest.approx

HEADER = ",".join(CSV_HEADER)


def record(source_id="s", D=200.0, t=5.0, L=600.0, fy=300.0, fu=None, Es=None,
           fc=30.0, kind=SpecimenKind.CYL150, dmax=None, ntest=700.0):
    return SpecimenRecord(source_id, D, t, L, fy, fu, Es, fc, kind, dmax, ntest)


class TestParse:
    def test_header_only(self):
        parsed = parse_dataset(HEADER + "\n")
        assert parsed.records == ()
        assert parsed.errors == ()

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_dataset("a,b,c\n1,2,3\n")

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
        assert set(rec.defaulted) == {"fu_MPa", "Es_MPa", "dmax_mm"}

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
                  ec4_coefficients(column), proposed_factors(column)]
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


class TestSampleStd:
    def test_correctly_rounded_literal(self):
        # statistics.stdev gives 0.2803121771644369 under Python 3.10; the
        # correctly rounded value (3.11+) is one unit in the last place above
        assert _sample_std([0.789, 1.461, 1.039, 1.178]) == 0.28031217716443696

    def test_exact_variances(self):
        assert _sample_std([1.0, 3.0]) == math.sqrt(2.0)
        assert _sample_std([0.1, 0.1, 0.1]) == 0.0
        assert _sample_std([2.0**-1000, 3 * 2.0**-1000]) == math.sqrt(2.0) * 2.0**-1000
        assert _sample_std([2.0**60, 2.0**60 + 2.0**9]) == math.sqrt(2.0) * 2.0**8
