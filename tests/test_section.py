import csv
import dataclasses
import io
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cfstcol import (
    CircularSection,
    ColumnSpec,
    ConcreteClass,
    ConcreteMaterial,
    ConversionError,
    MeasuredStrength,
    PredictionSettings,
    SectionError,
    SpecimenKind,
    SteelMaterial,
    classify_concrete,
    column_from_inputs,
    concrete_elastic_modulus,
    confinement_factor,
    convert_strength,
    parse_dataset,
    section_areas,
    section_second_moments,
)

approx = pytest.approx


class TestSectionAreas:
    def test_reference_values(self):
        A_s, A_c = section_areas(CircularSection(100, 5, 300))
        assert A_s == approx(1492.25651046, rel=1e-9)
        assert A_c == approx(6361.72512352, rel=1e-9)

    def test_core_vanishes_as_t_approaches_half_d(self):
        _, A_c = section_areas(CircularSection(100, 49.9995, 300))
        assert A_c < 1e-3

    def test_no_core_rejected(self):
        with pytest.raises(SectionError):
            CircularSection(100, 50, 300)
        with pytest.raises(SectionError):
            CircularSection(100, 60, 300)

    def test_nonpositive_dimensions_rejected(self):
        for D, t, L in [(0, 5, 300), (100, 0, 300), (100, 5, 0), (-100, 5, 300)]:
            with pytest.raises(SectionError):
                CircularSection(D, t, L)

    @given(
        D=st.floats(10, 2000),
        t_frac=st.floats(0.005, 0.49),
        L=st.floats(10, 10000),
    )
    def test_area_identity(self, D, t_frac, L):
        section = CircularSection(D, D * t_frac, L)
        A_s, A_c = section_areas(section)
        assert A_s > 0 and A_c > 0
        assert A_s + A_c == approx(math.pi / 4 * D * D, rel=1e-9)

    def test_second_moments_sum(self):
        section = CircularSection(100, 5, 300)
        I_s, I_c = section_second_moments(section)
        assert I_s == approx(1688115.17745, rel=1e-9)
        assert I_c == approx(3220623.34378, rel=1e-9)
        assert I_s + I_c == approx(math.pi / 64 * 100**4, rel=1e-12)


class TestConfinementFactor:
    def test_reference_value(self):
        A_s, A_c = section_areas(CircularSection(100, 5, 300))
        assert confinement_factor(A_s, 300, A_c, 30) == approx(2.34567901235, rel=1e-9)

    def test_zero_yield_gives_zero(self):
        assert confinement_factor(1492.3, 0.0, 6361.7, 30) == 0.0

    def test_scale_invariance_doubling_areas(self):
        a = confinement_factor(1492.3, 300, 6361.7, 30)
        b = confinement_factor(2 * 1492.3, 300, 2 * 6361.7, 30)
        assert a == approx(b, rel=1e-12)

    @given(scale=st.floats(0.2, 5.0))
    def test_geometric_scaling_leaves_xi_unchanged(self, scale):
        base = CircularSection(100, 5, 300)
        scaled = CircularSection(100 * scale, 5 * scale, 300 * scale)
        xi_a = confinement_factor(*_areas_fy_fc(base))
        xi_b = confinement_factor(*_areas_fy_fc(scaled))
        assert xi_a == approx(xi_b, rel=1e-9)

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            confinement_factor(1492.3, 300, 0.0, 30)
        with pytest.raises(ValueError):
            confinement_factor(1492.3, 300, 6361.7, 0.0)


def _areas_fy_fc(section):
    A_s, A_c = section_areas(section)
    return A_s, 300.0, A_c, 30.0


class TestElasticModulus:
    def test_default_formula(self):
        assert concrete_elastic_modulus(30) == approx(25742.9602027, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            concrete_elastic_modulus(0.0)


class TestClassification:
    @pytest.mark.parametrize(
        "f_c,expected",
        [
            (12.5, ConcreteClass.NSC),
            (60.0, ConcreteClass.NSC),
            (60.0001, ConcreteClass.HSC),
            (90.0, ConcreteClass.HSC),
            (119.999, ConcreteClass.HSC),
            (120.0, ConcreteClass.UHSC),
            (185.6, ConcreteClass.UHSC),
        ],
    )
    def test_boundaries(self, f_c, expected):
        assert classify_concrete(f_c) is expected

    def test_monotone_in_strength(self):
        order = [ConcreteClass.NSC, ConcreteClass.HSC, ConcreteClass.UHSC]
        previous = 0
        for f_c in [1 + 0.5 * i for i in range(400)]:
            rank = order.index(classify_concrete(f_c))
            assert rank >= previous
            previous = rank


class TestEnumIdentityHash:
    """The conversion table hashes a SpecimenKind and a ConcreteClass on every row."""

    MEMBERS = [*SpecimenKind, *ConcreteClass]

    @pytest.mark.parametrize("member", MEMBERS)
    def test_lookup_by_value(self, member):
        assert type(member)(member.value) is member

    @pytest.mark.parametrize("member", MEMBERS)
    def test_hash_is_identity_and_agrees_with_equality(self, member):
        assert hash(member) == object.__hash__(member)
        for other in self.MEMBERS:
            assert (member == other) is (member is other)
            if member == other:
                assert hash(member) == hash(other)
        assert {m: m.value for m in self.MEMBERS}[member] == member.value

    @pytest.mark.parametrize("member", MEMBERS)
    def test_pickle_round_trip_returns_the_member(self, member):
        restored = pickle.loads(pickle.dumps(member))
        assert restored is member
        assert hash(restored) == hash(member)

    def test_golden_fc_kind_spellings_map_to_their_members(self):
        text = (Path(__file__).parent / "golden" / "batch_input.csv").read_text()
        parsed = parse_dataset(text)
        by_id = {rec.source_id: rec for rec in parsed.records}
        spellings = set()
        for cells in list(csv.reader(io.StringIO(text)))[1:]:
            if cells and cells[0] in by_id:
                spelling = cells[8].strip()
                expected = SpecimenKind[spelling.upper()] if spelling else SpecimenKind.CYL150
                assert by_id[cells[0]].fc_kind is expected
                spellings.add(spelling)
        assert {"CYL150", "cyl150", "CYL100", "cyl100", "Cyl100", "CUBE100", "cube150",
                "Cube150", ""} <= spellings


class TestConvertStrength:
    @pytest.mark.parametrize("value", [20.0, 50.0, 100.0, 150.0])
    def test_cyl150_identity(self, value):
        converted = convert_strength(MeasuredStrength(value, SpecimenKind.CYL150))
        assert converted.f_c == value

    @given(value=st.floats(1.0, 250.0))
    def test_cyl150_identity_property(self, value):
        assert convert_strength(MeasuredStrength(value, SpecimenKind.CYL150)).f_c == value

    def test_cyl100_nsc(self):
        converted = convert_strength(MeasuredStrength(41.2, SpecimenKind.CYL100))
        assert converted.f_c == approx(40.0, rel=1e-9)
        assert converted.concrete_class is ConcreteClass.NSC

    def test_cube150_nsc(self):
        converted = convert_strength(MeasuredStrength(45.0, SpecimenKind.CUBE150))
        assert converted.f_c == approx(39.6, rel=1e-9)
        assert converted.concrete_class is ConcreteClass.NSC

    def test_cube150_hsc(self):
        converted = convert_strength(MeasuredStrength(70.0, SpecimenKind.CUBE150))
        assert converted.f_c == approx(68.6, rel=1e-9)
        assert converted.concrete_class is ConcreteClass.HSC

    def test_cube100_hsc(self):
        converted = convert_strength(MeasuredStrength(100.0, SpecimenKind.CUBE100))
        assert converted == (100.0 * 0.92, ConcreteClass.HSC)

    def test_cyl100_uhsc(self):
        converted = convert_strength(MeasuredStrength(130.0, SpecimenKind.CYL100))
        assert converted.f_c == approx(123.5, rel=1e-9)
        assert converted.concrete_class is ConcreteClass.UHSC

    def test_fixed_point_reclassifies_once(self):
        # raw 61 MPa classifies HSC, converts below 60, reconverts as NSC
        converted = convert_strength(MeasuredStrength(61.0, SpecimenKind.CYL100))
        assert converted.concrete_class is ConcreteClass.NSC
        assert converted.f_c == approx(61.0 / 1.03, rel=1e-12)

    def test_uhsc_cube_unsupported(self):
        with pytest.raises(ConversionError):
            convert_strength(MeasuredStrength(150.0, SpecimenKind.CUBE150))
        with pytest.raises(ConversionError):
            convert_strength(MeasuredStrength(150.0, SpecimenKind.CUBE100))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            MeasuredStrength(0.0, SpecimenKind.CYL150)


class TestSteelMaterial:
    def test_defaults_and_markers(self):
        steel = SteelMaterial(300.0)
        assert steel.f_u == approx(375.0)  # 1.25*fy > fy+50
        assert steel.E_s == 200_000.0
        assert steel.defaulted == ("f_u", "E_s")

    def test_fu_default_floor(self):
        # below 200 MPa the fy+50 branch governs
        steel = SteelMaterial(150.0)
        assert steel.f_u == approx(200.0)

    def test_explicit_values_not_marked(self):
        steel = SteelMaterial(300.0, 450.0, 200_000.0)
        assert steel.defaulted == ()

    def test_fu_below_fy_rejected(self):
        with pytest.raises(ValueError):
            SteelMaterial(300.0, 250.0)

    @pytest.mark.parametrize("fy,flagged", [(150.0, True), (200.0, False), (800.0, False), (900.0, True)])
    def test_validity_flags(self, fy, flagged):
        assert bool(SteelMaterial(fy).validity_flags) is flagged


class TestConcreteMaterial:
    def test_defaults_and_markers(self):
        concrete = ConcreteMaterial(30.0)
        assert concrete.d_max == 20.0
        assert concrete.E_c == approx(25742.9602027, rel=1e-9)
        assert concrete.defaulted == ("d_max", "E_c")

    def test_override_not_marked(self):
        concrete = ConcreteMaterial(30.0, 16.0, 28000.0)
        assert concrete.defaulted == ()
        assert concrete.E_c == 28000.0

    @pytest.mark.parametrize("fc,flagged", [(10.0, True), (12.5, False), (185.6, False), (190.0, True)])
    def test_validity_flags(self, fc, flagged):
        assert bool(ConcreteMaterial(fc).validity_flags) is flagged

    def test_negative_dmax_rejected(self):
        with pytest.raises(ValueError):
            ConcreteMaterial(30.0, -1.0)

    @pytest.mark.parametrize("E_c", [0.0, -1.0])
    def test_nonpositive_given_modulus_rejected(self, E_c):
        with pytest.raises(ValueError, match="E_c must be positive"):
            ConcreteMaterial(30.0, 20.0, E_c)

    @pytest.mark.parametrize("f_c,d_max", [(0.0, 20.0), (-1.0, None)])
    def test_nonpositive_strength_rejected_beside_a_given_modulus(self, f_c, d_max):
        # with E_c given, no modulus is derived from f_c, so only its own rule refuses it
        with pytest.raises(ValueError, match="f_c must be positive"):
            ConcreteMaterial(f_c, d_max, 30000.0)


NON_FINITE = [math.nan, math.inf, -math.nan]


class TestNonFiniteRejected:
    """Every value type refuses NaN and infinities where they enter."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("build", [
        lambda x: CircularSection(x, 5.0, 300.0),
        lambda x: CircularSection(100.0, 5.0, x),
        lambda x: SteelMaterial(300.0, x),
        lambda x: SteelMaterial(300.0, 450.0, x),
        lambda x: ConcreteMaterial(x),
        lambda x: ConcreteMaterial(30.0, x),
        lambda x: ConcreteMaterial(30.0, 20.0, x),
        lambda x: MeasuredStrength(x, SpecimenKind.CYL150),
    ])
    def test_constructor_rejects(self, build, bad):
        with pytest.raises(ValueError, match="must be finite"):
            build(bad)

    def test_nan_wall_and_yield_rejected(self):
        with pytest.raises(ValueError, match="t must be finite"):
            CircularSection(100.0, math.nan, 300.0)
        with pytest.raises(ValueError, match="f_y must be finite"):
            SteelMaterial(math.nan, 450.0)
        with pytest.raises(ValueError, match="f_y must be finite"):
            SteelMaterial(math.inf)  # the defaulted f_u is infinite too

    @pytest.mark.parametrize("build,message", [
        (lambda: CircularSection(-math.inf, 5.0, 300.0), "D, t and L must all be positive"),
        (lambda: CircularSection(100.0, math.inf, 300.0), "leave no concrete core"),
        (lambda: SteelMaterial(math.inf, 450.0), "below f_y"),
        (lambda: SteelMaterial(-math.inf), "f_y must be positive"),
        (lambda: ConcreteMaterial(-math.inf), "f_c must be positive"),
        (lambda: MeasuredStrength(-math.inf, SpecimenKind.CYL150), "measured strength must be positive"),
    ])
    def test_values_rejected_before_keep_their_message(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("f_c,shown", [(math.nan, "nan"), (math.inf, "inf")])
    def test_non_finite_strength_is_named_before_its_default_modulus(self, f_c, shown):
        with pytest.raises(ValueError, match=f"^f_c must be finite, got {shown}$"):
            ConcreteMaterial(f_c)


class TestValueTypeContract:
    """The value types are frozen and slotted; a defaulted input compares as if given."""

    @pytest.mark.parametrize("value", [
        PredictionSettings(),
        MeasuredStrength(30.0, SpecimenKind.CYL150),
        CircularSection(100.0, 5.0, 300.0),
        SteelMaterial(300.0),
        ConcreteMaterial(30.0),
        ColumnSpec(CircularSection(100.0, 5.0, 300.0), SteelMaterial(300.0), ConcreteMaterial(30.0)),
    ], ids=lambda value: type(value).__name__)
    def test_frozen_and_slotted(self, value):
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("value,changes,error,message", [
        (CircularSection(100.0, 5.0, 300.0), {"t": 60.0}, SectionError,
         "D=100 mm and t=60 mm leave no concrete core (need D > 2t)"),
        (ConcreteMaterial(30.0), {"d_max": -1.0}, ValueError, "d_max must be non-negative"),
        (MeasuredStrength(30.0, SpecimenKind.CYL150), {"value": 0.0}, ValueError,
         "measured strength must be positive"),
        (SteelMaterial(300.0), {"E_s": 0.0}, ValueError, "E_s must be positive"),
    ], ids=["CircularSection", "ConcreteMaterial", "MeasuredStrength", "SteelMaterial"])
    def test_replace_runs_the_constructors_checks(self, value, changes, error, message):
        with pytest.raises(error) as replaced:
            dataclasses.replace(value, **changes)
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}
        with pytest.raises(error) as constructed:
            type(value)(**{**fields, **changes})
        assert str(replaced.value) == str(constructed.value) == message
        assert type(replaced.value) is type(constructed.value)

    def test_defaulted_takes_no_part_in_equality_or_repr(self):
        steel, concrete = SteelMaterial(300.0), ConcreteMaterial(30.0)
        assert steel == SteelMaterial(300.0, 375.0, 200_000.0)
        assert concrete == ConcreteMaterial(30.0, 20.0, 4700 * math.sqrt(30.0))
        assert "defaulted" not in repr(steel) and "defaulted" not in repr(concrete)


class TestHugeFiniteColumn:
    def test_non_finite_derived_areas_rejected(self):
        # d*d overflows, so A_c is infinite; A_s = pi*t*(D - t) stays finite
        with pytest.raises(ValueError, match="A_c must be finite"):
            ColumnSpec(CircularSection(1e200, 1.0, 300.0), SteelMaterial(300.0),
                       ConcreteMaterial(30.0))

    def test_huge_finite_derived_values_accepted(self):
        # the product of A_s, A_c and xi_c overflows, each of them does not
        column = ColumnSpec(CircularSection(1e150, 1e149, 300.0), SteelMaterial(300.0),
                            ConcreteMaterial(30.0))
        assert math.isinf(column.A_s * column.A_c * column.xi_c)

    @pytest.mark.parametrize("D", [1e80, 1e100, 1e150])
    def test_moments_overflow_to_inf_not_an_error(self, D):
        column = ColumnSpec(CircularSection(D, 1.0, 300.0), SteelMaterial(300.0),
                            ConcreteMaterial(30.0))
        assert math.isinf(column.I_c)
        assert column.A_s == math.pi * (D - 1.0) and column.xi_c > 0.0

    def test_infinite_steel_area_is_named(self, make_column):
        # A_c is infinite too: the first offender is named
        with pytest.raises(ValueError, match="^A_s must be finite, got inf$"):
            make_column(1e200, 4e199, 300, 300, 30)

    def test_infinite_confinement_factor_is_named(self, make_column):
        # A_s*f_y overflows; the areas stay finite
        with pytest.raises(ValueError, match="^xi_c must be finite, got inf$"):
            make_column(100, 5, 300, 1e308, 30, fu=1e308)

    def test_core_force_that_underflows_is_a_value_error(self):
        # A_c*f_c = 7.1e-202 * 1e-250 is 0.0: xi_c would divide by zero
        with pytest.raises(ValueError, match="A_c\\*f_c must be positive"):
            ColumnSpec(CircularSection(1e-100, 1e-101, 1.0), SteelMaterial(300.0),
                       ConcreteMaterial(1e-250))


class TestFactoredGeometry:
    """A_s, A_c, I_s and I_c come from products of t, D - t and d = D - 2t: no cancellation."""

    @pytest.mark.parametrize("exponent", range(1, 18))
    @pytest.mark.parametrize("t", [1.0, 3.7, 0.01])
    def test_steel_area_exact_for_any_slenderness(self, exponent, t):
        D = 3.0 * t if exponent == 1 else 10.0**exponent * t  # D/t = 3 .. 1e17
        A_s, A_c = section_areas(CircularSection(D, t, 300.0))
        assert A_s == math.pi * t * (D - t)
        assert A_c == math.pi / 4.0 * (D - 2.0 * t) * (D - 2.0 * t)

    @pytest.mark.parametrize("D,t", [(100.0, 5.0), (1e12, 1.0), (1e17, 1.0), (3.0, 1.0)])
    def test_second_moments_are_the_factored_forms(self, D, t):
        d = D - 2.0 * t
        I_s, I_c = section_second_moments(CircularSection(D, t, 300.0))
        assert I_s == math.pi / 16.0 * t * (D - t) * (D * D + d * d)
        assert I_c == math.pi / 64.0 * ((d * d) * (d * d))

    def test_thin_wall_steel_area_is_not_cancelled(self):
        # the difference of squares pi/4*(D*D - d*d) loses every bit here
        A_s, _ = section_areas(CircularSection(1e17, 1.0, 300.0))
        assert A_s == approx(math.pi * 1e17, rel=1e-15)
        I_s, I_c = section_second_moments(CircularSection(1e17, 1.0, 300.0))
        assert I_s == approx(math.pi / 8.0 * 1e17**3, rel=1e-15)
        assert I_c == approx(math.pi / 64.0 * 1e17**4, rel=1e-15)

    def test_column_holds_the_section_functions_moments(self, r1):
        assert (r1.I_s, r1.I_c) == section_second_moments(r1.section)
        assert r1.I_s + r1.I_c == approx(math.pi / 64 * 100**4, rel=1e-12)


DERIVED_FIELDS = ("A_s", "A_c", "I_s", "I_c", "dt_ratio", "ld_ratio", "alpha_s", "xi_c")


class TestColumnSpec:
    def test_derived_quantities(self, r1):
        assert r1.A_s == approx(1492.25651046, rel=1e-9)
        assert r1.A_c == approx(6361.72512352, rel=1e-9)
        assert r1.dt_ratio == approx(20.0)
        assert r1.ld_ratio == approx(3.0)
        assert r1.alpha_s == approx(0.234567901235, rel=1e-9)
        assert r1.xi_c == approx(2.34567901235, rel=1e-9)

    def test_derived_fields_match_section_functions(self, make_column):
        column = make_column(219.1, 4.78, 600.0, 355.0, 47.5)
        A_s, A_c = section_areas(column.section)
        assert (column.A_s, column.A_c) == (A_s, A_c)
        assert column.dt_ratio == 219.1 / 4.78
        assert column.ld_ratio == 600.0 / 219.1
        assert column.alpha_s == A_s / A_c
        assert column.xi_c == confinement_factor(A_s, 355.0, A_c, 47.5)

    def test_second_moments_excluded_from_eq_and_repr(self, r1):
        twin = ColumnSpec(r1.section, r1.steel, r1.concrete)
        object.__setattr__(twin, "I_s", -1.0)
        object.__setattr__(twin, "I_c", -1.0)
        assert twin == r1
        assert "I_s" not in repr(r1) and "I_c" not in repr(r1)
        assert pickle.loads(pickle.dumps(r1)).I_c == r1.I_c
        for name in DERIVED_FIELDS:
            object.__setattr__(twin, name, -1.0)
        assert twin == r1
        assert not any(f"{name}=" in repr(twin) for name in DERIVED_FIELDS)

    def test_replace_recomputes_second_moments(self, r1):
        wider = dataclasses.replace(r1, section=CircularSection(200.0, 5.0, 300.0))
        assert (wider.I_s, wider.I_c) == section_second_moments(wider.section)
        assert wider.I_c > r1.I_c

    def test_derived_fields_excluded_from_eq_and_repr(self, r1):
        twin = ColumnSpec(r1.section, r1.steel, r1.concrete)
        object.__setattr__(twin, "xi_c", -1.0)
        assert twin == r1
        assert "xi_c" not in repr(r1) and "A_s" not in repr(r1)
        assert not hasattr(r1, "__dict__")
        for name in DERIVED_FIELDS:
            twin = ColumnSpec(r1.section, r1.steel, r1.concrete)
            object.__setattr__(twin, name, -1.0)
            assert twin == r1, name
            assert f"{name}=" not in repr(r1)

    def test_replace_recomputes_derived_fields(self, r1):
        wider = dataclasses.replace(r1, section=CircularSection(200.0, 5.0, 300.0))
        assert wider.A_c == section_areas(wider.section)[1]
        assert wider.dt_ratio == 40.0
        assert wider.ld_ratio == 1.5
        assert wider.xi_c < r1.xi_c

    def test_flags_aggregate(self, make_column):
        column = make_column(100, 5, 300, 900, 200)
        assert len(column.validity_flags) == 2


def _hand_assembly(D, t, L, f_y, f_u, E_s, fc_measured, fc_kind, d_max, E_c):
    """A column built from its value types, as column_from_inputs' callers once wrote it."""
    converted = convert_strength(MeasuredStrength(fc_measured, fc_kind))
    column = ColumnSpec(CircularSection(D, t, L), SteelMaterial(f_y, f_u, E_s),
                        ConcreteMaterial(converted.f_c, d_max, E_c))
    return column, converted


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _near(*points):
    """Values at, just inside and just outside each validity boundary, and the non-finite ones."""
    near = [v for p in points for v in (p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf))]
    return st.sampled_from(near + [math.nan, math.inf, -math.inf])


# every input drawn across the boundaries of the rule that reads it: positivity, D > 2t,
# f_u >= f_y, the class limits of the conversion and a non-negative d_max
_LENGTH = st.one_of(st.floats(1.0, 5000.0), _near(0.0, 10.0, 20.0))
_STRESS = st.one_of(st.floats(1.0, 1000.0), _near(0.0, 300.0))
_OPTIONAL = st.one_of(st.none(), st.floats(1.0, 3e5), _near(0.0, 300.0))
_STRENGTH = st.one_of(st.floats(1.0, 200.0), _near(0.0, 60.0, 120.0, 122.4, 125.0))


class TestColumnFromInputs:
    @given(st.tuples(_LENGTH, _LENGTH, _LENGTH, _STRESS, _OPTIONAL, _OPTIONAL, _STRENGTH,
                     st.sampled_from(SpecimenKind), st.one_of(st.none(), _near(-1.0, 0.0, 20.0)),
                     _OPTIONAL))
    def test_same_column_as_hand_assembly(self, inputs):
        got, want = _outcome(column_from_inputs, *inputs), _outcome(_hand_assembly, *inputs)
        if isinstance(want[0], type):  # both raise, with one type and message
            assert got == want
            return
        (column, converted), (expected, expected_converted) = got, want
        assert (column.section, column.steel, column.concrete) == (
            expected.section, expected.steel, expected.concrete)
        for name in ("A_s", "A_c", "I_s", "I_c", "dt_ratio", "ld_ratio", "alpha_s", "xi_c"):
            assert getattr(column, name).hex() == getattr(expected, name).hex(), name
        assert column.defaulted == expected.defaulted
        assert converted == expected_converted
        # column_from_inputs may build its objects without their constructors: each must
        # still behave like one built through them
        parts = ((column.section, expected.section), (column.steel, expected.steel),
                 (column.concrete, expected.concrete))
        assert repr(column) == repr(expected)
        assert hash(column) == hash(expected)
        for part, expected_part in parts:
            assert hash(part) == hash(expected_part)
        assert column.steel.defaulted == expected.steel.defaulted
        assert column.concrete.defaulted == expected.concrete.defaulted
        restored = pickle.loads(pickle.dumps(column))
        assert restored == column and restored.defaulted == column.defaulted
        for name in ("A_s", "A_c", "I_s", "I_c", "dt_ratio", "ld_ratio", "alpha_s", "xi_c"):
            assert getattr(restored, name).hex() == getattr(column, name).hex(), name
        for part in (column, column.section, column.steel, column.concrete):
            for f in dataclasses.fields(part):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(part, f.name, getattr(part, f.name))
        section = column.section
        replaced = dataclasses.replace(
            column, section=CircularSection(section.D, section.t, section.L))
        assert replaced == expected
        for name in ("A_s", "A_c", "I_s", "I_c", "dt_ratio", "ld_ratio", "alpha_s", "xi_c"):
            assert getattr(replaced, name).hex() == getattr(expected, name).hex(), name

    def test_converts_before_assembling(self):
        # an unconvertible strength is reported even where the section is impossible too
        with pytest.raises(ConversionError):
            column_from_inputs(100.0, 60.0, 300.0, 300.0, None, None, 150.0, SpecimenKind.CUBE150)

