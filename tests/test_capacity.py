import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cfstcol import (
    MethodId,
    OliveiraMode,
    PredictionSettings,
    SectionError,
    check_applicability,
    ec4_coefficients,
    eta_c,
    eta_s,
    predict,
    predict_aci,
    predict_aisc,
    predict_cisc,
    predict_dbj,
    predict_ec4,
    predict_guo,
    predict_liu,
    predict_oliveira,
    predict_oshea,
    predict_proposed,
    predict_sun,
    predict_yu,
    predict_zhong_miao,
    proposed_factors,
)
from cfstcol.capacity import _METHODS, NON_PHYSICAL_CONFINED_STRESS, NON_PHYSICAL_LENGTH_FACTOR

from conftest import build_column

approx = pytest.approx


class TestAci:
    def test_reference(self, r1):
        pred = predict_aci(r1)
        assert pred.N_u == approx(609900.943786, rel=1e-9)
        assert pred.applicability.applicable

    def test_steel_term_vanishes(self, make_column):
        column = make_column(100, 5, 300, 1e-6, 30)
        assert predict_aci(column).N_u == approx(0.85 * column.A_c * 30, rel=1e-6)

    def test_low_strength_gated(self, make_column):
        pred = predict_aci(make_column(100, 5, 300, 300, 15))
        assert not pred.applicability.applicable
        violation = pred.applicability.violations[0]
        assert violation.limit == "f_c' >= 17.2 MPa"
        assert violation.bound == 17.2
        assert violation.actual == 15


class TestEc4:
    def test_reference(self, r1):
        pred = predict_ec4(r1)
        assert pred.N_u == approx(832776.018145, rel=1e-9)
        assert pred.intermediates["lambda_bar"] == approx(0.119822707589, rel=1e-9)
        assert pred.intermediates["eta_a"] == approx(0.809911353795, rel=1e-9)
        assert pred.intermediates["eta_c_ec4"] == approx(2.92735709092, rel=1e-9)
        assert pred.intermediates["N_pl_Rk"] == approx(609900.943786, rel=1e-9)
        assert pred.intermediates["N_cr"] == approx(42479661.5087, rel=1e-9)

    def test_zero_slenderness_limit(self, make_column):
        c = ec4_coefficients(build_column(100, 5, 1.0, 300, 30, fu=450))
        assert c.eta_a == approx(0.75, rel=1e-3)
        assert c.eta_c_ec4 == approx(4.9, rel=1e-2)

    def test_clamps(self, make_column):
        # long column: eta_a capped at 1, eta_c floored at 0
        c = ec4_coefficients(build_column(100, 5, 4000, 300, 30, fu=450))
        assert c.eta_a == 1.0
        assert c.eta_c_ec4 >= 0.0

    def test_low_strength_gated(self, make_column):
        pred = predict_ec4(make_column(100, 5, 300, 300, 15))
        assert not pred.applicability.applicable

    def test_ke_setting(self, r1):
        stiffer = predict_ec4(r1, PredictionSettings(K_e=0.9))
        assert stiffer.intermediates["N_cr"] > predict_ec4(r1).intermediates["N_cr"]


class TestAisc:
    def test_reference(self, r1):
        pred = predict_aisc(r1)
        assert pred.N_u == approx(625391.556639, rel=1e-9)
        assert pred.intermediates["P_0"] == approx(628986.119157, rel=1e-9)
        assert pred.intermediates["P_e"] == approx(45934591.5224, rel=1e-9)
        assert pred.intermediates["C_3"] == approx(0.98, rel=1e-12)
        assert any("C_3" in d for d in pred.diagnostics)

    def test_never_exceeds_squash_load(self, r1):
        for L in (50, 300, 1500, 5000, 20000):
            column = build_column(100, 5, L, 300, 30, fu=450)
            pred = predict_aisc(column)
            assert pred.N_u <= pred.intermediates["P_0"] * (1 + 1e-12)

    def test_stocky_limit_recovers_squash_load(self):
        pred = predict_aisc(build_column(100, 5, 1.0, 300, 30, fu=450))
        assert pred.N_u == approx(pred.intermediates["P_0"], rel=1e-6)

    def test_elastic_branch(self):
        pred = predict_aisc(build_column(100, 5, 8000, 300, 30, fu=450))
        assert pred.intermediates["P_e"] < 0.44 * pred.intermediates["P_0"]
        assert pred.N_u == approx(0.877 * pred.intermediates["P_e"], rel=1e-12)

    def test_high_yield_gated(self, make_column):
        pred = predict_aisc(make_column(100, 5, 300, 600, 30))
        assert not pred.applicability.applicable
        assert any(v.limit == "fy <= 525 MPa" for v in pred.applicability.violations)


class TestCisc:
    def test_reference(self, r1):
        pred = predict_cisc(r1)
        assert pred.N_u == approx(895949.00156, rel=1e-9)
        assert pred.intermediates["rho"] == approx(0.44, rel=1e-12)
        assert pred.intermediates["tau"] == approx(0.782396929906, rel=1e-9)
        assert pred.intermediates["tau_prime"] == approx(3.36675071296, rel=1e-9)
        assert pred.intermediates["lambda"] == approx(0.145267137594, rel=1e-9)

    def test_branch_boundary_at_ld_25(self):
        pred = predict_cisc(build_column(100, 5, 2500, 300, 30, fu=450))
        assert pred.intermediates["tau"] == 1.0
        assert pred.intermediates["tau_prime"] == 1.0
        base = 1492.25651046 * 300 + 0.85 * 6361.72512352 * 30
        lam = pred.intermediates["lambda"]
        assert pred.N_u == approx(base * (1 + lam**3.6) ** -0.556, rel=1e-6)

    def test_slenderness_factor_limit(self):
        pred = predict_cisc(build_column(100, 5, 1.0, 300, 30, fu=450))
        lam = pred.intermediates["lambda"]
        assert (1 + lam**3.6) ** -0.556 == approx(1.0, rel=1e-9)

    def test_always_applicable(self, make_column):
        assert predict_cisc(make_column(100, 0.4, 300, 900, 200)).applicability.applicable


class TestDbj:
    def test_reference(self, r1):
        pred = predict_dbj(r1)
        assert pred.N_u == approx(768248.320168, rel=1e-9)
        assert pred.intermediates["f_ck"] == approx(22.8409090909, rel=1e-9)
        assert pred.intermediates["xi_dbj"] == approx(3.08089183711, rel=1e-9)

    def test_hsc_back_conversion(self, make_column):
        pred = predict_dbj(make_column(100, 5, 300, 300, 65))
        assert pred.intermediates["f_ck"] == approx(0.67 * 65 / 0.98, rel=1e-12)

    def test_uhsc_extrapolated_with_diagnostic(self, make_column):
        pred = predict_dbj(make_column(100, 5, 300, 300, 130))
        assert math.isfinite(pred.N_u)
        assert any("UHSC" in d for d in pred.diagnostics)
        assert not pred.applicability.applicable

    def test_zero_confinement_coefficient(self, make_column):
        # with a vanishing steel contribution N tends to 1.14*f_ck*(A_s + A_c)
        column = make_column(100, 5, 300, 1e-6, 30)
        pred = predict_dbj(column)
        expected = pred.intermediates["f_ck"] * 1.14 * (column.A_s + column.A_c)
        assert pred.N_u == approx(expected, rel=1e-6)

    def test_yield_band_gated(self, make_column):
        pred = predict_dbj(make_column(100, 5, 300, 500, 30))
        assert any(v.limit == "235 <= fy <= 420 MPa" for v in pred.applicability.violations)


class TestOshea:
    def test_reference_non_physical(self, r1):
        pred = predict_oshea(r1)
        assert pred.N_u == approx(220701.66118, rel=1e-9)
        assert pred.intermediates["sigma_cp"] == approx(-35.6782614071, rel=1e-9)
        assert any(NON_PHYSICAL_CONFINED_STRESS in d for d in pred.diagnostics)

    def test_high_strength_branch(self, make_column):
        pred = predict_oshea(make_column(100, 5, 300, 300, 60, fu=450))
        assert pred.intermediates["p"] == approx(28.0873782778, rel=1e-9)
        assert pred.intermediates["k"] == approx(0.544406868448, rel=1e-9)
        assert pred.intermediates["sigma_cp"] == approx(73.9499466216, rel=1e-9)
        assert pred.N_u == approx(918126.186442, rel=1e-9)
        assert pred.diagnostics == ()

    def test_zero_p_case(self, make_column):
        # fc/fy = 0.49 makes the internal pressure p vanish exactly
        column = make_column(100, 5, 300, 50, 24.5)
        pred = predict_oshea(column)
        assert pred.intermediates["p"] == approx(0.0, abs=1e-12)
        f_l = 0.558 * math.sqrt(24.5)
        expected = 24.5 * (-1.228 + 2.172 * math.sqrt(1 + 7.46 * f_l / 24.5))
        assert pred.intermediates["sigma_cp"] == approx(expected, rel=1e-12)

    def test_fc_above_100_flagged(self, make_column):
        pred = predict_oshea(make_column(100, 5, 300, 300, 120))
        assert any("f_c > 100" in d for d in pred.diagnostics)

    def test_thin_tube_gated(self, make_column):
        pred = predict_oshea(make_column(500, 2, 1500, 300, 30))
        assert not pred.applicability.applicable
        assert pred.applicability.violations[0].limit == "D/t <= 200"


class TestYu:
    def test_reference_inapplicable(self, r1):
        pred = predict_yu(r1)
        assert pred.N_u == approx(817458.116427, rel=1e-9)
        assert pred.intermediates["f_cc"] == approx(128.496296296, rel=1e-9)
        assert not pred.applicability.applicable
        assert any(v.limit == "0.2 <= xi <= 2" for v in pred.applicability.violations)

    def test_amplification_relation(self, r1):
        pred = predict_yu(r1)
        assert pred.intermediates["f_cc"] / 30 == approx(1.14 + 1.34 * r1.xi_c, rel=1e-12)

    def test_strength_band_gated(self, make_column):
        pred = predict_yu(make_column(200, 5, 600, 300, 70))
        assert any(v.limit == "30 <= f_c' <= 60 MPa" for v in pred.applicability.violations)

    def test_applicable_example(self, make_column):
        # xi close to 1 with fy=300, fc=45 sits inside every band
        column = make_column(200, 6.75, 600, 300, 45)
        assert 0.2 <= column.xi_c <= 2
        assert predict_yu(column).applicability.applicable


class TestLiu:
    def test_reference(self, r1):
        pred = predict_liu(r1)
        assert pred.N_u == approx(933430.009235, rel=1e-9)
        assert pred.intermediates["sigma_r"] == approx(18.0, rel=1e-12)
        assert pred.intermediates["sigma_r_simplified"] == approx(16.2, rel=1e-12)
        assert pred.intermediates["sigma_cp"] == approx(103.8, rel=1e-12)
        assert any("forms differ" in d for d in pred.diagnostics)

    def test_thin_tube_limit(self, make_column):
        column = make_column(100, 0.001, 300, 300, 30)
        pred = predict_liu(column)
        assert pred.N_u == approx(30 * column.A_c, rel=1e-3)

    def test_always_applicable(self, r1):
        assert predict_liu(r1).applicability.applicable


class TestSun:
    def test_reference(self, r1):
        pred = predict_sun(r1)
        assert pred.N_u == approx(1108589.50764, rel=1e-9)
        assert pred.intermediates["f_cc"] == approx(174.259259259, rel=1e-9)

    def test_confinement_vanishes_at_large_dt(self, make_column):
        column = make_column(1000, 0.01, 3000, 300, 30)
        assert predict_sun(column).intermediates["f_cc"] == approx(30.0, rel=1e-3)

    def test_singularity_excluded_by_geometry(self):
        # D/t <= 2 would be singular, but such a tube has no core at all
        with pytest.raises(SectionError):
            build_column(100, 50, 300, 300, 30)


class TestZhongMiao:
    def test_reference(self, r1):
        pred = predict_zhong_miao(r1)
        assert pred.N_u == approx(588055.42651, rel=1e-9)
        assert pred.intermediates["mu_prime"] == approx(-0.649446494465, rel=1e-9)
        assert pred.intermediates["steel_factor"] == approx(0.887255128998, rel=1e-9)

    def test_linear_in_p0(self, r1):
        base = predict_zhong_miao(r1, p_0=0.0).N_u
        assert predict_zhong_miao(r1, p_0=5.0).N_u == approx(base + 4 * 5 * r1.A_c, rel=1e-12)

    def test_high_confinement_limit(self, make_column):
        column = make_column(100, 5, 300, 1e5, 30)
        pred = predict_zhong_miao(column)
        assert pred.intermediates["mu_prime"] == approx(-0.5, abs=1e-3)
        assert pred.intermediates["steel_factor"] == approx(1.0, abs=1e-3)

    def test_negative_p0_rejected(self, r1):
        with pytest.raises(ValueError):
            predict_zhong_miao(r1, p_0=-1.0)


class TestGuo:
    def test_reference_inapplicable(self, r1):
        pred = predict_guo(r1)
        assert pred.N_u == approx(975597.499656, rel=1e-9)
        assert pred.intermediates["f_cc"] == approx(153.354236581, rel=1e-9)
        assert not pred.applicability.applicable
        violation = pred.applicability.violations[0]
        assert violation.limit == "xi <= 1.7" and violation.bound == 1.7

    def test_unconfined_limit(self, make_column):
        column = make_column(100, 5, 300, 1e-6, 30)
        assert predict_guo(column).N_u == approx(30 * column.A_c, rel=1e-3)

    def test_amplification_relation(self, r1):
        xi = r1.xi_c
        assert predict_guo(r1).intermediates["f_cc"] / 30 == approx(
            1 + math.sqrt(xi) + 1.1 * xi, rel=1e-12
        )


class TestOliveira:
    def test_reference_short(self, r1):
        pred = predict_oliveira(r1)
        assert pred.N_u == approx(638528.706842, rel=1e-9)
        assert pred.intermediates["lambda"] == 1.0
        assert pred.applicability.applicable

    def test_as_printed_negative_lambda(self, make_column):
        pred = predict_oliveira(make_column(100, 5, 400, 300, 30))
        assert pred.intermediates["lambda"] == approx(-0.249532985002, rel=1e-9)
        assert any(NON_PHYSICAL_LENGTH_FACTOR in d for d in pred.diagnostics)

    def test_corrected_mode_continuous(self, make_column):
        column = make_column(100, 5, 400, 300, 30)
        pred = predict_oliveira(column, OliveiraMode.CORRECTED)
        assert pred.intermediates["lambda"] == approx(0.948217226959, rel=1e-9)
        assert pred.diagnostics == ()
        just_above = predict_oliveira(make_column(100, 5, 300.0003, 300, 30), OliveiraMode.CORRECTED)
        assert just_above.intermediates["lambda"] == approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("L,ok", [(50, False), (100, True), (1000, True), (1200, False)])
    def test_ld_band(self, make_column, L, ok):
        pred = predict_oliveira(make_column(100, 5, L, 300, 30))
        assert pred.applicability.applicable is ok


class TestProposed:
    def test_factors(self, r1):
        factors = proposed_factors(r1)
        assert factors.eta_c == approx(3.49143422597, rel=1e-9)
        assert factors.eta_s == approx(0.351808943648, rel=1e-9)

    def test_reference(self, r1):
        pred = predict_proposed(r1)
        assert pred.N_u == approx(823843.100952, rel=1e-9)
        assert pred.applicability.applicable

    def test_superposition_identity(self, r1):
        pred = predict_proposed(r1)
        concrete_part = pred.intermediates["eta_c"] * r1.A_c * 30
        steel_part = pred.intermediates["eta_s"] * r1.A_s * 300
        assert pred.N_u == approx(concrete_part + steel_part, rel=1e-12)

    def test_envelope_flagged_but_applicable(self, make_column):
        pred = predict_proposed(make_column(100, 5, 300, 1000, 30, fu=1100))
        assert pred.applicability.applicable
        assert any("envelope" in d for d in pred.diagnostics)

    def test_eta_functions(self):
        assert eta_c(20, 30, 0.0) == 0.85
        assert eta_s(0.0, 30, 300) == 0.0
        assert eta_c(30, 30, 1.0) > eta_c(20, 30, 1.0)
        assert eta_s(0.3, 30, 300) > eta_s(0.2, 30, 300)


AREA_PROPORTIONAL = [
    MethodId.ACI,
    MethodId.YU,
    MethodId.LIU,
    MethodId.SUN,
    MethodId.ZHONG_MIAO,
    MethodId.GUO,
    MethodId.DE_OLIVEIRA,
    MethodId.PROPOSED,
]


class TestCrossCutting:
    @given(scale=st.floats(0.5, 4.0))
    def test_homothetic_in_area(self, scale):
        # L/D = 2.5 keeps clear of the De Oliveira branch switch at exactly 3,
        # which float rounding of the scaled ratio could otherwise cross
        base = build_column(100, 5, 250, 300, 30, fu=450)
        scaled = build_column(100 * scale, 5 * scale, 250 * scale, 300, 30, fu=450)
        for method in AREA_PROPORTIONAL:
            n_base = predict(base, method).N_u
            n_scaled = predict(scaled, method).N_u
            assert n_scaled == approx(scale**2 * n_base, rel=1e-9)

    def test_stress_scaling_leaves_ratios_unchanged(self, make_column):
        a = make_column(100, 5, 300, 300, 30)
        b = make_column(100, 5, 300, 300 * 2.5, 30 * 2.5)
        assert a.xi_c == approx(b.xi_c, rel=1e-12)
        mu_a = predict_zhong_miao(a).intermediates["mu_prime"]
        mu_b = predict_zhong_miao(b).intermediates["mu_prime"]
        assert mu_a == approx(mu_b, rel=1e-12)
        for method in (MethodId.GUO, MethodId.YU):
            amp_a = predict(a, method).intermediates["f_cc"] / 30
            amp_b = predict(b, method).intermediates["f_cc"] / (30 * 2.5)
            assert amp_a == approx(amp_b, rel=1e-12)

    def test_deterministic(self, r1):
        for method in MethodId:
            assert predict(r1, method).N_u == predict(r1, method).N_u

    def test_check_applicability_rejects_unknown(self, r1):
        with pytest.raises(ValueError):
            check_applicability("not-a-method", r1)

    def test_no_limit_methods_always_applicable(self, make_column):
        column = make_column(100, 0.4, 2000, 900, 200)
        for method in (MethodId.LIU, MethodId.SUN, MethodId.ZHONG_MIAO, MethodId.PROPOSED, MethodId.CISC):
            assert check_applicability(method, column).applicable

    @pytest.mark.parametrize("field", ["K_e", "K", "r_cc", "dbj_fck_factor"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_settings_reject_non_finite(self, field, bad):
        with pytest.raises(ValueError, match="must be finite"):
            PredictionSettings(**{field: bad})

    def test_inapplicable_still_reports_load(self, make_column):
        pred = predict_yu(make_column(100, 5, 300, 600, 80))
        assert not pred.applicability.applicable
        assert pred.N_u > 0


# Every fixed-float bound on f_y, f_c and L/D: (method, printed limit, quantity, bound, side).
FIXED_BOUNDS = [
    (MethodId.EC4, "f_c' >= 17.2 MPa", "f_c", 17.2, "lower"),
    (MethodId.ACI, "f_c' >= 17.2 MPa", "f_c", 17.2, "lower"),
    (MethodId.AISC, "fy <= 525 MPa", "f_y", 525.0, "upper"),
    (MethodId.AISC, "21 <= f_c' <= 70 MPa", "f_c", 21.0, "lower"),
    (MethodId.AISC, "21 <= f_c' <= 70 MPa", "f_c", 70.0, "upper"),
    (MethodId.DBJ, "235 <= fy <= 420 MPa", "f_y", 235.0, "lower"),
    (MethodId.DBJ, "235 <= fy <= 420 MPa", "f_y", 420.0, "upper"),
    (MethodId.DBJ, "24 <= f_c' <= 70 MPa", "f_c", 24.0, "lower"),
    (MethodId.DBJ, "24 <= f_c' <= 70 MPa", "f_c", 70.0, "upper"),
    (MethodId.YU, "235 <= fy <= 345 MPa", "f_y", 235.0, "lower"),
    (MethodId.YU, "235 <= fy <= 345 MPa", "f_y", 345.0, "upper"),
    (MethodId.YU, "30 <= f_c' <= 60 MPa", "f_c", 30.0, "lower"),
    (MethodId.YU, "30 <= f_c' <= 60 MPa", "f_c", 60.0, "upper"),
    (MethodId.DE_OLIVEIRA, "1 <= L/D <= 10", "L/D", 1.0, "lower"),
    (MethodId.DE_OLIVEIRA, "1 <= L/D <= 10", "L/D", 10.0, "upper"),
]


def _column_at(quantity, value):
    """D/t = 32, L/D = 3, f_y = 300, f_c = 40 (inside every limit) with one quantity set.

    D is a power of two, so L = value*D gives L/D == value exactly.
    """
    D, L, f_y, f_c = 128.0, 384.0, 300.0, 40.0
    if quantity == "f_y":
        f_y = value
    elif quantity == "f_c":
        f_c = value
    else:
        L = value * D
    return build_column(D, 4.0, L, f_y, f_c)


class TestInclusiveBounds:
    @pytest.mark.parametrize("method,limit,quantity,bound,side", FIXED_BOUNDS)
    def test_applicable_at_the_bound(self, method, limit, quantity, bound, side):
        assert check_applicability(method, _column_at(quantity, bound)).applicable

    @pytest.mark.parametrize("method,limit,quantity,bound,side", FIXED_BOUNDS)
    def test_violated_one_step_outside(self, method, limit, quantity, bound, side):
        outside = math.nextafter(bound, -math.inf if side == "lower" else math.inf)
        report = check_applicability(method, _column_at(quantity, outside))
        assert report.violations == ((limit, bound, outside),)


def test_readme_limits_list_matches_the_method_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Applicability limits\n", 1)[1].split("\n## ", 1)[0]
    listed = [line for line in section.splitlines() if line.startswith("- ")]
    expected = []
    for method in MethodId:
        texts = ", ".join(f"`{text}`" for text, *_ in _METHODS[method][1])
        expected.append(f"- `{method.value}`: {texts or 'none'}")
    assert listed == expected


class TestMethodId:
    def test_lookup_by_value_finds_member(self):
        for i, m in enumerate(MethodId):
            assert {m: i}[MethodId(m.value)] == i

    def test_pickle_returns_the_member(self):
        for m in MethodId:
            assert pickle.loads(pickle.dumps(m)) is m
