import math
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from cfstcol import (
    AxialResponse,
    concrete_stress,
    confined_concrete_params,
    response_curve,
    sample_concrete_curve,
    steel_curve_params,
    steel_stress,
)

from conftest import build_column
from test_materials import _envelope, bits

approx = pytest.approx

PLATEAU_LOAD = 638528.706842  # fy*A_s + fc*A_c for the reference column
INITIAL_TANGENT = 462220938.767  # Es*A_s + Ec*A_c


def axial_load(column, eps, f_r_override=None):
    sparams = steel_curve_params(column.steel)
    cparams = confined_concrete_params(column, f_r_override)
    return (
        steel_stress(eps, column.steel, sparams) * column.A_s
        + concrete_stress(eps, column.concrete.f_c, column.concrete.E_c, cparams) * column.A_c
    )


class TestResponseCurve:
    def test_starts_at_origin(self, r1):
        response = response_curve(r1, 0.03, 64)
        assert response.points[0] == (0.0, 0.0)

    def test_initial_tangent(self, r1):
        response = response_curve(r1, 1e-6, 8)
        eps, load = response.points[1]
        assert load / eps == approx(INITIAL_TANGENT, rel=5e-3)

    def test_peak_is_material_plateau(self, r1):
        response = response_curve(r1, 0.03, 200)
        assert response.peak_load == approx(PLATEAU_LOAD, rel=1e-9)
        params = confined_concrete_params(r1)
        assert params.eps_c0 <= response.peak_strain <= params.eps_cc

    def test_peak_first_attainment(self, r1):
        # the plateau starts at eps_c0; ties resolve to the earliest strain
        response = response_curve(r1, 0.03, 200)
        assert response.peak_strain == approx(confined_concrete_params(r1).eps_c0, rel=1e-12)
        assert [load for _, load in response.points].count(response.peak_load) > 1
        assert (response.peak_strain, response.peak_load) == max(response.points, key=itemgetter(1))

    def test_monotone_curve_peaks_at_end(self, r1):
        response = response_curve(r1, 0.0018, 32)
        assert response.peak_strain == response.points[-1][0]
        assert response.peak_load == response.points[-1][1]

    def test_residual_load_is_last_sample(self, r1):
        response = response_curve(r1, 0.03, 100)
        assert response.residual_load == response.points[-1][1]

    def test_breakpoints_sampled(self, r1):
        response = response_curve(r1, 0.03, 64)
        for bp in (0.0015, 0.0225, 0.0018897, 0.00890336203699):
            assert any(abs(s - bp) < 1e-12 for s, _ in response.points)

    def test_continuity_at_breakpoints(self, r1):
        sparams = steel_curve_params(r1.steel)
        cparams = confined_concrete_params(r1)
        for bp in (sparams.eps_y, sparams.eps_p, sparams.eps_u, cparams.eps_c0, cparams.eps_cc):
            below = axial_load(r1, bp * (1 - 1e-12))
            above = axial_load(r1, bp * (1 + 1e-12))
            assert below == approx(above, rel=1e-9)

    def test_refinement_stability(self, r1):
        coarse = response_curve(r1, 0.03, 64).peak_load
        fine = response_curve(r1, 0.03, 128).peak_load
        assert abs(fine - coarse) / fine < 1e-3

    def test_vanishing_steel_reduces_to_concrete_fiber(self):
        column = build_column(100, 1e-6, 300, 300, 30, fu=450)
        response = response_curve(column, 0.01, 50)
        params = confined_concrete_params(column)
        for eps, load in response.points[1:]:
            expected = concrete_stress(eps, 30, column.concrete.E_c, params) * column.A_c
            assert load == approx(expected, rel=1e-4)

    def test_removing_confinement_never_raises_peak(self, r1):
        for fy in (235, 300, 460):
            for dt in (15, 40, 100):
                column = build_column(200, 200 / dt, 600, fy, 30)
                confined = response_curve(column, 0.03, 100).peak_load
                unconfined = response_curve(column, 0.03, 100, f_r_override=0.0).peak_load
                assert unconfined <= confined * (1 + 1e-12)

    def test_argument_validation(self, r1):
        with pytest.raises(ValueError):
            response_curve(r1, 0.0, 64)
        with pytest.raises(ValueError):
            response_curve(r1, 0.03, 7)

    @pytest.mark.parametrize("eps_max", [0.0, -0.03])
    def test_non_positive_extent_is_refused_by_the_grid(self, r1, eps_max):
        with pytest.raises(ValueError, match="eps_max must be positive"):
            response_curve(r1, eps_max, 64)
        # the grid checks the extent after the sample count and the material curves
        with pytest.raises(ValueError, match="need at least 8 samples"):
            response_curve(r1, eps_max, 7)

    @pytest.mark.parametrize("value,message", [
        (math.nan, "f_r_override must be finite"),
        (math.inf, "f_r_override must be finite"),
        (-math.inf, "f_r_override must be finite"),
        (-1.0, "f_r override must be non-negative"),
    ])
    def test_confining_pressure_override_is_checked(self, r1, value, message):
        with pytest.raises(ValueError, match=message):
            confined_concrete_params(r1, f_r_override=value)
        with pytest.raises(ValueError, match=message):
            response_curve(r1, 0.03, 200, f_r_override=value)

    def test_override_gives_the_curve_of_its_parameters(self, r1):
        for eps, load in response_curve(r1, 0.03, 200, f_r_override=0.0).points:
            assert load == approx(axial_load(r1, eps, f_r_override=0.0), rel=1e-12, abs=1e-9)


class TestResponsePeak:
    """``response_curve`` reports the first maximum of its own points."""

    @given(D=_envelope("D"), dt=_envelope("D/t"), fy=_envelope("f_y"), fc=_envelope("f_c"),
           hardening=st.one_of(st.none(), st.floats(1.0, 1.6)), unconfined=st.booleans(),
           eps_max=st.floats(1e-4, 0.2), n=st.integers(8, 300))
    def test_peak_is_the_first_maximum_of_points(self, D, dt, fy, fc, hardening, unconfined, eps_max, n):
        column = build_column(D, D / dt, 3 * D, fy, fc, fu=None if hardening is None else fy * hardening)
        response = response_curve(column, eps_max, n, f_r_override=0.0 if unconfined else None)
        assert (response.peak_strain, response.peak_load) == max(response.points, key=itemgetter(1))
        assert response.residual_load == response.points[-1][1]

    def test_fields(self):
        assert issubclass(AxialResponse, tuple)
        assert AxialResponse._fields == ("points", "peak_load", "peak_strain", "residual_load",
                                         "flags")


class TestLengthIndependence:
    """Neither the fiber response nor the concrete curve reads L, so ``respond`` and
    ``curve concrete`` build their column with a stub length."""

    @given(D=_envelope("D"), dt=_envelope("D/t"),
           lengths=st.lists(st.floats(1e-3, 1e9), min_size=2, max_size=2),
           fy=_envelope("f_y"), fc=_envelope("f_c"),
           hardening=st.one_of(st.none(), st.floats(1.0, 1.6)), unconfined=st.booleans(),
           eps_max=st.floats(1e-4, 0.2), n=st.integers(8, 300))
    def test_columns_that_differ_only_in_length_give_the_same_bits(
            self, D, dt, lengths, fy, fc, hardening, unconfined, eps_max, n):
        fu = None if hardening is None else fy * hardening
        f_r = 0.0 if unconfined else None
        results = []
        for L in lengths:
            column = build_column(D, D / dt, L, fy, fc, fu=fu)
            response = response_curve(column, eps_max, n, f_r_override=f_r)
            curve = sample_concrete_curve(column, n, eps_max)
            results.append([bits(point) for point in (*response.points, *curve.points)]
                           + [bits(response[1:4]), response.flags])
        assert results[0] == results[1]
