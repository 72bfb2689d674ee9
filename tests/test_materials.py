import math
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from cfstcol import (
    CdpmParameterSet,
    ConfinedConcreteParams,
    SteelCurveParams,
    SteelMaterial,
    biaxial_ratio,
    cdpm_parameters,
    concrete_stress,
    confined_concrete_params,
    confined_peak_strain,
    confining_pressure,
    dilation_angle,
    fracture_energy,
    kc,
    peak_strain_unconfined,
    residual_stress,
    sample_concrete_curve,
    sample_steel_curve,
    softening_params,
    steel_curve_params,
    steel_stress,
)
from cfstcol.capacity import DATABASE_ENVELOPE
from cfstcol.materials import StressStrainCurve, _concrete_stresses, _steel_stresses, sample_grid

from conftest import build_column

approx = pytest.approx

STEEL_R1 = SteelMaterial(300.0, 450.0, 200_000.0)


class TestSteelCurveParams:
    def test_low_strength_branch(self):
        params = steel_curve_params(STEEL_R1)
        assert params.eps_y == approx(0.0015)
        assert params.eps_p == approx(0.0225)
        assert params.eps_u == approx(0.15)
        assert params.E_p == approx(4000.0)
        assert params.p == approx(3.4, rel=1e-12)

    def test_high_strength_branch(self):
        params = steel_curve_params(SteelMaterial(460.0, 575.0, 200_000.0))
        assert params.eps_p == approx(0.027876, rel=1e-9)
        assert params.eps_u == approx(0.1748, rel=1e-9)

    def test_extrapolation_flagged_above_800(self):
        params = steel_curve_params(SteelMaterial(850.0, 1000.0, 200_000.0))
        assert any("extrapolated" in f for f in params.flags)

    def test_ordering_breakdown_rejected(self):
        # beyond ~944 MPa the extrapolated ultimate strain drops below the onset strain
        with pytest.raises(ValueError):
            steel_curve_params(SteelMaterial(950.0, 1100.0, 200_000.0))

    def test_degenerate_plateau(self):
        params = steel_curve_params(SteelMaterial(300.0, 300.0, 200_000.0))
        assert params.p is None
        assert any("plateau" in f for f in params.flags)


class TestSteelStress:
    def test_origin(self):
        params = steel_curve_params(STEEL_R1)
        assert steel_stress(0.0, STEEL_R1, params) == 0.0

    def test_hardening_branch_value(self):
        params = steel_curve_params(STEEL_R1)
        assert steel_stress(0.05, STEEL_R1, params) == approx(384.331570373, rel=1e-9)
        assert steel_stress(0.10, STEEL_R1, params) == approx(443.779079582, rel=1e-9)

    def test_branch_endpoints_exact(self):
        params = steel_curve_params(STEEL_R1)
        assert steel_stress(params.eps_p, STEEL_R1, params) == 300.0
        assert steel_stress(params.eps_u, STEEL_R1, params) == 450.0
        assert steel_stress(0.2, STEEL_R1, params) == 450.0

    def test_negative_strain_rejected(self):
        params = steel_curve_params(STEEL_R1)
        with pytest.raises(ValueError):
            steel_stress(-0.001, STEEL_R1, params)

    def test_degenerate_plateau_constant(self):
        steel = SteelMaterial(300.0, 300.0, 200_000.0)
        params = steel_curve_params(steel)
        for eps in (0.0016, 0.05, 0.149, 0.2):
            assert steel_stress(eps, steel, params) == 300.0

    @pytest.mark.parametrize("fy", [235.0, 300.0, 460.0, 800.0])
    def test_continuity_at_breakpoints(self, fy):
        steel = SteelMaterial(fy, 1.25 * fy, 200_000.0)
        params = steel_curve_params(steel)
        for bp in (params.eps_y, params.eps_p, params.eps_u):
            below = steel_stress(bp * (1 - 1e-12), steel, params)
            above = steel_stress(bp * (1 + 1e-12), steel, params)
            assert below == approx(above, rel=1e-9)

    @given(fy=st.floats(200.0, 800.0))
    def test_non_decreasing_up_to_ultimate(self, fy):
        steel = SteelMaterial(fy, 1.3 * fy, 200_000.0)
        params = steel_curve_params(steel)
        grid = [params.eps_u * i / 200 for i in range(201)]
        stresses = [steel_stress(e, steel, params) for e in grid]
        assert all(b >= a - 1e-9 for a, b in zip(stresses, stresses[1:]))


class TestCdpmScalars:
    def test_biaxial_ratio(self):
        assert biaxial_ratio(30) == approx(1.16227036616, rel=1e-9)
        assert biaxial_ratio(1) == approx(1.5)
        assert biaxial_ratio(50) < biaxial_ratio(20)

    def test_kc(self):
        assert kc(30) == approx(0.725483119575, rel=1e-9)
        assert kc(1) == approx(5.5 / 7.0)
        for fc in range(10, 201, 5):
            assert 0.5 < kc(fc) < 1.0

    def test_dilation_angle_branches(self):
        assert dilation_angle(0.0) == approx(56.3)
        assert dilation_angle(0.5) == approx(28.15)
        assert dilation_angle(0.5 + 1e-12) == approx(28.1517179463, rel=1e-6)
        assert dilation_angle(2.34567901235) == approx(19.244584902, rel=1e-9)
        with pytest.raises(ValueError):
            dilation_angle(-0.1)

    def test_dilation_angle_bounded(self):
        for xi in [0.0, 0.1, 0.5, 0.7, 1.0, 3.0, 10.0, 100.0]:
            assert 0.0 <= dilation_angle(xi) <= 56.3

    def test_fracture_energy(self):
        assert fracture_energy(30, 20) == approx(0.0385704960488, rel=1e-9)
        assert fracture_energy(10, 0) == approx(0.026, rel=1e-12)

    def test_fracture_energy_prefactor_positive_at_vertex(self):
        # quadratic in d_max has its minimum near 53.3 mm and stays positive
        d_vertex = 0.5 / (2 * 0.00469)
        assert fracture_energy(10, d_vertex) > 0.0

    def test_cdpm_parameter_set(self, r1):
        params = cdpm_parameters(r1)
        assert params.psi == approx(19.244584902, rel=1e-9)
        assert params.fb0_ratio == approx(1.16227036616, rel=1e-9)
        assert params.K_c == approx(0.725483119575, rel=1e-9)
        assert params.G_f == approx(0.0385704960488, rel=1e-9)
        assert params.ecc == 0.1
        assert params.viscosity == 0.0


class TestConfinedConcreteScalars:
    def test_peak_strain_unconfined(self):
        assert peak_strain_unconfined(30) == approx(1.8897e-3, rel=1e-9)
        assert peak_strain_unconfined(100) == approx(3.373e-3, rel=1e-9)

    def test_peak_strain_positive_over_claimed_range(self):
        for fc in [0.5 + 2.0 * i for i in range(223)]:  # up to 444.5
            assert peak_strain_unconfined(fc) > 0.0

    def test_confining_pressure_reference(self):
        assert confining_pressure(300, 30, 20) == approx(6.98401166773, rel=1e-9)

    def test_confining_pressure_decays_with_dt(self):
        assert confining_pressure(300, 30, 1e6) < 1e-300 * confining_pressure(300, 30, 20) or \
            confining_pressure(300, 30, 2000) < 1e-15

    def test_confining_pressure_fc_insensitive(self):
        values = [confining_pressure(300, fc, 20) for fc in (20, 60, 120, 185)]
        assert max(values) / min(values) - 1 < 1e-9

    def test_confined_peak_strain(self):
        eps_c0 = peak_strain_unconfined(30)
        assert confined_peak_strain(eps_c0, 0.0, 30) == eps_c0
        assert confined_peak_strain(eps_c0, 6.98401166773, 30) == approx(0.00890336203699, rel=1e-9)
        assert confined_peak_strain(eps_c0, 8.0, 30) > confined_peak_strain(eps_c0, 6.0, 30)

    def test_residual_stress_cap(self):
        assert residual_stress(0.0, 30) == 0.0
        assert residual_stress(2.34567901235, 30) == approx(7.5)  # cap active
        for xi in [0.05 * i for i in range(1, 200)]:
            assert residual_stress(xi, 30) <= 0.25 * 30 + 1e-12

    def test_residual_cap_onset(self):
        # cap engages where 0.7*(1 - exp(-1.38 xi)) = 0.25
        onset = 0.320168661072
        assert residual_stress(onset * 0.999, 30) < 7.5
        assert residual_stress(onset * 1.001, 30) == approx(7.5, rel=1e-4)

    def test_softening_params(self):
        alpha0, beta0 = softening_params(0.0)
        assert alpha0 == approx(0.00506553175045, rel=1e-9)
        assert beta0 == 1.2
        alpha_inf, _ = softening_params(50.0)
        assert alpha_inf == approx(0.04, rel=1e-9)
        for xi in [0.1 * i for i in range(100)]:
            alpha, beta = softening_params(xi)
            assert 0.004 <= alpha <= 0.04
            assert beta == 1.2

    def test_softening_params_thick_tube_takes_the_exact_limit(self):
        # exp(6.08*xi_c - 3.49) overflows above xi_c ~ 117.3; alpha's limit is 0.04
        assert softening_params(1000.0) == (0.04, 1.2)
        assert softening_params(117.0) == (0.04, 1.2)


class TestConcreteStress:
    def test_reference_params(self, r1):
        params = confined_concrete_params(r1)
        assert params.eps_c0 == approx(1.8897e-3, rel=1e-9)
        assert params.f_r == approx(6.98401166773, rel=1e-9)
        assert params.eps_cc == approx(0.00890336203699, rel=1e-9)
        assert params.f_re == approx(7.5)
        assert params.alpha == approx(0.0399992445753, rel=1e-9)
        assert params.beta == 1.2

    def test_origin_and_peak(self, r1):
        params = confined_concrete_params(r1)
        assert concrete_stress(0.0, 30, r1.concrete.E_c, params) == 0.0
        at_peak = concrete_stress(params.eps_c0, 30, r1.concrete.E_c, params)
        assert at_peak == approx(30.0, rel=1e-12)

    def test_ascending_value(self, r1):
        params = confined_concrete_params(r1)
        assert concrete_stress(0.001, 30, r1.concrete.E_c, params) == approx(23.326149647, rel=1e-9)

    def test_plateau(self, r1):
        params = confined_concrete_params(r1)
        for eps in (0.002, 0.005, 0.0089):
            assert concrete_stress(eps, 30, r1.concrete.E_c, params) == 30.0

    def test_softening_value_and_limit(self, r1):
        params = confined_concrete_params(r1)
        assert concrete_stress(0.02, 30, r1.concrete.E_c, params) == approx(25.653206087, rel=1e-9)
        assert concrete_stress(5.0, 30, r1.concrete.E_c, params) == approx(params.f_re, rel=1e-9)

    def test_bounded_between_residual_and_peak(self, r1):
        params = confined_concrete_params(r1)
        for i in range(1, 400):
            eps = 0.0001 * i
            sigma = concrete_stress(eps, 30, r1.concrete.E_c, params)
            assert sigma <= 30.0 + 1e-9
            if eps >= params.eps_cc:
                assert sigma >= params.f_re - 1e-9

    def test_continuity_at_stage_boundaries(self, r1):
        params = confined_concrete_params(r1)
        for bp in (params.eps_c0, params.eps_cc):
            below = concrete_stress(bp * (1 - 1e-12), 30, r1.concrete.E_c, params)
            above = concrete_stress(bp * (1 + 1e-12), 30, r1.concrete.E_c, params)
            assert below == approx(above, rel=1e-9)

    def test_initial_tangent_matches_ec(self, r1):
        params = confined_concrete_params(r1)
        h = 1e-9
        slope = concrete_stress(h, 30, r1.concrete.E_c, params) / h
        assert slope == approx(r1.concrete.E_c, rel=1e-3)

    def test_fit_range_flag(self, make_column):
        column = make_column(100, 5, 300, 300, 150)
        params = confined_concrete_params(column)
        assert any("peak-strain regression" in f for f in params.flags)

    def test_fr_override(self, r1):
        params = confined_concrete_params(r1, f_r_override=0.0)
        assert params.f_r == 0.0
        assert params.eps_cc == params.eps_c0


class TestSampling:
    def test_grid_places_breakpoints_exactly(self):
        grid = sample_grid([0.0015, 0.0225, 0.15], 0.2, 37)
        assert len(grid) == 37
        for bp in (0.0, 0.0015, 0.0225, 0.15, 0.2):
            assert bp in grid
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_grid_grows_when_n_too_small(self):
        grid = sample_grid([0.0015, 0.0225, 0.15], 0.2, 2)
        assert grid == [0.0, 0.0015, 0.0225, 0.15, 0.2]

    @pytest.mark.parametrize("eps_max", [math.nan, math.inf])
    def test_grid_rejects_non_finite_extent(self, eps_max):
        with pytest.raises(ValueError, match="eps_max must be finite"):
            sample_grid([0.001], eps_max, 10)

    def test_grid_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_grid([], 0.0, 10)
        with pytest.raises(ValueError):
            sample_grid([], 0.1, 1)

    def test_steel_two_point_curve(self):
        curve = sample_steel_curve(STEEL_R1, 2, eps_max=0.0015)
        assert curve.points == ((0.0, 0.0), (0.0015, 300.0))

    def test_steel_curve_default_extent(self):
        curve = sample_steel_curve(STEEL_R1, 50)
        assert curve.points[-1] == (0.15, 450.0)
        strains = [eps for eps, _ in curve.points]
        assert 0.0015 in strains and 0.0225 in strains

    def test_concrete_curve_contains_peak_row(self, r1):
        curve = sample_concrete_curve(r1, 80, 0.03)
        idx = [eps for eps, _ in curve.points].index(pytest.approx(1.8897e-3, rel=1e-12))
        assert curve.points[idx][1] == approx(30.0, rel=1e-12)

    def test_concrete_curve_breakpoints_present_regardless_of_n(self, r1):
        for n in (2, 8, 64):
            curve = sample_concrete_curve(r1, n, 0.03)
            assert any(math.isclose(s, 1.8897e-3, rel_tol=1e-12) for s, _ in curve.points)
            assert any(math.isclose(s, 0.00890336203699, rel_tol=1e-9) for s, _ in curve.points)

    def test_curve_validation(self, r1):
        # an extent of one subnormal leaves no room for the samples, so the grid repeats a strain
        with pytest.raises(ValueError, match="^strains must be strictly increasing$"):
            sample_steel_curve(STEEL_R1, 3, eps_max=5e-324)
        with pytest.raises(ValueError, match="^strains must be strictly increasing$"):
            sample_concrete_curve(r1, 8, 5e-324)
        with pytest.raises(ValueError, match="^strains must be strictly increasing$"):
            sample_grid([], 5e-324, 3)

    @given(eps_max=st.floats(5e-324, 1e300), n=st.integers(2, 400), data=st.data())
    def test_grid_strictly_increases_or_raises(self, eps_max, n, data):
        # any floats, and ones inside the extent, where stages can shrink to a few ulps
        breakpoints = data.draw(st.lists(st.one_of(st.floats(), st.floats(0.0, eps_max)),
                                         max_size=6))
        try:
            grid = sample_grid(breakpoints, eps_max, n)
        except ValueError as exc:
            assert str(exc) == "strains must be strictly increasing"
            return
        inside = {b for b in breakpoints if 0.0 < b < eps_max}
        assert grid[0] == 0.0 and grid[-1] == eps_max
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert inside <= set(grid)
        assert len(grid) == max(n, len(inside) + 2)



STEEL_RANGE = "f_y={:g} MPa outside steel model range [200, 800] MPa"
EXTRAPOLATED = "hardening strains extrapolated beyond 800 MPa"
CONCRETE_RANGE = "f_c={:g} MPa outside database range [12.5, 185.6] MPa"
FIT_RANGE = "peak-strain regression fitted for f_c in [6, 105] MPa"


class TestCurveFlagRangeEnds:
    """A printed range end raises no flag on the sampled curve; a value just outside does."""

    @pytest.mark.parametrize("f_y,flags", [
        (200.0, ()),
        (199.9999, (STEEL_RANGE.format(199.9999),)),
        (800.0, ()),
        (800.0001, (STEEL_RANGE.format(800.0001), EXTRAPOLATED)),
    ])
    def test_steel(self, f_y, flags):
        assert sample_steel_curve(SteelMaterial(f_y, 1.1 * f_y), 50).flags == flags

    @pytest.mark.parametrize("f_c,flags", [
        (6.0, (CONCRETE_RANGE.format(6.0),)),
        (5.9999, (CONCRETE_RANGE.format(5.9999), FIT_RANGE)),
        (12.5, ()),
        (12.4999, (CONCRETE_RANGE.format(12.4999),)),
        (105.0, ()),
        (105.0001, (FIT_RANGE,)),
        (185.6, (FIT_RANGE,)),
        (185.6001, (CONCRETE_RANGE.format(185.6001), FIT_RANGE)),
    ])
    def test_concrete(self, f_c, flags):
        assert sample_concrete_curve(build_column(100, 5, 300, 300, f_c), 50, 0.03).flags == flags


# The per-point formulas as written before the whole-grid kernels, kept as
# the reference the kernels must reproduce bit for bit.
def steel_stress_reference(eps, steel, params):
    if eps < 0:
        raise ValueError("strain must be non-negative (use magnitude symmetry for compression)")
    if eps <= params.eps_y:
        return steel.E_s * eps
    if eps <= params.eps_p or params.p is None:
        return steel.f_y
    if eps <= params.eps_u:
        frac = (params.eps_u - eps) / (params.eps_u - params.eps_p)
        return steel.f_u - (steel.f_u - steel.f_y) * frac**params.p
    return steel.f_u


def concrete_stress_reference(eps, f_c, E_c, params):
    if eps < 0:
        raise ValueError("strain must be non-negative")
    if eps == 0.0:
        return 0.0
    if eps <= params.eps_c0:
        A = E_c * params.eps_c0 / f_c
        B = (A - 1.0) ** 2 / 0.55 - 1.0
        x = eps / params.eps_c0
        return f_c * (A * x + B * x * x) / (1.0 + (A - 2.0) * x + (B + 1.0) * x * x)
    if eps <= params.eps_cc:
        return f_c
    decay = math.exp(-(((eps - params.eps_cc) / params.alpha) ** params.beta))
    return params.f_re + (f_c - params.f_re) * decay


def bits(values):
    """Exact images of floats: equal only when every bit, the sign of zero included, agrees."""
    return [v.hex() for v in values]


def assert_kernels_match(column, grid):
    """Both kernels equal the reference and the scalar functions at every strain of ``grid``."""
    steel = column.steel
    sparams = steel_curve_params(steel)
    got = _steel_stresses(grid, steel, sparams)
    assert bits(got) == bits(steel_stress_reference(e, steel, sparams) for e in grid)
    assert bits(got) == bits(steel_stress(e, steel, sparams) for e in grid)
    f_c, E_c = column.concrete.f_c, column.concrete.E_c
    for cparams in (confined_concrete_params(column), confined_concrete_params(column, 0.0)):
        got = _concrete_stresses(grid, f_c, E_c, cparams)
        assert bits(got) == bits(concrete_stress_reference(e, f_c, E_c, cparams) for e in grid)
        assert bits(got) == bits(concrete_stress(e, f_c, E_c, cparams) for e in grid)


def response_grid(column, eps_max, n):
    """The response curve's grid, checked against the per-point stage formula."""
    sparams = steel_curve_params(column.steel)
    cparams = confined_concrete_params(column)
    breakpoints = (sparams.eps_y, sparams.eps_p, sparams.eps_u, cparams.eps_c0, cparams.eps_cc)
    grid = sample_grid(breakpoints, eps_max, n)
    knots = sorted({0.0, eps_max} | {b for b in breakpoints if 0.0 < b < eps_max})
    starts = [grid.index(k) for k in knots]
    for (i, a), (j, b) in zip(zip(starts, knots), zip(starts[1:], knots[1:])):
        m = j - i
        assert bits(grid[i:j]) == bits([a] + [a + (b - a) * k / m for k in range(1, m)])
    return grid


def _envelope(name):
    lo, hi = DATABASE_ENVELOPE[name]
    return st.floats(lo, hi)


class TestStressKernels:
    """The whole-grid kernels against the per-point formulas, compared with ``==`` on the bits."""

    def test_reference_column_grids(self, r1):
        for eps_max, n in ((0.03, 200), (0.2, 57), (0.001, 8)):
            assert_kernels_match(r1, response_grid(r1, eps_max, n))

    @given(D=_envelope("D"), dt=_envelope("D/t"), ld=_envelope("L/D"), fy=_envelope("f_y"),
           fc=_envelope("f_c"), hardening=st.one_of(st.none(), st.floats(1.0, 1.6)),
           eps_max=st.floats(1e-4, 0.2), n=st.integers(8, 300))
    def test_envelope_columns(self, D, dt, ld, fy, fc, hardening, eps_max, n):
        fu = None if hardening is None else fy * hardening
        column = build_column(D, D / dt, D * ld, fy, fc, fu=fu)
        assert_kernels_match(column, response_grid(column, eps_max, n))

    def test_degenerate_plateau(self, make_column):
        column = make_column(100.0, 5.0, 300.0, 300.0, 30.0, fu=300.0)
        assert_kernels_match(column, response_grid(column, 0.2, 100))

    def test_non_finite_and_signed_zero_strains(self, r1):
        sparams = steel_curve_params(STEEL_R1)
        cparams = confined_concrete_params(r1)
        strains = [math.nan, math.inf, -0.0, 0.0, 1e-300, sparams.eps_u, cparams.eps_cc]
        assert_kernels_match(r1, strains)
        steel = _steel_stresses(strains, STEEL_R1, sparams)
        concrete = _concrete_stresses(strains, 30.0, r1.concrete.E_c, cparams)
        assert steel[:3] == [450.0, 450.0, 0.0] and math.copysign(1.0, steel[2]) == -1.0
        assert math.isnan(concrete[0]) and concrete[1] == cparams.f_re and concrete[2] == 0.0

    def test_negative_strain_inside_a_sequence_raises(self, r1):
        sparams = steel_curve_params(STEEL_R1)
        cparams = confined_concrete_params(r1)
        with pytest.raises(ValueError, match="non-negative"):
            _steel_stresses([0.0, 0.001, -1e-9, 0.002], STEEL_R1, sparams)
        with pytest.raises(ValueError, match="non-negative"):
            _concrete_stresses([0.0, 0.001, -1e-9, 0.002], 30.0, r1.concrete.E_c, cparams)


class Steel(NamedTuple):
    """The three constants the steel kernel reads, free of SteelMaterial's checks."""

    f_y: float
    f_u: float
    E_s: float


SPECIAL_STRAINS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-9, 1e-300)
any_float = st.floats()
# the ascent's constants stay finite, so that the kernel's set-up cannot overflow
# where the per-point reference never reaches the ascent
bounded_strain = st.one_of(st.floats(-1e100, 1e100), st.sampled_from((math.nan, math.inf, -math.inf)))


def strains_around(data, breakpoints):
    """Strain sequences mixing arbitrary floats, the special values and each breakpoint's neighbours."""
    near = [x for b in breakpoints for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))]
    return data.draw(st.lists(st.one_of(any_float, st.sampled_from(SPECIAL_STRAINS + tuple(near))),
                              max_size=40))


def image(value):
    """Exact image of a float (sign of zero included) or of any other result."""
    return value.hex() if isinstance(value, float) else repr(value)


def outcome(compute):
    """The exact images of a computed sequence, or the type and message of what it raised."""
    try:
        return [image(v) for v in compute()]
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestStressKernelsArbitraryParams:
    """The kernels against the per-point chain for parameters no column produces.

    Breakpoints may be unordered, negative, zero or non-finite and ``p`` may be
    None; strains may be NaN, infinite, signed zeros or negative.  Each result,
    or the first exception raised along the sequence, must be the reference's.
    """

    @given(steel=st.builds(Steel, any_float, any_float, any_float),
           params=st.builds(SteelCurveParams, any_float, any_float, any_float, any_float,
                            st.one_of(st.none(), any_float)),
           data=st.data())
    def test_steel(self, steel, params, data):
        strains = strains_around(data, (params.eps_y, params.eps_p, params.eps_u))
        assert outcome(lambda: _steel_stresses(strains, steel, params)) == outcome(
            lambda: [steel_stress_reference(e, steel, params) for e in strains])

    @given(f_c=st.floats(0.5, 500.0), E_c=st.floats(1e3, 1e6),
           params=st.builds(ConfinedConcreteParams, bounded_strain, any_float, any_float,
                            any_float, any_float, any_float),
           data=st.data())
    def test_concrete(self, f_c, E_c, params, data):
        strains = strains_around(data, (params.eps_c0, params.eps_cc))
        assert outcome(lambda: _concrete_stresses(strains, f_c, E_c, params)) == outcome(
            lambda: [concrete_stress_reference(e, f_c, E_c, params) for e in strains])

    def test_nan_peak_strain_captures_no_strain(self):
        # a NaN eps_c0 fails every comparison, so strains up to eps_cc stay on the plateau
        params = ConfinedConcreteParams(math.nan, 1.0, 0.01, 5.0, 0.02, 1.2)
        assert _concrete_stresses([0.0, 0.005, 0.01, 0.02], 30.0, 30_000.0, params)[:3] == [0.0, 30.0, 30.0]


class TestRecords:
    """The once-per-call records are plain NamedTuples with pinned field order."""

    @pytest.mark.parametrize("record,fields", [
        (SteelCurveParams, ("eps_y", "eps_p", "eps_u", "E_p", "p", "flags")),
        (ConfinedConcreteParams, ("eps_c0", "f_r", "eps_cc", "f_re", "alpha", "beta", "flags")),
        (CdpmParameterSet, ("psi", "ecc", "fb0_ratio", "K_c", "viscosity", "G_f")),
        (StressStrainCurve, ("points", "flags")),
    ])
    def test_fields(self, record, fields):
        assert issubclass(record, tuple)
        assert record._fields == fields

    def test_flags_default_empty(self):
        assert SteelCurveParams(0.001, 0.01, 0.1, 4000.0, 3.0).flags == ()
        assert ConfinedConcreteParams(0.002, 1.0, 0.003, 5.0, 0.02, 1.2).flags == ()
        assert StressStrainCurve(((0.0, 0.0), (0.1, 2.0))).flags == ()
