"""Metamorphic invariants of the thirteen predictors over the calibration envelope.

Geometric similarity: scaling D, t and L by k leaves every ratio and stress of
a column unchanged, so its derived ratios and its applicability stay put and
every load, and every point of the axial response, scales by k^2.

Monotonicity: raising f_c, f_y or t by 5 % never lowers a load, except where
the printed formula says it does; each such exception is pinned below.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from cfstcol import predict_all, response_curve
from cfstcol.capacity import DATABASE_ENVELOPE, MethodId

from conftest import build_column

SCALES = (0.5, 2.0, 7.3)
RATIO_TOL = 1e-14
LOAD_TOL = 1e-12


def _envelope(name):
    lo, hi = DATABASE_ENVELOPE[name]
    return st.floats(lo, hi)


@st.composite
def envelope_columns(draw):
    """(D, t, L, f_y, f_c) drawn over DATABASE_ENVELOPE: D, D/t and L/D as printed there."""
    D = draw(_envelope("D"))
    dt, ld = draw(_envelope("D/t")), draw(_envelope("L/D"))
    # De Oliveira switches branch at L/D = 3: an ulp of rounding either side changes the formula
    assume(abs(ld - 3.0) > 1e-9)
    return D, D / dt, ld * D, draw(_envelope("f_y")), draw(_envelope("f_c"))


def _close(a, b, tol, scale=None):
    """``b`` within ``tol`` of ``a``, relative to ``scale`` (default |a|); nan only against nan."""
    if math.isnan(a):
        return math.isnan(b)
    return abs(b - a) <= tol * (abs(a) if scale is None else scale)


def _at_bound(report):
    """Every violation of the report sits on its bound within rounding."""
    return all(abs(v.actual - v.bound) <= 1e-13 * abs(v.bound) for v in report.violations)


@settings(max_examples=100, deadline=None)
@given(envelope_columns(), st.sampled_from(SCALES))
def test_similar_columns_keep_ratios_gates_and_scale_loads_by_k_squared(geometry, k):
    D, t, L, f_y, f_c = geometry
    base = build_column(D, t, L, f_y, f_c)
    scaled = build_column(k * D, k * t, k * L, f_y, f_c)
    for name in ("dt_ratio", "ld_ratio", "alpha_s", "xi_c"):
        assert _close(getattr(base, name), getattr(scaled, name), RATIO_TOL), name
    k2 = k * k
    for a, b in zip(predict_all(base), predict_all(scaled)):
        if a.applicability.applicable != b.applicability.applicable:
            # an inclusive bound met exactly may be missed by an ulp of the scaled ratio
            assert _at_bound(a.applicability) and _at_bound(b.applicability), a.method
        if a.method is MethodId.OSHEA and not math.isnan(a.N_u):
            # sigma_cp*A_c and A_s*f_y may nearly cancel: bound by the terms, not their sum
            terms = abs(a.intermediates["sigma_cp"]) * base.A_c + base.A_s * f_y
            assert _close(k2 * a.N_u, b.N_u, LOAD_TOL, k2 * terms)
        else:
            assert _close(k2 * a.N_u, b.N_u, LOAD_TOL), a.method


@settings(max_examples=30, deadline=None)
@given(envelope_columns(), st.sampled_from(SCALES))
def test_similar_columns_scale_the_axial_response_by_k_squared(geometry, k):
    D, t, L, f_y, f_c = geometry
    base = response_curve(build_column(D, t, L, f_y, f_c), 0.03)
    scaled = response_curve(build_column(k * D, k * t, k * L, f_y, f_c), 0.03)
    assert len(base.points) == len(scaled.points)
    for (eps_a, load_a), (eps_b, load_b) in zip(base.points, scaled.points):
        assert _close(eps_a, eps_b, RATIO_TOL)
        assert _close(k * k * load_a, load_b, LOAD_TOL)


RISE = 1.05
VARIABLES = ("f_c", "f_y", "t")


def _raised(geometry, variable):
    """The column of ``geometry`` with one of f_c, f_y or t raised by RISE."""
    D, t, L, f_y, f_c = geometry
    return build_column(D, t * RISE if variable == "t" else t, L,
                        f_y * RISE if variable == "f_y" else f_y,
                        f_c * RISE if variable == "f_c" else f_c)


def _falls_as_printed(pred, variable, base, raised):
    """Whether the printed formula of ``pred`` may lower its load as ``variable`` rises."""
    f_y, f_c = base.steel.f_y, base.concrete.f_c
    if pred.method is MethodId.OSHEA:  # the p term, which rises with f_y and t
        if variable == "f_y":  # -2p/f_c on the normal-strength branch
            return f_c <= 50.0
        if variable == "t":  # there, or a negative p on the high-strength branch
            return f_c <= 50.0 or pred.intermediates["p"] < 0.0
        return raised.concrete.f_c > 50.0  # the branch switch, or the high-strength branch
    if pred.method is MethodId.DE_OLIVEIRA:  # lambda = -0.18*ln(L/D) is negative above L/D = 3
        return base.ld_ratio > 3.0
    if pred.method is MethodId.DBJ:  # the cube factor steps from 0.88 to 0.98 above 60 MPa
        return variable == "f_c" and f_c <= 60.0 < raised.concrete.f_c
    if pred.method is MethodId.ZHONG_MIAO:  # a thicker wall trades core for weaker steel
        return variable == "t" and f_c > pred.intermediates["steel_factor"] * f_y
    return False


@settings(max_examples=200, deadline=None)
@given(envelope_columns())
def test_raising_a_strength_or_the_wall_never_lowers_a_load_but_as_printed(geometry):
    base = build_column(*geometry)
    before = predict_all(base)
    for variable in VARIABLES:
        raised = _raised(geometry, variable)
        for a, b in zip(before, predict_all(raised)):
            if not b.N_u >= a.N_u:  # a nan counts as a fall
                assert _falls_as_printed(a, variable, base, raised), (a.method, variable)


# one column per exception where the printed formula lowers the load
PRINTED_FALLS = [
    pytest.param(MethodId.OSHEA, "f_y", (100.0, 5.0, 300.0, 300.0, 30.0), id="oshea-f_y"),
    pytest.param(MethodId.OSHEA, "t", (100.0, 5.0, 300.0, 300.0, 30.0), id="oshea-t"),
    pytest.param(MethodId.OSHEA, "t", (100.0, 1.0, 300.0, 200.0, 180.0), id="oshea-t-negative-p"),
    pytest.param(MethodId.OSHEA, "f_c", (100.0, 1.0, 300.0, 200.0, 48.0), id="oshea-f_c-at-50"),
    pytest.param(MethodId.OSHEA, "f_c", (100.0, 8.0, 300.0, 800.0, 60.0), id="oshea-f_c-above-50"),
    *[pytest.param(MethodId.DE_OLIVEIRA, v, (100.0, 5.0, 400.0, 300.0, 30.0), id=f"de_oliveira-{v}")
      for v in VARIABLES],
    pytest.param(MethodId.DBJ, "f_c", (100.0, 5.0, 300.0, 300.0, 58.0), id="dbj-f_c-at-60"),
    pytest.param(MethodId.ZHONG_MIAO, "t", (100.0, 2.0, 300.0, 200.0, 180.0), id="zhong_miao-t"),
]


@pytest.mark.parametrize("method, variable, geometry", PRINTED_FALLS)
def test_printed_formula_lowers_the_load(method, variable, geometry):
    base, raised = build_column(*geometry), _raised(geometry, variable)
    (a,), (b,) = predict_all(base, (method,)), predict_all(raised, (method,))
    assert b.N_u < a.N_u
    assert _falls_as_printed(a, variable, base, raised)
