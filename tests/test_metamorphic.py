"""Metamorphic invariants of the thirteen predictors over the calibration envelope.

Geometric similarity: scaling D, t and L by k leaves every ratio and stress of
a column unchanged, so its derived ratios and its applicability stay put and
every load, and every point of the axial response, scales by k^2.
"""

import math

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
