"""Constitutive models for the steel tube and the confined concrete core.

The steel model is the four-stage curve (elastic, yield plateau, power-law
hardening, ultimate plateau) used for structural steels between 200 and
800 MPa.  The concrete model is the three-stage confined curve (nonlinear
ascent, plateau between the unconfined and confined peak strains,
exponential softening to a residual stress), driven by the tube-confinement
regressions.  The module also produces the concrete-damaged-plasticity
parameter set used by FE material cards.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Sequence

from .section import FY_VALID_RANGE, ColumnSpec, SteelMaterial, _require_finite

PSI_MAX = 56.3  # deg, upper bound of the dilation-angle regression
BETA_SOFTENING = 1.2
EPS_C0_FIT_RANGE = (6.0, 105.0)  # MPa, fitted range of the peak-strain regression


class StressStrainCurve(NamedTuple):
    """(strain, stress MPa) samples for one material from (0, 0), strains strictly
    increasing, and its model's flags."""

    points: tuple[tuple[float, float], ...]
    flags: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# steel
# ---------------------------------------------------------------------------


class SteelCurveParams(NamedTuple):
    """Breakpoints and hardening exponent of the steel curve.

    ``p`` is 0.02*E_s*(eps_u - eps_p)/(f_u - f_y), from the hardening modulus
    0.02*E_s; it is None when f_u == f_y, in which case the hardening stage
    degenerates to a continued plateau at f_y.
    """

    eps_y: float
    eps_p: float
    eps_u: float
    p: float | None
    flags: tuple[str, ...] = ()


def steel_curve_params(steel: SteelMaterial) -> SteelCurveParams:
    """Curve parameters for a steel: eps_y = f_y/E_s, hardening onset/ultimate strains.

    The onset and ultimate strains use one branch up to 300 MPa and a
    linearly reduced branch up to 800 MPa; above 800 MPa the second branch
    is extrapolated and flagged.
    """
    f_y, f_u, E_s = steel.f_y, steel.f_u, steel.E_s
    eps_y = f_y / E_s
    flags = list(steel.validity_flags)
    if f_y <= 300.0:
        eps_p = 15.0 * eps_y
        eps_u = 100.0 * eps_y
    else:
        eps_p = (15.0 - 0.018 * (f_y - 300.0)) * eps_y
        eps_u = (100.0 - 0.15 * (f_y - 300.0)) * eps_y
        if f_y > FY_VALID_RANGE[1]:
            flags.append(f"hardening strains extrapolated beyond {FY_VALID_RANGE[1]:g} MPa")
    if not eps_y < eps_p < eps_u:
        raise ValueError(
            f"strain ordering eps_y < eps_p < eps_u breaks down at f_y={f_y:g} MPa"
        )
    if f_u > f_y:
        p = 0.02 * E_s * (eps_u - eps_p) / (f_u - f_y)
    else:
        p = None
        flags.append("f_u equals f_y; hardening stage degenerates to a plateau")
    return SteelCurveParams(eps_y, eps_p, eps_u, p, tuple(flags))


def _steel_stresses(
    strains: Sequence[float], steel: SteelMaterial, params: SteelCurveParams
) -> list[float]:
    """Steel stresses (MPa) along a grid of non-negative strains, the curve's constants taken once.

    The yield plateau, where most of a response grid lies, is tested first;
    its guard implies the plateau branch of the per-point stage chain, which
    every other strain (NaN included) runs in order.
    """
    E_s, f_y, f_u = steel.E_s, steel.f_y, steel.f_u
    eps_y, eps_p, eps_u, p = params.eps_y, params.eps_p, params.eps_u, params.p
    span, rise = eps_u - eps_p, f_u - f_y
    return [
        f_y if eps_y < eps <= eps_p
        else E_s * eps if eps <= eps_y
        else f_y if eps <= eps_p or p is None
        else f_u - rise * ((eps_u - eps) / span) ** p if eps <= eps_u
        else f_u
        for eps in strains
    ]


def steel_stress(eps: float, steel: SteelMaterial, params: SteelCurveParams) -> float:
    """Steel stress (MPa) at a tensile strain magnitude.

    Stages: elastic up to eps_y, yield plateau to eps_p, power-law hardening
    to eps_u, constant f_u beyond.  Compression is handled by magnitude
    symmetry at call sites; negative strains are rejected here.
    """
    if eps < 0:
        raise ValueError("strain must be non-negative (use magnitude symmetry for compression)")
    return _steel_stresses((eps,), steel, params)[0]


# ---------------------------------------------------------------------------
# concrete-damaged-plasticity scalars
# ---------------------------------------------------------------------------


def biaxial_ratio(f_c: float) -> float:
    """Biaxial-to-uniaxial strength ratio f_b0/f_c = 1.5/f_c^0.075."""
    if f_c <= 0:
        raise ValueError("f_c must be positive")
    return 1.5 / f_c**0.075


def kc(f_c: float) -> float:
    """Deviatoric shape factor K_c = 5.5/(5 + 2*f_c^0.075)."""
    if f_c <= 0:
        raise ValueError("f_c must be positive")
    return 5.5 / (5.0 + 2.0 * f_c**0.075)


def dilation_angle(xi_c: float) -> float:
    """Dilation angle (degrees) from the confinement factor, in [6.672, 56.3].

    Linear branch 56.3*(1 - xi_c) up to xi_c = 0.5, exponential decay
    6.672*exp(7.4/(4.64 + xi_c)) beyond, down to 6.672; they agree at 0.5.
    """
    if xi_c < 0:
        raise ValueError("xi_c must be non-negative")
    if xi_c <= 0.5:
        return PSI_MAX * (1.0 - xi_c)
    return 6.672 * math.exp(7.4 / (4.64 + xi_c))


def fracture_energy(f_c: float, d_max: float) -> float:
    """Tensile fracture energy G_f (N/mm).

    (0.00469*d_max^2 - 0.5*d_max + 26) * (f_c/10)^0.7 * 1e-3; the quadratic
    prefactor stays positive for every d_max >= 0.
    """
    if f_c <= 0:
        raise ValueError("f_c must be positive")
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    return (0.00469 * d_max**2 - 0.5 * d_max + 26.0) * (f_c / 10.0) ** 0.7 * 1e-3


class CdpmParameterSet(NamedTuple):
    """Concrete-damaged-plasticity inputs: psi (deg), eccentricity, f_b0/f_c, K_c, viscosity, G_f (N/mm)."""

    psi: float
    ecc: float
    fb0_ratio: float
    K_c: float
    viscosity: float
    G_f: float


def cdpm_parameters(column: ColumnSpec) -> CdpmParameterSet:
    """Plasticity parameter set for a column; eccentricity 0.1 and viscosity 0 are tool defaults."""
    f_c = column.concrete.f_c
    return CdpmParameterSet(
        psi=dilation_angle(column.xi_c),
        ecc=0.1,
        fb0_ratio=biaxial_ratio(f_c),
        K_c=kc(f_c),
        viscosity=0.0,
        G_f=fracture_energy(f_c, column.concrete.d_max),
    )


# ---------------------------------------------------------------------------
# confined concrete
# ---------------------------------------------------------------------------


def peak_strain_unconfined(f_c: float) -> float:
    """Unconfined peak strain eps_c0 = (-0.067*f_c^2 + 29.9*f_c + 1053)*1e-6."""
    if f_c <= 0:
        raise ValueError("f_c must be positive")
    return (-0.067 * f_c**2 + 29.9 * f_c + 1053.0) * 1e-6


def confining_pressure(f_y: float, f_c: float, dt_ratio: float) -> float:
    """Lateral confining pressure f_r (MPa) at ultimate.

    [(1 + 0.03224*f_y) / (1 + 1.52e-6*f_c^-4.5)] * exp(-0.0212*D/t).  The
    f_c term is numerically negligible (the regression found no f_c
    influence) but is evaluated as published.
    """
    if f_y <= 0 or f_c <= 0 or dt_ratio <= 0:
        raise ValueError("f_y, f_c and D/t must be positive")
    return (1.0 + 0.03224 * f_y) / (1.0 + 1.52e-6 * f_c**-4.5) * math.exp(-0.0212 * dt_ratio)


def confined_peak_strain(eps_c0: float, f_r: float, f_c: float) -> float:
    """Confined peak strain eps_cc = eps_c0 * (1 + 17.4*(f_r/f_c)^1.06)."""
    if eps_c0 <= 0 or f_c <= 0:
        raise ValueError("eps_c0 and f_c must be positive")
    if f_r < 0:
        raise ValueError("f_r must be non-negative")
    return eps_c0 * (1.0 + 17.4 * (f_r / f_c) ** 1.06)


def residual_stress(xi_c: float, f_c: float) -> float:
    """Residual stress f_re = 0.7*(1 - exp(-1.38*xi_c))*f_c, capped at 0.25*f_c."""
    if xi_c < 0:
        raise ValueError("xi_c must be non-negative")
    if f_c <= 0:
        raise ValueError("f_c must be positive")
    return min(0.7 * (1.0 - math.exp(-1.38 * xi_c)) * f_c, 0.25 * f_c)


def softening_params(xi_c: float) -> tuple[float, float]:
    """Softening-branch shape (alpha, beta); beta is fixed at 1.2."""
    if xi_c < 0:
        raise ValueError("xi_c must be non-negative")
    try:
        growth = math.exp(6.08 * xi_c - 3.49)
    except OverflowError:  # thick tubes, xi_c above ~117: alpha takes its limit 0.04 exactly
        growth = math.inf
    alpha = 0.04 - 0.036 / (1.0 + growth)
    return alpha, BETA_SOFTENING


class ConfinedConcreteParams(NamedTuple):
    """Confined-curve parameters: strains, confining pressure, residual stress, softening shape."""

    eps_c0: float
    f_r: float
    eps_cc: float
    f_re: float
    alpha: float
    beta: float
    flags: tuple[str, ...] = ()


def confined_concrete_params(column: ColumnSpec) -> ConfinedConcreteParams:
    """Assemble the confined-curve parameters for a column from its confining pressure.

    The curve exists for f_c below about 479.07 MPa, where the peak-strain regression is positive.
    """
    f_c = column.concrete.f_c
    flags = list(column.concrete.validity_flags)
    lo, hi = EPS_C0_FIT_RANGE
    if not lo <= f_c <= hi:
        flags.append(f"peak-strain regression fitted for f_c in [{lo:g}, {hi:g}] MPa")
    eps_c0 = peak_strain_unconfined(f_c)
    if eps_c0 <= 0:
        raise ValueError(f"peak-strain regression gives eps_c0 = {eps_c0:.4g} <= 0 at f_c={f_c:g} MPa")
    f_r = confining_pressure(column.steel.f_y, f_c, column.dt_ratio)
    eps_cc = confined_peak_strain(eps_c0, f_r, f_c)
    f_re = residual_stress(column.xi_c, f_c)
    alpha, beta = softening_params(column.xi_c)
    return ConfinedConcreteParams(eps_c0, f_r, eps_cc, f_re, alpha, beta, tuple(flags))


def _concrete_stresses(
    strains: Sequence[float], f_c: float, E_c: float, params: ConfinedConcreteParams
) -> list[float]:
    """Confined concrete stresses (MPa) along a grid of non-negative strains, constants taken once.

    Softening, where most of a response grid lies, is tested first; its
    guard implies the softening branch of the per-point stage chain, which
    every other strain runs in order.
    """
    eps_c0, eps_cc, f_re = params.eps_c0, params.eps_cc, params.f_re
    alpha, beta = params.alpha, params.beta
    A = E_c * eps_c0 / f_c
    B = (A - 1.0) ** 2 / 0.55 - 1.0
    A_2, B_1, drop = A - 2.0, B + 1.0, f_c - f_re
    exp = math.exp
    # softening is every strain that is not <= top (NaN included); 0.0 comes first
    # so that max skips a NaN breakpoint, which bounds no stage
    top = max(0.0, eps_c0, eps_cc)
    return [
        f_re + drop * exp(-(((eps - eps_cc) / alpha) ** beta)) if not eps <= top
        else 0.0 if eps == 0.0
        else f_c * (A * (x := eps / eps_c0) + B * x * x) / (1.0 + A_2 * x + B_1 * x * x)
        if eps <= eps_c0
        else f_c  # past eps_c0 but not past top: the plateau up to eps_cc
        for eps in strains
    ]


def concrete_stress(eps: float, f_c: float, E_c: float, params: ConfinedConcreteParams) -> float:
    """Confined concrete stress (MPa) at a compressive strain magnitude.

    Nonlinear ascent to f_c at eps_c0, constant f_c to eps_cc, then
    exponential softening towards the residual stress.
    """
    if eps < 0:
        raise ValueError("strain must be non-negative")
    return _concrete_stresses((eps,), f_c, E_c, params)[0]


# ---------------------------------------------------------------------------
# curve sampling
# ---------------------------------------------------------------------------


def sample_grid(breakpoints: Sequence[float], eps_max: float, n: int) -> list[float]:
    """Strictly increasing strain grid on [0, eps_max], each interior breakpoint placed exactly.

    The remaining samples are spread uniformly within the stages between
    breakpoints, allocated proportionally to stage length.  The grid has n
    points when n covers all knots, and grows beyond n otherwise so that no
    breakpoint is ever dropped.  A stage too short in floating point for its
    samples would repeat a strain: that raises ValueError.
    """
    if eps_max <= 0:
        raise ValueError("eps_max must be positive")
    _require_finite(eps_max=eps_max)
    if n < 2:
        raise ValueError("need at least two samples")
    knots = sorted({0.0, eps_max} | {b for b in breakpoints if 0.0 < b < eps_max})
    extra = max(n - len(knots), 0)
    lengths = [b - a for a, b in zip(knots, knots[1:])]
    quotas = [extra * length / eps_max for length in lengths]
    counts = [int(q) for q in quotas]
    # the stages furthest below their quotas get one more sample each, ties in
    # stage order (the sort is stable)
    excess = [c - q for c, q in zip(counts, quotas)]
    for i in sorted(range(len(excess)), key=excess.__getitem__)[:extra - sum(counts)]:
        counts[i] += 1
    # a stage from knot a, d long, with k interior samples: a + d*j/(k+1) for
    # j = 0..k, where j = 0 gives the knot itself exactly
    grid = [a + d * j / m for a, d, m in zip(knots, lengths, [k + 1 for k in counts])
            for j in range(m)]
    grid.append(knots[-1])
    if not all(map(operator.lt, grid, grid[1:])):
        raise ValueError("strains must be strictly increasing")
    return grid


def sample_steel_curve(
    steel: SteelMaterial, n: int, eps_max: float | None = None
) -> StressStrainCurve:
    """Tabulate the steel curve with the breakpoint strains sampled exactly.

    eps_max defaults to the ultimate strain.
    """
    params = steel_curve_params(steel)
    if eps_max is None:
        eps_max = params.eps_u
    grid = sample_grid((params.eps_y, params.eps_p, params.eps_u), eps_max, n)
    points = tuple(zip(grid, _steel_stresses(grid, steel, params)))
    return StressStrainCurve(points, params.flags)


def sample_concrete_curve(column: ColumnSpec, n: int, eps_max: float) -> StressStrainCurve:
    """Tabulate the confined concrete curve for a column, breakpoints sampled exactly."""
    params = confined_concrete_params(column)
    f_c = column.concrete.f_c
    E_c = column.concrete.E_c
    grid = sample_grid((params.eps_c0, params.eps_cc), eps_max, n)
    points = tuple(zip(grid, _concrete_stresses(grid, f_c, E_c, params)))
    return StressStrainCurve(points, params.flags)
