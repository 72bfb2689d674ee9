"""FE-ready material card writer (solver-agnostic keyword text layout)."""

from __future__ import annotations

from .materials import cdpm_parameters, sample_concrete_curve
from .section import ColumnSpec

CONCRETE_POISSON = 0.2  # tool default, not derived
TABLE_POINTS = 50  # rows of the compression table
TABLE_EPS_MAX = 0.03  # its last strain

# Out-of-scope FE modelling constants, echoed for traceability only: the
# card does not encode contact, imperfection or meshing.
FE_DOC_CONSTANTS = "steel-concrete friction 0.6, initial imperfection L/1000, element size D/10"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_cdpm_card(column: ColumnSpec) -> str:
    """Render the plasticity material card for a column.

    Sections: [ELASTIC] E_c and Poisson ratio; [CDPM] dilation angle,
    eccentricity, f_b0/f_c, K_c, viscosity in that order; [COMPRESSION
    TABLE] the sampled confined curve (strain, stress MPa); [TENSION] the
    fracture energy G_f (N/mm).
    """
    params = cdpm_parameters(column)
    curve = sample_concrete_curve(column, TABLE_POINTS, TABLE_EPS_MAX)
    s = column.section
    lines = [
        "# circular CFST material card (units: N, mm, MPa)",
        f"# D={_fmt(s.D)} mm  t={_fmt(s.t)} mm  L={_fmt(s.L)} mm  "
        f"fy={_fmt(column.steel.f_y)} MPa  fc'={_fmt(column.concrete.f_c)} MPa",
    ]
    if column.defaulted:
        lines.append(f"# defaulted inputs: {', '.join(column.defaulted)}")
    for flag in column.validity_flags:
        lines.append(f"# validity: {flag}")
    lines += [
        f"# concrete Poisson {CONCRETE_POISSON:g} is a tool default",
        f"# FE modelling constants (documentation only): {FE_DOC_CONSTANTS}",
        "# [CDPM] field order: dilation_angle_deg eccentricity fb0_ratio Kc viscosity",
        "[ELASTIC]",
        f"{_fmt(column.concrete.E_c)} {CONCRETE_POISSON:g}",
        "[CDPM]",
        f"{_fmt(params.psi)} {params.ecc:g} {_fmt(params.fb0_ratio)} {_fmt(params.K_c)} {params.viscosity:g}",
        "[COMPRESSION TABLE]",
    ]
    lines += [f"{eps:.6g} {sigma:.6g}" for eps, sigma in curve.points]
    lines += [
        "[TENSION]",
        f"Gf {_fmt(params.G_f)}",
    ]
    return "\n".join(lines) + "\n"
