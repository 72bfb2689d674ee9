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


def render_cdpm_card(column: ColumnSpec) -> str:
    """Render the plasticity material card for a column.

    The header holds the steel's validity flags, then those of the confined
    concrete curve that the table samples, which begin with the concrete's
    (as ``AxialResponse.flags`` do).  Sections: [ELASTIC]
    E_c and Poisson ratio; [CDPM] dilation angle, eccentricity, f_b0/f_c,
    K_c, viscosity in that order; [COMPRESSION TABLE] the sampled confined
    curve (strain, stress MPa); [TENSION] the fracture energy G_f (N/mm).
    """
    params = cdpm_parameters(column)
    curve = sample_concrete_curve(column, TABLE_POINTS, TABLE_EPS_MAX)
    s = column.section
    lines = [
        "# circular CFST material card (units: N, mm, MPa)",
        f"# D={s.D:.6g} mm  t={s.t:.6g} mm  L={s.L:.6g} mm  "
        f"fy={column.steel.f_y:.6g} MPa  fc'={column.concrete.f_c:.6g} MPa",
    ]
    if column.defaulted:
        lines.append(f"# defaulted inputs: {', '.join(column.defaulted)}")
    lines += [f"# validity: {flag}" for flag in column.steel.validity_flags + curve.flags]
    lines += [
        f"# concrete Poisson {CONCRETE_POISSON:g} is a tool default",
        f"# FE modelling constants (documentation only): {FE_DOC_CONSTANTS}",
        "# [CDPM] field order: dilation_angle_deg eccentricity fb0_ratio Kc viscosity",
        "[ELASTIC]",
        f"{column.concrete.E_c:.6g} {CONCRETE_POISSON:g}",
        "[CDPM]",
        f"{params.psi:.6g} {params.ecc:g} {params.fb0_ratio:.6g} {params.K_c:.6g} {params.viscosity:g}",
        "[COMPRESSION TABLE]",
    ]
    lines += ["%.6g %.6g" % point for point in curve.points]
    lines += [
        "[TENSION]",
        f"Gf {params.G_f:.6g}",
    ]
    return "\n".join(lines) + "\n"
