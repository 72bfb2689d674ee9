"""Axial load-strain response of a column by fiber superposition.

N(eps) = sigma_s(eps)*A_s + sigma_c(eps)*A_c under a uniform compressive
strain (plane sections, concentric load), with compression taken positive.
The steel stress is evaluated by magnitude symmetry; the biaxial hoop-stress
reduction of the tube under confinement is deliberately not modelled, since
the concrete softening law already folds the composite action in through
the confinement-factor regressions.
"""

from __future__ import annotations

from typing import NamedTuple

from .materials import (
    _concrete_stresses,
    _steel_stresses,
    confined_concrete_params,
    sample_grid,
    steel_curve_params,
)
from .section import ColumnSpec


class AxialResponse(NamedTuple):
    """Sampled axial response: (strain, load N) points, the peak load and its strain, and the
    steel then the concrete model's flags; the residual load is ``points[-1][1]``."""

    points: tuple[tuple[float, float], ...]
    peak_load: float
    peak_strain: float
    flags: tuple[str, ...] = ()


def response_curve(column: ColumnSpec, eps_max: float, n: int = 200) -> AxialResponse:
    """Sample N(eps) on ``sample_grid``'s grid over [0, eps_max], breakpoints placed exactly."""
    sparams = steel_curve_params(column.steel)
    cparams = confined_concrete_params(column)
    breakpoints = (sparams.eps_y, sparams.eps_p, sparams.eps_u, cparams.eps_c0, cparams.eps_cc)
    grid = sample_grid(breakpoints, eps_max, n)
    A_s, A_c = column.A_s, column.A_c
    steel = _steel_stresses(grid, column.steel, sparams)
    concrete = _concrete_stresses(grid, column.concrete.f_c, column.concrete.E_c, cparams)
    loads = [s * A_s + c * A_c for s, c in zip(steel, concrete)]
    best = max(loads)  # its strain is the first that reaches it
    return AxialResponse(tuple(zip(grid, loads)), best, grid[loads.index(best)],
                         sparams.flags + cparams.flags)
