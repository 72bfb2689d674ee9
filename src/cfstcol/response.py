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
    ConfinedConcreteParams,
    _concrete_stresses,
    _steel_stresses,
    confined_concrete_params,
    sample_grid,
    steel_curve_params,
)
from .section import ColumnSpec, _require_finite


class AxialResponse(NamedTuple):
    """Sampled axial response: (strain, load N) points plus peak and residual figures."""

    points: tuple[tuple[float, float], ...]
    peak_load: float
    peak_strain: float
    residual_load: float


def peak_load(points: tuple[tuple[float, float], ...]) -> tuple[float, float]:
    """Maximum load over the samples and the first strain attaining it."""
    if not points:
        raise ValueError("response has no points")
    best_load, best_eps = points[0][1], points[0][0]
    for eps, load in points[1:]:
        if load > best_load:
            best_load, best_eps = load, eps
    return best_load, best_eps


def _check_concrete_params(params: ConfinedConcreteParams) -> None:
    """Reject a supplied parameter set that no confined curve comes from, naming the field."""
    eps_c0, f_r, eps_cc, f_re, alpha, beta = params[:6]
    _require_finite(eps_c0=eps_c0, f_r=f_r, eps_cc=eps_cc, f_re=f_re, alpha=alpha, beta=beta)
    if eps_c0 <= 0:
        raise ValueError(f"eps_c0 must be positive, got {eps_c0:g}")
    if eps_cc < eps_c0:
        raise ValueError(f"eps_cc must be at least eps_c0 ({eps_c0:g}), got {eps_cc:g}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha:g}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta:g}")


def response_curve(
    column: ColumnSpec,
    eps_max: float,
    n: int = 200,
    concrete_params: ConfinedConcreteParams | None = None,
) -> AxialResponse:
    """Sample N(eps) on [0, eps_max] with all material breakpoints placed exactly.

    ``concrete_params`` allows substituting a modified parameter set (e.g.
    one built with the confining pressure forced to zero); a set with a
    non-finite value, ``eps_c0 <= 0``, ``eps_cc < eps_c0``, ``alpha <= 0`` or
    ``beta <= 0`` raises ValueError.
    """
    if eps_max <= 0:
        raise ValueError("eps_max must be positive")
    if n < 8:
        raise ValueError("need at least 8 samples for a response curve")
    sparams = steel_curve_params(column.steel)
    if concrete_params is not None:
        _check_concrete_params(concrete_params)
        cparams = concrete_params
    else:
        cparams = confined_concrete_params(column)
    breakpoints = (sparams.eps_y, sparams.eps_p, sparams.eps_u, cparams.eps_c0, cparams.eps_cc)
    grid = sample_grid(breakpoints, eps_max, n)
    A_s, A_c = column.A_s, column.A_c
    steel = _steel_stresses(grid, column.steel, sparams)
    concrete = _concrete_stresses(grid, column.concrete.f_c, column.concrete.E_c, cparams)
    loads = [s * A_s + c * A_c for s, c in zip(steel, concrete)]
    # max keeps the first of equal loads, as peak_load does
    best = max(loads)
    return AxialResponse(tuple(zip(grid, loads)), best, grid[loads.index(best)], loads[-1])
