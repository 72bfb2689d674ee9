"""Ultimate axial capacity predictors for circular CFST short columns.

Thirteen methods: five design codes (EC4, AISC, CISC, DBJ, ACI), seven
published formulas (O'Shea & Bridge, Yu, Liu, Sun, Zhong & Miao, Guo,
De Oliveira) and the eta_c/eta_s superposition formula.  Every predictor
returns the load in newtons together with an applicability report built
from the method's published limits and any diagnostics; an inapplicable
method still reports its load, since subset statistics need it.

All predictors are pure functions of the column and an immutable settings
value; non-physical intermediate results are surfaced as diagnostics, never
silently clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from .section import (_CONVERSION_FACTORS, FC_VALID_RANGE, ColumnSpec, ConcreteClass,
                      SpecimenKind, _require_finite, classify_concrete)

# Parameter envelope of the test database the superposition factors were
# calibrated on; the formula stays applicable outside it but flags the excursion.
DATABASE_ENVELOPE: dict[str, tuple[float, float]] = {
    "f_y": (185.7, 853.0),
    "f_c": FC_VALID_RANGE,
    "D": (48.0, 1020.0),
    "L/D": (0.8, 5.0),
    "D/t": (10.1, 220.9),
}

DBJ_FCK_FACTOR = 0.67  # DBJ cube-to-characteristic strength factor

NON_PHYSICAL_CONFINED_STRESS = "NON_PHYSICAL_CONFINED_STRESS"
NON_PHYSICAL_LENGTH_FACTOR = "NON_PHYSICAL_LENGTH_FACTOR"
ARITHMETIC_ERROR = "ARITHMETIC_ERROR"  # a formula overflowed or divided by zero: N_u is nan


class MethodId(Enum):
    EC4 = "ec4"
    AISC = "aisc"
    CISC = "cisc"
    DBJ = "dbj"
    ACI = "aci"
    OSHEA = "oshea"
    YU = "yu"
    LIU = "liu"
    SUN = "sun"
    ZHONG_MIAO = "zhong_miao"
    GUO = "guo"
    DE_OLIVEIRA = "de_oliveira"
    PROPOSED = "proposed"

    # singletons compared by identity: the C-level hash agrees with == and is cheap
    __hash__ = object.__hash__


# every method in enum order: the default method set, built once since
# iterating an Enum class runs Python-level code
ALL_METHODS = tuple(MethodId)


class OliveiraMode(Enum):
    """Slenderness factor handling for the De Oliveira formula above L/D = 3.

    AS_PRINTED evaluates lambda = -0.18*ln(L/D) exactly as published, which
    is negative there and flagged; CORRECTED uses the continuous reading
    lambda = 1 - 0.18*ln((L/D)/3).
    """

    AS_PRINTED = "as_printed"
    CORRECTED = "corrected"


@dataclass(frozen=True, slots=True)
class PredictionSettings:
    """Auditable constants the published formulas leave open."""

    K_e: float = 0.6  # EC4 stiffness factor on the concrete term
    K: float = 1.0  # effective length factor (pin-ended stubs)
    r_cc: float = 1.0  # CISC C_fs/C_f stiffness ratio
    oliveira_mode: OliveiraMode = OliveiraMode.AS_PRINTED

    def __post_init__(self) -> None:
        if self.K_e <= 0 or self.K <= 0 or self.r_cc <= 0:
            raise ValueError("all settings factors must be positive")
        _require_finite(K_e=self.K_e, K=self.K, r_cc=self.r_cc)


DEFAULT_SETTINGS = PredictionSettings()


class Violation(NamedTuple):
    """One failed applicability limit: its printed form, the bound and the actual value."""

    limit: str
    bound: float
    actual: float


class ApplicabilityReport(NamedTuple):
    """The failed limits of one method on one column; none means the method applies."""

    violations: tuple[Violation, ...] = ()

    @property
    def applicable(self) -> bool:
        return not self.violations


_APPLICABLE = ApplicabilityReport()

# How the gate makes its records: tuple.__new__ skips a NamedTuple's Python-level __new__
_new_tuple = tuple.__new__


class CapacityPrediction(NamedTuple):
    """Predicted ultimate load (N) with gating, intermediates and diagnostics."""

    method: MethodId
    N_u: float
    applicability: ApplicabilityReport
    intermediates: dict[str, float]
    diagnostics: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# applicability limits
# ---------------------------------------------------------------------------

# The quantities that applicability limits and the calibration envelope read.
_QUANTITY: dict[str, Callable[[ColumnSpec], float]] = {
    "f_y": attrgetter("steel.f_y"),
    "f_c": attrgetter("concrete.f_c"),
    "D": attrgetter("section.D"),
    "L/D": attrgetter("ld_ratio"),
    "D/t": attrgetter("dt_ratio"),
    "xi": attrgetter("xi_c"),
}

# A limit: its printed text, the quantity it reads, its inclusive lower and
# upper bounds, infinite when absent, and the function of the column that gives
# the upper bound instead, or None where the upper bound is a constant.
_Quantity = Callable[[ColumnSpec], float]
_Bound = float | _Quantity
_Limit = tuple[str, _Quantity, float, float, _Quantity | None]


def _limit(text: str, quantity: str, lo: float = -math.inf, hi: _Bound = math.inf) -> _Limit:
    # resolved once, here, so that the gate tests no bound with callable()
    if callable(hi):
        return (text, _QUANTITY[quantity], lo, math.nan, hi)  # the nan is never read
    return (text, _QUANTITY[quantity], lo, hi, None)


def check_applicability(method: MethodId, column: ColumnSpec) -> ApplicabilityReport:
    """Evaluate the published limits of one method against a column, in printed order.

    Every bound is inclusive. Every column within the limits gets the same shared report.
    """
    try:
        limits = _METHODS[method][1]
    except (KeyError, TypeError):
        raise ValueError(f"unknown method: {method!r}") from None
    violations = []
    for text, quantity, lo, hi, upper in limits:
        value = quantity(column)
        if value < lo:
            violations.append(_new_tuple(Violation, (text, lo, value)))
        else:
            if upper is not None:
                hi = upper(column)
            if value > hi:
                violations.append(_new_tuple(Violation, (text, hi, value)))
    return _new_tuple(ApplicabilityReport, (tuple(violations),)) if violations else _APPLICABLE


# ---------------------------------------------------------------------------
# method registry
# ---------------------------------------------------------------------------

# A formula's result: the load (N), its intermediates and its diagnostics.
_Result = tuple[float, dict[str, float], tuple[str, ...]]
_Formula = Callable[[ColumnSpec, PredictionSettings], _Result]
_Predictor = Callable[[ColumnSpec, PredictionSettings], CapacityPrediction]

# Per method, in MethodId order: its public predictor and its published
# limits in printed order.
_METHODS: dict[MethodId, tuple[_Predictor, tuple[_Limit, ...]]] = {}


def _method(method: MethodId, *limits: _Limit) -> Callable[[_Formula], _Predictor]:
    """Register a formula ``(column, settings) -> (N, intermediates, diagnostics)``.

    The formula is replaced by its public predictor: the only code that gates
    a load by its method's limits and builds the CapacityPrediction.  A formula
    that raises ArithmeticError gives N = nan and one ARITHMETIC_ERROR diagnostic.
    """

    def register(formula: _Formula) -> _Predictor:
        def predictor(
            column: ColumnSpec, settings: PredictionSettings = DEFAULT_SETTINGS
        ) -> CapacityPrediction:
            try:
                N, intermediates, diagnostics = formula(column, settings)
            except ArithmeticError as exc:  # finite inputs so large or small that the formula fails
                N, intermediates = math.nan, {}
                diagnostics = (f"{ARITHMETIC_ERROR}: {type(exc).__name__}: {exc}",)
            # built as the gate builds its records: tuple.__new__ over the fields in order
            return _new_tuple(CapacityPrediction, (
                method, N, check_applicability(method, column), intermediates, diagnostics
            ))

        predictor.__name__ = predictor.__qualname__ = formula.__name__
        predictor.__doc__ = formula.__doc__
        _METHODS[method] = (predictor, limits)
        return predictor

    return register


# ---------------------------------------------------------------------------
# design codes
# ---------------------------------------------------------------------------

_EC4_ACI_LIMITS = (
    _limit("D/t <= sqrt(8*Es/fy)", "D/t", hi=lambda c: math.sqrt(8.0 * c.steel.E_s / c.steel.f_y)),
    _limit("f_c' >= 17.2 MPa", "f_c", lo=17.2),
)


@_method(MethodId.EC4, *_EC4_ACI_LIMITS)
def predict_ec4(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """EC4 capacity with the confinement enhancement term on the concrete part.

    The intermediates are the relative slenderness and the clamped coefficients.
    """
    f_y, f_c = column.steel.f_y, column.concrete.f_c
    D, t = column.section.D, column.section.t
    EI_eff = column.steel.E_s * column.I_s + settings.K_e * column.concrete.E_c * column.I_c
    N_cr = math.pi**2 * EI_eff / (settings.K * column.section.L) ** 2
    N_pl_Rk = f_y * column.A_s + 0.85 * f_c * column.A_c
    lam = math.sqrt(N_pl_Rk / N_cr)
    eta_a = min(0.25 * (3.0 + 2.0 * lam), 1.0)
    eta_c4 = max(4.9 - 18.5 * lam + 17.0 * lam**2, 0.0)
    N = eta_a * column.A_s * f_y + column.A_c * f_c * (1.0 + eta_c4 * (t * f_y) / (D * f_c))
    return N, {"lambda_bar": lam, "eta_a": eta_a, "eta_c_ec4": eta_c4,
               "N_pl_Rk": N_pl_Rk, "N_cr": N_cr}, ()


@_method(
    MethodId.AISC,
    _limit("D/t <= 0.15*Es/fy", "D/t", hi=lambda c: 0.15 * c.steel.E_s / c.steel.f_y),
    _limit("fy <= 525 MPa", "f_y", hi=525.0),
    _limit("21 <= f_c' <= 70 MPa", "f_c", 21.0, 70.0),
)
def predict_aisc(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """AISC column curve applied to the composite squash load P_0.

    Inelastic branch ``P_0 * 0.658**(P_0/P_e)`` for ``P_e >= 0.44*P_0``
    (equality included, as printed in AISC 360-05), elastic branch
    ``0.877*P_e`` below the switch. The printed constants do not meet at
    the switch: the curve jumps by about 9.8e-4 relative there.
    C_3 is evaluated without the 0.9 cap (none is printed with the formula);
    a diagnostic notes when it exceeds 0.9.
    """
    f_y, f_c = column.steel.f_y, column.concrete.f_c
    A_s, A_c = column.A_s, column.A_c
    P_0 = 0.95 * f_c * A_c + f_y * A_s
    C_3 = 0.6 + 2.0 * (A_s / (A_s + A_c))
    EI_eff = column.steel.E_s * column.I_s + C_3 * column.concrete.E_c * column.I_c
    P_e = math.pi**2 * EI_eff / (settings.K * column.section.L) ** 2
    if P_e >= 0.44 * P_0:
        N = P_0 * 0.658 ** (P_0 / P_e)
    else:
        N = 0.877 * P_e
    diagnostics = []
    if C_3 > 0.9:
        diagnostics.append(f"C_3={C_3:.4g} exceeds 0.9 (no cap applied, as published)")
    return N, {"P_0": P_0, "P_e": P_e, "C_3": C_3}, tuple(diagnostics)


@_method(MethodId.CISC)
def predict_cisc(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """CISC capacity with the short-column tau/tau' factors and slenderness reduction."""
    f_y, f_c = column.steel.f_y, column.concrete.f_c
    A_s, A_c = column.A_s, column.A_c
    ld = column.ld_ratio
    if ld < 25.0:
        rho = 0.02 * (25.0 - ld)
        tau = (1.0 + rho + rho**2) ** -0.5
        tau_p = 1.0 + (25.0 * rho**2 * tau / column.dt_ratio) * (f_y / (0.8 * f_c))
    else:
        rho = 0.0
        tau = 1.0
        tau_p = 1.0
    base = tau * A_s * f_y + tau_p * 0.85 * A_c * f_c
    EI = column.steel.E_s * column.I_s + 0.6 * column.concrete.E_c * column.I_c / settings.r_cc
    lam = math.sqrt(base / (math.pi**2 * EI / (settings.K * column.section.L) ** 2))
    N = base * (1.0 + lam**3.6) ** -0.556
    return N, {"rho": rho, "tau": tau, "tau_prime": tau_p, "lambda": lam}, ()


@_method(
    MethodId.DBJ,
    _limit("D/t <= 150*235/fy", "D/t", hi=lambda c: 150.0 * 235.0 / c.steel.f_y),
    _limit("235 <= fy <= 420 MPa", "f_y", 235.0, 420.0),
    _limit("24 <= f_c' <= 70 MPa", "f_c", 24.0, 70.0),
)
def predict_dbj(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """DBJ composite strength f_sc = f_ck*(1.14 + 1.02*xi) over the gross area.

    f_ck is recovered as DBJ_FCK_FACTOR * f_cu150, back-converting the
    cylinder strength with the class's 150 mm cube factor of the strength
    conversion table.  UHSC has no published cube factor; the HSC factor is
    extrapolated under a diagnostic so the load is still reported.
    """
    f_y, f_c = column.steel.f_y, column.concrete.f_c
    klass = classify_concrete(f_c)
    uhsc = klass is ConcreteClass.UHSC
    factor = _CONVERSION_FACTORS[ConcreteClass.HSC if uhsc else klass][SpecimenKind.CUBE150]
    diagnostics = (f"cube conversion undefined for UHSC; HSC factor {factor:g} extrapolated "
                   "for f_ck",) if uhsc else ()
    f_ck = DBJ_FCK_FACTOR * (f_c / factor)
    xi_dbj = f_y * column.A_s / (f_ck * column.A_c)
    N = f_ck * (1.14 + 1.02 * xi_dbj) * (column.A_s + column.A_c)
    return N, {"f_ck": f_ck, "xi_dbj": xi_dbj}, diagnostics


@_method(MethodId.ACI, *_EC4_ACI_LIMITS)
def predict_aci(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """ACI squash load N = A_s*f_y + 0.85*A_c*f_c."""
    return column.A_s * column.steel.f_y + 0.85 * column.A_c * column.concrete.f_c, {}, ()


# ---------------------------------------------------------------------------
# published formulas
# ---------------------------------------------------------------------------


@_method(MethodId.OSHEA, _limit("D/t <= 200", "D/t", hi=200.0))
def predict_oshea(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """O'Shea & Bridge confined-stress formula, evaluated exactly as published.

    The normal-strength branch can produce a negative confined stress for
    common inputs; that (and the fractional power becoming undefined on the
    high-strength branch) is reported as a diagnostic, not corrected.
    """
    f_y, f_c = column.steel.f_y, column.concrete.f_c
    D, t = column.section.D, column.section.t
    P_yield = 2.0 * f_y * t / (D - 2.0 * t)
    p = P_yield * (0.7 - math.sqrt(f_c / f_y)) * (10.0 / 3.0)
    diagnostics = []
    if f_c <= 50.0:
        f_l = 0.558 * math.sqrt(f_c)
        sigma_cp = f_c * (-1.228 + 2.172 * math.sqrt(1.0 + 7.46 * f_l / f_c) - 2.0 * p / f_c)
        inter = {"p": p, "f_l": f_l, "sigma_cp": sigma_cp}
    else:
        if f_c > 100.0:
            diagnostics.append("f_c > 100 MPa outside the published branches; high-strength branch extrapolated")
        base = p / f_c + 1.0
        k = 1.25 * (1.0 + 0.062 * p / f_c) * f_c**-0.21
        if base > 0.0:
            sigma_cp = f_c * base**k
        else:
            sigma_cp = math.nan
            diagnostics.append(f"{NON_PHYSICAL_CONFINED_STRESS}: (p/f_c + 1) = {base:.4g} <= 0")
        inter = {"p": p, "k": k, "sigma_cp": sigma_cp}
    if sigma_cp <= 0.0:
        diagnostics.append(f"{NON_PHYSICAL_CONFINED_STRESS}: sigma_cp = {sigma_cp:.4g} MPa")
    return sigma_cp * column.A_c + column.A_s * f_y, inter, tuple(diagnostics)


@_method(
    MethodId.YU,
    _limit("235 <= fy <= 345 MPa", "f_y", 235.0, 345.0),
    _limit("30 <= f_c' <= 60 MPa", "f_c", 30.0, 60.0),
    _limit("0.2 <= xi <= 2", "xi", 0.2, 2.0),
)
def predict_yu(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """Yu steel-tube-confined strength f_cc = (1.14 + 1.34*xi)*f_c over the core."""
    f_cc = (1.14 + 1.34 * column.xi_c) * column.concrete.f_c
    return f_cc * column.A_c, {"f_cc": f_cc}, ()


@_method(MethodId.LIU)
def predict_liu(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """Liu partial-yield superposition with hoop-stress confinement.

    The published material gives two expressions for the radial pressure,
    2*t*sigma_h/(D - 2t) and the simplification 1.08*t*fy/D, which disagree
    by the factor D/(D - 2t).  The definitional form is used; both values
    and their gap are reported as a diagnostic.
    """
    f_y, f_c = column.steel.f_y, column.concrete.f_c
    D, t = column.section.D, column.section.t
    sigma_v = 0.61 * f_y
    sigma_h = 0.54 * f_y
    sigma_r = 2.0 * t * sigma_h / (D - 2.0 * t)
    sigma_r_simplified = 1.08 * t * f_y / D
    sigma_cp = f_c + 4.1 * sigma_r
    N = sigma_v * column.A_s + sigma_cp * column.A_c
    diagnostics = (
        f"hoop-pressure forms differ: 2t*sigma_h/(D-2t) = {sigma_r:.4g} MPa vs "
        f"1.08*t*fy/D = {sigma_r_simplified:.4g} MPa (definitional form used)",
    )
    inter = {
        "sigma_v": sigma_v,
        "sigma_r": sigma_r,
        "sigma_r_simplified": sigma_r_simplified,
        "sigma_cp": sigma_cp,
    }
    return N, inter, diagnostics


@_method(MethodId.SUN)
def predict_sun(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """Sun confined strength over the core; singular at D/t = 2, which D > 2t excludes."""
    dt = column.dt_ratio
    f_y, f_c = column.steel.f_y, column.concrete.f_c
    f_cc = f_c * (1.0 + 8.2 * ((dt - 1.0) * f_y) / ((dt - 2.0) ** 2 * f_c))
    return f_cc * column.A_c, {"f_cc": f_cc}, ()


@_method(MethodId.ZHONG_MIAO)
def predict_zhong_miao(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """Zhong & Miao limit-state superposition.

    The published formula leaves p_0, the lateral pressure on the core at
    ultimate, undefined; it is taken as 0, which reduces the concrete term
    (f_c + 4*p_0)*A_c to f_c*A_c, and reported among the intermediates.
    """
    mu = -0.5 - 1.0 / (2.0 * (column.xi_c + 1.0))
    steel_factor = (mu + 2.0) / math.sqrt(3.0 * (mu * mu + mu + 1.0))
    N = steel_factor * column.steel.f_y * column.A_s + column.concrete.f_c * column.A_c
    return N, {"mu_prime": mu, "steel_factor": steel_factor, "p_0": 0.0}, ()


@_method(MethodId.GUO, _limit("xi <= 1.7", "xi", hi=1.7))
def predict_guo(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """Guo confined strength f_cc = f_c*(1 + sqrt(xi) + 1.1*xi) over the core."""
    xi = column.xi_c
    f_cc = column.concrete.f_c * (1.0 + math.sqrt(xi) + 1.1 * xi)
    return f_cc * column.A_c, {"f_cc": f_cc}, ()


@_method(MethodId.DE_OLIVEIRA, _limit("1 <= L/D <= 10", "L/D", 1.0, 10.0))
def predict_oliveira(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """De Oliveira squash load scaled by a length-effect factor lambda.

    Above L/D = 3, settings.oliveira_mode selects the printed or the corrected
    reading of lambda (see OliveiraMode).
    """
    base = column.A_c * column.concrete.f_c + column.A_s * column.steel.f_y
    ld = column.ld_ratio
    diagnostics = []
    if ld <= 3.0:
        lam = 1.0
    elif settings.oliveira_mode is OliveiraMode.AS_PRINTED:
        lam = -0.18 * math.log(ld)  # below -0.197 for every L/D > 3, so always non-physical
        diagnostics.append(
            f"{NON_PHYSICAL_LENGTH_FACTOR}: lambda = -0.18*ln(L/D) = {lam:.4g} at L/D = {ld:.4g}"
        )
    else:
        lam = 1.0 - 0.18 * math.log(ld / 3.0)
    return base * lam, {"lambda": lam, "base": base}, tuple(diagnostics)


# ---------------------------------------------------------------------------
# proposed superposition formula
# ---------------------------------------------------------------------------


def eta_s(alpha_s: float, f_c: float, f_y: float) -> float:
    """Steel diminution factor [1.923 - 1.229*ln(0.003*fy)] * (alpha_s*fc/fy)^0.47, unclamped."""
    if alpha_s < 0:
        raise ValueError("alpha_s must be non-negative")
    if f_c <= 0 or f_y <= 0:
        raise ValueError("f_c and f_y must be positive")
    return (1.923 - 1.229 * math.log(0.003 * f_y)) * (alpha_s * f_c / f_y) ** 0.47


def eta_c(dt_ratio: float, f_c: float, xi_c: float) -> float:
    """Concrete intensification factor 0.85 + 0.3*(D/t)^0.328*fc^0.1*xi_c, unclamped."""
    if dt_ratio <= 0 or f_c <= 0:
        raise ValueError("D/t and f_c must be positive")
    if xi_c < 0:
        raise ValueError("xi_c must be non-negative")
    return 0.85 + 0.3 * dt_ratio**0.328 * f_c**0.1 * xi_c


# DATABASE_ENVELOPE as (name, quantity, lo, hi), in its order
_ENVELOPE = tuple((name, _QUANTITY[name], lo, hi) for name, (lo, hi) in DATABASE_ENVELOPE.items())


def _envelope_flags(column: ColumnSpec) -> tuple[str, ...]:
    flags = []
    for name, quantity, lo, hi in _ENVELOPE:
        value = quantity(column)
        if not lo <= value <= hi:
            flags.append(f"{name} = {value:g} outside calibration envelope [{lo:g}, {hi:g}]")
    return tuple(flags)


@_method(MethodId.PROPOSED)
def predict_proposed(column: ColumnSpec, settings: PredictionSettings) -> _Result:
    """Superposition N = eta_c*A_c*f_c + eta_s*A_s*f_y.

    Applicable for any column; excursions outside the calibration envelope
    are reported as diagnostics.
    """
    f_y, f_c = column.steel.f_y, column.concrete.f_c
    e_c = eta_c(column.dt_ratio, f_c, column.xi_c)
    e_s = eta_s(column.alpha_s, f_c, f_y)
    N = e_c * column.A_c * f_c + e_s * column.A_s * f_y
    return N, {"eta_c": e_c, "eta_s": e_s}, _envelope_flags(column)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def predict(
    column: ColumnSpec,
    method: MethodId,
    settings: PredictionSettings = DEFAULT_SETTINGS,
) -> CapacityPrediction:
    """Run one predictor on a column under the given settings."""
    try:
        run = _METHODS[method][0]
    except (KeyError, TypeError):
        raise ValueError(f"unknown method: {method!r}") from None
    return run(column, settings)


def method_set(methods: Sequence[MethodId] | None = None) -> tuple[MethodId, ...]:
    """The methods to run as a tuple, all thirteen for None; one listed twice raises ValueError."""
    if methods is None:
        return ALL_METHODS
    methods = tuple(methods)
    for i, method in enumerate(methods):
        if method in methods[:i]:
            raise ValueError(f"method {getattr(method, 'value', method)!r} given more than once")
    return methods


def predict_all(
    column: ColumnSpec,
    methods: tuple[MethodId, ...] | None = None,
    settings: PredictionSettings = DEFAULT_SETTINGS,
) -> list[CapacityPrediction]:
    """Run the requested predictors (all thirteen by default) in the order given.

    Raises ValueError when a method is listed twice.
    """
    return [predict(column, m, settings) for m in method_set(methods)]
