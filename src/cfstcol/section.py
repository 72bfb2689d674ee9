"""Geometry, base materials and strength-basis conversion for circular CFST columns.

All quantities are kept in N, mm and MPa internally; loads are only turned
into kN at the reporting layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple

STEEL_E_DEFAULT = 200_000.0  # MPa, used when a specimen record omits E_s
DMAX_DEFAULT = 20.0  # mm, conventional coarse-aggregate size

# Envelopes of the calibration databases behind the material models.  Values
# outside them are computed anyway but flagged.
FY_VALID_RANGE = (200.0, 800.0)
FC_VALID_RANGE = (12.5, 185.6)


def _require_finite(**values: float) -> None:
    """Reject NaN and infinities, which pass every ``<= 0`` check, naming the first offender.

    Per-row constructors call it only when the product of their values is not
    finite, which a product of finite values can only be by overflowing.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value:g}")


# Builds a NamedTuple from a tuple of its fields without the Python-level __new__
_new_tuple = tuple.__new__


class SectionError(ValueError):
    """Geometrically impossible tube section (e.g. no concrete core left)."""


class ConversionError(ValueError):
    """Strength conversion requested for a specimen shape with no defined factor."""


class SpecimenKind(Enum):
    """Compression-test specimen shapes with defined conversion factors."""

    CYL150 = "CYL150"  # 150x300 cylinder, the reference basis
    CYL100 = "CYL100"
    CUBE150 = "CUBE150"
    CUBE100 = "CUBE100"

    # singletons compared by identity: the C-level hash agrees with == and is cheap
    __hash__ = object.__hash__


class ConcreteClass(Enum):
    NSC = "NSC"
    HSC = "HSC"
    UHSC = "UHSC"

    __hash__ = object.__hash__


def classify_concrete(f_c: float) -> ConcreteClass:
    """Class of a cylinder strength: NSC up to 60 MPa, UHSC from 120 MPa, HSC between."""
    if f_c <= 0:
        raise ValueError("f_c must be positive")
    if f_c >= 120.0:
        return ConcreteClass.UHSC
    if f_c > 60.0:
        return ConcreteClass.HSC
    return ConcreteClass.NSC


# Multipliers onto the 150x300-cylinder basis, per concrete class.  The UHSC
# column defines no cube factors; those conversions are rejected.
_CONVERSION_FACTORS: dict[ConcreteClass, dict[SpecimenKind, float | None]] = {
    ConcreteClass.NSC: {
        SpecimenKind.CYL150: 1.0,
        SpecimenKind.CYL100: 1.0 / 1.03,
        SpecimenKind.CUBE150: 0.88,
        SpecimenKind.CUBE100: 0.82,
    },
    ConcreteClass.HSC: {
        SpecimenKind.CYL150: 1.0,
        SpecimenKind.CYL100: 1.0 / 1.04,
        SpecimenKind.CUBE150: 0.98,
        SpecimenKind.CUBE100: 0.92,
    },
    ConcreteClass.UHSC: {
        SpecimenKind.CYL150: 1.0,
        SpecimenKind.CYL100: 0.95,
        SpecimenKind.CUBE150: None,
        SpecimenKind.CUBE100: None,
    },
}


def check_measured_strength(value: float) -> None:
    """Raise ValueError unless ``value`` is a valid ``MeasuredStrength.value``."""
    if value <= 0:
        raise ValueError("measured strength must be positive")
    if not math.isfinite(value):
        _require_finite(measured_strength=value)


@dataclass(frozen=True, slots=True, init=False)
class MeasuredStrength:
    """A raw compressive strength (MPa) together with the specimen shape it came from."""

    value: float
    kind: SpecimenKind

    def __init__(self, value: float, kind: SpecimenKind) -> None:
        check_measured_strength(value)
        _set_value(self, value)
        _set_kind(self, kind)


class ConvertedStrength(NamedTuple):
    """Strength on the 150x300-cylinder basis plus the class used to convert it."""

    f_c: float
    concrete_class: ConcreteClass


def _factor_for(klass: ConcreteClass, kind: SpecimenKind) -> float:
    factor = _CONVERSION_FACTORS[klass][kind]
    if factor is None:
        raise ConversionError(
            f"no conversion factor defined for {kind.value} specimens of {klass.value} concrete"
        )
    return factor


def convert_strength(measured: MeasuredStrength) -> ConvertedStrength:
    """Convert a measured strength onto the 150x300-cylinder basis.

    The factor depends on the concrete class, which itself depends on the
    converted value.  Resolution is two passes: convert with the class of
    the raw value, re-classify the result and convert again with that class
    (the same product when the class did not change).  The class of the
    second pass is reported alongside the value.

    Raises:
        ConversionError: cube specimens of UHSC have no defined factor.
    """
    klass = classify_concrete(measured.value)
    klass = classify_concrete(measured.value * _factor_for(klass, measured.kind))
    return _new_tuple(ConvertedStrength, (measured.value * _factor_for(klass, measured.kind), klass))


def concrete_elastic_modulus(f_c: float) -> float:
    """Secant modulus E_c = 4700*sqrt(f_c) MPa."""
    if f_c <= 0:
        raise ValueError("f_c must be positive")
    return 4700.0 * math.sqrt(f_c)


def check_section(D: float, t: float, L: float) -> None:
    """Raise SectionError or ValueError unless D, t, L make a valid ``CircularSection``."""
    if D <= 0 or t <= 0 or L <= 0:
        raise SectionError("D, t and L must all be positive")
    if D <= 2.0 * t:
        raise SectionError(f"D={D:g} mm and t={t:g} mm leave no concrete core (need D > 2t)")
    if not math.isfinite(D * t * L):
        _require_finite(D=D, t=t, L=L)


@dataclass(frozen=True, slots=True, init=False)
class CircularSection:
    """Circular tube geometry in mm: outer diameter D, wall thickness t, length L."""

    D: float
    t: float
    L: float

    def __init__(self, D: float, t: float, L: float) -> None:
        check_section(D, t, L)
        _set_D(self, D)
        _set_t(self, t)
        _set_L(self, L)


def section_areas(section: CircularSection) -> tuple[float, float]:
    """Steel annulus area pi*t*(D - t) and concrete core area pi/4*d*d (mm^2), d = D - 2t.

    The annulus is a product, not the difference of two discs, so no bits cancel.
    """
    D, t = section.D, section.t
    d = D - 2.0 * t
    return math.pi * t * (D - t), math.pi / 4.0 * d * d


def section_second_moments(section: CircularSection) -> tuple[float, float]:
    """Second moments I_s = pi/16*t*(D - t)*(D^2 + d^2) and I_c = pi/64*d^4 (mm^4), d = D - 2t.

    Products, not powers: no bits cancel, and a huge section gets inf, not OverflowError.
    """
    D, t = section.D, section.t
    d = D - 2.0 * t
    return math.pi / 16.0 * t * (D - t) * (D * D + d * d), math.pi / 64.0 * ((d * d) * (d * d))


def confinement_factor(A_s: float, f_y: float, A_c: float, f_c: float) -> float:
    """Confinement factor xi_c = (A_s*f_y)/(A_c*f_c)."""
    if A_s < 0 or f_y < 0:
        raise ValueError("A_s and f_y must be non-negative")
    if A_c <= 0 or f_c <= 0 or A_c * f_c == 0.0:  # two tiny positives may underflow to 0
        raise ValueError(f"A_c*f_c must be positive, got A_c={A_c:g} and f_c={f_c:g}")
    return (A_s * f_y) / (A_c * f_c)


def check_steel(f_y: float, f_u: float | None,
                E_s: float | None) -> tuple[float, float, tuple[str, ...]]:
    """Raise ValueError unless these make a ``SteelMaterial``; return its f_u, E_s, defaulted."""
    defaulted = ()
    if f_u is None:
        f_u = max(1.25 * f_y, f_y + 50.0)
        defaulted = ("f_u",)
    if E_s is None:
        E_s = STEEL_E_DEFAULT
        defaulted += ("E_s",)
    if f_y <= 0:
        raise ValueError("f_y must be positive")
    if E_s <= 0:
        raise ValueError("E_s must be positive")
    if f_u < f_y:
        raise ValueError(f"f_u={f_u:g} MPa below f_y={f_y:g} MPa")
    if not math.isfinite(f_y * f_u * E_s):
        _require_finite(f_y=f_y, f_u=f_u, E_s=E_s)
    return f_u, E_s, defaulted


@dataclass(frozen=True, slots=True, init=False)
class SteelMaterial:
    """Steel tube properties (MPa).

    f_u and E_s may be omitted; they then fall back to the documented
    defaults max(1.25*f_y, f_y + 50) and 200 000 MPa, and the field names
    are recorded in ``defaulted`` so reports can mark them.
    """

    f_y: float
    f_u: float
    E_s: float
    defaulted: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, f_y: float, f_u: float | None = None, E_s: float | None = None) -> None:
        f_u, E_s, defaulted = check_steel(f_y, f_u, E_s)
        _set_f_y(self, f_y)
        _set_f_u(self, f_u)
        _set_E_s(self, E_s)
        _set_steel_defaulted(self, defaulted)

    @property
    def validity_flags(self) -> tuple[str, ...]:
        lo, hi = FY_VALID_RANGE
        if not lo <= self.f_y <= hi:
            return (f"f_y={self.f_y:g} MPa outside steel model range [{lo:g}, {hi:g}] MPa",)
        return ()


def check_concrete(f_c: float, d_max: float | None,
                   E_c: float | None) -> tuple[float, float, tuple[str, ...]]:
    """Raise ValueError unless these make a ``ConcreteMaterial``; return its d_max, E_c, defaulted."""
    if f_c <= 0:
        raise ValueError("f_c must be positive")
    defaulted = ()
    if d_max is None:
        d_max = DMAX_DEFAULT
        defaulted = ("d_max",)
    if E_c is None:
        E_c = concrete_elastic_modulus(f_c)
        defaulted += ("E_c",)
    if d_max < 0:
        raise ValueError("d_max must be non-negative")
    if E_c <= 0:
        raise ValueError("E_c must be positive")
    if not math.isfinite(f_c * d_max * E_c):
        _require_finite(f_c=f_c, d_max=d_max, E_c=E_c)
    return d_max, E_c, defaulted


@dataclass(frozen=True, slots=True, init=False)
class ConcreteMaterial:
    """Core concrete properties: f_c on the 150x300-cylinder basis (MPa).

    d_max defaults to 20 mm and E_c to 4700*sqrt(f_c) when not supplied;
    defaulted field names are recorded for reporting.
    """

    f_c: float
    d_max: float
    E_c: float
    defaulted: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, f_c: float, d_max: float | None = None, E_c: float | None = None) -> None:
        d_max, E_c, defaulted = check_concrete(f_c, d_max, E_c)
        _set_f_c(self, f_c)
        _set_d_max(self, d_max)
        _set_E_c(self, E_c)
        _set_concrete_defaulted(self, defaulted)

    @property
    def validity_flags(self) -> tuple[str, ...]:
        lo, hi = FC_VALID_RANGE
        if not lo <= self.f_c <= hi:
            return (f"f_c={self.f_c:g} MPa outside database range [{lo:g}, {hi:g}] MPa",)
        return ()


@dataclass(frozen=True, slots=True, init=False)
class ColumnSpec:
    """One circular CFST column: geometry plus steel and core concrete.

    The derived geometry (areas A_s, A_c, second moments I_s, I_c, D/t, L/D,
    area ratio alpha_s = A_s/A_c, confinement factor xi_c) is computed once at
    construction and takes no part in equality or repr; an inf moment gives lambda = 0.
    """

    section: CircularSection
    steel: SteelMaterial
    concrete: ConcreteMaterial
    A_s: float = field(init=False, repr=False, compare=False)
    A_c: float = field(init=False, repr=False, compare=False)
    I_s: float = field(init=False, repr=False, compare=False)
    I_c: float = field(init=False, repr=False, compare=False)
    dt_ratio: float = field(init=False, repr=False, compare=False)
    ld_ratio: float = field(init=False, repr=False, compare=False)
    alpha_s: float = field(init=False, repr=False, compare=False)
    xi_c: float = field(init=False, repr=False, compare=False)

    def __init__(self, section: CircularSection, steel: SteelMaterial,
                 concrete: ConcreteMaterial) -> None:
        A_s, A_c = section_areas(section)
        xi_c = confinement_factor(A_s, steel.f_y, A_c, concrete.f_c)
        if not math.isfinite(A_s * A_c * xi_c):
            _require_finite(A_s=A_s, A_c=A_c, xi_c=xi_c)
        I_s, I_c = section_second_moments(section)
        _set_section(self, section)
        _set_steel(self, steel)
        _set_concrete(self, concrete)
        _set_A_s(self, A_s)
        _set_A_c(self, A_c)
        _set_I_s(self, I_s)
        _set_I_c(self, I_c)
        _set_dt_ratio(self, section.D / section.t)
        _set_ld_ratio(self, section.L / section.D)
        _set_alpha_s(self, A_s / A_c)
        _set_xi_c(self, xi_c)

    @property
    def defaulted(self) -> tuple[str, ...]:
        return self.steel.defaulted + self.concrete.defaulted

    @property
    def validity_flags(self) -> tuple[str, ...]:
        return self.steel.validity_flags + self.concrete.validity_flags


def _slot_setters(cls: type) -> list:
    """Each field's slot setter, in field order: object.__setattr__ on one field, but faster."""
    return [getattr(cls, f.name).__set__ for f in fields(cls)]


_set_value, _set_kind = _slot_setters(MeasuredStrength)
_set_D, _set_t, _set_L = _slot_setters(CircularSection)
_set_f_y, _set_f_u, _set_E_s, _set_steel_defaulted = _slot_setters(SteelMaterial)
_set_f_c, _set_d_max, _set_E_c, _set_concrete_defaulted = _slot_setters(ConcreteMaterial)
(_set_section, _set_steel, _set_concrete, _set_A_s, _set_A_c, _set_I_s, _set_I_c, _set_dt_ratio,
 _set_ld_ratio, _set_alpha_s, _set_xi_c) = _slot_setters(ColumnSpec)


def column_from_inputs(
    D: float, t: float, L: float, f_y: float, f_u: float | None, E_s: float | None,
    fc_measured: float, fc_kind: SpecimenKind, d_max: float | None = None, E_c: float | None = None,
) -> tuple[ColumnSpec, ConvertedStrength]:
    """The column a specimen's inputs describe, and its strength on the cylinder basis.

    It converts the measured strength, then assembles the column from the five
    value-type constructors; None takes the documented default.  Raises
    ConversionError for cube specimens of UHSC, and ValueError for inputs the
    value types reject.
    """
    converted = convert_strength(MeasuredStrength(fc_measured, fc_kind))
    column = ColumnSpec(CircularSection(D, t, L), SteelMaterial(f_y, f_u, E_s),
                        ConcreteMaterial(converted.f_c, d_max, E_c))
    return column, converted
