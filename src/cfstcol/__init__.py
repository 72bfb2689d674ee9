"""Capacity predictors, constitutive models and CDP material cards for
circular concrete-filled steel tube (CFST) short columns.

Internal units are N, mm and MPa; loads are reported in kN only at the
CLI/reporting layer.

Importing the package loads none of its modules: each name below is
imported from its module on first use, and so is ``cfstcol.<module>``.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "capacity": (
        "DEFAULT_SETTINGS", "ApplicabilityReport", "CapacityPrediction", "MethodId",
        "OliveiraMode", "PredictionSettings", "Violation", "check_applicability", "eta_c",
        "eta_s", "predict", "predict_aci", "predict_aisc", "predict_all", "predict_cisc",
        "predict_dbj", "predict_ec4", "predict_guo", "predict_liu", "predict_oliveira",
        "predict_oshea", "predict_proposed", "predict_sun", "predict_yu", "predict_zhong_miao",
    ),
    "cards": ("render_cdpm_card",),
    "dataset": (
        "CSV_HEADER", "ParsedDataset", "RowError", "RowResult", "SpecimenRecord", "StatsSummary",
        "column_from_record", "evaluate_dataset", "parse_dataset",
    ),
    "materials": (
        "CdpmParameterSet", "ConfinedConcreteParams", "SteelCurveParams", "StressStrainCurve",
        "biaxial_ratio", "cdpm_parameters", "concrete_stress", "confined_concrete_params",
        "confined_peak_strain", "confining_pressure", "dilation_angle", "fracture_energy", "kc",
        "peak_strain_unconfined", "residual_stress", "sample_concrete_curve",
        "sample_steel_curve", "softening_params", "steel_curve_params", "steel_stress",
    ),
    "response": ("AxialResponse", "response_curve"),
    "section": (
        "CircularSection", "ColumnSpec", "ConcreteClass", "ConcreteMaterial", "ConversionError",
        "ConvertedStrength", "MeasuredStrength", "SectionError", "SpecimenKind", "SteelMaterial",
        "classify_concrete", "column_from_inputs", "concrete_elastic_modulus", "confinement_factor",
        "convert_strength", "section_areas", "section_second_moments",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
