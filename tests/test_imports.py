"""What a cold process loads, and the package's lazily resolved namespace.

Each import-graph case runs a fresh interpreter (``-W error``, with this
checkout's ``src`` first on the path) and reports the ``cfstcol`` modules,
``csv`` and ``json`` that the code under test loaded, so that a subcommand
is seen to load only the layers it runs.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cfstcol

from test_cli import R1_ARGS
from test_golden import COMMANDS, GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = "{m for m in sys.modules if m.split('.')[0] == 'cfstcol' or m in ('csv', 'json')}"

# the package's public names by defining module: every name it exported
# before it resolved them lazily, except the removed CurveKind
EXPORTS = {
    "capacity": [
        "DEFAULT_SETTINGS", "ApplicabilityReport", "CapacityPrediction", "Ec4Coefficients",
        "MethodId", "OliveiraMode", "PredictionSettings", "ProposedFactors", "Violation",
        "check_applicability", "ec4_coefficients", "eta_c", "eta_s", "predict", "predict_aci",
        "predict_aisc", "predict_all", "predict_cisc", "predict_dbj", "predict_ec4",
        "predict_guo", "predict_liu", "predict_oliveira", "predict_oshea", "predict_proposed",
        "predict_sun", "predict_yu", "predict_zhong_miao", "proposed_factors",
    ],
    "cards": ["render_cdpm_card"],
    "dataset": [
        "CSV_HEADER", "ParsedDataset", "RowError", "RowResult", "SpecimenRecord", "StatsSummary",
        "column_from_record", "evaluate_dataset", "parse_dataset",
    ],
    "materials": [
        "CdpmParameterSet", "ConfinedConcreteParams", "SteelCurveParams", "StressStrainCurve",
        "biaxial_ratio", "cdpm_parameters", "concrete_stress", "confined_concrete_params",
        "confined_peak_strain", "confining_pressure", "dilation_angle", "fracture_energy", "kc",
        "peak_strain_unconfined", "residual_stress", "sample_concrete_curve",
        "sample_steel_curve", "softening_params", "steel_curve_params", "steel_stress",
    ],
    "response": ["AxialResponse", "peak_load", "response_curve"],
    "section": [
        "CircularSection", "ColumnSpec", "ConcreteClass", "ConcreteMaterial", "ConversionError",
        "ConvertedStrength", "MeasuredStrength", "SectionError", "SpecimenKind", "SteelMaterial",
        "classify_concrete", "column_from_inputs", "concrete_elastic_modulus", "confinement_factor",
        "convert_strength", "section_areas", "section_second_moments",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def loaded_by(code: str) -> set[str]:
    """The watched modules that ``code`` loads in a fresh interpreter."""
    script = f"import sys\nbefore = {WATCHED}\n{code}\nprint(*sorted({WATCHED} - before))\n"
    done = fresh("-c", script)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


class TestImportGraph:
    def test_package_import_loads_no_submodule(self):
        assert loaded_by("import cfstcol") == {"cfstcol"}

    def test_cli_import_loads_only_the_cli(self):
        assert loaded_by("import cfstcol.cli") == {"cfstcol", "cfstcol.cli"}

    @pytest.mark.parametrize("argv,used,unused", [
        (["predict"], {"section", "capacity"},
         {"materials", "cards", "response", "dataset", "csv", "json"}),
        (["predict", "--format", "json"], {"section", "capacity", "json"},
         {"materials", "cards", "response", "dataset", "csv"}),
        (["curve", "--material", "concrete"], {"section", "materials"},
         {"capacity", "cards", "response", "dataset", "csv", "json"}),
        (["respond"], {"section", "materials", "response"},
         {"capacity", "cards", "dataset", "csv", "json"}),
        (["cdpm"], {"section", "materials", "cards"},
         {"capacity", "response", "dataset", "csv", "json"}),
        (["batch"], {"section", "capacity", "dataset", "csv", "json"},
         {"materials", "cards", "response"}),
    ], ids=["predict", "predict-json", "curve", "respond", "cdpm", "batch"])
    def test_a_subcommand_loads_only_its_layers(self, tmp_path, argv, used, unused):
        if argv[0] == "batch":
            args = ["--input", str(GOLDEN / "batch_input.csv"),
                    "--summary-out", str(tmp_path / "summary.json")]
        else:
            args = R1_ARGS
        argv = [*argv, *args, "--out", str(tmp_path / "out.txt")]
        loaded = loaded_by(f"from cfstcol.cli import main\nassert main({argv!r}) == 0")

        def qualified(names):
            return {n if n in ("csv", "json") else f"cfstcol.{n}" for n in names}
        assert qualified(used) <= loaded
        assert loaded.isdisjoint(qualified(unused))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_module_entry_point_reproduces_the_golden_output(self, command):
        done = fresh("-m", "cfstcol.cli", *COMMANDS[command], *R1_ARGS)
        assert done.returncode == 0, done.stderr
        assert done.stdout + done.stderr == (GOLDEN / f"r1_{command}.txt").read_text(encoding="utf-8")


class TestNamespace:
    def test_all_lists_the_public_names(self):
        assert sorted(cfstcol.__all__) == sorted(name for _, name in NAMES)

    @pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
    def test_a_name_is_its_defining_modules_object(self, module, name):
        value = getattr(cfstcol, name)
        assert value is getattr(importlib.import_module(f"cfstcol.{module}"), name)
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == f"cfstcol.{module}"
        assert vars(cfstcol)[name] is value  # resolved once, then a plain global

    def test_dir_lists_every_public_name(self):
        assert set(cfstcol.__all__) <= set(dir(cfstcol))

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from cfstcol import *", namespace)
        assert set(cfstcol.__all__) <= namespace.keys()

    def test_a_submodule_resolves_without_its_own_import(self):
        done = fresh("-c", "import cfstcol\nprint(cfstcol.capacity.__name__)")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "cfstcol.capacity\n"

    def test_an_unknown_name_raises_attribute_error_naming_the_module(self):
        with pytest.raises(AttributeError, match="module 'cfstcol' has no attribute 'nope'"):
            cfstcol.nope
