"""Batch command-line front end.

Subcommands: predict (all thirteen capacity methods on one column), curve
(steel or confined-concrete stress-strain CSV), cdpm (FE material card),
respond (fiber axial load-strain CSV), batch (dataset CSV in, per-row CSV
plus JSON statistics out).  Loads are reported in kN at 0.1 kN resolution.

This module holds the parser.  Each subcommand imports the layers it runs
when it runs, so that a cold call loads no layer it does not use; the
annotations name those layers' types without importing them.
"""

from __future__ import annotations

import argparse
import sys

USAGE_ERROR = 2
RATIO_ORIENTATION = "N_test/N_u"  # the ratio that batch statistics summarise
# the OliveiraMode values, hyphenated; literal, so that building the parser loads no capacity code
OLIVEIRA_MODES = ("as-printed", "corrected")


def _run_config(settings: PredictionSettings, Ec_override: float | None) -> dict:
    """One run's auditable configuration: formula settings and the concrete modulus override."""
    from .capacity import DBJ_FCK_FACTOR

    return {
        "K_e": settings.K_e,
        "K": settings.K,
        "r_cc": settings.r_cc,
        "oliveira_mode": settings.oliveira_mode.value,
        "dbj_fck_factor": DBJ_FCK_FACTOR,
        "Ec_override": Ec_override,
        "ratio_orientation": RATIO_ORIENTATION,
        "std_estimator": "sample (n-1)",
    }


def _add_column_args(parser: argparse.ArgumentParser) -> None:
    from .section import SpecimenKind

    g = parser.add_argument_group("column")
    g.add_argument("--D", type=float, required=True, help="outer diameter (mm)")
    g.add_argument("--t", type=float, required=True, help="wall thickness (mm)")
    g.add_argument("--L", type=float, required=True, help="column length (mm)")
    g.add_argument("--fy", type=float, required=True, help="steel yield strength (MPa)")
    g.add_argument("--fu", type=float, help="steel ultimate strength (MPa); defaults to max(1.25*fy, fy+50)")
    g.add_argument("--Es", type=float, help="steel modulus (MPa); defaults to 200000")
    g.add_argument("--fc", type=float, required=True, help="measured concrete strength (MPa)")
    g.add_argument(
        "--fc-kind",
        choices=[k.value.lower() for k in SpecimenKind],
        default="cyl150",
        help="specimen shape of --fc (default cyl150)",
    )
    g.add_argument("--dmax", type=float, help="max aggregate size (mm); defaults to 20")
    g.add_argument("--ec", type=float, help="concrete modulus override (MPa)")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("formula settings")
    g.add_argument("--ke", type=float, default=0.6, help="EC4 concrete stiffness factor K_e")
    g.add_argument("--keff", type=float, default=1.0, help="effective length factor K")
    g.add_argument("--rcc", type=float, default=1.0, help="CISC C_fs/C_f ratio")
    g.add_argument(
        "--oliveira-mode",
        choices=OLIVEIRA_MODES,
        default="as-printed",
        help="length factor above L/D=3: as published or continuous reading",
    )


def _settings(args: argparse.Namespace) -> PredictionSettings:
    from .capacity import OliveiraMode, PredictionSettings

    return PredictionSettings(
        K_e=args.ke,
        K=args.keff,
        r_cc=args.rcc,
        oliveira_mode=OliveiraMode(args.oliveira_mode.replace("-", "_")),
    )


def _build_column(args: argparse.Namespace) -> tuple[ColumnSpec, ConvertedStrength]:
    from .section import (
        CircularSection,
        ColumnSpec,
        ConcreteMaterial,
        MeasuredStrength,
        SpecimenKind,
        SteelMaterial,
        convert_strength,
    )

    kind = SpecimenKind(args.fc_kind.upper())
    converted = convert_strength(MeasuredStrength(args.fc, kind))
    column = ColumnSpec(
        CircularSection(args.D, args.t, args.L),
        SteelMaterial(args.fy, args.fu, args.Es),
        ConcreteMaterial(converted.f_c, args.dmax, args.ec),
    )
    return column, converted


def _parse_methods(spec: str) -> tuple[MethodId, ...]:
    from .capacity import ALL_METHODS, MethodId, check_distinct

    if spec.strip().lower() == "all":
        return ALL_METHODS
    methods = []
    for token in spec.split(","):
        token = token.strip().lower()
        try:
            methods.append(MethodId(token))
        except ValueError:
            known = ", ".join(m.value for m in MethodId)
            raise ValueError(f"unknown method {token!r} (known: all, {known})") from None
    check_distinct(methods)
    return tuple(methods)


def _output(out: str | None, default):
    """The file named by ``out`` opened for writing, or the stream ``default`` (left open)."""
    if not out:
        import contextlib

        return contextlib.nullcontext(default)
    try:
        return open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from None


def _write(text: str, out: str | None) -> None:
    with _output(out, sys.stdout) as fh:
        fh.write(text)


def _json(payload: dict) -> str:
    """Strict JSON text: a non-finite float, at any depth, is written as null."""
    import json
    import math

    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        return [finite(v) for v in value] if isinstance(value, (list, tuple)) else value
    return json.dumps(finite(payload), indent=2, allow_nan=False) + "\n"


def _kN(newtons: float) -> float:
    return round(newtons / 1e3, 1)


def _violations_text(pred: CapacityPrediction) -> str:
    return "; ".join(
        f"{v.limit} (actual {v.actual:.4g})" for v in pred.applicability.violations
    )


def _prediction_dicts(predictions: list[CapacityPrediction]) -> list[dict]:
    return [
        {
            "method": p.method.value,
            "Nu_kN": _kN(p.N_u),
            "applicable": p.applicability.applicable,
            "violations": [list(v) for v in p.applicability.violations],
            "intermediates": p.intermediates,
            "diagnostics": list(p.diagnostics),
        }
        for p in predictions
    ]


def _cmd_predict(args: argparse.Namespace) -> int:
    from .capacity import predict_all

    column, converted = _build_column(args)
    methods = _parse_methods(args.method)
    settings = _settings(args)
    predictions = predict_all(column, methods, settings)
    if args.format == "json":
        payload = {
            "column": {
                "D_mm": column.section.D,
                "t_mm": column.section.t,
                "L_mm": column.section.L,
                "fy_MPa": column.steel.f_y,
                "fu_MPa": column.steel.f_u,
                "Es_MPa": column.steel.E_s,
                "fc_MPa": column.concrete.f_c,
                "concrete_class": converted.concrete_class.value,
                "Ec_MPa": column.concrete.E_c,
                "defaulted": list(column.defaulted),
                "validity_flags": list(column.validity_flags),
            },
            "config": _run_config(settings, args.ec),
            "predictions": _prediction_dicts(predictions),
        }
        _write(_json(payload), args.out)
        return 0
    lines = []
    if args.format == "csv":
        if column.defaulted:
            lines.append(f"# defaulted: {', '.join(column.defaulted)}")
        lines.append("method,Nu_kN,applicable,violations,diagnostics")
        for p in predictions:
            viols = _violations_text(p).replace('"', "'")
            diags = "; ".join(p.diagnostics).replace('"', "'")
            lines.append(
                f'{p.method.value},{_kN(p.N_u):.1f},{str(p.applicability.applicable).lower()},"{viols}","{diags}"'
            )
    else:
        lines.append(f"{'method':<12} {'Nu_kN':>10}  {'applicable':<10} notes")
        for p in predictions:
            notes = []
            if _violations_text(p):
                notes.append(_violations_text(p))
            notes.extend(p.diagnostics)
            if p.intermediates:
                notes.append(
                    " ".join(f"{k}={v:.4g}" for k, v in p.intermediates.items())
                )
            mark = "yes" if p.applicability.applicable else "no"
            lines.append(f"{p.method.value:<12} {_kN(p.N_u):>10.1f}  {mark:<10} {' | '.join(notes)}")
        if column.defaulted:
            lines.append(f"defaulted inputs: {', '.join(column.defaulted)}")
        for flag in column.validity_flags:
            lines.append(f"validity: {flag}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    from .materials import sample_concrete_curve, sample_steel_curve

    column, _ = _build_column(args)
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    if args.material == "steel":
        curve = sample_steel_curve(column.steel, args.n, args.eps_max)
    else:
        eps_max = args.eps_max if args.eps_max is not None else 0.03
        curve = sample_concrete_curve(column, args.n, eps_max)
    lines = ["strain,stress_MPa"]
    lines.extend(f"{eps:.10g},{sigma:.10g}" for eps, sigma in curve.points)
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cdpm(args: argparse.Namespace) -> int:
    from .cards import render_cdpm_card

    column, _ = _build_column(args)
    _write(render_cdpm_card(column), args.out)
    return 0


def _cmd_respond(args: argparse.Namespace) -> int:
    from .response import response_curve

    column, _ = _build_column(args)
    response = response_curve(column, args.eps_max, args.n)
    lines = ["strain,N_kN"]
    lines.extend(f"{eps:.10g},{load / 1e3:.1f}" for eps, load in response.points)
    _write("\n".join(lines) + "\n", args.out)
    print(
        f"peak {_kN(response.peak_load):.1f} kN at strain {response.peak_strain:.6g}",
        file=sys.stderr,
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import os

    from .dataset import RatioStats, evaluate_rows, parse_dataset

    # usage errors first, so that a bad flag costs no read or parse of the input
    methods = _parse_methods(args.method)
    settings = _settings(args)
    if args.out and args.summary_out and os.path.realpath(args.out) == os.path.realpath(args.summary_out):
        raise ValueError(f"--out and --summary-out both name {args.out}")
    try:
        with open(args.input, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from None
    parsed = parse_dataset(text)

    header = ["index", "source_id", "D_mm", "t_mm", "L_mm", "fy_MPa", "fu_MPa", "Es_MPa",
              "fc_measured_MPa", "fc_kind", "dmax_mm", "Ntest_kN", "fc_MPa",
              "concrete_class", "defaulted", "error"]
    for m in methods:
        header += [f"Nu_{m.value}_kN", f"applicable_{m.value}"]
    header.append("diagnostics")
    stats = RatioStats(methods)
    # both outputs are opened after the read, since either may name the input,
    # and before the row loop, so that an unwritable one costs no evaluation
    with _output(args.out, sys.stdout) as fh, _output(args.summary_out, sys.stderr) as summary_fh:
        fh.write(",".join(header) + "\n")
        for row in evaluate_rows(parsed.records, methods, settings, Ec_override=args.ec):
            stats.add(row)
            rec = row.record
            cells = [
                str(row.index), rec.source_id, f"{rec.D:g}", f"{rec.t:g}", f"{rec.L:g}",
                f"{rec.f_y:g}",
                "" if rec.f_u is None else f"{rec.f_u:g}",
                "" if rec.E_s is None else f"{rec.E_s:g}",
                f"{rec.fc_measured:g}", rec.fc_kind._value_,  # .value without the enum descriptor
                "" if rec.d_max is None else f"{rec.d_max:g}",
                f"{rec.N_test_kN:g}",
                "" if row.f_c is None else f"{row.f_c:.4f}",
                row.concrete_class or "",
                ";".join(row.defaulted),
                (row.error or "").replace(",", ";"),
            ]
            diagnostics = []
            for method, N_u, report, _, diags in row.predictions:
                # N_u / 1e3 at .1f is the _kN value at .1f, without the round() call, and
                # report.violations is report.applicable negated, without the property call
                cells += ["%.1f" % (N_u / 1e3), "false" if report.violations else "true"]
                if diags:
                    diagnostics += [f"{method._value_}: {d}" for d in diags]
            if not row.predictions:
                cells += ["", ""] * len(methods)
            cells.append(("; ".join(diagnostics)).replace(",", ";"))
            fh.write(",".join(cells) + "\n")
        summary_fh.write(_json({
            "config": _run_config(settings, args.ec),
            "methods": [m.value for m in methods],
            "n_rows": len(parsed.records),
            "row_errors": [{"line": e.line, "message": e.message} for e in parsed.errors],
            "summaries": [{**s._asdict(), "method": s.method.value} for s in stats.summaries()],
        }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfstcol",
        description="Capacity, material models and CDP cards for circular CFST short columns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="ultimate loads by all thirteen methods")
    _add_column_args(p)
    _add_config_args(p)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--method", default="all", help="all or comma-separated method ids")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("curve", help="stress-strain curve CSV")
    _add_column_args(p)
    p.add_argument("--material", choices=["steel", "concrete"], required=True)
    p.add_argument("--n", type=int, default=200, help="number of samples (>= 2)")
    p.add_argument("--eps-max", type=float, help="last strain (default: steel eps_u / 0.03)")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("cdpm", help="plasticity material card")
    _add_column_args(p)
    p.set_defaults(func=_cmd_cdpm)

    p = sub.add_parser("respond", help="fiber axial load-strain curve CSV")
    _add_column_args(p)
    p.add_argument("--n", type=int, default=200, help="number of samples (>= 8)")
    p.add_argument("--eps-max", type=float, default=0.03)
    p.set_defaults(func=_cmd_respond)

    p = sub.add_parser("batch", help="evaluate a specimen dataset CSV")
    _add_config_args(p)
    p.add_argument("--ec", type=float, help="concrete modulus override (MPa)")
    p.add_argument("--input", required=True, help="dataset CSV path")
    p.add_argument("--method", default="all", help="all or comma-separated method ids")
    p.add_argument("--summary-out", help="write the JSON summary here (default: stderr)")
    p.set_defaults(func=_cmd_batch)

    for p in sub.choices.values():
        p.add_argument("--out", help="write to this file instead of stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:  # finite inputs so large that a formula overflows
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
