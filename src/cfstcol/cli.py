"""Batch command-line front end.

Subcommands: predict (all thirteen capacity methods on one column), curve
steel and curve concrete (stress-strain CSV), cdpm (FE material card),
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


def _add_column_args(parser: argparse.ArgumentParser,
                     names: str = "D t L fy fu Es fc fc-kind dmax ec") -> None:
    """Declare the column flags ``--name`` for each of ``names``: those the subcommand reads."""
    from .section import DMAX_DEFAULT, STEEL_E_DEFAULT, SpecimenKind

    flags = {
        "D": dict(type=float, required=True, help="outer diameter (mm)"),
        "t": dict(type=float, required=True, help="wall thickness (mm)"),
        "L": dict(type=float, required=True, help="column length (mm)"),
        "fy": dict(type=float, required=True, help="steel yield strength (MPa)"),
        "fu": dict(type=float, help="steel ultimate strength (MPa); defaults to max(1.25*fy, fy+50)"),
        "Es": dict(type=float, help=f"steel modulus (MPa); defaults to {STEEL_E_DEFAULT:g}"),
        "fc": dict(type=float, required=True, help="measured concrete strength (MPa)"),
        "fc-kind": dict(choices=[k.value.lower() for k in SpecimenKind],
                        default=SpecimenKind.CYL150.value.lower(),
                        help="specimen shape of --fc (default %(default)s)"),
        "dmax": dict(type=float, help=f"max aggregate size (mm); defaults to {DMAX_DEFAULT:g}"),
        "ec": dict(type=float, help="concrete modulus override (MPa)"),
    }
    g = parser.add_argument_group("column")
    for name in names.split():
        g.add_argument(f"--{name}", **flags[name])


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


def _build_column(args: argparse.Namespace, L: float) -> tuple[ColumnSpec, ConvertedStrength]:
    """The column that the flags describe, ``L`` long; the caller names where L comes from."""
    from .section import SpecimenKind, column_from_inputs

    get = vars(args).get  # an optional flag the subcommand does not take is None: its default
    return column_from_inputs(args.D, args.t, L, args.fy, get("fu"), get("Es"), args.fc,
                              SpecimenKind(args.fc_kind.upper()), get("dmax"), args.ec)


def _write_flags(flags: tuple[str, ...]) -> None:
    """The model flags of a CSV output, as ``validity:`` lines on stderr."""
    sys.stderr.write("".join(f"validity: {flag}\n" for flag in flags))


def _parse_methods(spec: str) -> tuple[MethodId, ...]:
    from .capacity import MethodId, method_set

    if spec.strip().lower() == "all":
        return method_set()
    methods = []
    for token in spec.split(","):
        token = token.strip().lower()
        try:
            methods.append(MethodId(token))
        except ValueError:
            known = ", ".join(m.value for m in MethodId)
            raise ValueError(f"unknown method {token!r} (known: all, {known})") from None
    return method_set(methods)


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


def _cell(value: float, spec: str = "%.1f") -> str:
    """``spec % value`` below 1e16 in magnitude; beyond, where every float is an integer,
    the repr, which reads back exactly in at most 24 characters (nan and inf as before)."""
    return spec % value if -1e16 < value < 1e16 else repr(value)


def _violations_text(pred: CapacityPrediction) -> str:
    return "; ".join(
        f"{v.limit} (actual {v.actual:.4g})" for v in pred.applicability.violations
    )


def _prediction_dicts(predictions: list[CapacityPrediction]) -> list[dict]:
    return [
        {
            "method": p.method.value,
            "Nu_kN": round(p.N_u / 1e3, 1),
            "applicable": p.applicability.applicable,
            "violations": [list(v) for v in p.applicability.violations],
            "intermediates": p.intermediates,
            "diagnostics": list(p.diagnostics),
        }
        for p in predictions
    ]


def _cmd_predict(args: argparse.Namespace) -> int:
    from .capacity import predict_all

    column, converted = _build_column(args, args.L)
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
        lines += [f"# validity: {flag}" for flag in column.validity_flags]
        lines.append("method,Nu_kN,applicable,violations,diagnostics")
        for p in predictions:
            viols = _violations_text(p).replace('"', "'")
            diags = "; ".join(p.diagnostics).replace('"', "'")
            lines.append(
                f'{p.method.value},{_cell(p.N_u / 1e3)},{str(p.applicability.applicable).lower()},"{viols}","{diags}"'
            )
    else:
        lines.append(f"{'method':<12} {'Nu_kN':>10}  {'applicable':<10} notes")
        for p in predictions:
            viols = _violations_text(p)
            notes = [viols] if viols else []
            notes.extend(p.diagnostics)
            if p.intermediates:
                notes.append(
                    " ".join(f"{k}={v:.4g}" for k, v in p.intermediates.items())
                )
            mark = "yes" if p.applicability.applicable else "no"
            lines.append(f"{p.method.value:<12} {_cell(p.N_u / 1e3):>10}  {mark:<10} {' | '.join(notes)}")
        if column.defaulted:
            lines.append(f"defaulted inputs: {', '.join(column.defaulted)}")
        for flag in column.validity_flags:
            lines.append(f"validity: {flag}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    from .materials import sample_concrete_curve, sample_steel_curve
    from .section import SteelMaterial

    if args.material == "steel":
        curve = sample_steel_curve(SteelMaterial(args.fy, args.fu, args.Es), args.n, args.eps_max)
    else:
        column, _ = _build_column(args, args.D)  # a stub length: the concrete curve reads none
        curve = sample_concrete_curve(column, args.n, args.eps_max)
    lines = ["strain,stress_MPa"]
    lines.extend(f"{eps:.10g},{sigma:.10g}" for eps, sigma in curve.points)
    _write("\n".join(lines) + "\n", args.out)
    _write_flags(curve.flags)
    return 0


def _cmd_cdpm(args: argparse.Namespace) -> int:
    from .cards import render_cdpm_card

    column, _ = _build_column(args, args.L)
    _write(render_cdpm_card(column), args.out)
    return 0


def _cmd_respond(args: argparse.Namespace) -> int:
    from .response import response_curve

    column, _ = _build_column(args, args.D)  # a stub length: the fiber response reads none
    response = response_curve(column, args.eps_max, args.n)
    lines = ["strain,N_kN"]
    lines.extend(f"{eps:.10g},{_cell(load / 1e3)}" for eps, load in response.points)
    _write("\n".join(lines) + "\n", args.out)
    print(
        f"peak {_cell(response.peak_load / 1e3)} kN at strain {response.peak_strain:.6g}",
        file=sys.stderr,
    )
    _write_flags(response.flags)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import os

    from .dataset import CSV_HEADER, RatioStats, evaluate_rows, parse_dataset
    from .section import check_concrete_modulus

    # usage errors first, so that a bad flag costs no read or parse of the input
    methods = _parse_methods(args.method)
    settings = _settings(args)
    check_concrete_modulus(args.ec)
    if args.out and args.summary_out and os.path.realpath(args.out) == os.path.realpath(args.summary_out):
        raise ValueError(f"--out and --summary-out both name {args.out}")
    try:  # with line ends as they are: parse_dataset owns the newline rule
        with open(args.input, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from None
    parsed = parse_dataset(text)

    header = ["index", *CSV_HEADER, "fc_MPa", "concrete_class", "defaulted", "error"]
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
            # the input values as repr, which reads back to the float the row was evaluated with
            cells = [
                str(row.index), rec.source_id, repr(rec.D), repr(rec.t), repr(rec.L),
                repr(rec.f_y),
                "" if rec.f_u is None else repr(rec.f_u),
                "" if rec.E_s is None else repr(rec.E_s),
                repr(rec.fc_measured), rec.fc_kind._value_,  # .value without the enum descriptor
                "" if rec.d_max is None else repr(rec.d_max),
                repr(rec.N_test_kN),
                "" if row.f_c is None else _cell(row.f_c, "%.4f"),
                row.concrete_class or "",
                ";".join(row.defaulted),
                (row.error or "").replace(",", ";"),
            ]
            diagnostics = []
            for method, N_u, report, _, diags in row.predictions:
                # report.violations is report.applicable negated, without the property call
                cells += [_cell(N_u / 1e3), "false" if report.violations else "true"]
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

    materials = sub.add_parser("curve", help="stress-strain curve CSV").add_subparsers(
        dest="material", required=True)
    for material, names, eps_max in (("steel", "fy fu Es", None),
                                     ("concrete", "D t fy fc fc-kind ec", 0.03)):
        p = materials.add_parser(material, help=f"{material} stress-strain curve CSV")
        _add_column_args(p, names)
        p.add_argument("--n", type=int, default=200, help="number of samples (>= 2)")
        p.add_argument("--eps-max", type=float, default=eps_max,
                       help=f"last strain (default {eps_max or 'the ultimate strain eps_u'})")
        p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("cdpm", help="plasticity material card")
    _add_column_args(p)
    p.set_defaults(func=_cmd_cdpm)

    p = sub.add_parser("respond", help="fiber axial load-strain curve CSV")
    _add_column_args(p, "D t fy fu Es fc fc-kind ec")
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

    for p in (*sub.choices.values(), *materials.choices.values()):
        if p.get_default("func"):  # a parser that runs a command, not the curve dispatcher
            p.add_argument("--out", help="write to this file instead of stdout")
            p.set_defaults(parser=p)  # which reports a flag it does not take

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser takes only -h and --help (abbreviable): a leading -- ends its options
    # and goes, and argparse would read any other flag, or a bare -, as the subcommand
    if argv and argv[0] == "--":
        argv = argv[1:]
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--h", "--he", "--hel", "--help"):
        parser.error(f"unrecognized arguments: {argv[0]}")
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # under the usage line of the subcommand given them, not the top-level one
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
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
