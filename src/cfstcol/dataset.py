"""Specimen dataset ingestion and batch statistical evaluation.

The CSV schema (exact header, comma separated, empty cells mean "use the
documented default"):

    source_id,D_mm,t_mm,L_mm,fy_MPa,fu_MPa,Es_MPa,fc_measured_MPa,fc_kind,dmax_mm,Ntest_kN

Evaluation runs the requested predictors per row and summarises the
test-to-prediction ratios N_test/N_u per method (arithmetic mean, sample
standard deviation, coefficient of variation) over the rows that pass the
method's applicability limits.  Each method keeps three exact integers, its
ratio count and the sums of each ratio and its square at the fixed scale 2**1074,
whatever the number of rows; the mean and STD are read off them, so every Python
version gives the same bits.
"""

from __future__ import annotations

import csv
import io
import math
import threading
from typing import Iterable, Iterator, NamedTuple

from .capacity import (
    DEFAULT_SETTINGS,
    CapacityPrediction,
    MethodId,
    PredictionSettings,
    method_set,
    predict,
)
from .section import (
    ColumnSpec,
    ConvertedStrength,
    SpecimenKind,
    check_concrete,
    check_measured_strength,
    check_section,
    check_steel,
    column_from_inputs,
)

CSV_HEADER = (
    "source_id",
    "D_mm",
    "t_mm",
    "L_mm",
    "fy_MPa",
    "fu_MPa",
    "Es_MPa",
    "fc_measured_MPa",
    "fc_kind",
    "dmax_mm",
    "Ntest_kN",
)


class SpecimenRecord(NamedTuple):
    """One test specimen row; optional fields are None until defaulted at evaluation."""

    source_id: str
    D: float
    t: float
    L: float
    f_y: float
    f_u: float | None
    E_s: float | None
    fc_measured: float
    fc_kind: SpecimenKind
    d_max: float | None
    N_test_kN: float
    defaulted: tuple[str, ...] = ()


class RowError(NamedTuple):
    line: int
    message: str


class ParsedDataset(NamedTuple):
    records: tuple[SpecimenRecord, ...]
    errors: tuple[RowError, ...]


_SPECIMEN_KINDS = {kind.value: kind for kind in SpecimenKind}
_NUL = "\udc00"  # parse_dataset reads each NUL as this surrogate, which strict UTF-8 never yields
_FIELD_LIMIT = 131_072  # the longest cell, in characters: the csv module's default limit
_FIELD_LIMIT_LOCK = threading.Lock()  # held while parse_dataset lifts the process-wide limit


def _parse_float(cell: str, name: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{name}: not a number: {cell!r}") from None


def _parse_row(cells: list[str]) -> SpecimenRecord:
    """One row's record; a value that a value type rejects raises its constructor's ValueError."""
    if len(cells) != len(CSV_HEADER):
        raise ValueError(f"expected {len(CSV_HEADER)} columns, got {len(cells)}")
    # one local per CSV_HEADER column, named after it
    (source_id, D_mm, t_mm, L_mm, fy_MPa, fu_MPa, Es_MPa, fc_measured_MPa, fc_kind, dmax_mm,
     Ntest_kN) = [cell.strip() for cell in cells]
    # named after the fields they default, in the order evaluated rows list them
    defaulted = []
    if not fc_kind:
        defaulted.append("fc_kind")
    if not fu_MPa:
        defaulted.append("f_u")
    if not Es_MPa:
        defaulted.append("E_s")
    if not dmax_mm:
        defaulted.append("d_max")
    if not (D_mm and t_mm and L_mm and fy_MPa and fc_measured_MPa and Ntest_kN):
        for name, cell in (("D_mm", D_mm), ("t_mm", t_mm), ("L_mm", L_mm), ("fy_MPa", fy_MPa),
                           ("fc_measured_MPa", fc_measured_MPa), ("Ntest_kN", Ntest_kN)):
            if not cell:
                raise ValueError(f"{name}: required value is empty")
    D = _parse_float(D_mm, "D_mm")
    t = _parse_float(t_mm, "t_mm")
    L = _parse_float(L_mm, "L_mm")
    f_y = _parse_float(fy_MPa, "fy_MPa")
    f_u = _parse_float(fu_MPa, "fu_MPa") if fu_MPa else None
    E_s = _parse_float(Es_MPa, "Es_MPa") if Es_MPa else None
    fc_measured = _parse_float(fc_measured_MPa, "fc_measured_MPa")
    if fc_kind:
        kind = _SPECIMEN_KINDS.get(fc_kind.upper())
        if kind is None:
            raise ValueError(f"fc_kind: unknown specimen kind {fc_kind!r}")
    else:
        kind = SpecimenKind.CYL150
    d_max = _parse_float(dmax_mm, "dmax_mm") if dmax_mm else None
    N_test = _parse_float(Ntest_kN, "Ntest_kN")
    if N_test <= 0:
        raise ValueError("Ntest_kN: must be positive")
    # the checks of the value types column_from_record builds, so bad rows surface here
    check_section(D, t, L)
    check_steel(f_y, f_u, E_s)
    check_measured_strength(fc_measured)
    if d_max is not None:
        check_concrete(fc_measured, d_max, None)  # any valid f_c: it is not converted yet
    if not math.isfinite(N_test):
        raise ValueError("Ntest_kN: must be finite")
    return SpecimenRecord(
        source_id, D, t, L, f_y, f_u, E_s, fc_measured, kind, d_max, N_test, tuple(defaulted),
    )


def parse_dataset(csv_text: str) -> ParsedDataset:
    """Parse a dataset CSV; malformed rows become per-line errors, never a file abort.

    The header row must match the documented schema exactly.  CR LF and a bare CR read as
    LF, quoted cells included, and the reader reads every record whole.  A record holding
    a cell over 131 072 characters, or a NUL anywhere, is one row error on every Python.
    Each row error names the physical line its record starts on.
    """
    csv_text = csv_text.replace("\0", _NUL).replace("\r\n", "\n").replace("\r", "\n")
    reader = csv.reader(io.StringIO(csv_text))
    with _FIELD_LIMIT_LOCK:  # no cell of the text reaches this limit, so the reader never fails
        limit = csv.field_size_limit(len(csv_text) + 1)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError("empty file: missing header row")
            if tuple(cell.strip() for cell in header) != CSV_HEADER:
                raise ValueError(
                    f"header does not match the documented schema {','.join(CSV_HEADER)}")
            records: list[SpecimenRecord] = []
            errors: list[RowError] = []
            line = reader.line_num + 1  # the line the next record starts on
            for cells in reader:
                start, line = line, reader.line_num + 1
                try:
                    text = "".join(cells)
                    if len(text) > _FIELD_LIMIT and max(map(len, cells)) > _FIELD_LIMIT:
                        raise ValueError(
                            f"unreadable record: field larger than field limit ({_FIELD_LIMIT})")
                    if not text.strip():  # a blank line, or blank cells only
                        continue
                    if _NUL in text:
                        raise ValueError("unreadable record: line contains NUL")
                    records.append(_parse_row(cells))
                except ValueError as exc:
                    errors.append(RowError(start, str(exc)))
        finally:
            csv.field_size_limit(limit)
    return ParsedDataset(tuple(records), tuple(errors))


def column_from_record(
    record: SpecimenRecord, Ec_override: float | None = None
) -> tuple[ColumnSpec, ConvertedStrength]:
    """``column_from_inputs`` on a record, whose fields 1 to 9 are its first nine parameters."""
    return column_from_inputs(*record[1:10], Ec_override)


class RowResult(NamedTuple):
    """Evaluation outcome for one record: the converted strength and per-method predictions."""

    index: int
    record: SpecimenRecord
    f_c: float | None
    concrete_class: str | None
    defaulted: tuple[str, ...]
    error: str | None
    predictions: tuple[CapacityPrediction, ...]


class StatsSummary(NamedTuple):
    """Mean/STD/CoV of N_test/N_u over the applicable rows of one method."""

    method: MethodId
    n_applicable: int
    n_total: int
    mean: float | None
    std: float | None
    cov: float | None


class _Moments:
    """One method's ratio count n and the exact integer sums of x * 2**1074 and of its square
    (every finite float is a whole multiple of 2**-1074); infinities and nans sum in the float
    ``special``, so no result depends on the order of the ratios."""

    def __init__(self) -> None:
        self.n = self.sx = self.sxx = 0
        self.special = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        try:
            p, d = x.as_integer_ratio()
        except (OverflowError, ValueError):  # an infinity, a nan
            self.special += x
            return
        shift = 1075 - d.bit_length()
        self.sx += p << shift
        self.sxx += p * p << 2 * shift

    def result(self) -> tuple[float, float | None]:
        """Mean and sample STD (n-1; None for one ratio) of at least one ratio.

        The mean is the exact sum rounded once, then divided by n; the STD's root is rounded
        to odd at 109 bits, then to a float, as in CPython 3.11's ``stdev``.
        """
        n, sx = self.n, self.sx
        if self.special:  # one infinity is the mean; infinities of both signs, or a nan, give nan
            return self.special, math.nan if n >= 2 else None
        try:  # an int-by-int quotient is correctly rounded
            mean = sx / (1 << 1074) / n
        except OverflowError:  # the sum is beyond the float range, the mean is not
            j = n.bit_length() + 1
            mean = math.ldexp(sx / (1 << (1074 + j)) / n, j)
        if n < 2:
            return mean, None
        num = n * self.sxx - sx * sx
        den = n * (n - 1) << 2148
        q = (num.bit_length() - den.bit_length() - 109) // 2
        num, den = (num, den << 2 * q) if q >= 0 else (num << -2 * q, den)
        a = math.isqrt(num // den)
        a |= a * a * den != num
        # one rounding of a, then an exact power-of-two scale that overflows to inf, not an error
        return mean, float(a) * 2.0**q if q >= 0 else a / (1 << -q)


class RatioStats:
    """Per-method N_test/N_u accumulators, fed one evaluated row at a time."""

    def __init__(self, methods: tuple[MethodId, ...]) -> None:
        self.methods = methods
        self.n_total = 0
        self.n_applicable = [0] * len(methods)
        self.moments = [_Moments() for _ in methods]

    def add(self, row: RowResult) -> None:
        self.n_total += 1  # an error row has no predictions, so it counts here alone
        N_test = row.record.N_test_kN
        n_applicable = self.n_applicable
        for i, (_, N_u, report, _, _) in enumerate(row.predictions):
            if not report.violations:  # report.applicable, without the property call
                n_applicable[i] += 1
                # both sides in kN so that N_test == N_u gives a ratio of exactly 1; a load
                # below 1e-320 N is 0.0 in kN and, like a zero load, gives no ratio
                N_u_kN = N_u / 1e3
                if math.isfinite(N_u_kN) and N_u_kN != 0.0:
                    self.moments[i].add(N_test / N_u_kN)

    def summaries(self) -> list[StatsSummary]:
        out = []
        for method, n_applicable, moments in zip(self.methods, self.n_applicable, self.moments):
            mean = std = cov = None
            if moments.n:
                mean, std = moments.result()
                if std is not None:
                    cov = std / mean if mean > 0 else None
            out.append(StatsSummary(method, n_applicable, self.n_total, mean, std, cov))
        return out


def evaluate_rows(
    records: Iterable[SpecimenRecord], methods: tuple[MethodId, ...],
    settings: PredictionSettings = DEFAULT_SETTINGS, Ec_override: float | None = None,
) -> Iterator[RowResult]:
    """Evaluate records one at a time, in input order, yielding each row's result.

    An invalid ``Ec_override`` raises ValueError before the first row."""
    check_concrete(1.0, None, Ec_override)  # with a valid f_c and d_max, a fault is E_c's
    for index, record in enumerate(records):
        try:
            column, converted = column_from_record(record, Ec_override)
        except ValueError as exc:  # a ConversionError included
            yield RowResult(index, record, None, None, record.defaulted, str(exc), ())
            continue
        # column.defaulted already names the defaulted material fields; fc_kind
        # is the only parse-level default it cannot see
        defaulted = (("fc_kind",) if "fc_kind" in record.defaulted else ()) + column.defaulted
        predictions = tuple([predict(column, m, settings) for m in methods])
        # _value_ is the member's value as a plain attribute; .value goes through a descriptor
        yield RowResult(index, record, converted.f_c, converted.concrete_class._value_,
                        defaulted, None, predictions)


def evaluate_dataset(
    records: Iterable[SpecimenRecord],
    methods: tuple[MethodId, ...] | None = None,
    settings: PredictionSettings = DEFAULT_SETTINGS,
    Ec_override: float | None = None,
) -> tuple[list[RowResult], list[StatsSummary]]:
    """Run the requested predictors on every record and summarise per method.

    Rows are evaluated in input order.  Rows failing applicability are
    excluded from a method's statistics but still carry their predictions;
    rows whose evaluation errors (e.g. an impossible strength conversion)
    count only towards n_total.  ``Ec_override`` replaces the derived
    concrete modulus on every row (sensitivity runs).  A method listed
    twice, or an invalid ``Ec_override``, raises ValueError before any row.
    """
    methods = method_set(methods)
    rows = list(evaluate_rows(records, methods, settings, Ec_override))
    stats = RatioStats(methods)
    for row in rows:
        stats.add(row)
    return rows, stats.summaries()
