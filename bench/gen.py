"""Seeded inputs for the cfstcol benchmark workloads.

Every workload is built from one integer seed: the same seed gives the same
rows.  Specimens are drawn log-uniformly over the calibration envelope the
program declares (``cfstcol.capacity.DATABASE_ENVELOPE``, read at run time).
Each row carries the outcome the program should reach on it, worked out here
from the input alone and never by asking the program.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

from cfstcol.capacity import DATABASE_ENVELOPE
from cfstcol.dataset import CSV_HEADER

VALID = "valid"
PARSE_ERROR = "parse_error"
CONVERSION_ERROR = "conversion_error"

# rows per workload; the sweep's columns are reused pass after pass
SIZES = {"batch-all": 10_000, "batch-ingest": 40_000, "column-sweep": 3_000}

# the acceptance suite's reference column (fixture r1)
REFERENCE_CELLS = {
    "source_id": "R1", "D_mm": "100", "t_mm": "5", "L_mm": "300", "fy_MPa": "300",
    "fu_MPa": "450", "Es_MPa": "200000", "fc_measured_MPa": "30", "fc_kind": "cyl150",
    "dmax_mm": "", "Ntest_kN": "650",
}

CUBE_KINDS = ("cube150", "cube100")
UHSC_MIN = 120.0  # MPa; cube specimens of this class have no conversion factor
COMMA_SHARE = 0.01  # batch-ingest rows whose source_id holds a quoted comma
AUTHORS = ("Han", "Yu", "Liu", "Sun", "Guo", "Zhong", "Sakino", "Giakoumelis", "Schneider", "Tao")


@dataclass(frozen=True)
class Row:
    """One dataset row as written, with the outcome the program should reach."""

    cells: tuple[str, ...]  # in CSV_HEADER order
    expect: str  # VALID, PARSE_ERROR or CONVERSION_ERROR
    line: int  # line in the dataset file; the header is line 1
    reference: bool = False
    comma_id: bool = False  # source_id holds a quoted comma

    def value(self, name: str) -> float:
        return float(self.cells[CSV_HEADER.index(name)])

    def cell(self, name: str) -> str:
        return self.cells[CSV_HEADER.index(name)]


@dataclass(frozen=True)
class Workload:
    name: str
    rows: tuple[Row, ...]
    methods: str  # value of the CLI's --method flag

    def csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(row.cells for row in self.rows)
        return out.getvalue()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _specimen(rng: random.Random, index: int, empty_share: float, kinds: tuple[str, ...]) -> dict:
    env = DATABASE_ENVELOPE
    D = round(_log_uniform(rng, *env["D"]), 1)
    t = round(D / _log_uniform(rng, *env["D/t"]), 2)
    L = round(D * _log_uniform(rng, *env["L/D"]), 1)
    f_y = round(_log_uniform(rng, *env["f_y"]), 1)
    fc = round(_log_uniform(rng, *env["f_c"]), 1)

    def maybe(text: str) -> str:
        return "" if rng.random() < empty_share else text

    A_c = math.pi / 4.0 * (D - 2.0 * t) ** 2
    A_s = math.pi / 4.0 * D * D - A_c
    squash_kN = (A_s * f_y + A_c * fc) / 1e3
    return {
        "source_id": f"S{index:05d}",
        "D_mm": repr(D),
        "t_mm": repr(t),
        "L_mm": repr(L),
        "fy_MPa": repr(f_y),
        "fu_MPa": maybe(repr(round(f_y * rng.uniform(1.05, 1.6), 1))),
        "Es_MPa": maybe(repr(round(rng.uniform(190_000.0, 210_000.0), -2))),
        "fc_measured_MPa": repr(fc),
        "fc_kind": rng.choice(kinds),
        "dmax_mm": maybe(rng.choice(("10", "14", "16", "20", "25"))),
        "Ntest_kN": repr(round(max(squash_kN * math.exp(rng.gauss(0.15, 0.12)), 0.1), 1)),
    }


def _expect(cells: dict) -> str:
    if cells["fc_kind"].lower() in CUBE_KINDS and float(cells["fc_measured_MPa"]) >= UHSC_MIN:
        return CONVERSION_ERROR
    return VALID


def _malform(rng: random.Random, cells: dict) -> None:
    """Damage one row the way spreadsheet exports do; every variant is a parse error."""
    kind = rng.randrange(4)
    if kind == 0:
        name = rng.choice(("D_mm", "t_mm", "L_mm", "fy_MPa", "fu_MPa", "fc_measured_MPa", "Ntest_kN"))
        cells[name] = rng.choice(("n/a", "12.5.1", "30MPa", "-", "1,5"))
    elif kind == 1:
        cells["t_mm"] = repr(round(float(cells["D_mm"]) * rng.uniform(0.5, 0.8), 2))
    elif kind == 2:
        cells[rng.choice(("D_mm", "t_mm", "L_mm", "fy_MPa", "fc_measured_MPa", "Ntest_kN"))] = ""
    else:
        cells["fc_kind"] = rng.choice(("cube200", "core75", "prism"))


def build(name: str, seed: int, size: int | None = None) -> Workload:
    """Build one workload's rows from a seed; ``size`` overrides the row count."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(SIZES)})")
    rng = random.Random(f"{name}:{seed}")
    n = SIZES[name] if size is None else size
    ingest = name == "batch-ingest"
    if name == "column-sweep":
        kinds = ("", "cyl150", "cyl100")
    elif ingest:
        kinds = ("", "", "cyl150", "CYL100", "Cube150", "cube100")
    else:
        kinds = ("", "cyl150", "cyl100", "cube150", "cube100")
    drafts = []
    for i in range(n - 1):
        cells = _specimen(rng, i, 0.5 if ingest else 0.2, kinds)
        expect = _expect(cells)
        if ingest and rng.random() < 0.05:
            _malform(rng, cells)
            expect = PARSE_ERROR
        drafts.append([cells, expect, False, False])
    if ingest:
        # an exact share, so that the known defect fails as many rows on every seed
        parsed = [draft for draft in drafts if draft[1] != PARSE_ERROR]
        for draft in rng.sample(parsed, round(COMMA_SHARE * n)):
            draft[0]["source_id"] = f"{rng.choice(AUTHORS)}, {rng.randrange(1990, 2021)}"
            draft[3] = True
    drafts.insert(rng.randrange(n), (dict(REFERENCE_CELLS), VALID, True, False))
    rows = tuple(
        Row(tuple(cells[h] for h in CSV_HEADER), expect, line, reference, comma_id)
        for line, (cells, expect, reference, comma_id) in enumerate(drafts, start=2)
    )
    return Workload(name, rows, "aci" if ingest else "all")
