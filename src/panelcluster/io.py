"""CSV / JSON interchange: estimate tables, panel ingestion, run reports.

Estimate tables are CSV with `# key=value` metadata lines before the header.
Covariances are stored as the upper triangle in row-major order
(c_11, c_12, ..., c_pp); scalar tables may carry an `se` column (>= 0)
instead, which is squared on ingestion. Floats are written with 17
significant digits so a written table reads back value-identical.
"""

from __future__ import annotations

import csv
import json
import math
from operator import itemgetter

import numpy as np

from .types import (ALREADY_SCALED, PER_OBSERVATION, EstimateTable,
                    PanelDataset, ParseError)

FORMAT_VERSION = "1"


# the bounds a _cell may require beyond finiteness
_RULES = {"": lambda v: True, "> 0": lambda v: v > 0,
          ">= 0": lambda v: v >= 0}
# the rule of each estimate-table column that has one
_COLUMN_RULES = {"se": ">= 0", "weight": "> 0"}


def _cell(fields, idx, col, row, ident):
    """Column `col` of a CSV row as a finite float that also meets its
    column's rule, an `se` squared; a bad cell, or an `se` whose square
    overflows, is a ParseError naming its row, id and column."""
    rule = _COLUMN_RULES.get(col, "")
    try:
        value = float(fields[idx[col]])
        if math.isfinite(value) and _RULES[rule](value):
            return value ** 2 if col == "se" else value
        problem = "must be finite" + (f" and {rule}" if rule else "")
    except ValueError:
        problem = "not a number"
    except OverflowError:
        problem = "its square overflows"
    raise ParseError(f"row {row} (id={ident}), column {col!r}: {problem}")


def _numbered_rows(lines, skipped=0):
    """(line, fields) of each CSV record of `lines`, a blank line being the
    record [], and line the 1-based line of the file the record starts on,
    `skipped` lines of the file coming before `lines` (a quoted cell may
    span lines)."""
    reader = csv.reader(lines)
    rows, start = [], skipped + 1
    for fields in reader:
        rows.append((start, fields))
        start = skipped + reader.line_num + 1
    return rows


def _header(rows, what):
    """The stripped header of a CSV file's numbered rows and the column
    index of each name; an empty file or a name given twice is a
    ParseError."""
    if not rows:
        raise ParseError(f"empty {what}")
    header = [h.strip() for h in rows[0][1]]
    idx = {}
    for col, name in enumerate(header):
        if name in idx:
            raise ParseError(f"header names column {name!r} twice")
        idx[name] = col
    return header, idx


def _data_rows(rows, idx):
    """(line, fields, id) of each non-blank numbered row after the header,
    once it has one field per header column (idx, the header's column
    index)."""
    for rownum, fields in rows[1:]:
        if not fields:
            continue
        if len(fields) != len(idx):
            raise ParseError(f"row {rownum}: expected {len(idx)} fields, "
                             f"got {len(fields)}")
        yield rownum, fields, fields[idx["id"]]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _triangle_names(p: int):
    return [f"c_{i + 1}{j + 1}" for i in range(p) for j in range(i, p)]


def write_estimates(path, table: EstimateTable) -> None:
    p = table.p
    with open(path, "w", newline="") as fh:
        fh.write(f"# format_version={FORMAT_VERSION}\n")
        fh.write(f"# scale={table.scale}\n")
        if table.d_T is not None:
            fh.write(f"# d_T={_fmt(table.d_T)}\n")
        writer = csv.writer(fh)
        header = (["id"] + [f"beta_{k + 1}" for k in range(p)]
                  + _triangle_names(p))
        if table.weights is not None:
            header.append("weight")
        writer.writerow(header)
        for row in range(table.n):
            sigma = table.sigmas[row]
            tri = [sigma[i, j] for i in range(p) for j in range(i, p)]
            fields = ([str(table.ids[row])]
                      + [_fmt(b) for b in table.betas[row]]
                      + [_fmt(c) for c in tri])
            if table.weights is not None:
                fields.append(_fmt(table.weights[row]))
            writer.writerow(fields)


def read_estimates(path) -> EstimateTable:
    with open(path, newline="") as fh:
        lines = fh.readlines()
    # metadata ends at the header: a later line is data, whatever its id
    head = next((i for i, line in enumerate(lines)
                 if not line.startswith("#")), len(lines))
    # a key the reader reads may be given once, and any other `key=value`
    # line is a misspelling that would be silently ignored; other `#`
    # lines, such as comments, are free
    meta, where = {}, {}
    for number, line in enumerate(lines[:head], start=1):
        key, eq, value = line[1:].strip().partition("=")
        key = key.strip()
        if key in ("format_version", "scale", "d_T"):
            if key in where:
                raise ParseError(f"metadata key {key!r} given twice, on "
                                 f"lines {where[key]} and {number}")
        elif eq and key.isidentifier():
            raise ParseError(f"unknown metadata key {key!r} on line {number};"
                             f" the keys are format_version, scale and d_T")
        meta[key], where[key] = value.strip(), number
    rows = _numbered_rows(lines[head:], head)
    version = meta.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(f"metadata key 'format_version' must be "
                         f"{FORMAT_VERSION}, got {version!r} on line "
                         f"{where['format_version']}")
    header, idx = _header(rows, "estimate table")
    if not header or header[0] != "id":
        raise ParseError("header row must start with 'id'")
    found = {h for h in header if h.startswith("beta_")}
    p = len(found)
    if p == 0:
        raise ParseError("no beta_* columns found")
    # read by index, not header order, as the covariance cells are by name
    beta_cols = [f"beta_{k + 1}" for k in range(p)]
    if found != set(beta_cols):
        raise ParseError(f"beta columns must be beta_1..beta_{p}; got "
                         f"{sorted(found - set(beta_cols))}")
    use_se = "se" in header
    tri_names = _triangle_names(p)
    if use_se:
        if p != 1:
            raise ParseError("'se' column is only valid for scalar estimates")
        if "c_11" in header:
            raise ParseError("columns 'se' and 'c_11' both give the "
                             "variance; keep one")
        cov_cols = ["se"]
    else:
        missing = [c for c in tri_names if c not in header]
        if missing:
            raise ParseError(f"missing covariance columns: {missing}")
        cov_cols = tri_names
    has_weight = "weight" in header
    columns = [*beta_cols, *cov_cols] + ["weight"] * has_weight

    lines, ids, cells = _parse_rows(rows, idx, columns)
    if not ids:
        raise ParseError("estimate table has no data rows")
    if use_se:
        sigmas = cells[:, p:p + 1, None]
    else:
        upper = [(i, j) for i in range(p) for j in range(i, p)]
        sigmas = np.empty((len(ids), p, p))
        for k, (i, j) in enumerate(upper, start=p):
            sigmas[:, i, j] = sigmas[:, j, i] = cells[:, k]

    d_T = meta.get("d_T")
    if d_T is not None:
        try:
            d_T = float(d_T)
        except ValueError:
            d_T = math.nan
        if not math.isfinite(d_T):
            raise ParseError(f"metadata key 'd_T' must be a finite number, "
                             f"got {meta['d_T']!r} on line {where['d_T']}")
    scale = meta.get("scale", PER_OBSERVATION)
    if scale not in (PER_OBSERVATION, ALREADY_SCALED):
        raise ParseError(f"unknown scale {scale!r} on line {where['scale']}")
    try:
        return EstimateTable(ids, cells[:, :p].copy(), sigmas, scale=scale,
                             weights=cells[:, -1].copy() if has_weight
                             else None, d_T=d_T)
    except ParseError as exc:
        # a covariance error names its row by position; name it by its line
        # in the file, as a cell error does
        cause = exc.__cause__
        if cause is None:
            raise
        raise ParseError(f"row {lines[cause.index]} (id={ids[cause.index]})"
                         f": {cause}") from cause


def _parse_rows(rows, idx, columns, key=None):
    """The line numbers, ids and (m, len(columns)) float cells of the m
    non-blank data rows of a CSV file's numbered rows (idx, the header's
    column index), with an `se` column squared. Every cell must be a finite
    number meeting its column's rule, and no id may repeat, or, given a key
    column, no (id, key) pair; the first fault is a ParseError.

    numpy parses a str cell as float() does, so the cells are parsed in one
    call and checked as whole columns; only on a fault are the rows walked,
    checking in turn each row's length, its key cell, the repeated key and
    its other cells in column order. The square is Python's se ** 2 (C
    pow), not numpy's, which multiplies and can round the last bit
    differently.
    """
    records = [fields for _, fields in rows[1:] if fields]
    lines = [line for line, fields in rows[1:] if fields]
    try:
        if any(len(fields) != len(idx) for fields in records):
            raise ValueError("a row of the wrong length")
        ids = [fields[idx["id"]] for fields in records]
        cells = np.array(list(map(itemgetter(*map(idx.get, columns)),
                                  records)),
                         dtype=float).reshape(len(records), len(columns))
        keys = ids if key is None else list(
            zip(ids, cells[:, columns.index(key)].tolist()))
        if (np.isfinite(cells).all() and len(set(keys)) == len(keys)
                and all(np.all(_RULES[_COLUMN_RULES.get(col, "")](cells[:, k]))
                        for k, col in enumerate(columns))):
            if "se" in columns:
                k = columns.index("se")
                cells[:, k] = [se ** 2 for se in cells[:, k].tolist()]
            return lines, ids, cells
    except (ValueError, OverflowError):
        pass
    seen = set()
    for line, fields, ident in _data_rows(rows, idx):
        if key is None:
            keyed, fault = ident, ": duplicate id"
        else:
            keyed = ident, _cell(fields, idx, key, line, ident)
            fault = f", column {key!r}: duplicate period {fields[idx[key]]}"
        if keyed in seen:
            raise ParseError(f"row {line} (id={ident}){fault}")
        seen.add(keyed)
        for col in columns:
            if col != key:
                _cell(fields, idx, col, line, ident)
    raise AssertionError("no fault in data rows whose cells failed")


def read_panel_csv(path):
    """Read a long-format panel (id, t, y, x_1..x_p) into a PanelDataset.

    Every t, y and x_k cell must be finite, each (id, t) must occur once and
    the panel must be balanced; returns (ids, PanelDataset), the ids in
    order of first appearance and each id's rows ordered by t.
    """
    with open(path, newline="") as fh:
        rows = _numbered_rows(fh)
    header, idx = _header(rows, "panel file")
    for required in ("id", "t", "y"):
        if required not in idx:
            raise ParseError(f"panel header must contain column {required!r}")
    by_number = {}
    for col in (h for h in header if h.startswith("x_")):
        if not col[2:].isdecimal():
            raise ParseError(f"panel column {col!r} is not x_<integer>")
        other = by_number.setdefault(int(col[2:]), col)
        if other != col:
            raise ParseError(f"panel columns {other!r} and {col!r} both "
                             f"name covariate {int(col[2:])}")
    x_cols = [by_number[k] for k in sorted(by_number)]

    _, ids, cells = _parse_rows(rows, idx, ["t", "y", *x_cols], key="t")
    if not ids:
        raise ParseError("panel has no data rows")
    first = {}  # id -> its position in order of first appearance
    order = [first.setdefault(ident, len(first)) for ident in ids]
    counts = np.bincount(order)
    uneven = np.flatnonzero(counts != counts[0])
    if uneven.size:
        odd = list(first)[uneven[0]]
        raise ParseError(f"panel is unbalanced: per-id observation counts "
                         f"differ (id={odd} has {counts[uneven[0]]} rows, "
                         f"id={ids[0]} has {counts[0]})")
    cells = cells[np.lexsort((cells[:, 0], order))].reshape(
        len(first), counts[0], -1)
    return list(first), PanelDataset(cells[..., 2:].copy(),
                                     cells[..., 1].copy())


def read_truth(path, ids):
    """Read a truth CSV (columns id,label; integer labels in 1..len(ids),
    one row per id) and return the labels of `ids` in that order."""
    with open(path, newline="") as fh:
        rows = _numbered_rows(fh)
    _, idx = _header(rows, "truth file")
    if "id" not in idx or "label" not in idx:
        raise ParseError("truth file needs columns id,label")
    mapping = {}
    for rownum, fields, ident in _data_rows(rows, idx):
        if ident in mapping:
            raise ParseError(f"row {rownum} (id={ident}): duplicate id")
        try:
            label = int(fields[idx["label"]])
        except ValueError:
            label = 0
        # n individuals fall into at most n groups, so a label above n is
        # no group; the bound also keeps labels within int64, so np.array
        # below makes the integer array the match score requires
        if not 1 <= label <= len(ids):
            raise ParseError(f"row {rownum} (id={ident}), column 'label': "
                             f"not an integer in 1..{len(ids)}")
        mapping[ident] = label
    missing = [i for i in ids if i not in mapping]
    if missing:
        raise ParseError(f"truth file is missing ids: {missing[:5]}")
    return np.array([mapping[i] for i in ids])


def write_json(path, payload: dict) -> None:
    """Deterministic JSON emission (sorted keys, stable float repr)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def result_payload(result) -> dict:
    """JSON-ready view of a SimulationResult, stable across identical runs."""
    from dataclasses import asdict

    config = asdict(result.config)
    config["methods"] = list(config["methods"])
    per_rep = []
    for r in result.reps:
        record = {
            "rep": r.rep,
            "seed": r.seed,
            "truth": [int(v) for v in r.truth],
            "labels": {m: [int(v) for v in lab] for m, lab in r.labels.items()},
            "scores": {m: {"perfect": s.perfect, "average": s.average}
                       for m, s in r.scores.items()},
            "dropped": r.dropped,
        }
        if r.G_hat is not None:
            record["G_hat"] = r.G_hat
        per_rep.append(record)
    return {
        "format_version": FORMAT_VERSION,
        "config": config,
        "aggregates": result.aggregates,
        "per_rep": per_rep,
    }
