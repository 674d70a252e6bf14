"""CSV / JSON interchange: estimate tables, panel ingestion, run reports.

Estimate tables are CSV with `# key=value` metadata lines before the header.
Covariances are stored as the upper triangle in row-major order
(c_11, c_12, ..., c_pp); scalar tables may carry an `se` column instead,
which is squared on ingestion. Floats are written with 17 significant
digits so a written table reads back value-identical.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .types import (
    ALREADY_SCALED,
    PER_OBSERVATION,
    EstimateTable,
    PanelDataset,
    ParseError,
)

FORMAT_VERSION = "1"


def _cell(fields, idx, col, row, ident, positive=False):
    """Column `col` of a CSV row as a finite float (> 0 if `positive`); a bad
    cell is a ParseError naming its row, id and column."""
    try:
        value = float(fields[idx[col]])
        if math.isfinite(value) and (value > 0 or not positive):
            return value
        problem = "must be finite" + (" and > 0" if positive else "")
    except ValueError:
        problem = "not a number"
    raise ParseError(f"row {row} (id={ident}), column {col!r}: {problem}")


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
    meta = {}
    with open(path, newline="") as fh:
        lines = []
        for raw in fh:
            if raw.startswith("#"):
                key, _, value = raw[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            else:
                lines.append(raw)
        rows = list(csv.reader(lines))
    if not rows:
        raise ParseError("empty estimate table")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "id":
        raise ParseError("header row must start with 'id'")
    beta_cols = [h for h in header if h.startswith("beta_")]
    p = len(beta_cols)
    if p == 0:
        raise ParseError("no beta_* columns found")
    use_se = "se" in header
    tri_names = _triangle_names(p)
    if use_se:
        if p != 1:
            raise ParseError("'se' column is only valid for scalar estimates")
        cov_cols = ["se"]
    else:
        missing = [c for c in tri_names if c not in header]
        if missing:
            raise ParseError(f"missing covariance columns: {missing}")
        cov_cols = tri_names
    has_weight = "weight" in header
    upper = [(i, j) for i in range(p) for j in range(i, p)]
    idx = {name: header.index(name) for name in header}

    ids, betas, sigmas, weights = [], [], [], []
    for rownum, fields in enumerate(rows[1:], start=2):
        if not fields:
            continue
        if len(fields) != len(header):
            raise ParseError(f"row {rownum}: expected {len(header)} fields, "
                             f"got {len(fields)}")
        ident = fields[idx["id"]]
        ids.append(ident)
        betas.append([_cell(fields, idx, c, rownum, ident) for c in beta_cols])
        if use_se:
            sigmas.append([[_cell(fields, idx, "se", rownum, ident) ** 2]])
        else:
            sigma = np.zeros((p, p))
            for (i, j), col in zip(upper, tri_names):
                sigma[i, j] = sigma[j, i] = _cell(fields, idx, col, rownum,
                                                  ident)
            sigmas.append(sigma)
        if has_weight:
            weights.append(_cell(fields, idx, "weight", rownum, ident,
                                 positive=True))

    scale = meta.get("scale", PER_OBSERVATION)
    if scale not in (PER_OBSERVATION, ALREADY_SCALED):
        raise ParseError(f"unknown scale {scale!r} in metadata")
    d_T = float(meta["d_T"]) if "d_T" in meta else None
    return EstimateTable(ids, np.array(betas), sigmas, scale=scale,
                         weights=np.array(weights) if has_weight else None,
                         d_T=d_T)


def read_panel_csv(path):
    """Read a long-format panel (id, t, y, x_1..x_p) into a PanelDataset.

    Every t, y and x_k cell must be finite, each (id, t) must occur once and
    the panel must be balanced; returns (ids, PanelDataset).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError("empty panel file")
    header = [h.strip() for h in rows[0]]
    for required in ("id", "t", "y"):
        if required not in header:
            raise ParseError(f"panel header must contain column {required!r}")
    x_cols = sorted((h for h in header if h.startswith("x_")),
                    key=lambda h: int(h[2:]))
    idx = {name: header.index(name) for name in header}

    per_id: dict = {}  # id -> {t: (y, [x_1..x_p])}, ids in order of appearance
    for rownum, fields in enumerate(rows[1:], start=2):
        if not fields:
            continue
        if len(fields) != len(header):
            raise ParseError(f"row {rownum}: expected {len(header)} fields")
        ident = fields[idx["id"]]
        t, y, *xs = (_cell(fields, idx, col, rownum, ident)
                     for col in ("t", "y", *x_cols))
        periods = per_id.setdefault(ident, {})
        if t in periods:
            raise ParseError(f"row {rownum} (id={ident}), column 't': "
                             f"duplicate period {fields[idx['t']]}")
        periods[t] = (y, xs)

    if not per_id:
        raise ParseError("panel has no data rows")
    lengths = {len(v) for v in per_id.values()}
    if len(lengths) != 1:
        raise ParseError("panel is unbalanced: per-id observation counts differ")
    T = lengths.pop()
    n, p = len(per_id), len(x_cols)
    covs = np.empty((n, T, p))
    ys = np.empty((n, T))
    for i, periods in enumerate(per_id.values()):
        obs = [periods[t] for t in sorted(periods)]
        ys[i] = [r[0] for r in obs]
        covs[i] = [r[1] for r in obs]
    values = np.unique(ys)
    kind = "binary" if np.isin(values, (0.0, 1.0)).all() else "continuous"
    return list(per_id), PanelDataset(covs, ys, kind)


def read_truth(path, ids):
    """Read a truth CSV (columns id,label; integer labels, one row per id)
    and return the labels of `ids` in that order."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError("empty truth file")
    header = [h.strip() for h in rows[0]]
    if "id" not in header or "label" not in header:
        raise ParseError("truth file needs columns id,label")
    idx = {name: header.index(name) for name in header}
    mapping = {}
    for rownum, fields in enumerate(rows[1:], start=2):
        if not fields:
            continue
        if len(fields) != len(header):
            raise ParseError(f"row {rownum}: expected {len(header)} fields")
        ident = fields[idx["id"]]
        if ident in mapping:
            raise ParseError(f"row {rownum} (id={ident}): duplicate id")
        try:
            mapping[ident] = int(fields[idx["label"]])
        except ValueError:
            raise ParseError(f"row {rownum} (id={ident}), column 'label': "
                             "not an integer") from None
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
