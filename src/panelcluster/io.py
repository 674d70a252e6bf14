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
from dataclasses import dataclass

import numpy as np

from .types import (
    ALREADY_SCALED,
    PER_OBSERVATION,
    PanelDataset,
    ParseError,
    validate_covariance,
)

FORMAT_VERSION = "1"


@dataclass
class EstimateTable:
    """Per-individual coefficient estimates with covariances."""

    ids: list
    betas: np.ndarray  # n x p
    sigmas: list  # n matrices of shape p x p
    scale: str = PER_OBSERVATION
    weights: np.ndarray | None = None  # per-individual T_i
    d_T: float | None = None

    def __post_init__(self):
        self.betas = np.atleast_2d(np.asarray(self.betas, dtype=float))
        if len(self.ids) != len(set(self.ids)):
            raise ParseError("estimate ids must be unique")
        if len(self.ids) != self.betas.shape[0] or len(self.sigmas) != len(self.ids):
            raise ParseError("row counts of ids/betas/covariances differ")
        p = self.betas.shape[1]
        for row, sigma in enumerate(self.sigmas):
            sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
            if sigma.shape != (p, p):
                raise ParseError(f"row {row}: covariance dimension != {p}")
            try:
                validate_covariance(sigma)
            except Exception as exc:
                raise ParseError(f"row {row} (id={self.ids[row]}): {exc}") from exc
            self.sigmas[row] = sigma

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def p(self) -> int:
        return self.betas.shape[1]


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

        def grab(col, positive=False):
            try:
                value = float(fields[idx[col]])
                if math.isfinite(value) and (value > 0 or not positive):
                    return value
                problem = "must be finite" + (" and > 0" if positive else "")
            except ValueError:
                problem = "not a number"
            raise ParseError(f"row {rownum} (id={ids[-1]}), column {col!r}: "
                             f"{problem}")

        ids.append(fields[idx["id"]])
        betas.append([grab(c) for c in beta_cols])
        if use_se:
            sigmas.append(np.array([[grab("se") ** 2]]))
        else:
            sigma = np.zeros((p, p))
            for (i, j), col in zip(upper, tri_names):
                sigma[i, j] = sigma[j, i] = grab(col)
            sigmas.append(sigma)
        if has_weight:
            weights.append(grab("weight", positive=True))

    scale = meta.get("scale", PER_OBSERVATION)
    if scale not in (PER_OBSERVATION, ALREADY_SCALED):
        raise ParseError(f"unknown scale {scale!r} in metadata")
    d_T = float(meta["d_T"]) if "d_T" in meta else None
    return EstimateTable(ids, np.array(betas), sigmas, scale=scale,
                         weights=np.array(weights) if has_weight else None,
                         d_T=d_T)


def read_panel_csv(path):
    """Read a long-format panel (id, t, y, x_1..x_p) into a PanelDataset.

    The panel must be balanced; returns (ids, PanelDataset).
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

    per_id: dict = {}
    order = []
    for rownum, fields in enumerate(rows[1:], start=2):
        if not fields:
            continue
        if len(fields) != len(header):
            raise ParseError(f"row {rownum}: expected {len(header)} fields")
        ident = fields[idx["id"]]
        try:
            t = float(fields[idx["t"]])
            y = float(fields[idx["y"]])
            xs = [float(fields[idx[c]]) for c in x_cols]
        except ValueError as exc:
            raise ParseError(f"row {rownum}: non-numeric value") from exc
        if ident not in per_id:
            per_id[ident] = []
            order.append(ident)
        per_id[ident].append((t, y, xs))

    lengths = {len(v) for v in per_id.values()}
    if len(lengths) != 1:
        raise ParseError("panel is unbalanced: per-id observation counts differ")
    T = lengths.pop()
    n, p = len(order), len(x_cols)
    covs = np.empty((n, T, p))
    ys = np.empty((n, T))
    for i, ident in enumerate(order):
        obs = sorted(per_id[ident], key=lambda r: r[0])
        ys[i] = [r[1] for r in obs]
        covs[i] = [r[2] for r in obs]
    values = np.unique(ys)
    kind = "binary" if np.isin(values, (0.0, 1.0)).all() else "continuous"
    return order, PanelDataset(covs, ys, kind)


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
