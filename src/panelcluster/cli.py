"""Command-line interface: estimate, cluster, simulate."""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .io import (
    FORMAT_VERSION,
    read_estimates,
    read_panel_csv,
    read_truth,
    result_payload,
    write_estimates,
    write_json,
)
from .metrics import average_match
from .simulation import (PANEL_MODELS, SimulationConfig, estimate_panel,
                         run_batch)
from .spectral import build_dissimilarity, select_num_groups, spectral_cluster
from .types import EstimationError, ParseError, PER_OBSERVATION

CONFIG_FIELDS = ("model", "n", "T", "reps", "seed", "tau", "error_dist",
                 "restarts", "G_max", "methods", "select_groups",
                 "cluster_at_true_g")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="panelcluster",
        description="Group panel-data individuals by covariance-weighted "
                    "spectral clustering.")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit per-individual models on a "
                                          "long-format panel CSV")
    est.add_argument("panel_csv")
    est.add_argument("--model", required=True, choices=PANEL_MODELS)
    est.add_argument("--tau", type=float, default=0.5)
    est.add_argument("--out", required=True)

    clu = sub.add_parser("cluster", help="cluster an estimate table")
    clu.add_argument("estimates_csv")
    group = clu.add_mutually_exclusive_group(required=True)
    group.add_argument("--groups", type=int)
    group.add_argument("--select-g", action="store_true")
    clu.add_argument("--t-periods", type=int,
                     help="common T for per_observation tables without a "
                          "weight column; required by --select-g")
    clu.add_argument("--gmax", type=int, default=10)
    clu.add_argument("--seed", type=int, default=0)
    clu.add_argument("--truth",
                     help="CSV with columns id,label for scoring")
    clu.add_argument("--out", required=True)

    sim = sub.add_parser("simulate", help="run a Monte-Carlo batch")
    sim.add_argument("config_file")
    sim.add_argument("--out", required=True)
    return parser


def cmd_estimate(args) -> int:
    ids, panel = read_panel_csv(args.panel_csv)
    table = estimate_panel(panel, args.model, args.tau, ids)
    write_estimates(args.out, table)
    print(f"estimated {table.n} individuals -> {args.out}")
    for ident, reason in table.dropped:
        print(f"dropped {ident}: {reason}")
    return 0


def cmd_cluster(args) -> int:
    started = time.time()
    table = read_estimates(args.estimates_csv)
    n = table.n
    if args.select_g and n < 3:
        raise ParseError("n >= 3 required for selection; n >= 1 for "
                         "clustering at G = 1")
    T = args.t_periods
    if args.select_g and T is None:
        raise ParseError("--select-g requires --t-periods, the T of the "
                         "selection's shrink factor")
    if args.groups is not None and not 1 <= args.groups <= n:
        raise ParseError(f"--groups must lie in 1..{n}")

    if (table.scale == PER_OBSERVATION and table.weights is None
            and T is None):
        raise ParseError("--t-periods is required for per_observation "
                         "tables without a weight column")
    V = build_dissimilarity(table.betas, table.sigmas, T or 1,
                            weights=table.weights, scale=table.scale)

    selection = None
    if args.select_g:
        selection = select_num_groups(V, n, T, G_max=args.gmax)
        G = selection.G_hat
    else:
        G = args.groups
    assignment, _ = spectral_cluster(V, G, seed=args.seed)

    report = {
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "config": {
            "estimates_csv": args.estimates_csv,
            "groups": args.groups,
            "select_g": args.select_g,
            "t_periods": args.t_periods,
            "gmax": args.gmax,
            "seed": args.seed,
            "scale": table.scale,
        },
        "n": n,
        "G": G,
        "labels": {ident: int(lab)
                   for ident, lab in zip(table.ids, assignment.labels)},
    }
    if selection is not None:
        report["selection"] = {
            "G_hat": selection.G_hat,
            "lambda_tilde": [float(v) for v in selection.lambda_tilde],
            "ratios": [float(v) for v in selection.ratios],
        }
    if args.truth:
        truth = read_truth(args.truth, table.ids)
        score = average_match(truth, assignment.labels)
        report["scores"] = {"perfect": score.perfect,
                            "average": score.average}
    write_json(args.out, report)

    print(f"{'id':<20} label")
    for ident, lab in zip(table.ids, assignment.labels):
        print(f"{ident:<20} {lab}")
    if selection is not None:
        print(f"selected G = {G}")
    print(f"report written to {args.out} "
          f"({time.time() - started:.2f}s)")
    return 0


def cmd_simulate(args) -> int:
    with open(args.config_file) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config is not valid JSON: {exc}") from exc
    unknown = sorted(set(raw) - set(CONFIG_FIELDS))
    if unknown:
        raise ParseError(f"unknown config fields: {unknown}")
    for required in ("model", "n", "T", "reps"):
        if required not in raw:
            raise ParseError(f"config is missing required field {required!r}")
    try:
        config = SimulationConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid config: {exc}") from exc

    result = run_batch(config)
    write_json(args.out, result_payload(result))
    for method, agg in result.aggregates.items():
        if isinstance(agg, dict) and "perfect_match" in agg:
            print(f"{method}: perfect_match={agg['perfect_match']:.3f} "
                  f"average_match={agg['average_match']:.4f}")
    if "group_count_table" in result.aggregates:
        print("group counts:", result.aggregates["group_count_table"])
    print(f"results written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"estimate": cmd_estimate, "cluster": cmd_cluster,
                "simulate": cmd_simulate}
    try:
        return handlers[args.command](args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
