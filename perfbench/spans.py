"""In-memory spans around panelcluster's public boundaries.

The tracer replaces a function at the module attribute its caller looks up
(for example ``panelcluster.simulation.fit_quantile_bundle``, which
``run_rep`` resolves at call time) and restores it on exit, so untraced
operations run the program exactly as shipped. Spans are placed only at
layer boundaries: wrapping per-pair helpers such as
``matrix_inverse_sqrt`` would add ~125k spans to one n=500 clustering and
measure the tracer instead of the program.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import time

from panelcluster import cli, simulation, spectral
from panelcluster.types import DegenerateOutcome, PerfectSeparation


class Span:
    __slots__ = ("name", "op", "start", "end", "parent", "child_s", "attrs")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.child_s = 0.0
        self.attrs = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        """Duration minus the time covered by direct child spans."""
        return self.duration - self.child_s


def _attrs_rep(args, result):
    return {"dropped": result.dropped}


def _attrs_bundle(args, result):
    fits = (result.center, result.upper, result.lower)
    return {"fits": 3, "certified": sum(f.converged for f in fits)}


def _attrs_pooled(args, result):
    return {"fits": 1, "certified": int(result.converged)}


def _attrs_hk(args, result):
    return {"crossed": int(result.degenerate)}


def _attrs_logistic(args, result):
    return {"iterations": result.iterations}


def _attrs_dissim(args, result):
    n = len(args["estimates"])
    return {"pairs": n * (n - 1) // 2}


def _attrs_kmeans(args, result):
    return {"restarts": args["restarts"]}


def _attrs_read(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# (module, attribute, span name, attribute hook). Every caller's lookup site
# is listed: simulation and cli import the spectral functions by name.
BOUNDARIES = [
    (simulation, "run_rep", "simulation.rep", _attrs_rep),
    (simulation, "gen_model1", "simulation.gen", None),
    (simulation, "gen_model2", "simulation.gen", None),
    (simulation, "gen_model3", "simulation.gen", None),
    (simulation, "gen_model4", "simulation.gen", None),
    # the logistic generator draws one individual at a time inside the
    # resample loop; this private helper is its only boundary
    (simulation, "_draw_logistic_individual", "simulation.gen", None),
    (simulation, "fit_quantile_bundle", "quantile.bundle", _attrs_bundle),
    (simulation, "hk_covariance", "quantile.hk", _attrs_hk),
    (simulation, "fit_pooled_quantile", "quantile.pooled", _attrs_pooled),
    (simulation, "fit_logistic", "logistic.fit", _attrs_logistic),
    (simulation, "logistic_covariance", "logistic.cov", None),
    (simulation, "build_dissimilarity", "spectral.dissim", _attrs_dissim),
    (simulation, "spectral_cluster", "spectral.cluster", None),
    (simulation, "kmeans", "spectral.kmeans", _attrs_kmeans),
    (simulation, "select_num_groups", "spectral.select", None),
    (simulation, "average_match", "metrics.match", None),
    (spectral, "kmeans", "spectral.kmeans", _attrs_kmeans),
    (cli, "cmd_cluster", "cli.cluster", None),
    (cli, "read_estimates", "io.read_estimates", _attrs_read),
    (cli, "write_json", "io.write_json", None),
    (cli, "build_dissimilarity", "spectral.dissim", _attrs_dissim),
    (cli, "spectral_cluster", "spectral.cluster", None),
    (cli, "select_num_groups", "spectral.select", None),
    (cli, "average_match", "metrics.match", None),
]

REJECTIONS = (DegenerateOutcome, PerfectSeparation)


class Tracer:
    """Records nested spans of single-threaded operations in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def _wrap(self, fn, name, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, self._stack[-1] if self._stack else None)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except REJECTIONS:
                span.attrs["rejected"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(hook(bound.arguments, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op):
        """Trace operation `op` for the duration of the block."""
        originals = []
        for module, attr, name, hook in BOUNDARIES:
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))
        self.op = op
        try:
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
            self.op = None


# (name, unit, better) of every per-layer metric, in report order. Counts
# and busy times are per traced operation, so they compare across runs that
# complete different numbers of operations.
LAYER_METRICS = [
    ("quantile.bundle_calls", "count/op", "lower"),
    ("quantile.bundle_busy_s", "s/op", "lower"),
    ("quantile.bundle_p50_ms", "ms", "lower"),
    ("quantile.lp_fits", "count/op", "lower"),
    ("quantile.hk_busy_s", "s/op", "lower"),
    ("quantile.pooled_calls", "count/op", "lower"),
    ("quantile.pooled_busy_s", "s/op", "lower"),
    ("quantile.cert_failed", "count/op", "lower"),
    ("quantile.cert_ratio", "ratio", "higher"),
    ("quantile.crossed", "count/op", "lower"),
    ("logistic.fit_calls", "count/op", "lower"),
    ("logistic.fit_busy_s", "s/op", "lower"),
    ("logistic.newton_iters", "count/op", "lower"),
    ("logistic.rejected", "count/op", "lower"),
    ("logistic.useful_ratio", "ratio", "higher"),
    ("logistic.cov_busy_s", "s/op", "lower"),
    ("spectral.dissim_calls", "count/op", "lower"),
    ("spectral.dissim_busy_s", "s/op", "lower"),
    ("spectral.dissim_pairs", "count/op", "lower"),
    ("spectral.dissim_pairs_per_s", "1/s", "higher"),
    ("spectral.cluster_busy_s", "s/op", "lower"),
    ("spectral.cluster_self_s", "s/op", "lower"),
    ("spectral.kmeans_calls", "count/op", "lower"),
    ("spectral.kmeans_restarts", "count/op", "lower"),
    ("spectral.kmeans_busy_s", "s/op", "lower"),
    ("spectral.select_busy_s", "s/op", "lower"),
    ("simulation.rep_calls", "count/op", "lower"),
    ("simulation.rep_busy_s", "s/op", "lower"),
    ("simulation.rep_self_s", "s/op", "lower"),
    ("simulation.gen_busy_s", "s/op", "lower"),
    ("simulation.resampled", "count/op", "lower"),
    ("simulation.overlap", "ratio", "higher"),
    ("metrics.match_calls", "count/op", "lower"),
    ("metrics.match_busy_s", "s/op", "lower"),
    ("io.read_estimates_busy_s", "s/op", "lower"),
    ("io.bytes_read", "B/op", "lower"),
    ("io.write_json_busy_s", "s/op", "lower"),
    ("cli.cluster_busy_s", "s/op", "lower"),
    ("cli.cluster_self_s", "s/op", "lower"),
    ("trace.spans", "count/op", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, ops, traced_wall_s, overhead_s):
    """Per-layer values from the spans of `ops` traced operations whose
    latencies sum to `traced_wall_s`."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s.self_s for s in by_name.get(name, ()))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    fit_spans = ("quantile.bundle", "quantile.pooled")
    fits = sum(attr(n, "fits") for n in fit_spans)
    certified = sum(attr(n, "certified") for n in fit_spans)
    bundles = by_name.get("quantile.bundle", ())
    logistic_fits = calls("logistic.fit")
    totals = {
        "quantile.bundle_calls": calls("quantile.bundle"),
        "quantile.bundle_busy_s": busy("quantile.bundle"),
        "quantile.lp_fits": attr("quantile.bundle", "fits"),
        "quantile.hk_busy_s": busy("quantile.hk"),
        "quantile.pooled_calls": calls("quantile.pooled"),
        "quantile.pooled_busy_s": busy("quantile.pooled"),
        "quantile.cert_failed": fits - certified,
        "quantile.crossed": attr("quantile.hk", "crossed"),
        "logistic.fit_calls": logistic_fits,
        "logistic.fit_busy_s": busy("logistic.fit"),
        "logistic.newton_iters": attr("logistic.fit", "iterations"),
        "logistic.rejected": attr("logistic.fit", "rejected"),
        "logistic.cov_busy_s": busy("logistic.cov"),
        "spectral.dissim_calls": calls("spectral.dissim"),
        "spectral.dissim_busy_s": busy("spectral.dissim"),
        "spectral.dissim_pairs": attr("spectral.dissim", "pairs"),
        "spectral.cluster_busy_s": busy("spectral.cluster"),
        "spectral.cluster_self_s": self_time("spectral.cluster"),
        "spectral.kmeans_calls": calls("spectral.kmeans"),
        "spectral.kmeans_restarts": attr("spectral.kmeans", "restarts"),
        "spectral.kmeans_busy_s": busy("spectral.kmeans"),
        "spectral.select_busy_s": busy("spectral.select"),
        "simulation.rep_calls": calls("simulation.rep"),
        "simulation.rep_busy_s": busy("simulation.rep"),
        "simulation.rep_self_s": self_time("simulation.rep"),
        "simulation.gen_busy_s": busy("simulation.gen"),
        "simulation.resampled": attr("simulation.rep", "dropped"),
        "metrics.match_calls": calls("metrics.match"),
        "metrics.match_busy_s": busy("metrics.match"),
        "io.read_estimates_busy_s": busy("io.read_estimates"),
        "io.bytes_read": attr("io.read_estimates", "bytes"),
        "io.write_json_busy_s": busy("io.write_json"),
        "cli.cluster_busy_s": busy("cli.cluster"),
        "cli.cluster_self_s": self_time("cli.cluster"),
        "trace.spans": len(spans),
    }
    values = {name: total / ops for name, total in totals.items()}
    values.update({
        "quantile.bundle_p50_ms": 1e3 * statistics.median(
            s.duration for s in bundles) if bundles else 0.0,
        "quantile.cert_ratio": _ratio(certified, fits),
        "logistic.useful_ratio": _ratio(
            logistic_fits - totals["logistic.rejected"], logistic_fits),
        "spectral.dissim_pairs_per_s": _ratio(
            totals["spectral.dissim_pairs"], totals["spectral.dissim_busy_s"]),
        "simulation.overlap": _ratio(totals["simulation.rep_busy_s"],
                                     traced_wall_s),
        "trace.overhead_s": overhead_s,
    })
    return {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
