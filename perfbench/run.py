"""panelcluster benchmark: Monte-Carlo batches and large-n CLI clustering.

Run from the repository root:

    python3 perfbench/run.py --workload mc_qr_slopes --seed 1 --seconds 10 --trace 0

The program is imported from ./src, never from an installed copy. One
process runs one workload: set-up (imports, input generation and one
warm-up operation, repeated), then closed-loop operations by a single
caller for --seconds. With --trace 0 the end-to-end metrics are reported;
with --trace 1 operations alternate between untraced and traced, and the
per-layer metrics come from the traced ones. Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Seed kept out of tuning: a later change that claims a gain re-checks the
# claim on it.
HELD_OUT_SEED = 271828

# Size and nominal duration of the reference kernel that SpeedClock uses to
# rescale times; the nominal value is the kernel's time on an idle 2-vCPU
# benchmark host, so rescaled times read as seconds on that host.
REFERENCE_ITERS = 1400
REFERENCE_NOMINAL_S = 0.019

# Set-up is repeated and its median reported, so set-up time is steady
# enough to gate on.
SETUP_REPEATS = 3

# Times the imports a user pays on every run, in a fresh interpreter; prints
# the raw import time and a reference-kernel sample taken right after it.
IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import spans, workloads  # numpy, scipy and panelcluster come with them
raw = time.perf_counter() - start
import run
print(raw, run.reference_kernel_s())
"""

# Percentile reported as the tail latency. It is fixed, not chosen per run
# as the highest percentile with ten samples beyond it: a 20-s run gets
# 11-56 samples, so that rule would pick p50 or lower on most workloads,
# and a per-run choice jumps when the sample count crosses a threshold.
# With so few samples p90 rests on the top two and spread 0.09-0.13 from
# run to run. The output states how many samples lie beyond.
TAIL_PERCENTILE = 75

END_TO_END = [
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("avg_match", "fraction"),
]

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads():
    """Pin BLAS threads to the CPU count, which is what OpenBLAS uses when
    nothing is configured, so results do not depend on the caller's
    environment and the multi-threading cost users pay stays visible."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def blas_runtime_threads():
    """Thread counts reported by the OpenBLAS libraries numpy and scipy
    bundle, or {} where they cannot be queried."""
    import numpy
    import scipy

    threads = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            try:
                dll = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                fn = getattr(dll, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[pkg.__name__] = fn()
                    break
    return threads


def machine_info(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads_pinned": nproc,
        "blas_threads_runtime": blas_runtime_threads(),
    }


def peak_rss_mb():
    """High-water RSS of this process or of the largest child it waited
    for; the import probes never run alongside the workload."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


class SpeedClock:
    """Rescales durations to a host of fixed speed.

    The benchmark host's speed drifts as co-tenants load it: a fixed
    pure-Python loop swung between 63 and 95 ms within one minute, in
    stretches of 5-15 s, and raw operation times moved with it. So a fixed
    reference kernel runs after every timed interval, and each interval is
    multiplied by REFERENCE_NOMINAL_S over the mean kernel time just before
    and just after it (just after, for the first interval).
    """

    def __init__(self):
        self._last = None
        self.scales = []

    def normalize(self, raw_s):
        """Rescale an interval that ended just now."""
        ref = reference_kernel_s()
        before = ref if self._last is None else self._last
        scale = REFERENCE_NOMINAL_S / (0.5 * (before + ref))
        self._last = ref
        self.scales.append(scale)
        return raw_s * scale


def reference_kernel_s():
    """Duration of a fixed loop of small numpy calls (a 2x2 eigh, matrix
    products, a reduction). Calls like these, each dominated by Python and
    numpy dispatch, make up the program's hot loops. Of four kernels tried,
    this one tracked the program's speed best: over 180 s of mc_logistic
    operations, medians of 25-s windows had an IQR/median of 0.33 raw, 0.04
    rescaled with it, and 0.07 rescaled with a pure-Python loop."""
    import numpy

    m = numpy.array([[2.0, 0.5], [0.5, 1.0]])
    v = numpy.ones(2)
    start = time.perf_counter()
    for _ in range(REFERENCE_ITERS):
        e, q = numpy.linalg.eigh(m)
        numpy.abs((q * e ** -0.5) @ q.T @ v).max()
    return time.perf_counter() - start


class Run:
    """Counts and samples of the timed phase."""

    def __init__(self):
        self.attempted = 0
        self.traced_ops = 0
        self.failed = 0
        self.work = 0
        self.latencies = {False: [], True: []}  # normalized, keyed by traced
        self.raw_latencies = []  # untraced, as measured
        self.traced_raw_s = 0.0  # as measured, like the spans
        self.first_outcome = {}  # input key -> Outcome of its first run

    def matches(self):
        return [m for o in self.first_outcome.values() for m in o.matches]

    def g_hits(self):
        return [h for o in self.first_outcome.values() for h in o.g_hits]


def import_times():
    """Rescaled import times of SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
            capture_output=True, text=True, check=True, timeout=120)
        raw, ref = map(float, probe.stdout.split())
        times.append(raw * REFERENCE_NOMINAL_S / ref)
    return times


def set_up(workload, seed, workdir, clock):
    """Generate inputs and run a reduced warm-up operation, SETUP_REPEATS times;
    returns the normalized and the raw duration of each repeat."""
    normalized, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(seed, workdir)
        workload.warm_up()
        raw.append(time.perf_counter() - start)
        normalized.append(clock.normalize(raw[-1]))
    return normalized, raw


def timed_phase(workload, seconds, tracer, clock):
    run = Run()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 1
        run.attempted += 1
        run.traced_ops += traced
        try:
            with tracer.installed(i) if traced else contextlib.nullcontext():
                outcome = workload.run(i)
        except Exception as exc:  # a failed op is counted, never retried
            run.failed += 1
            clock.normalize(0.0)
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            run.work += outcome.work
            run.latencies[traced].append(clock.normalize(outcome.latency_s))
            if traced:
                run.traced_raw_s += outcome.latency_s
            else:
                run.raw_latencies.append(outcome.latency_s)
            run.first_outcome.setdefault(outcome.key, outcome)
        i += 1
    return run


def end_to_end(run, setup_s, work_unit):
    import numpy

    lat = run.latencies[False]
    notes = {}
    if lat:
        tail = float(numpy.percentile(lat, TAIL_PERCENTILE))
        beyond = sum(x > tail for x in lat)
        notes["latency_p50_s"] = (f"raw median "
                                  f"{statistics.median(run.raw_latencies):.4g} s")
        notes["latency_tail_s"] = (f"p{TAIL_PERCENTILE} of {len(lat)} samples, "
                                   f"{beyond} beyond it")
        p50 = statistics.median(lat)
    else:
        p50 = tail = 0.0
    notes["throughput_per_s"] = f"{work_unit} per second of operation time"
    matches = run.matches()
    notes["avg_match"] = (f"mean over {len(matches)} clusterings of "
                          f"{len(run.first_outcome)} distinct inputs")
    busy = sum(lat) + sum(run.latencies[True])
    values = {
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "throughput_per_s": run.work / busy if busy else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "avg_match": sum(matches) / len(matches) if matches else 0.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, notes


def print_metrics(metrics, notes=None):
    notes = notes or {}
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")


def print_shares(layer, op_s):
    """Share of traced operation time spent in each layer."""
    if not op_s:
        return
    shares = {
        "quantile": layer["quantile.bundle_busy_s"][0]
        + layer["quantile.hk_busy_s"][0] + layer["quantile.pooled_busy_s"][0],
        "logistic": layer["logistic.fit_busy_s"][0]
        + layer["logistic.cov_busy_s"][0],
        "spectral.dissim": layer["spectral.dissim_busy_s"][0],
        "spectral.cluster_self": layer["spectral.cluster_self_s"][0],
        "spectral.kmeans": layer["spectral.kmeans_busy_s"][0],
        "spectral.select": layer["spectral.select_busy_s"][0],
        "simulation.gen": layer["simulation.gen_busy_s"][0],
        "simulation.rep_self": layer["simulation.rep_self_s"][0],
        "metrics": layer["metrics.match_busy_s"][0],
        "io": layer["io.read_estimates_busy_s"][0]
        + layer["io.write_json_busy_s"][0],
        "cli.cluster_self": layer["cli.cluster_self_s"][0],
    }
    print("# share of traced op time: " + ", ".join(
        f"{name} {100 * busy / op_s:.1f}%" for name, busy in shares.items()))
    reps = layer["simulation.rep_calls"][0]
    if reps:
        print(f"# mean rep time: {layer['simulation.rep_busy_s'][0] / reps:.4f} s")
    calls = layer["spectral.dissim_calls"][0]
    if calls:
        print(f"# mean build_dissimilarity call: "
              f"{layer['spectral.dissim_busy_s'][0] / calls:.4f} s for "
              f"{layer['spectral.dissim_pairs'][0] / calls:.0f} pairs")


def measure(args, nproc, clock, workdir):
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print("# machine: " + json.dumps(machine_info(nproc), sort_keys=True))
    print(f"# workload {workload.name}: " + json.dumps(workload.describe()))
    print(f"# why: {workload.why}")
    print(f"# seed={args.seed} (held-out seed {HELD_OUT_SEED}) "
          f"seconds={args.seconds:g} trace={args.trace}; "
          f"closed loop, one caller")

    imports = import_times()
    setup_times, raw_setup = set_up(workload, args.seed, workdir, clock)
    setup_s = statistics.median(imports) + statistics.median(setup_times)
    print(f"# set-up: median of imports {[round(t, 3) for t in imports]} s "
          f"+ median of inputs and warm-up {[round(t, 3) for t in setup_times]}"
          f" s (raw {[round(t, 3) for t in raw_setup]} s)")

    tracer = spans.Tracer() if args.trace else None
    run = timed_phase(workload, args.seconds, tracer, clock)
    print(f"# ops: attempted={run.attempted} failed={run.failed}; host speed "
          f"scale median {statistics.median(clock.scales):.3f}, range "
          f"{min(clock.scales):.3f}-{max(clock.scales):.3f}")

    if tracer is None:
        metrics, notes = end_to_end(run, setup_s, workload.work_unit)
        print_metrics(metrics, notes)
    else:
        traced, untraced = run.latencies[True], run.latencies[False]
        overhead = (statistics.median(traced) - statistics.median(untraced)
                    if traced and untraced else 0.0)
        print(f"# traced ops={len(traced)} untraced ops={len(untraced)}; "
              f"span times are raw; trace.overhead_s is traced minus "
              f"untraced latency_p50_s")
        metrics = spans.layer_metrics(tracer.spans, max(run.traced_ops, 1),
                                      run.traced_raw_s, overhead)
        print_metrics(metrics)
        print_shares(metrics, run.traced_raw_s / max(len(traced), 1))
    print(f"error_rate = {run.failed / run.attempted:.6g} fraction "
          f"({run.failed} of {run.attempted} ops)")
    g_hits = run.g_hits()
    if g_hits:
        print(f"g_hat_hit_rate = {sum(g_hits) / len(g_hits):.6g} fraction "
              f"({sum(g_hits)} of {len(g_hits)} selections)")
    else:
        print("g_hat_hit_rate = n/a (this workload does not select G)")

    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if not (SRC / "panelcluster" / "__init__.py").is_file():
        print(f"error: no panelcluster sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import panelcluster
    import workloads

    if Path(panelcluster.__file__).resolve().parent != SRC / "panelcluster":
        print(f"error: imported panelcluster from {panelcluster.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    try:
        result = measure(args, nproc, SpeedClock(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
