"""Monte-Carlo data generators and the batch experiment driver.

Randomness comes from numpy's Philox counter-based 64-bit generator.
Per-repetition streams are split from the master seed by
seed_r = splitmix64(master XOR (r * 0x9E3779B97F4A7C15)), so repetitions
are independent and reproducible regardless of execution order. Gaussians
use numpy's ziggurat sampler; t(3) draws are a standard normal divided by
sqrt(chi-square(3) / 3).
"""

from __future__ import annotations

import atexit
import ctypes
import numbers
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .logistic import fit_logistic, logistic_covariance
from .metrics import average_match
from .quantile import (
    fit_pooled_quantile,
    fit_quantile_bundle,
    hall_sheather_bandwidth,
    hk_covariance,
    intercept_variance,
)
from .spectral import build_dissimilarity, kmeans, select_num_groups, spectral_cluster
from .types import (
    DimensionMismatch,
    EstimateTable,
    NonConvergence,
    NonFiniteCovariance,
    PanelDataset,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# read-only, as are the _BETAS below: a kept batch worker (_run_reps) sees
# a rebinding of a module name, not a change made in place
MODEL_GROUPS = MappingProxyType({
    "logistic": 3,
    "model1": 3,
    "model2": 4,
    "model3": 3,
    "model4": 3,
})

METHODS = ("spectral", "spectral_identity", "kmeans_raw")

# per-individual estimators of estimate_panel
PANEL_MODELS = ("logistic", "qr-slopes", "qr-pooled")

_BETAS = MappingProxyType({
    "logistic": np.array([[-4.0, 1.0], [0.0, 1.0], [4.0, 1.0]]),
    "model1": np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]),
    "model2": np.array([[0.1, 0.1], [0.2, 0.2], [3.0, 3.0], [3.1, 3.1]]),
    "model4": np.array([[-5.0, 1.0], [0.0, 1.0], [3.0, 1.0]]),
})
for _beta in _BETAS.values():
    _beta.setflags(write=False)
del _beta


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def derive_seed(master: int, rep: int) -> int:
    """Seed of repetition `rep` split from the master seed."""
    return splitmix64((master ^ (rep * _GOLDEN)) & _MASK)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK))


def _draw_errors(rng, size, error_dist):
    if error_dist == "normal":
        return rng.standard_normal(size)
    if error_dist == "t3":
        return rng.standard_normal(size) / np.sqrt(rng.chisquare(3, size) / 3.0)
    raise ValueError(f"unknown error distribution {error_dist!r}")


def _draw_logistic_individual(rng, T):
    group = int(rng.integers(1, 4))
    alpha = 1.0
    eta = rng.standard_normal()
    x1 = 0.5 * alpha + eta + 2.0 * rng.standard_normal(T)
    x2 = 0.5 * alpha + eta + 0.2 * rng.standard_normal(T)
    beta = _BETAS["logistic"][group - 1]
    eps = rng.logistic(size=T)
    y = (alpha + x1 * beta[0] + x2 * beta[1] >= eps).astype(float)
    return np.column_stack([x1, x2]), y, group


def _draw_slope_individual(rng, T, error_dist, model, i):
    """Individual i of model1, model2 (alpha 1, four groups) or model4
    (exactly n/3 per group and a shared individual effect)."""
    if model == "model4":
        alpha, group = 1.0, i % 3 + 1
        eta = rng.standard_normal()
        x1 = 0.5 * alpha + eta + rng.standard_normal(T)
        x2 = 0.5 * alpha + eta + np.sqrt(0.05) * rng.standard_normal(T)
        noise = _draw_errors(rng, T, error_dist)
    else:
        alpha = rng.uniform() if model == "model1" else 1.0
        group = int(rng.integers(1, len(_BETAS[model]) + 1))
        x1 = 0.3 * alpha + rng.standard_normal(T)
        x2 = rng.uniform(size=T)
        noise = 0.5 * x2 * _draw_errors(rng, T, error_dist)
    beta = _BETAS[model][group - 1]
    y = alpha + x1 * beta[0] + x2 * beta[1] + noise
    return np.column_stack([x1, x2]), y, group


def _draw_model3_individual(rng, T, error_dist, i):
    """Individual i of model3: intercept i % 3 + 1, scale 1 + 0.1 x."""
    group = i % 3 + 1
    x = rng.standard_normal() + rng.standard_normal(T)
    e = _draw_errors(rng, T, error_dist)
    return x[:, None], float(group) + x + (1.0 + 0.1 * x) * e, group


def _draw_panel(n, T, p, draw):
    """The PanelDataset of n individuals over T periods with p covariates,
    and their (n,) groups, from draw(i) -> (covariates (T, p), responses
    (T,), group) of individual i, called in index order."""
    covs = np.empty((n, T, p))
    ys = np.empty((n, T))
    truth = np.empty(n, dtype=int)
    for i in range(n):
        covs[i], ys[i], truth[i] = draw(i)
    return PanelDataset(covs, ys), truth


def gen_logistic(n, T, seed):
    """Binary panel with three slope groups and a shared individual effect."""
    rng = make_rng(seed)
    return _draw_panel(n, T, 2, lambda i: _draw_logistic_individual(rng, T))


def _gen_slope_model(model, n, T, error_dist, seed):
    rng = make_rng(seed)
    return _draw_panel(n, T, 2, lambda i: _draw_slope_individual(
        rng, T, error_dist, model, i))


def gen_model1(n, T, error_dist, seed):
    """Three slope groups 0.1/0.2/0.3 with heteroskedastic noise."""
    return _gen_slope_model("model1", n, T, error_dist, seed)


def gen_model2(n, T, error_dist, seed):
    """Four slope groups with two nearly coincident pairs of centres."""
    return _gen_slope_model("model2", n, T, error_dist, seed)


def gen_model4(n, T, error_dist, seed):
    """Three asymmetric slope groups with exactly n/3 members each."""
    if n % 3 != 0:
        raise ValueError("model4 requires n divisible by 3")
    return _gen_slope_model("model4", n, T, error_dist, seed)


def gen_model3(n, T, error_dist, seed):
    """Location-scale shift model grouped on the intercepts 1/2/3."""
    if n % 3 != 0:
        raise ValueError("model3 requires n divisible by 3")
    rng = make_rng(seed)
    return _draw_panel(n, T, 1, lambda i: _draw_model3_individual(
        rng, T, error_dist, i))


@dataclass
class SimulationConfig:
    """Configuration of one Monte-Carlo batch."""

    model: str
    n: int
    T: int
    reps: int
    seed: int = 0
    tau: float = 0.5
    error_dist: str = "normal"
    restarts: int = 50
    G_max: int = 10
    methods: tuple = ("spectral",)
    select_groups: bool = False
    cluster_at_true_g: bool = True

    def __post_init__(self):
        if self.model not in MODEL_GROUPS:
            raise ValueError(f"unknown model {self.model!r}")
        kinds = dict.fromkeys(("n", "T", "reps", "seed", "restarts", "G_max"),
                              (numbers.Integral, "an integer"))
        kinds.update(tau=(numbers.Real, "a real number"),
                     select_groups=(bool, "a bool"),
                     cluster_at_true_g=(bool, "a bool"),
                     methods=((list, tuple), "a list of strings"))
        for name, (kind, what) in kinds.items():
            value = getattr(self, name)
            # bool subclasses int: a flag is neither a count nor a level
            if not isinstance(value, kind) or (
                    kind is not bool and isinstance(value, bool)):
                raise TypeError(f"{name} must be {what}, got {value!r}")
        for name in ("n", "reps", "restarts", "G_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # repetition seeds are split from the seed modulo 2**64
        if not 0 <= self.seed <= _MASK:
            raise ValueError(f"seed must lie in 0..2**64 - 1, got {self.seed}")
        if self.cluster_at_true_g and self.n < self.true_groups:
            raise ValueError(f"cluster_at_true_g requires n >= "
                             f"{self.true_groups} on {self.model}, got "
                             f"n={self.n}")
        if self.select_groups and self.n < 3:
            raise ValueError(f"select_groups requires n >= 3, got n={self.n}")
        if self.model in ("model3", "model4") and self.n % 3 != 0:
            raise ValueError(f"{self.model} requires n divisible by 3")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.model != "logistic":  # raises when no bandwidth exists
            hall_sheather_bandwidth(self.T, self.tau)
        elif self.T < 4:  # three coefficients: no draw at T <= 3 is kept
            raise ValueError(f"logistic requires T >= 4, got T={self.T}")
        if self.error_dist not in ("normal", "t3"):
            raise ValueError(f"unknown error_dist {self.error_dist!r}")
        self.methods = tuple(self.methods)
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")

    @property
    def true_groups(self) -> int:
        return MODEL_GROUPS[self.model]


@dataclass
class RepResult:
    """Outcome of one simulation repetition."""

    rep: int
    seed: int
    truth: np.ndarray
    labels: dict  # method -> estimated labels
    scores: dict  # method -> MatchScore
    G_hat: int | None = None
    dropped: int = 0  # logistic draws resampled, or fits left out


@dataclass
class SimulationResult:
    """Per-repetition records plus table-style aggregates."""

    config: SimulationConfig
    reps: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)


def estimate_panel(panel: PanelDataset, model: str, tau: float = 0.5,
                   ids=None) -> EstimateTable:
    """Fit every individual of a panel into a per_observation EstimateTable.

    model is "logistic" (Newton MLE and plug-in covariance, solved for the
    whole panel at once), "qr-slopes" (the slopes of quantile fits at tau
    and tau +/- d_T, solved for the whole panel at once, with the HK
    sandwich) or "qr-pooled" (the intercepts of pooled quantile fits with
    common slopes). ids label the rows (default 0..n-1). An individual
    whose fit fails with an EstimationError, whose quantile fit fails its
    subgradient certificate or whose logistic fit does not converge
    (NonConvergence), is left out and listed in `dropped` with the error's
    class name, as is one whose covariance is not finite
    (NonFiniteCovariance). The pooled fit is joint, so its errors
    (SingularDesign, NonConvergence) raise instead.
    """
    ids = list(range(panel.n)) if ids is None else list(ids)
    if len(ids) != panel.n:
        raise DimensionMismatch("one id per individual required")
    if model not in PANEL_MODELS:
        raise ValueError(f"unknown model {model!r}")
    if model == "logistic":
        binary = np.isin(panel.responses, (0.0, 1.0)).all(axis=1)
        if not binary.all():
            raise ValueError("logistic model requires a binary panel: "
                             f"individual {ids[binary.argmin()]} has an "
                             "outcome other than 0 or 1")
    if model != "qr-pooled" and panel.p == 0:
        raise ValueError(f"model {model!r} fits slopes: it needs x_k columns")
    d_T = None if model == "logistic" else hall_sheather_bandwidth(panel.T, tau)
    if model == "qr-slopes":
        betas, sigmas, failed = _quantile_slopes(panel, tau)
    elif model == "logistic":
        betas, sigmas, failed = _logistic_slopes(panel)
    else:
        betas, sigmas, failed = _pooled_intercepts(panel, tau, d_T)

    kept = [i for i in range(panel.n) if i not in failed]
    if not kept:
        raise ValueError("no individual could be estimated")
    return EstimateTable([ids[i] for i in kept], betas[kept], sigmas[kept],
                         d_T=d_T, dropped=[(ids[i], type(failed[i]).__name__)
                                           for i in sorted(failed)])


def _logistic_slopes(panel):
    """Stacked logistic fits of a panel: slopes (n, p), their plug-in
    covariances (n, p, p) and {row: EstimationError} of the unusable rows."""
    X = panel.designs
    est = fit_logistic(X, panel.responses)
    unc = logistic_covariance(X, est)
    return est.slopes, unc.sigma[:, 1:, 1:], {**est.failed, **unc.failed}


def _pooled_intercepts(panel, tau, d_T):
    """Intercepts (n, 1) of the pooled fit at tau, their (n, 1, 1) variances
    from the fits at tau +/- d_T (all three levels in one call), and the
    rows whose variance is not finite, as NonFiniteCovariance."""
    fit = fit_pooled_quantile(panel.responses, panel.covariates,
                              (tau, tau + d_T, tau - d_T))
    center, upper, lower = fit.alphas
    variance = intercept_variance(upper, lower, tau, d_T)
    failed = {int(i): NonFiniteCovariance("intercept variance is not finite")
              for i in np.flatnonzero(~np.isfinite(variance[:, 0, 0]))}
    return center[:, None], variance, failed


def _quantile_slopes(panel, tau):
    """Stacked qr-slopes fits of a panel: slopes (n, p), their HK
    covariances (n, p, p) and {row: EstimationError} of the unusable rows."""
    X = panel.designs
    bundle = fit_quantile_bundle(X, panel.responses, tau)
    unc = hk_covariance(bundle, X)
    return (bundle.center.slopes, unc.sigma[:, 1:, 1:],
            {**unc.failed, **bundle.failed})


def _fit_logistic_rep(config, rng):
    """Draw and fit individuals until n are kept, redrawing every draw whose
    fit fails (listed in `dropped` with its error's class name), so the
    sample size is preserved. Each round draws the individuals still needed,
    fits them as one stack and keeps its surviving rows in draw order. Rows
    are labelled by draw number. More than 100 n failed draws raise
    NonConvergence once the round that passes that budget ends."""
    T = config.T
    rounds, dropped, drawn = [], [], 0
    while (need := config.n - drawn + len(dropped)) > 0:
        panel, groups = _draw_panel(
            need, T, 2, lambda i: _draw_logistic_individual(rng, T))
        slopes, sigma, failed = _logistic_slopes(panel)
        ok = np.setdiff1d(np.arange(need), list(failed))
        rounds.append((drawn + ok, slopes[ok], sigma[ok], groups[ok]))
        dropped += [(drawn + j, type(failed[j]).__name__)
                    for j in sorted(failed)]
        drawn += need
        if len(dropped) > 100 * config.n:
            raise NonConvergence(
                "resampling budget exhausted for logistic repetition")
    kept, betas, sigmas, truth = (np.concatenate(a) for a in zip(*rounds))
    return EstimateTable(kept.tolist(), betas, sigmas, dropped=dropped), truth


def _fit_panel_rep(config, rng):
    gen = {"model1": gen_model1, "model2": gen_model2, "model3": gen_model3,
           "model4": gen_model4}[config.model]
    seed = int(rng.integers(0, _MASK, dtype=np.uint64))
    panel, truth = gen(config.n, config.T, config.error_dist, seed)
    model = "qr-pooled" if config.model == "model3" else "qr-slopes"
    table = estimate_panel(panel, model, config.tau)
    return table, truth[table.ids]


def run_rep(config: SimulationConfig, rep: int) -> RepResult:
    """Run a single repetition: generate, fit, cluster, score."""
    seed = derive_seed(config.seed, rep)
    rng = make_rng(seed)
    fit_rep = _fit_logistic_rep if config.model == "logistic" else _fit_panel_rep
    table, truth = fit_rep(config, rng)
    betas = table.betas

    V = build_dissimilarity(betas, table.variances(config.T))
    cluster_seed = derive_seed(seed, 1)
    labels, scores = {}, {}
    G = config.true_groups
    if config.cluster_at_true_g:
        for method in config.methods:
            if method == "kmeans_raw":
                raw_labels, _, _ = kmeans(betas, G, restarts=config.restarts,
                                          seed=cluster_seed)
                est = raw_labels + 1
            else:
                # spectral_identity: the unweighted sup-norm of differences
                W = V if method == "spectral" else np.abs(
                    betas[:, None] - betas[None]).max(axis=2)
                est = spectral_cluster(W, G, seed=cluster_seed,
                                       restarts=config.restarts)
            labels[method] = est
            scores[method] = average_match(truth, est)

    G_hat = None
    if config.select_groups:
        G_hat = select_num_groups(V, config.T, config.G_max).G_hat
    return RepResult(rep, seed, truth, labels, scores, G_hat,
                     len(table.dropped))


def run_batch(config: SimulationConfig) -> SimulationResult:
    """Run all repetitions and aggregate table-style summaries.

    The repetitions run in up to min(reps, CPUs this process may run on)
    processes: the caller and workers it keeps for later batches, each
    worker on one BLAS thread (`_run_reps`). The result, and any error
    raised, are those of a serial run."""
    result = SimulationResult(config)
    result.reps = _run_reps(config)
    result.aggregates = aggregate(config, result.reps)
    return result


def _openblas_threads():
    """numpy's bundled OpenBLAS (under `numpy.libs`) thread getter and
    setter, or None without that library or its thread functions."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for names in (("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_set_num_threads64_"),
                      ("openblas_get_num_threads", "openblas_set_num_threads")):
            getter, setter = (getattr(dll, name, None) for name in names)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


class _Pool:
    """The workers this process keeps for its later batches, and the lock a
    batch holds while it uses them (one that finds it held runs alone)."""

    lock = threading.Lock()
    workers = []  # (pid, its task pipe's write end, its result pipe's read end)
    state = None  # _snapshot() when the pool's first worker was forked


def _run_reps(config):
    """The batch's RepResults in rep order. Worker w of `workers` runs the
    reps in range(reps * w // workers, reps * (w + 1) // workers) up to its
    first error. The parent runs block 0 and sends each other block to a
    kept worker (`_worker`), which pickles back its RepResults and its
    error. The parent reads the blocks in order and stops at the first
    error: block order is rep order, so it is the lowest failing rep's, as
    in a serial run. Any raise retires the pool."""
    workers = 1
    # Linux only: sched_getaffinity exists there alone, and numpy's macOS
    # BLAS (Accelerate) is not fork-safe. Python 3.12 and later warn when a
    # process with threads forks, and OpenBLAS's pool is such threads; a
    # warning turned into an error there would come after the fork, so
    # batches stay in one process until that path has been run.
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and sys.version_info < (3, 12)):
        workers = min(config.reps, len(os.sched_getaffinity(0)))
    # Only forked workers are pinned to one BLAS thread: a batch in one
    # process keeps the caller's threads. A forked batch whose processes
    # keep two BLAS threads each, idle ones spinning on the other core,
    # measured slower than a serial one, so without the pin nothing forks.
    blas = _openblas_threads() if workers > 1 else None
    pooled = blas is not None and _Pool.lock.acquire(blocking=False)
    if pooled:
        get_threads, set_threads = blas
        threads = get_threads()
        set_threads(1)
    else:
        workers = 1
    blocks = [range(config.reps * w // workers,
                    config.reps * (w + 1) // workers) for w in range(workers)]
    try:
        if pooled:
            _fill_pool(workers - 1)
            for block, (_, task, _) in zip(blocks[1:], _Pool.workers):
                pickle.dump((config, block), task, pickle.HIGHEST_PROTOCOL)
                task.flush()
        results, error = _run_block(config, blocks[0])
        for block, (_, _, pipe) in zip(blocks[1:], _Pool.workers):
            if error is not None:
                break
            try:
                done, error = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # none, or cut short
                raise ChildProcessError(
                    f"the worker running repetitions {list(block)} "
                    f"ended without a result") from None
            results += done
        if error is not None:
            raise error
        return results
    except BaseException:
        if pooled:  # the workers may still be running their blocks
            _retire()
        raise
    finally:
        if pooled:
            set_threads(threads)
            _Pool.lock.release()


def _run_block(config, reps):
    """Run `reps` in order up to the first that raises; returns the
    RepResults done and that rep's error, or None."""
    done = []
    for rep in reps:
        try:
            done.append(run_rep(config, rep))
        except Exception as exc:
            return done, exc
    return done, None


def _snapshot():
    """(held, key): what a worker took from this process at its fork and a
    rep reads. key has the ids of every loaded panelcluster module and of
    its bindings, which held keeps alive so that no id is reused, then
    numpy's error handling and the warning filters."""
    held = [(module, dict(vars(module)))
            for name, module in list(sys.modules.items())
            if name.partition(".")[0] == __package__]
    ids = [(id(module), list(names), list(map(id, names.values())))
           for module, names in held]
    return held, (ids, np.geterr(), warnings.filters[:])


def _fill_pool(size):
    """Make `size` workers forked from this process's present state ready,
    retiring first a pool forked from another state or with an exited
    worker (WNOWAIT leaves it unreaped: its pid cannot be reused)."""
    state = _snapshot()
    if _Pool.workers and (_Pool.state[1] != state[1] or any(
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
            for pid, _, _ in _Pool.workers)):
        _retire()
    if not _Pool.workers:
        _Pool.state = state
        atexit.register(_retire)
    while len(_Pool.workers) < size:
        task_read, task_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no worker: the batch's clean-up does the rest
            for fd in (task_read, task_write, result_read, result_write):
                os.close(fd)
            raise
        if pid == 0:  # its siblings' pipes were closed by _forget_pool
            os.close(task_write)
            os.close(result_read)
            _worker(open(task_read, "rb"), open(result_write, "wb"))
        # recorded before anything else: whatever raises next, the batch's
        # clean-up kills and reaps this worker
        _Pool.workers.append(
            (pid, open(task_write, "wb"), open(result_read, "rb")))
        os.close(task_read)
        os.close(result_write)


def _worker(tasks, results):
    """A worker's whole life: run each (config, block) read from its task
    pipe and send back the block's outcome, until the pipe ends. Ctrl-C is
    the parent's to act on. It leaves without running the parent's
    clean-up; anything that stops it short sends no outcome."""
    import signal  # here only: the parent loads it only to retire the pool

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while True:  # until the task pipe ends and pickle.load raises
            outcome = _run_block(*pickle.load(tasks))
            results.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
            results.flush()
    finally:
        os._exit(0)


def _retire():
    """Kill and reap every worker and close its pipes: after a batch that
    raised, when the pool is stale, and at exit."""
    import signal

    atexit.unregister(_retire)
    try:
        for pid, _, _ in _Pool.workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    finally:  # even if a wait fails, no reaped pid stays in the pool
        _forget_pool()


def _forget_pool():
    """Close this process's ends of the pool's pipes and forget its workers.
    A child forked from this process does only this: they are not its own."""
    for _, task, result in _Pool.workers:
        result.close()
        try:
            task.close()
        except BrokenPipeError:  # a task left unsent to a worker that exited
            pass
    _Pool.workers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def aggregate(config: SimulationConfig, reps) -> dict:
    out = {"reps": len(reps), "dropped_total": sum(r.dropped for r in reps)}
    if config.cluster_at_true_g:
        for method in config.methods:
            scores = [r.scores[method] for r in reps]
            out[method] = {
                "perfect_match": float(sum(s.perfect for s in scores)) / len(reps),
                "average_match": float(sum(s.average for s in scores)) / len(reps),
            }
    if config.select_groups:
        table = {"1": 0, "2": 0, "3": 0, "4": 0, "5+": 0}
        for r in reps:
            key = str(r.G_hat) if r.G_hat <= 4 else "5+"
            table[key] += 1
        out["group_count_table"] = {k: v / len(reps) for k, v in table.items()}
    return out
