"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each operation is a closed-loop call by one caller. Every input is derived
from the workload seed; the program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from panelcluster import cli, simulation
from panelcluster.simulation import MODEL_GROUPS, SimulationConfig

# Monte-Carlo operations cycle through this many batch seeds, so accuracy
# is a deterministic function of the workload seed and not of how many
# operations a run completes. With 4 seeds, op latencies formed 4 clusters
# and p50/p75 fell between clusters, moving with how many ops each got.
MC_POOL = 16


class CheckFailed(Exception):
    """An operation returned output that fails its check."""


def derive_seed(seed, k):
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


@dataclass
class Outcome:
    """Result of one checked operation."""

    key: object  # which distinct input the operation ran on
    latency_s: float
    work: int  # reps (Monte-Carlo) or individuals clustered (CLI)
    matches: list = field(default_factory=list)  # best-permutation averages
    g_hits: list = field(default_factory=list)  # G_hat == true G


class MonteCarlo:
    """One operation = ``simulation.run_batch`` of a fixed configuration."""

    work_unit = "reps"

    def __init__(self, name, why, **config):
        self.name = name
        self.why = why
        self.config = config
        self.seeds = []
        self.fingerprints = {}

    def describe(self):
        c = SimulationConfig(**self.config)
        p = 1 if c.model == "model3" else 2
        dissims = 1 + ("spectral_identity" in c.methods)
        if c.model == "model3":
            lps = 3  # center and tau +/- d_T pooled fits over all n*T rows
        elif c.model == "logistic":
            lps = 0
        else:
            lps = 3 * c.n
        return {"n": c.n, "T": c.T, "p": p, "model": c.model,
                "methods": list(c.methods), "select_groups": c.select_groups,
                "reps_per_op": c.reps, "lps_per_op": c.reps * lps,
                "pairs_per_op": c.reps * dissims * c.n * (c.n - 1) // 2}

    def setup(self, seed, workdir):
        self.seeds = [derive_seed(seed, k) for k in range(MC_POOL)]
        self.fingerprints = {}

    def run(self, i):
        k = i % MC_POOL
        return self._batch(k, SimulationConfig(seed=self.seeds[k], **self.config))

    def warm_up(self):
        """One repetition of the first input: every code path of an
        operation at a fraction of its cost."""
        config = SimulationConfig(seed=self.seeds[0], **{**self.config, "reps": 1})
        return self._batch("warm-up", config)

    def _batch(self, k, config):
        start = time.perf_counter()
        result = simulation.run_batch(config)
        latency = time.perf_counter() - start
        if len(result.reps) != config.reps:
            raise CheckFailed(f"{len(result.reps)} reps, expected {config.reps}")
        G = MODEL_GROUPS[config.model]
        outcome = Outcome(k, latency, len(result.reps))
        for rep in result.reps:
            if set(rep.labels) != set(config.methods):
                raise CheckFailed(f"rep {rep.rep}: methods {sorted(rep.labels)}")
            for method, labels in rep.labels.items():
                labels = np.asarray(labels)
                if labels.shape != (config.n,):
                    raise CheckFailed(f"rep {rep.rep} {method}: labels shape "
                                      f"{labels.shape}")
                if labels.min() < 1 or labels.max() > G:
                    raise CheckFailed(f"rep {rep.rep} {method}: labels outside "
                                      f"1..{G}")
                score = rep.scores[method].average
                if not 0.0 <= score <= 1.0:
                    raise CheckFailed(f"rep {rep.rep} {method}: score {score}")
                outcome.matches.append(score)
            if config.select_groups:
                if not 1 <= rep.G_hat <= config.G_max:
                    raise CheckFailed(f"rep {rep.rep}: G_hat {rep.G_hat}")
                outcome.g_hits.append(rep.G_hat == G)
        _check_replay(self.fingerprints, k, [
            (rep.seed, rep.G_hat, [rep.labels[m].tolist() for m in config.methods])
            for rep in result.reps])
        return outcome


def _check_replay(fingerprints, k, fingerprint):
    """Identical inputs must give identical labels on every repetition."""
    if fingerprints.setdefault(k, fingerprint) != fingerprint:
        raise CheckFailed(f"input {k} gave different output on a repeat")


# rows of the CLI warm-up table
WARM_UP_N = 100

# model2's four group centres: two well-separated pairs of close centres
CLI_CENTRES = np.array([[0.1, 0.1], [0.2, 0.2], [3.0, 3.0], [3.1, 3.1]])


class CliCluster:
    """One operation = in-process ``panelcluster cluster --select-g`` on a
    seeded n x p estimate table written once in set-up."""

    work_unit = "individuals"

    def __init__(self, name, why, n, T, sigma_scale, gmax=10):
        self.name = name
        self.why = why
        self.n = n
        self.T = T
        self.sigma_scale = sigma_scale
        self.gmax = gmax
        self.ids = []
        self.argv = []
        self.warm_up_argv = []
        self.report_path = None
        self.fingerprints = {}

    def describe(self):
        return {"n": self.n, "T": self.T, "p": CLI_CENTRES.shape[1],
                "true_G": len(CLI_CENTRES), "gmax": self.gmax,
                "reps_per_op": 0, "lps_per_op": 0,
                "pairs_per_op": self.n * (self.n - 1) // 2}

    def setup(self, seed, workdir):
        """Write the estimate table, its first WARM_UP_N rows as a warm-up
        table, and the truth file.

        Betas are drawn around the centres with the per-observation
        covariance each row reports, so the table is what ``estimate``
        would produce for a panel of length T.
        """
        rng = np.random.default_rng(derive_seed(seed, 0))
        groups = rng.integers(0, len(CLI_CENTRES), self.n)
        self.ids = [f"unit{i:04d}" for i in range(self.n)]
        header = ("# format_version=1\n# scale=per_observation\n"
                  "id,beta_1,beta_2,c_11,c_12,c_22\n")
        rows = []
        truth = ["id,label\n"]
        for ident, g in zip(self.ids, groups):
            A = rng.standard_normal((2, 2))
            sigma = self.sigma_scale * (0.5 * np.eye(2) + 0.25 * A @ A.T)
            beta = CLI_CENTRES[g] + np.linalg.cholesky(sigma / self.T) \
                @ rng.standard_normal(2)
            values = (*beta, sigma[0, 0], sigma[0, 1], sigma[1, 1])
            rows.append(",".join([ident, *(format(v, ".17g") for v in values)])
                        + "\n")
            truth.append(f"{ident},{g + 1}\n")
        paths = {name: workdir / f"{name}.csv"
                 for name in ("estimates", "warm_up", "truth")}
        paths["estimates"].write_text(header + "".join(rows))
        paths["warm_up"].write_text(header + "".join(rows[:WARM_UP_N]))
        paths["truth"].write_text("".join(truth))
        self.report_path = workdir / "report.json"
        self.argv, self.warm_up_argv = (
            ["cluster", str(paths[table]), "--select-g",
             "--t-periods", str(self.T), "--gmax", str(self.gmax),
             "--truth", str(paths["truth"]), "--out", str(self.report_path)]
            for table in ("estimates", "warm_up"))
        self.fingerprints = {}

    def run(self, i):
        return self._cluster(0, self.argv, self.ids)

    def warm_up(self):
        """The same command on the first WARM_UP_N rows: every code path
        of an operation at ~1/25 of its O(n^2) cost."""
        return self._cluster("warm-up", self.warm_up_argv,
                             self.ids[:WARM_UP_N])

    def _cluster(self, key, argv, ids):
        self.report_path.unlink(missing_ok=True)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        latency = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        report = json.loads(self.report_path.read_text())
        labels = report["labels"]
        if sorted(labels) != ids:
            raise CheckFailed("report does not label every id exactly once")
        G = report["G"]
        if not 1 <= G <= self.gmax:
            raise CheckFailed(f"G = {G} outside 1..{self.gmax}")
        if not all(1 <= v <= G for v in labels.values()):
            raise CheckFailed(f"labels outside 1..{G}")
        score = report.get("scores", {}).get("average")
        if score is None or not 0.0 <= score <= 1.0:
            raise CheckFailed(f"missing or invalid scores block: {score}")
        _check_replay(self.fingerprints, key, (G, labels))
        return Outcome(key, latency, len(ids), [score], [G == len(CLI_CENTRES)])


WORKLOADS = {w.name: w for w in [
    # 2 reps per op, not 4: at 4 a 1-2 s op left 12-20 samples per run and
    # the run-to-run spread of the latency metrics was 0.09-0.13
    MonteCarlo(
        "mc_qr_slopes",
        "model1 quantile batch: 90 per-individual LPs per rep dominate; "
        "a faster quantile solver or rep-level parallelism shows here",
        model="model1", n=30, T=120, reps=2,
        methods=("spectral", "spectral_identity"), select_groups=True),
    MonteCarlo(
        "mc_logistic",
        "logistic ablation batch (3 methods): no quantile work; k-means, "
        "small-n dissimilarity and Newton fits carry the time",
        model="logistic", n=30, T=150, reps=4,
        methods=("spectral", "spectral_identity", "kmeans_raw")),
    MonteCarlo(
        "mc_pooled",
        "model3 pooled batch: three sparse 1800x33 HiGHS LPs per rep, not "
        "90 small ones; guards the shared LP path",
        model="model3", n=30, T=60, reps=4),
    # n=300, not 500: a 3-s operation gave ~7 samples per run, too few to
    # hold the run-to-run spread of the latency metrics under their bounds
    # on a shared host; n=300 keeps the pair loop above 90% of the op
    CliCluster(
        "cli_cluster_n300",
        "CLI cluster --select-g on an n=300 table: the O(n^2) dissimilarity "
        "loop is >90% of the op; the only io and cli workload",
        n=300, T=120, sigma_scale=0.1),
]}
