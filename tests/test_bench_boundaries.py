"""The benchmark's trace boundaries must keep resolving and recording.

perfbench/spans.py wraps named functions at the module attributes their
callers look up. A refactor that renames or bypasses one of them silently
zeroes a per-layer metric, so this test loads the tracer (read-only) and
checks that every boundary exists and that a traced run of each Monte-Carlo
model family and of `cluster` records a span for every layer.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from panelcluster import cli, simulation
from panelcluster.simulation import SimulationConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

LAYERS = ("quantile.bundle", "quantile.hk", "quantile.pooled", "logistic.fit",
          "logistic.cov", "spectral.dissim", "io.read_estimates")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(spans):
    for module, attr, _, _ in spans.BOUNDARIES:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"


def write_table(path, n=12):
    rng = np.random.default_rng(0)
    lines = ["# scale=per_observation", "id,beta_1,beta_2,c_11,c_12,c_22"]
    for i in range(n):
        b = (i % 3) + 0.01 * rng.standard_normal(2)
        lines.append(f"u{i},{b[0]:.17g},{b[1]:.17g},1,0.1,1")
    path.write_text("\n".join(lines) + "\n")


def test_traced_runs_record_every_layer(spans, tmp_path):
    tracer = spans.Tracer()
    common = dict(reps=1, seed=1, restarts=3, select_groups=True)
    configs = [SimulationConfig(model="model1", n=9, T=40, **common),
               SimulationConfig(model="model3", n=9, T=30, **common),
               SimulationConfig(model="logistic", n=9, T=100, **common)]
    for op, config in enumerate(configs):
        with tracer.installed(op):
            simulation.run_batch(config)
    table = tmp_path / "est.csv"
    write_table(table)
    argv = ["cluster", str(table), "--select-g", "--t-periods", "50",
            "--out", str(tmp_path / "report.json")]
    with tracer.installed(len(configs)), \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    recorded = {span.name for span in tracer.spans}
    assert not [layer for layer in LAYERS if layer not in recorded]
