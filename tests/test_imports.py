"""scipy is loaded only on the path that uses it, scipy.sparse.linalg on a
Krylov solve: none on import, on a logistic batch, on a cluster below
KRYLOV_MIN_N, on a quantile batch or on a quantile `estimate`.

Each check runs in a fresh interpreter: inside the test session scipy is
already loaded by other test modules.
"""

import os
import subprocess
import sys
from pathlib import Path

from panelcluster import spectral

SRC = Path(__file__).resolve().parents[1] / "src"


def scipy_modules_after(code, cwd):
    """The scipy modules a fresh interpreter holds after running `code`
    (its stdout is discarded)."""
    probe = ("import contextlib, io, sys\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             + "".join(f"    {line}\n" for line in code.splitlines())
             + "print(*sorted(m for m in sys.modules "
               "if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return set(out.stdout.split())


def subpackages(modules):
    """The public scipy subpackages among `modules`."""
    names = {m.split(".")[1] for m in modules if m.startswith("scipy.")}
    return {name for name in names
            if not name.startswith("_") and name != "version"}


def test_package_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import panelcluster, panelcluster.cli",
                               tmp_path) == set()


def test_logistic_batch_and_small_cluster_load_no_scipy(tmp_path):
    n = spectral.KRYLOV_MIN_N - 1
    (tmp_path / "est.csv").write_text(
        "# scale=already_scaled\nid,beta_1,se\n" + "".join(
            f"u{i},{0.1 * (i % 4) + 0.001 * i},0.01\n" for i in range(n)))
    (tmp_path / "truth.csv").write_text("id,label\n" + "".join(
        f"u{i},{i % 4 + 1}\n" for i in range(n)))
    code = """
from panelcluster import cli, simulation
simulation.run_batch(simulation.SimulationConfig(
    model="logistic", n=30, T=40, reps=1, methods=simulation.METHODS,
    select_groups=True))
assert cli.main(["cluster", "est.csv", "--select-g", "--t-periods", "100",
                 "--truth", "truth.csv", "--out", "report.json"]) == 0
"""
    assert scipy_modules_after(code, tmp_path) == set()


def test_quantile_batches_and_estimates_load_no_scipy(tmp_path):
    code = """
import csv
from panelcluster import cli, simulation
for model in ("model1", "model3"):
    simulation.run_batch(simulation.SimulationConfig(model=model, n=30, T=40,
                                                     reps=1))
panel, _ = simulation.gen_model1(6, 30, "normal", 0)
with open("panel.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["id", "t", "y", "x_1", "x_2"])
    for i in range(6):
        for t in range(30):
            w.writerow([f"u{i}", t, panel.responses[i, t],
                        *panel.covariates[i, t]])
for model in ("qr-slopes", "qr-pooled"):
    assert cli.main(["estimate", "panel.csv", "--model", model,
                     "--out", f"est_{model}.csv"]) == 0
"""
    assert scipy_modules_after(code, tmp_path) == set()


def test_krylov_solve_loads_scipy_sparse_linalg(tmp_path):
    code = f"""
import numpy as np
from panelcluster import spectral
x = np.linspace(0.0, 1.0, {spectral.KRYLOV_MIN_N})
spectral.spectral_cluster(np.abs(x[:, None] - x), 3)
"""
    loaded = scipy_modules_after(code, tmp_path)
    assert "scipy.sparse.linalg" in loaded
    assert not subpackages(loaded) & {"optimize", "special", "stats"}
