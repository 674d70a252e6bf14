"""The package loads no scipy module: none on import, on a logistic batch,
on a cluster below or from KRYLOV_MIN_N (block Lanczos, numpy alone), on a
quantile batch or on a quantile `estimate`; and every command completes in
an interpreter where scipy cannot be imported.

Each check runs in a fresh interpreter: inside the test session scipy is
already loaded by other test modules, which use it as a reference.
"""

import os
import subprocess
import sys
from pathlib import Path

from panelcluster import spectral

SRC = Path(__file__).resolve().parents[1] / "src"


def scipy_modules_after(code, cwd, setup=""):
    """The scipy modules a fresh interpreter holds after running `setup`,
    then `code` (whose stdout is discarded); a failure fails the test."""
    probe = (setup + "import contextlib, io, sys\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             + "".join(f"    {line}\n" for line in code.splitlines())
             + "print(*sorted(m for m in sys.modules "
               "if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def write_cluster_files(cwd, n):
    """est.csv, an n-row estimate table around four centres, and its
    truth.csv."""
    (cwd / "est.csv").write_text(
        "# scale=already_scaled\nid,beta_1,se\n" + "".join(
            f"u{i},{0.1 * (i % 4) + 0.001 * i},0.01\n" for i in range(n)))
    (cwd / "truth.csv").write_text("id,label\n" + "".join(
        f"u{i},{i % 4 + 1}\n" for i in range(n)))


SELECT_G = """
assert cli.main(["cluster", "est.csv", "--select-g", "--t-periods", "100",
                 "--truth", "truth.csv", "--out", "report.json"]) == 0
"""


def test_package_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import panelcluster, panelcluster.cli",
                               tmp_path) == set()


def test_logistic_batch_and_small_cluster_load_no_scipy(tmp_path):
    write_cluster_files(tmp_path, spectral.KRYLOV_MIN_N - 1)
    code = """
from panelcluster import cli, simulation
simulation.run_batch(simulation.SimulationConfig(
    model="logistic", n=30, T=40, reps=1, methods=simulation.METHODS,
    select_groups=True))
""" + SELECT_G
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


def test_krylov_cluster_loads_no_scipy(tmp_path):
    write_cluster_files(tmp_path, spectral.KRYLOV_MIN_N)
    code = """
from panelcluster import cli, spectral
solves = []
solve = spectral._block_lanczos
spectral._block_lanczos = lambda *args: solves.append(args[1]) or solve(*args)
""" + SELECT_G + """
assert solves[0] == 11 and len(solves) == 2, solves
"""
    assert scipy_modules_after(code, tmp_path) == set()


def test_every_command_runs_where_scipy_cannot_be_imported(tmp_path):
    write_cluster_files(tmp_path, 300)
    code = """
import csv, json
from panelcluster import cli, simulation
with open("cfg.json", "w") as fh:
    json.dump({"model": "model1", "n": 9, "T": 40, "reps": 1, "seed": 7,
               "select_groups": True}, fh)
assert cli.main(["simulate", "cfg.json", "--out", "sim.json"]) == 0
panels = {"qr-slopes": simulation.gen_model1(6, 30, "normal", 0),
          "qr-pooled": simulation.gen_model3(6, 30, "normal", 0),
          "logistic": simulation.gen_logistic(6, 60, seed=0)}
for model, (panel, _) in panels.items():
    n, T, p = panel.covariates.shape
    with open("panel.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "t", "y", *(f"x_{k + 1}" for k in range(p))])
        for i in range(n):
            for t in range(T):
                w.writerow([f"u{i}", t, panel.responses[i, t],
                            *panel.covariates[i, t]])
    assert cli.main(["estimate", "panel.csv", "--model", model,
                     "--out", f"est_{model}.csv"]) == 0
""" + SELECT_G
    blocked = 'import sys\nsys.modules["scipy"] = None\n'
    assert scipy_modules_after(code, tmp_path, setup=blocked) == {"scipy"}
