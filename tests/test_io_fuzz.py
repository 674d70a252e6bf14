"""Fuzz the three CSV readers through `main`: whatever the file holds, the
CLI exits 0, 1 (bad input) or 2 (numerical failure) and never lets an
exception escape."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from panelcluster.cli import main
from panelcluster.simulation import PANEL_MODELS

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

CELLS = ["0", "1", "2", "-1", "0.5", "1e308", "-0", " 1 ", "nan", "inf",
         "-inf", "", "abc", "a", "b", "99999999999999999999", '"1,2"']


def csv_text(columns, well_formed, cells=CELLS, meta=()):
    """CSV text: metadata lines drawn from `meta`, then a header drawn from
    `columns` (names may repeat) or the well-formed one, then rows that
    are either random cells, short or long, or well-formed rows drawn from
    the strategies of `well_formed`; or any text at all."""
    header = st.one_of(st.lists(st.sampled_from(columns), max_size=7),
                       st.just(list(well_formed)))
    row = st.one_of(st.lists(st.sampled_from(cells), max_size=8),
                    st.tuples(*well_formed.values()).map(list))
    structured = st.tuples(st.lists(st.sampled_from(meta), max_size=3)
                           if meta else st.just([]),
                           header, st.lists(row, max_size=8)).map(
        lambda parts: "".join(line + "\n" for line in parts[0])
        + "\n".join(",".join(r) for r in [parts[1], *parts[2]]) + "\n")
    return st.one_of(structured, st.text(max_size=200))


def run(tmp_path, text, argv):
    """Write `text` to a new file and run `main` on argv with that file's
    path in place of None. Every example gets fresh file names: on some
    filesystems truncating an existing file costs tens of milliseconds."""
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    path = case / "input.csv"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    argv = [str(path) if a is None else a for a in argv]
    assert main([*argv, "--out", str(case / "out")]) in (0, 1, 2)


NUMBER = st.sampled_from(["0", "1", "0.5", "-2", "3"])
PANEL = {"id": st.sampled_from(["a", "b"]), "t": st.sampled_from("0123"),
         "y": NUMBER, "x_1": NUMBER}


@FUZZ
@given(text=csv_text(list(PANEL) + ["x_2", "x_a", "x_", "x_01", ""], PANEL),
       model=st.sampled_from(PANEL_MODELS))
def test_read_panel_csv_fuzz(tmp_path, text, model):
    run(tmp_path, text, ["estimate", None, "--model", model])


ESTIMATES = {"id": st.sampled_from("abcd"), "beta_1": NUMBER,
             "se": st.sampled_from(["0", "0.1", "1", "-1"]),
             "weight": st.sampled_from(["1", "50", "0"])}
META = ["# scale=already_scaled", "# scale=per_observation", "# scale=x",
        "# d_T=0.1", "# d_T=abc", "# format_version=1",
        "# format_version=2", "#", "# =", "# weight"]


@FUZZ
@given(text=csv_text(list(ESTIMATES) + ["beta_2", "c_11", "c_12", "c_22",
                                        "extra"], ESTIMATES, meta=META),
       mode=st.sampled_from([["--groups", "1"], ["--groups", "2"],
                             ["--select-g"]]),
       T=st.sampled_from([[], ["--t-periods", "0"], ["--t-periods", "3"]]))
def test_read_estimates_fuzz(tmp_path, text, mode, T):
    run(tmp_path, text, ["cluster", None, *mode, *T])


TRUTH = {"id": st.sampled_from(["lo0", "lo1", "hi0", "hi1", "x"]),
         "label": st.sampled_from(["1", "2", "4", "5", "0", "-1", "1.5",
                                   "one", "", "99999999999999999999"])}


@FUZZ
@given(text=csv_text(list(TRUTH) + ["group", ""], TRUTH))
def test_read_truth_fuzz(tmp_path, text):
    est = tmp_path / "est.csv"
    rng = np.random.default_rng(0)
    if not est.exists():
        est.write_text("# scale=already_scaled\nid,beta_1,se\n" + "".join(
            f"{ident},{rng.normal(mean, 0.01):.6f},0.1\n"
            for ident, mean in (("lo0", 0.0), ("lo1", 0.0), ("hi0", 10.0),
                                ("hi1", 10.0))))
    run(tmp_path, text,
        ["cluster", str(est), "--groups", "2", "--truth", None])
