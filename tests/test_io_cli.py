import csv
import hashlib
import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from panelcluster.cli import main
from panelcluster.io import (
    EstimateTable,
    read_estimates,
    read_panel_csv,
    write_estimates,
)
from panelcluster.quantile import fit_pooled_quantile
from panelcluster.simulation import gen_logistic, gen_model1, gen_model3
from panelcluster.types import ALREADY_SCALED, ParseError


def random_table(seed=0, n=5, p=2):
    rng = np.random.default_rng(seed)
    betas = rng.normal(size=(n, p))
    sigmas = []
    for _ in range(n):
        A = rng.normal(size=(p, p))
        sigmas.append(A @ A.T + 0.1 * np.eye(p))
    return EstimateTable([f"id{i}" for i in range(n)], betas, sigmas,
                         weights=rng.integers(20, 200, size=n).astype(float))


def write_panel(path, panel, ids=None):
    n, T, p = panel.covariates.shape
    ids = ids or [f"u{i}" for i in range(n)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "t", "y"] + [f"x_{k + 1}" for k in range(p)])
        for i in range(n):
            for t in range(T):
                w.writerow([ids[i], t, panel.responses[i, t]]
                           + list(panel.covariates[i, t]))
    return ids


def test_estimate_table_roundtrip(tmp_path):
    table = random_table()
    path = tmp_path / "est.csv"
    write_estimates(path, table)
    back = read_estimates(path)
    assert back.ids == table.ids
    assert np.array_equal(back.betas, table.betas)
    for a, b in zip(back.sigmas, table.sigmas):
        assert np.array_equal(a, b)
    assert np.array_equal(back.weights, table.weights)
    assert back.scale == table.scale


def test_ids_starting_with_a_hash_are_data(tmp_path, capsys):
    table = EstimateTable(["#a", "b"], [[1.0], [2.0]], [[[1.0]], [[2.0]]],
                          d_T=0.1)
    path = tmp_path / "est.csv"
    write_estimates(path, table)
    back = read_estimates(path)
    assert back.ids == ["#a", "b"] and back.d_T == 0.1
    assert np.array_equal(back.betas, table.betas)
    # estimate -> cluster labels every id, the one starting with # too
    panel, _ = gen_model1(6, 40, "normal", seed=2)
    ids = ["#a", "b", "c", "d", "e", "f"]
    write_panel(tmp_path / "panel.csv", panel, ids)
    est, report = tmp_path / "panel_est.csv", tmp_path / "report.json"
    assert main(["estimate", str(tmp_path / "panel.csv"), "--model",
                 "qr-slopes", "--out", str(est)]) == 0
    assert main(["cluster", str(est), "--groups", "2", "--t-periods", "40",
                 "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["n"] == 6 and sorted(payload["labels"]) == sorted(ids)


def test_roundtrip_preserves_awkward_floats(tmp_path):
    betas = np.array([[0.1 + 0.2], [1 / 3]])
    sigmas = [np.array([[np.pi]]), np.array([[np.e]])]
    table = EstimateTable(["a", "b"], betas, sigmas, d_T=0.123456789101112)
    path = tmp_path / "est.csv"
    write_estimates(path, table)
    back = read_estimates(path)
    assert back.betas[0, 0] == betas[0, 0]
    assert back.sigmas[0][0, 0] == np.pi
    assert back.d_T == table.d_T


def test_se_column_is_squared(tmp_path):
    path = tmp_path / "scalar.csv"
    path.write_text("# scale=already_scaled\nid,beta_1,se\nr1,1.0,0.5\n"
                    "r2,2.0,2.0\n")
    table = read_estimates(path)
    assert table.sigmas[0][0, 0] == 0.25
    assert table.sigmas[1][0, 0] == 4.0
    assert table.scale == ALREADY_SCALED


def test_parse_error_reports_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,beta_1,c_11\nok,1.0,1.0\nbad,oops,1.0\n")
    with pytest.raises(ParseError, match="row 3.*beta_1"):
        read_estimates(path)


@pytest.mark.parametrize("header,row,column", [
    ("id,beta_1,c_11", "bad,nan,1.0", "beta_1"),
    ("id,beta_1,c_11", "bad,1.0,inf", "c_11"),
    ("id,beta_1,beta_2,c_11,c_12,c_22", "bad,0,0,1,-inf,1", "c_12"),
    ("id,beta_1,se", "bad,1.0,nan", "se"),
])
def test_non_finite_cell_names_row_and_column(tmp_path, header, row, column):
    fine = ",".join(["ok"] + ["1"] * (header.count(",")))
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"{header}\n{fine}\n{row}\n")
    with pytest.raises(ParseError) as info:
        read_estimates(path)
    message = str(info.value)
    assert f"row 3 (id=bad), column '{column}': must be finite" in message


@pytest.mark.parametrize("header,row,message", [
    ("id,c_11", "a,1", "no beta_* columns found"),
    ("id,beta_1,beta_2,se", "a,0,0,1",
     "'se' column is only valid for scalar estimates"),
    ("id,beta_1,beta_2,c_11,c_22", "a,0,0,1,1",
     "missing covariance columns: ['c_12']"),
])
def test_estimate_table_header_names_every_column_it_needs(tmp_path, header,
                                                          row, message):
    path = tmp_path / "est.csv"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(ParseError) as info:
        read_estimates(path)
    assert str(info.value) == message


def test_parse_error_on_non_psd_row(tmp_path):
    path = tmp_path / "psd.csv"
    path.write_text("id,beta_1,beta_2,c_11,c_12,c_22\n"
                    "fine,0,0,1,0,1\nbroken,0,0,1,5,1\n")
    with pytest.raises(ParseError, match="id=broken"):
        read_estimates(path)


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,beta_1,c_11\nsame,1,1\nsame,2,1\n")
    with pytest.raises(ParseError, match=r"^row 3 \(id=same\): duplicate id$"):
        read_estimates(path)


def test_cluster_names_the_row_of_a_duplicate_id(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("# scale=already_scaled\nid,beta_1,se\nunit0000,0,1\n"
                    "unit0001,1,1\nunit0000,2,1\n")
    code = main(["cluster", str(path), "--groups", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    # the second unit0000 is on line 5, after the metadata line and header
    assert capsys.readouterr().err == (
        "error: row 5 (id=unit0000): duplicate id\n")


def test_read_panel_roundtrip(tmp_path):
    panel, _ = gen_model1(4, 6, "normal", seed=0)
    path = tmp_path / "panel.csv"
    ids = write_panel(path, panel)
    back_ids, back = read_panel_csv(path)
    assert back_ids == ids
    assert np.allclose(back.covariates, panel.covariates)
    assert np.allclose(back.responses, panel.responses)
    assert [f.name for f in fields(back)] == ["covariates", "responses"]


@pytest.mark.parametrize("body", ["", "\n\n\n"],
                         ids=["header-only", "blank-rows"])
def test_estimate_table_without_data_rows_is_named(tmp_path, capsys, body):
    path = tmp_path / "empty.csv"
    path.write_text("# scale=per_observation\nid,beta_1,se\n" + body)
    with pytest.raises(ParseError, match="^estimate table has no data rows$"):
        read_estimates(path)
    assert main(["cluster", str(path), "--groups", "1",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == (
        "error: estimate table has no data rows\n")


def test_read_panel_rejects_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,t,y,x_1\n")
    with pytest.raises(ParseError, match="no data rows"):
        read_panel_csv(path)


def test_read_panel_rejects_unbalanced(tmp_path):
    path = tmp_path / "unbalanced.csv"
    path.write_text("id,t,y,x_1\na,0,1,0\na,1,0,0\nb,0,1,0\n")
    with pytest.raises(ParseError, match="unbalanced"):
        read_panel_csv(path)


def test_unbalanced_panel_names_the_first_uneven_id(tmp_path):
    path = tmp_path / "unbalanced.csv"
    path.write_text("id,t,y,x_1\na,0,1,0\nb,0,1,0\na,1,0,0\nc,1,0,0\n"
                    "b,1,0,0\n")
    with pytest.raises(ParseError, match=re.escape(
            "panel is unbalanced: per-id observation counts differ "
            "(id=c has 1 rows, id=a has 2)")):
        read_panel_csv(path)


def test_panel_periods_in_any_order_read_the_same(tmp_path):
    panel, _ = gen_model1(3, 5, "normal", seed=1)
    ordered = tmp_path / "ordered.csv"
    ids = write_panel(ordered, panel)
    lines = ordered.read_text().splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.csv"
    # periods reversed, individuals interleaved
    shuffled.write_text(lines[0] + "".join(
        lines[1 + i * 5 + t] for t in reversed(range(5)) for i in range(3)))
    want_ids, want = read_panel_csv(ordered)
    got_ids, got = read_panel_csv(shuffled)
    assert got_ids == want_ids == ids
    assert got.covariates.tobytes() == want.covariates.tobytes()
    assert got.responses.tobytes() == want.responses.tobytes()
    assert got.covariates.flags.c_contiguous
    assert got.responses.flags.c_contiguous


@pytest.mark.parametrize("row,message", [
    ("b,1,nan,0.5", "row 4 (id=b), column 'y': must be finite"),
    ("b,1,inf,0.5", "row 4 (id=b), column 'y': must be finite"),
    ("b,1,1.0,-inf", "row 4 (id=b), column 'x_1': must be finite"),
    ("b,1,1.0,oops", "row 4 (id=b), column 'x_1': not a number"),
    ("b,0,1.0,0.5", "row 4 (id=b), column 't': duplicate period 0"),
    # a row's (id, t) is checked before its other cells
    ("b,0,oops,0.5", "row 4 (id=b), column 't': duplicate period 0"),
    ("b,1,1.0", "row 4: expected 4 fields, got 3"),
])
def test_estimate_names_bad_panel_cell(tmp_path, capsys, row, message):
    path = tmp_path / "panel.csv"
    path.write_text(f"id,t,y,x_1\na,0,1.0,0.5\nb,0,2.0,0.1\n{row}\n")
    code = main(["estimate", str(path), "--model", "qr-slopes",
                 "--out", str(tmp_path / "est.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,text,column", [
    ("cluster", "id,beta_1,c_11,c_11\na,0,1,1\nb,1,1,1\n", "c_11"),
    ("cluster", "id,id,beta_1,c_11\na,a,0,1\nb,b,1,1\n", "id"),
    ("estimate", "id,t,y,x_1,x_1\na,0,1,0,0\na,1,2,1,1\n", "x_1"),
    ("estimate", "id,t,t,y\na,0,0,1\na,1,1,2\n", "t"),
    ("truth", "id,label,label\nlo0,1,1\n", "label"),
])
def test_repeated_header_column_is_rejected(tmp_path, capsys, command, text,
                                            column):
    path = tmp_path / "input.csv"
    path.write_text(text)
    out = str(tmp_path / "out")
    argv = {"cluster": ["cluster", str(path), "--groups", "1",
                        "--t-periods", "50", "--out", out],
            "estimate": ["estimate", str(path), "--model", "qr-pooled",
                         "--out", out],
            "truth": ["cluster", str(two_cluster_scalar_table(tmp_path)),
                      "--groups", "2", "--truth", str(path), "--out", out],
            }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"header names column {column!r} twice" in err


def test_permuted_beta_columns_read_by_index(tmp_path):
    ordered = tmp_path / "ordered.csv"
    ordered.write_text("id,beta_1,beta_2,c_11,c_12,c_22\na,1,5,1,0,100\n")
    permuted = tmp_path / "permuted.csv"
    permuted.write_text("id,c_22,beta_2,c_12,beta_1,c_11\na,100,5,0,1,1\n")
    expected, table = read_estimates(ordered), read_estimates(permuted)
    assert np.array_equal(table.betas, [[1.0, 5.0]])
    assert np.array_equal(table.betas, expected.betas)
    assert np.array_equal(table.sigmas, expected.sigmas)


@pytest.mark.parametrize("header,bad", [
    ("id,beta_1,beta_3,c_11,c_12,c_22", "beta_3"),
    ("id,beta_2,beta_3,c_11,c_12,c_22", "beta_3"),
    ("id,beta_1,beta_x,c_11,c_12,c_22", "beta_x"),
    ("id,beta_01,beta_2,c_11,c_12,c_22", "beta_01"),
])
def test_beta_columns_must_be_numbered_without_gaps(tmp_path, capsys, header,
                                                    bad):
    path = tmp_path / "est.csv"
    path.write_text(f"{header}\na,1,5,1,0,100\nb,2,6,1,0,100\n")
    code = main(["cluster", str(path), "--groups", "1", "--t-periods", "50",
                 "--out", str(tmp_path / "report.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "beta columns must be beta_1..beta_2" in err and repr(bad) in err


@pytest.mark.parametrize("column", ["x_a", "x_", "x_1b", "x_-1"])
def test_panel_rejects_x_column_without_integer(tmp_path, capsys, column):
    path = tmp_path / "panel.csv"
    path.write_text(f"id,t,y,x_1,{column}\na,0,1,0,0\na,1,2,1,1\n")
    code = main(["estimate", str(path), "--model", "qr-pooled",
                 "--out", str(tmp_path / "est.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"panel column {column!r} is not x_<integer>" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("columns,first,second", [
    ("x_1,x_01", "x_1", "x_01"),
    ("x_02,x_1,x_2", "x_02", "x_2"),
])
def test_panel_rejects_two_x_columns_with_one_number(tmp_path, capsys,
                                                     columns, first, second):
    path = tmp_path / "panel.csv"
    xs = ",0" * len(columns.split(","))
    path.write_text(f"id,t,y,{columns}\n" + "".join(
        f"{i},{t},{t}{xs}\n" for i in "ab" for t in range(3)))
    out = tmp_path / "est.csv"
    assert main(["estimate", str(path), "--model", "qr-slopes",
                 "--out", str(out)]) == 1
    number = int(first[2:])
    assert capsys.readouterr().err == (
        f"error: panel columns {first!r} and {second!r} both name "
        f"covariate {number}\n")
    assert not out.exists()


@pytest.mark.parametrize("model", ["logistic", "qr-slopes"])
def test_estimate_slope_model_needs_x_columns(tmp_path, capsys, model):
    path = tmp_path / "panel.csv"
    rows = ["id,t,y"] + [f"u{i},{t},{(i + t) % 2}" for i in range(3)
                         for t in range(8)]
    path.write_text("\n".join(rows) + "\n")
    code = main(["estimate", str(path), "--model", model,
                 "--out", str(tmp_path / "est.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"model {model!r}" in err and "x_k columns" in err
    assert "reshape" not in err


def test_estimate_pooled_fits_intercepts_without_x_columns(tmp_path, capsys):
    path = tmp_path / "panel.csv"
    rows = ["id,t,y"] + [f"u{i},{t},{i + 0.1 * t}" for i in range(3)
                         for t in range(30)]
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "est.csv"
    assert main(["estimate", str(path), "--model", "qr-pooled",
                 "--out", str(out)]) == 0
    assert read_estimates(out).ids == ["u0", "u1", "u2"]


def test_estimate_table_names_non_finite_covariance_row():
    sigmas = [np.eye(1), np.full((1, 1), np.nan)]
    with pytest.raises(ParseError, match=r"row 1 \(id=b\): .*non-finite"):
        EstimateTable(["a", "b"], np.zeros((2, 1)), sigmas)


@pytest.mark.parametrize("blank", [False, True], ids=["dense", "blank-line"])
@pytest.mark.parametrize("beta_2,c_22,message", [
    ("1", "-1e-6", ": matrix has negative eigenvalue -1.000e-06"),
    ("x", "1", ", column 'beta_2': not a number")],
    ids=["covariance", "cell"])
def test_a_csv_line_has_one_row_number(tmp_path, capsys, blank, beta_2,
                                       c_22, message):
    # a covariance error names the line of the file a cell error names:
    # the metadata line is line 1, and a blank line counts
    path = tmp_path / "est.csv"
    path.write_text("# scale=already_scaled\nid,beta_1,beta_2,c_11,c_12,"
                    "c_22\na,0,0,1,0,1\n" + "\n" * blank
                    + f"b,1,{beta_2},1,0,{c_22}\n")
    assert main(["cluster", str(path), "--groups", "2",
                 "--out", str(tmp_path / "r.json")]) == 1
    row = 5 if blank else 4
    assert capsys.readouterr().err == f"error: row {row} (id=b){message}\n"


@pytest.mark.parametrize("meta", [0, 1, 3])
@pytest.mark.parametrize("row,message", [
    ("a,2,1", " (id=a): duplicate id"),
    ("c,x,1", " (id=c), column 'beta_1': not a number"),
    ("c,2", ": expected 3 fields, got 2"),
    ("c,2,-1", " (id=c): matrix has negative eigenvalue -1.000e+00"),
])
def test_an_estimate_table_error_names_its_line_in_the_file(tmp_path, meta,
                                                            row, message):
    # the metadata lines come first, then the header, then the data rows;
    # b's quoted id spans two lines, so the bad row starts on line meta + 5
    metadata = ["# format_version=1", "# scale=already_scaled",
                "# d_T=0.1"][:meta]
    path = tmp_path / "est.csv"
    path.write_text("\n".join([*metadata, "id,beta_1,c_11", "a,0,1",
                               '"b', 'b",1,1', row]) + "\n")
    with pytest.raises(ParseError) as info:
        read_estimates(path)
    assert str(info.value) == f"row {meta + 5}{message}"


def test_an_overflowing_weighted_variance_names_its_row(tmp_path, capsys,
                                                        monkeypatch):
    from panelcluster import cli

    def no_pairs(*args):
        raise AssertionError("pairs formed")

    monkeypatch.setattr(cli, "build_dissimilarity", no_pairs)
    path = tmp_path / "est.csv"
    path.write_text("# scale=per_observation\nid,beta_1,c_11,weight\n"
                    "a,0.0,1e300,1\nb,1.0,1e300,1e-20\nc,2.0,1,1\n")
    assert main(["cluster", str(path), "--groups", "2",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == ("error: row 4 (id=b): covariance / "
                                       "weight overflows\n")


@pytest.mark.parametrize("betas,sigmas", [
    (np.zeros((2, 2)), np.stack([np.eye(3)] * 2)),
    (np.zeros((3, 1)), np.stack([np.eye(1)] * 2)),
])
def test_estimate_table_rejects_mismatched_shapes(betas, sigmas):
    p = betas.shape[1]
    with pytest.raises(ParseError, match=re.escape(
            f"ids, betas and covariances must have shapes (n,), (n, {p}) "
            f"and (n, {p}, {p})")):
        EstimateTable(["a", "b"], betas, sigmas)


def two_cluster_scalar_table(tmp_path):
    path = tmp_path / "two.csv"
    lines = ["# scale=already_scaled", "id,beta_1,se"]
    rng = np.random.default_rng(0)
    for i in range(5):
        lines.append(f"lo{i},{rng.normal(0.0, 0.01):.6f},0.1")
    for i in range(5):
        lines.append(f"hi{i},{rng.normal(10.0, 0.01):.6f},0.1")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_cluster_select_g_on_two_obvious_clusters(tmp_path, capsys):
    est = two_cluster_scalar_table(tmp_path)
    out = tmp_path / "report.json"
    code = main(["cluster", str(est), "--select-g", "--t-periods", "100",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["G"] == 2
    labels = report["labels"]
    lo = {labels[f"lo{i}"] for i in range(5)}
    hi = {labels[f"hi{i}"] for i in range(5)}
    assert len(lo) == 1 and len(hi) == 1 and lo != hi


def test_cluster_single_row_selection_is_rejected(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("# scale=already_scaled\nid,beta_1,se\nonly,1.0,0.1\n")
    out = tmp_path / "r.json"
    code = main(["cluster", str(path), "--select-g", "--out", str(out)])
    assert code == 1
    assert "n >= 3" in capsys.readouterr().err


def test_cluster_select_g_requires_t_periods(tmp_path, capsys):
    est = two_cluster_scalar_table(tmp_path)
    code = main(["cluster", str(est), "--select-g",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "--select-g requires --t-periods" in capsys.readouterr().err


def test_cluster_reports_are_byte_identical(tmp_path, capsys):
    est = two_cluster_scalar_table(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["cluster", str(est), "--groups", "2", "--out",
                 str(out1)]) == 0
    assert main(["cluster", str(est), "--groups", "2", "--out",
                 str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cluster_requires_t_for_per_observation(tmp_path, capsys):
    path = tmp_path / "po.csv"
    path.write_text("id,beta_1,c_11\na,0,1\nb,1,1\nc,2,1\n")
    code = main(["cluster", str(path), "--groups", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "--t-periods" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["0", "-5", "nan"])
def test_cluster_rejects_bad_weight(tmp_path, capsys, weight):
    path = tmp_path / "weighted.csv"
    path.write_text("id,beta_1,se,weight\na,0,1,50\n"
                    f"b,1,1,{weight}\nc,2,1,50\n")
    code = main(["cluster", str(path), "--groups", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "row 3 (id=b), column 'weight'" in err
    assert "finite and > 0" in err


@pytest.mark.parametrize("meta,row,flags,message", [
    pytest.param("", "b,1,-0.5", [],
                 "row 3 (id=b), column 'se': must be finite and >= 0",
                 id="negative-se"),
    pytest.param("", "b,1,1e200", [],
                 "row 3 (id=b), column 'se': its square overflows",
                 id="se-square-overflows"),
    pytest.param("", "b,1,1", ["--gmax", "0"], "--gmax must be >= 1, got 0",
                 id="gmax-0"),
    pytest.param("", "b,1,1", ["--seed", "-1"], "--seed must be >= 0, got -1",
                 id="seed-negative"),
    pytest.param("", "b,1,1", ["--seed", str(2 ** 128)],
                 f"--seed must be < 2**128, got {2 ** 128}", id="seed-2**128"),
    pytest.param("# d_T=abc\n", "b,1,1", [],
                 "metadata key 'd_T' must be a finite number, got 'abc'",
                 id="d_T-not-a-number"),
    pytest.param("# format_version=99\n", "b,1,1", [],
                 "metadata key 'format_version' must be 1, got '99'",
                 id="format-version-99"),
    # a key the reader reads may be given once; a bare `#` and a comment
    # may repeat
    *(pytest.param(f"# {key}={first}\n#\n# a comment\n#\n# a comment\n"
                   f"# {key}={second}\n", "b,1,1", [],
                   f"metadata key {key!r} given twice, on lines 1 and 6",
                   id=f"{key}-twice")
      for key, first, second in [("format_version", "1", "1"),
                                 ("scale", "already_scaled",
                                  "per_observation"),
                                 ("d_T", "0.1", "0.2")]),
    pytest.param("", "b,1,1", ["--t-periods", "0"], "--t-periods: ", id="T-0"),
    pytest.param("", "b,1,1", ["--t-periods", "-5"], "got T=-5", id="T-neg"),
    # T is not read for these tables, but a given --t-periods is checked
    pytest.param("", "b,1,1,50", ["--t-periods", "0"],
                 "--t-periods must be >= 1, got 0", id="T-0-weighted"),
    pytest.param("", "b,1,1,50", ["--t-periods", "-5"],
                 "--t-periods must be >= 1, got -5", id="T-neg-weighted"),
    pytest.param("# scale=already_scaled\n", "b,1,1", ["--t-periods", "0"],
                 "--t-periods must be >= 1, got 0", id="T-0-already-scaled"),
    pytest.param("# scale=already_scaled\n", "b,1,1", ["--t-periods", "-5"],
                 "--t-periods must be >= 1, got -5",
                 id="T-neg-already-scaled"),
    # selection's shrink factor needs T >= 2, checked before V is built
    pytest.param("", "b,1,1", ["--select-g", "--t-periods", "1"],
                 "--select-g requires --t-periods >= 2, got 1",
                 id="select-g-T-1"),
    # the last --groups given is the one read
    pytest.param("", "b,1,1", ["--groups", "4"], "--groups must lie in 1..3",
                 id="groups-above-n"),
])
def test_cluster_rejects_bad_values_at_ingestion(tmp_path, capsys, meta, row,
                                                 flags, message):
    # a row with four fields carries a weight: the table gets that column
    weight = ",50" if row.count(",") == 3 else ""
    header = "id,beta_1,se" + (",weight" if weight else "")
    path = tmp_path / "est.csv"
    path.write_text(f"{meta}{header}\na,0,1{weight}\n{row}\nc,2,1{weight}\n")
    mode = [] if "--select-g" in flags else ["--groups", "2"]
    code = main(["cluster", str(path), *mode, "--t-periods", "50",
                 *flags, "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_cluster_accepts_the_largest_seed(tmp_path, capsys):
    path = tmp_path / "est.csv"
    path.write_text("# scale=already_scaled\nid,beta_1,se\na,0,1\nb,9,1\n")
    out = tmp_path / "r.json"
    assert main(["cluster", str(path), "--groups", "2", "--seed",
                 str(2 ** 128 - 1), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 2 ** 128 - 1


def test_se_and_c_11_together_are_rejected(tmp_path, capsys):
    path = tmp_path / "est.csv"
    path.write_text("# scale=already_scaled\nid,beta_1,se,c_11\na,0,1,5\n"
                    "b,9,1,5\n")
    code = main(["cluster", str(path), "--groups", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert ("error: columns 'se' and 'c_11' both give the variance; keep one"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv,message", [
    (["cluster", "est.csv", "--groups", "abc", "--out", "r.json"],
     "argument --groups: invalid int value: 'abc'"),
    (["estimate", "panel.csv", "--model", "qr-slopes", "--tau", "x",
      "--out", "e.csv"], "argument --tau: invalid float value: 'x'"),
    (["cluster", "est.csv", "--groups", "2"],
     "the following arguments are required: --out"),
    (["fit", "panel.csv"], "argument command: invalid choice: 'fit'"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: panelcluster") and message in err


@pytest.mark.parametrize("argv", [["--help"], ["cluster", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: panelcluster")


@pytest.mark.parametrize("command", [
    ["estimate", "--model", "qr-slopes"],
    ["cluster", "--groups", "2", "--t-periods", "50"],
    ["simulate"],
])
def test_missing_input_file_is_an_error_not_a_traceback(tmp_path, capsys,
                                                        command):
    missing = tmp_path / "missing.csv"
    code = main([command[0], str(missing), *command[1:],
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_cluster_scores_against_truth(tmp_path, capsys):
    est = two_cluster_scalar_table(tmp_path)
    truth = tmp_path / "truth.csv"
    rows = ["id,label"] + [f"lo{i},1" for i in range(5)] \
        + [f"hi{i},2" for i in range(5)]
    truth.write_text("\n".join(rows) + "\n")
    out = tmp_path / "scored.json"
    assert main(["cluster", str(est), "--groups", "2", "--truth", str(truth),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["scores"]["perfect"] is True
    assert report["scores"]["average"] == 1.0


@pytest.mark.parametrize("text,message", [
    ("", "empty truth file"),
    ("id,group\nlo0,1\n", "truth file needs columns id,label"),
    ("id,label\nlo0,1\nlo1,one\n",
     "row 3 (id=lo1), column 'label': not an integer"),
    ("id,label\nlo0,1\nlo1,1.5\n",
     "row 3 (id=lo1), column 'label': not an integer"),
    ("id,label\nlo0,1\nlo0,2\n", "row 3 (id=lo0): duplicate id"),
    ("id,label\nlo0,1\nlo1,0\n",
     "row 3 (id=lo1), column 'label': not an integer in 1..10"),
    ("id,label\nlo0,11\n",
     "row 2 (id=lo0), column 'label': not an integer in 1..10"),
    ("id,label\nlo0,99999999999999999999\n",
     "row 2 (id=lo0), column 'label': not an integer in 1..10"),
    ("id,label\nlo0\n", "row 2: expected 2 fields"),
    ("id,label\nlo0,1,2\n", "row 2: expected 2 fields, got 3"),
])
def test_cluster_rejects_bad_truth_file(tmp_path, capsys, text, message):
    est = two_cluster_scalar_table(tmp_path)
    truth = tmp_path / "truth.csv"
    truth.write_text(text)
    code = main(["cluster", str(est), "--groups", "2", "--truth", str(truth),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert message in capsys.readouterr().err


def test_estimate_logistic_lists_dropped_individuals(tmp_path, capsys):
    panel, _ = gen_logistic(5, 40, seed=3)
    responses = panel.responses.copy()
    responses[2] = 1.0  # constant outcome: cannot be fit
    panel = type(panel)(panel.covariates, responses)
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(path), "--model", "logistic",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    # other individuals may be dropped for separation at this small T; the
    # constant-outcome one must be dropped with the degeneracy reason
    assert "dropped u2: DegenerateOutcome" in printed
    table = read_estimates(out)
    assert "u2" not in table.ids


def test_estimate_logistic_with_no_fittable_individual_exits_1(tmp_path,
                                                               capsys):
    panel, _ = gen_logistic(5, 40, seed=3)
    panel.responses[:] = 1.0  # every outcome constant: no fit is possible
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(path), "--model", "logistic",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: no individual could be estimated\n"
    assert not out.exists()


def test_estimate_logistic_requires_binary_responses(tmp_path, capsys):
    from panelcluster.simulation import estimate_panel

    panel, _ = gen_logistic(5, 40, seed=3)
    panel.responses[1, 0] = 0.5
    with pytest.raises(ValueError,
                       match="logistic model requires a binary panel"):
        estimate_panel(panel, "logistic")
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    assert main(["estimate", str(path), "--model", "logistic",
                 "--out", str(tmp_path / "est.csv")]) == 1
    assert "error: logistic model requires a binary panel" in \
        capsys.readouterr().err


def test_binary_panel_error_names_the_first_individual(tmp_path, capsys):
    from panelcluster.simulation import estimate_panel

    panel, _ = gen_logistic(5, 40, seed=3)
    panel.responses[3, 7] = 2.0
    panel.responses[4, 0] = -1.0
    with pytest.raises(ValueError, match=re.escape(
            "logistic model requires a binary panel: individual 3 has an "
            "outcome other than 0 or 1")):
        estimate_panel(panel, "logistic")
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    assert main(["estimate", str(path), "--model", "logistic",
                 "--out", str(tmp_path / "est.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: logistic model requires a binary panel: individual u3 has "
        "an outcome other than 0 or 1\n")


@pytest.mark.parametrize("gen,model", [(gen_model1, "qr-slopes"),
                                       (gen_model3, "qr-pooled")])
def test_estimate_drops_an_individual_whose_covariance_overflows(
        tmp_path, capsys, gen, model):
    panel, _ = gen(9, 40, "normal", 1)
    panel.responses[4] *= 1e200
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(path), "--model", model,
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "dropped u4: NonFiniteCovariance" in captured.out
    assert not captured.err
    assert read_estimates(out).ids == [f"u{i}" for i in range(9) if i != 4]


def test_pooled_fit_that_overflows_fails_without_numpy_warnings(tmp_path,
                                                                capsys):
    panel, _ = gen_model3(9, 40, "normal", 1)
    panel.covariates[4] *= 1e160
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    out = tmp_path / "est.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["estimate", str(path), "--model", "qr-pooled",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: pooled fit at tau=0.5 fails its subgradient "
        "certificate\n")
    assert not out.exists()


def test_estimate_logistic_drops_unconverged_individual(tmp_path, capsys,
                                                       monkeypatch):
    from panelcluster import logistic

    panel, _ = gen_logistic(8, 150, seed=5)
    steps = [logistic.fit_logistic(X[None], y[None]).iterations
             for X, y in zip(panel.designs, panel.responses)]
    slowest = int(np.argmax(steps))
    assert sorted(steps)[-2] < steps[slowest]
    # one step short of the slowest fit: only that individual is unconverged
    monkeypatch.setattr(logistic, "MAX_ITER", steps[slowest] - 1)
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(path), "--model", "logistic",
                 "--out", str(out)]) == 0
    assert f"dropped u{slowest}: NonConvergence" in capsys.readouterr().out
    table = read_estimates(out)
    assert table.ids == [f"u{i}" for i in range(8) if i != slowest]


def test_estimate_pooled_matches_library_fit(tmp_path, capsys):
    panel, _ = gen_model3(6, 30, "normal", seed=4)
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(path), "--model", "qr-pooled",
                 "--out", str(out)]) == 0
    table = read_estimates(out)
    direct = fit_pooled_quantile(panel.responses, panel.covariates, [0.5])
    assert np.array_equal(table.betas[:, 0], direct.alphas[0])
    assert table.d_T is not None


def test_estimate_pooled_rejects_covariate_fixed_within_individuals(
        tmp_path, capsys):
    panel, _ = gen_model3(6, 30, "normal", seed=4)
    # x constant within each individual: beta is not identified
    x = np.repeat(panel.covariates[:, :1], 30, axis=1)
    path = tmp_path / "panel.csv"
    write_panel(path, type(panel)(x, panel.responses))
    assert main(["estimate", str(path), "--model", "qr-pooled",
                 "--out", str(tmp_path / "est.csv")]) == 2
    assert "collinear with the individual intercepts" in \
        capsys.readouterr().err


def test_estimate_pooled_failed_certificate_exits_2(tmp_path, capsys,
                                                   monkeypatch):
    from panelcluster import quantile

    panel, _ = gen_model3(6, 30, "normal", seed=4)
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    out = tmp_path / "est.csv"
    purify = quantile._purify

    def wrong_slopes(A, y, gamma):
        vertex = purify(A, y, gamma)
        vertex[:, A.n:] += 1.0
        return vertex

    def singular(A, y, tau):
        raise np.linalg.LinAlgError("Singular matrix")

    for name, broken, message in (
            ("_purify", wrong_slopes, "fails its subgradient certificate"),
            ("_interior_point", singular, "Singular matrix")):
        with monkeypatch.context() as patch:
            patch.setattr(quantile, name, broken)
            assert main(["estimate", str(path), "--model", "qr-pooled",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and message in err
        assert not out.exists()


def test_estimate_then_cluster_matches_in_process_pipeline(tmp_path, capsys):
    from panelcluster.quantile import fit_quantile_bundle, hk_covariance
    from panelcluster.spectral import build_dissimilarity, spectral_cluster

    panel, truth = gen_model1(12, 80, "normal", seed=9)
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    est_path = tmp_path / "est.csv"
    report_path = tmp_path / "report.json"
    assert main(["estimate", str(path), "--model", "qr-slopes",
                 "--out", str(est_path)]) == 0
    assert main(["cluster", str(est_path), "--groups", "3", "--t-periods",
                 str(panel.T), "--seed", "7", "--out",
                 str(report_path)]) == 0
    report = json.loads(report_path.read_text())

    betas, uncs = [], []
    for i in range(panel.n):
        X = panel.designs[i:i + 1]
        bundle = fit_quantile_bundle(X, panel.responses[i:i + 1], 0.5)
        betas.append(bundle.center.slopes[0])
        uncs.append(hk_covariance(bundle, X))
    table = EstimateTable(list(range(panel.n)), betas,
                          [u.sigma[0, 1:, 1:] for u in uncs])
    V = build_dissimilarity(table.betas, table.variances(panel.T))
    labels = spectral_cluster(V, 3, seed=7)
    expected = {f"u{i}": int(lab)
                for i, lab in enumerate(labels)}
    assert report["labels"] == expected


def test_simulate_minimal_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "model1", "n": 6, "T": 30,
                               "reps": 2, "restarts": 5}))
    out = tmp_path / "sim.json"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["per_rep"]) == 2
    agg = payload["aggregates"]["spectral"]
    assert set(agg) == {"perfect_match", "average_match"}


def test_simulate_zero_restarts_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "model1", "n": 9, "T": 40,
                               "reps": 1, "restarts": 0}))
    assert main(["simulate", str(cfg),
                 "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert "restarts must be >= 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["5", "null"])
def test_simulate_config_that_is_not_an_object_is_bad_input(tmp_path, capsys,
                                                            text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["simulate", str(cfg),
                 "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert "config must be a JSON object" in err
    assert "Traceback" not in err


def test_simulate_config_that_is_not_json_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{model: model1}")
    assert main(["simulate", str(cfg),
                 "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err == (
        "error: config is not valid JSON: Expecting property name enclosed "
        "in double quotes: line 1 column 2 (char 1)\n")


def test_simulate_prints_the_group_count_table(tmp_path, capsys):
    code, out = run_simulate(tmp_path, {"model": "model1", "n": 9, "T": 40,
                                        "reps": 2, "restarts": 5,
                                        "select_groups": True,
                                        "cluster_at_true_g": False})
    assert code == 0
    table = json.loads(out.read_text())["aggregates"]["group_count_table"]
    assert (f"n=9 T=40 group counts: {table}\n"
            in capsys.readouterr().out)


def test_simulate_missing_field_names_it(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "model1", "T": 30, "reps": 1}))
    code = main(["simulate", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "'n'" in capsys.readouterr().err


def test_simulate_unknown_field_rejected(tmp_path, capsys):
    cfg = tmp_path / "extra.json"
    cfg.write_text(json.dumps({"model": "model1", "n": 6, "T": 30,
                               "reps": 1, "bogus": 1}))
    assert main(["simulate", str(cfg),
                 "--out", str(tmp_path / "o.json")]) == 1
    assert "bogus" in capsys.readouterr().err


def refuse_fits(monkeypatch):
    from panelcluster import simulation

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    for name in ("fit_quantile_bundle", "fit_pooled_quantile"):
        monkeypatch.setattr(simulation, name, no_fit)


@pytest.mark.parametrize("model", ["qr-slopes", "qr-pooled"])
@pytest.mark.parametrize("tau", ["0.005", "0", "0.995", "1.5", "nan"])
def test_estimate_rejects_tau_without_a_bandwidth(tmp_path, capsys,
                                                  monkeypatch, model, tau):
    panel, _ = gen_model3(6, 30, "normal", seed=4)
    path = tmp_path / "panel.csv"
    write_panel(path, panel)
    out = tmp_path / "est.csv"
    refuse_fits(monkeypatch)
    assert main(["estimate", str(path), "--model", model, "--tau", tau,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"tau={float(tau):g} must lie in (0.01, 0.99)" in err
    assert not out.exists()


@pytest.mark.parametrize("field,value,message", [
    ("tau", 0.005, "tau=0.005 must lie in (0.01, 0.99)"),
    ("T", 5, "bandwidth rule requires T >= 10")])
def test_simulate_checks_the_bandwidth_before_generating(
        tmp_path, capsys, monkeypatch, field, value, message):
    from panelcluster import simulation

    def no_panel(*args, **kwargs):
        raise AssertionError("a panel was generated")

    monkeypatch.setattr(simulation, "gen_model1", no_panel)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "model1", "n": 6, "T": 30,
                               "reps": 1, field: value}))
    out = tmp_path / "o.json"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 1
    assert f"invalid config: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["model1", "model3"])
@pytest.mark.parametrize("tau", [0.005, 0.995])
def test_simulate_rejects_tau_without_a_bandwidth(tmp_path, capsys,
                                                  monkeypatch, model, tau):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model, "n": 6, "T": 30, "reps": 1,
                               "tau": tau}))
    out = tmp_path / "o.json"
    refuse_fits(monkeypatch)
    assert main(["simulate", str(cfg), "--out", str(out)]) == 1
    assert f"tau={tau:g} must lie in (0.01, 0.99)" in capsys.readouterr().err
    assert not out.exists()


def run_simulate(tmp_path, config, name="cfg"):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{name}.out.json"
    code = main(["simulate", str(cfg), "--out", str(out)])
    return code, out


# sha256 prefixes of the reference simulate payloads: n = 9, T = 40 runs and
# n = 60, T = [40, 80] grids, 3 reps at seed 7 with selection on. They hold
# labels, match scores and G_hat, not raw floats, so they do not depend on
# the last bits of BLAS.
REFERENCE_PAYLOADS = [
    ("model1", 9, "3c831945"), ("model2", 9, "ef033381"),
    ("model3", 9, "1e9dcb0a"), ("model4", 9, "14ccb79d"),
    ("logistic", 9, "37aa3cf5"), ("model1", 60, "0c341cd4"),
    ("model3", 60, "6a5af585"), ("logistic", 60, "a14a43a3")]


@pytest.mark.parametrize("model, n, prefix", REFERENCE_PAYLOADS,
                         ids=[f"{m}-n{n}" for m, n, _ in REFERENCE_PAYLOADS])
def test_reference_simulate_payloads_hash_as_recorded(tmp_path, capsys,
                                                      model, n, prefix):
    code, out = run_simulate(tmp_path, {
        "model": model, "n": n, "T": 40 if n == 9 else [40, 80], "reps": 3,
        "seed": 7, "select_groups": True,
        "methods": ["spectral", "kmeans_raw"]})
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:8] == prefix


def write_cluster_tables(tmp_path, n, s, se=False, T=120, seed=11):
    """A table shaped as the benchmark's CLI table (four group centres,
    two close pairs far apart; per-observation covariances, betas drawn
    with Var sigma / T), in `se` form for s = 1, and its truth file."""
    rng = np.random.default_rng(seed)
    centres = np.array([0.1, 0.2, 3.0, 3.1])
    groups = rng.integers(0, 4, n)
    columns = ["se"] if se else [f"c_{i + 1}{j + 1}" for i in range(s)
                                 for j in range(i, s)]
    rows = ["# format_version=1\n# scale=per_observation\n"
            + ",".join(["id", *(f"beta_{k + 1}" for k in range(s)),
                        *columns]) + "\n"]
    for i, g in enumerate(groups):
        A = rng.standard_normal((s, s))
        sigma = 0.1 * (0.5 * np.eye(s) + 0.25 * A @ A.T)
        beta = centres[g] + np.linalg.cholesky(sigma / T) @ \
            rng.standard_normal(s)
        cov = ([np.sqrt(sigma[0, 0])] if se else
               [sigma[r, c] for r in range(s) for c in range(r, s)])
        rows.append(",".join([f"u{i:04d}", *(format(v, ".17g")
                                             for v in (*beta, *cov))]) + "\n")
    table, truth = tmp_path / "table.csv", tmp_path / "truth.csv"
    table.write_text("".join(rows))
    truth.write_text("id,label\n" + "".join(
        f"u{i:04d},{g + 1}\n" for i, g in enumerate(groups)))
    return table, truth


# sha256 prefixes of the `cluster --select-g` reports on the tables of
# write_cluster_tables, without the input path. They hold the selection's
# eigenvalues and ratios, so they pin V, the whole dissimilarity, through
# the CLI. The n = 300 report is solved by block Lanczos: its lambda_tilde
# and ratios moved by at most 1.5e-15 and 4.9e-15 from ARPACK's (prefix
# 68005d4e), with the labels, G, G_hat and scores unchanged. All three
# moved again when the spectrum was solved on the normalized affinity N
# itself, not on a Laplacian L flipped back to I - L (prefixes df27c6aa,
# 2d451fb3, bf6afbc4): N's diagonal is 1 / d_i, not 1 - (d_i - 1) / d_i,
# so lambda_tilde moved by at most 1.4e-15 and the ratios by at most
# 2.3e-14, with the labels, G, G_hat and scores unchanged.
REFERENCE_CLUSTER_REPORTS = [(300, 2, False, "57902067"),
                             (120, 1, True, "f5dc6538"),
                             (120, 3, False, "dd63282a")]


@pytest.mark.parametrize("n, s, se, prefix", REFERENCE_CLUSTER_REPORTS,
                         ids=[f"n{n}-s{s}" + "-se" * se
                              for n, s, se, _ in REFERENCE_CLUSTER_REPORTS])
def test_reference_cluster_reports_hash_as_recorded(tmp_path, capsys, n, s,
                                                    se, prefix):
    table, truth = write_cluster_tables(tmp_path, n, s, se)
    out = tmp_path / "report.json"
    assert main(["cluster", str(table), "--select-g", "--t-periods", "120",
                 "--truth", str(truth), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"].pop("estimates_csv") == str(table)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest()[:8] == prefix


# sha256 prefixes of the `estimate` tables of seeded panels, the same with
# one BLAS thread: they pin every written coefficient and covariance to the
# last bit.
REFERENCE_ESTIMATES = [
    ("logistic", lambda: gen_logistic(90, 100, 5), "0.5", "ec8acbf2"),
    ("qr-slopes", lambda: gen_model1(90, 60, "t3", 5), "0.5", "ce6756a5"),
    ("qr-slopes", lambda: gen_model1(90, 60, "t3", 5), "0.3", "8073cc68"),
    ("qr-pooled", lambda: gen_model3(60, 60, "normal", 5), "0.5", "26a87f94")]


@pytest.mark.parametrize("model, gen, tau, prefix", REFERENCE_ESTIMATES,
                         ids=[f"{m}-tau{t}" for m, _, t, _ in
                              REFERENCE_ESTIMATES])
def test_reference_estimate_tables_hash_as_recorded(tmp_path, capsys, model,
                                                    gen, tau, prefix):
    path, out = tmp_path / "panel.csv", tmp_path / "est.csv"
    write_panel(path, gen()[0])
    assert main(["estimate", str(path), "--model", model, "--tau", tau,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:8] == prefix


def test_simulate_grid_runs_each_point_as_its_scalar_config(tmp_path, capsys):
    base = {"model": "model1", "reps": 1, "seed": 5, "restarts": 5}
    code, out = run_simulate(tmp_path, {**base, "n": [6, 9], "T": [30, 40]})
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"format_version", "grid"}
    assert payload["format_version"] == "1"
    points = [(n, T) for n in (6, 9) for T in (30, 40)]  # n-major
    assert [(p["config"]["n"], p["config"]["T"])
            for p in payload["grid"]] == points
    for entry, (n, T) in zip(payload["grid"], points):
        code, scalar = run_simulate(tmp_path, {**base, "n": n, "T": T},
                                    name=f"n{n}T{T}")
        assert code == 0
        assert (json.dumps(entry, sort_keys=True)
                == json.dumps(json.loads(scalar.read_text()), sort_keys=True))


def test_simulate_grid_checks_every_point_before_running(tmp_path, capsys,
                                                         monkeypatch):
    from panelcluster import cli

    calls = []
    monkeypatch.setattr(cli, "run_batch", lambda config: calls.append(config))
    # n=9 is a valid model3 point, n=10 is not divisible by 3
    code, out = run_simulate(tmp_path, {"model": "model3", "n": [9, 10],
                                        "T": 40, "reps": 1})
    assert code == 1
    assert "model3 requires n divisible by 3" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("axis", ["n", "T"])
def test_simulate_empty_grid_axis_is_bad_input(tmp_path, capsys, axis):
    code, out = run_simulate(tmp_path, {"model": "model1", "n": 6, "T": 30,
                                        "reps": 1, axis: []})
    assert code == 1
    assert "non-empty lists" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", ["model1", "logistic"])
@pytest.mark.parametrize("field,value,message", [
    ("n", 6.5, "n must be an integer, got 6.5"),
    ("n", [6, 7.0], "n must be an integer, got 7.0"),
    ("T", 30.0, "T must be an integer, got 30.0"),
    ("reps", 1.5, "reps must be an integer, got 1.5"),
    ("reps", True, "reps must be an integer, got True"),
    ("seed", "7", "seed must be an integer, got '7'"),
    ("seed", [7], "seed must be an integer, got [7]"),
    ("seed", -5, "seed must lie in 0..2**64 - 1, got -5"),
    ("seed", 2 ** 64, f"seed must lie in 0..2**64 - 1, got {2 ** 64}"),
    ("restarts", 2.5, "restarts must be an integer, got 2.5"),
    ("G_max", False, "G_max must be an integer, got False"),
    ("G_max", 0, "G_max must be >= 1"),
    ("n", 2, "cluster_at_true_g requires n >= 3"),
    ("n", 0, "n must be >= 1"),
    ("cluster_at_true_g", False, "select_groups requires n >= 3, got n=2"),
    ("cluster_at_true_g", "yes", "cluster_at_true_g must be a bool, got "
                                 "'yes'"),
    ("select_groups", "no", "select_groups must be a bool, got 'no'"),
    ("select_groups", 1, "select_groups must be a bool, got 1"),
    ("methods", "spectral", "methods must be a list of strings, got "
                            "'spectral'"),
    ("methods", [1], "unknown method 1"),
    ("tau", "0.5", "tau must be a real number, got '0.5'"),
    ("tau", True, "tau must be a real number, got True"),
    ("error_dist", "cauchy", "unknown error_dist 'cauchy'"),
])
def test_simulate_rejects_bad_config_before_generating(
        tmp_path, capsys, monkeypatch, model, field, value, message):
    from panelcluster import simulation

    def no_panel(*args, **kwargs):
        raise AssertionError("a panel was generated")

    for name in ("gen_model1", "_draw_logistic_individual"):
        monkeypatch.setattr(simulation, name, no_panel)
    config = {"model": model, "n": 6, "T": 30, "reps": 1,
              "select_groups": True, field: value}
    if field == "cluster_at_true_g":
        config["n"] = 2
    code, out = run_simulate(tmp_path, config)
    assert code == 1
    err = capsys.readouterr().err
    assert f"invalid config: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("T", [0, 2, 3])
def test_simulate_rejects_logistic_T_below_4(tmp_path, capsys, monkeypatch,
                                              T):
    from panelcluster import simulation

    def no_panel(*args, **kwargs):
        raise AssertionError("a panel was generated")

    monkeypatch.setattr(simulation, "_draw_logistic_individual", no_panel)
    code, out = run_simulate(tmp_path, {"model": "logistic", "n": 9, "T": T,
                                        "reps": 1})
    assert code == 1
    assert (f"invalid config: logistic requires T >= 4, got T={T}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_simulate_runs_logistic_at_T_4(tmp_path, capsys):
    code, out = run_simulate(tmp_path, {"model": "logistic", "n": 9, "T": 4,
                                        "reps": 1})
    assert code == 0
    assert len(json.loads(out.read_text())["per_rep"]) == 1
