"""The batched k-means and the in-place Laplacian against the per-restart
reference formulas they replaced."""

import re

import numpy as np
import pytest

from panelcluster import simulation, spectral, types
from panelcluster.simulation import SimulationConfig, run_rep


# --- reference: one restart at a time, as before batching ---

def reference_kmeans(points, k, restarts=50, seed=0, max_iter=300):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if k > n:
        raise ValueError("more clusters than points")
    rng = np.random.Generator(np.random.Philox(key=seed))
    best = None
    for _ in range(restarts):
        centers = points[reference_farthest_point_seed(points, k, rng)]
        labels, centers, objective = reference_lloyd(points, centers, max_iter)
        if best is None or objective < best[2]:
            best = (labels, centers, objective)
    return best


def reference_farthest_point_seed(points, k, rng):
    """The (k,) indices of one restart's seeding."""
    n = points.shape[0]
    seeds = [rng.integers(n)]
    for _ in range(1, k):
        d = np.min(
            [np.sum((points - points[i]) ** 2, axis=1) for i in seeds], axis=0)
        cutoff = d.max() * (1.0 - 1e-12)
        candidates = np.flatnonzero(d >= cutoff)
        seeds.append(candidates[0])
    return np.array(seeds)


def reference_distinct_seeds(points, k, restarts, rng):
    """Every restart's seeding, drawn in turn, without repeats, in order of
    first draw."""
    seeds = (tuple(reference_farthest_point_seed(points, k, rng))
             for _ in range(restarts))
    return np.array(list(dict.fromkeys(seeds)))


def reference_lloyd(points, centers, max_iter):
    n, k = points.shape[0], centers.shape[0]
    prev_objective = np.inf
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        objective = d2[np.arange(n), labels].sum()
        assert objective <= prev_objective + 1e-9, "Lloyd objective increased"
        for j in range(k):
            members = labels == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
            else:
                farthest = d2[np.arange(n), labels].argmax()
                centers[j] = points[farthest]
                labels[farthest] = j
        if objective >= prev_objective - 1e-12:
            break
        prev_objective = objective
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    objective = float(d2[np.arange(n), labels].sum())
    return labels, centers, objective


def reference_assign(points, centers):
    # cumsum adds coordinates one by one, as .sum does below 8 of them
    m, k, _ = centers.shape
    d2 = np.empty((m, points.shape[0], k))
    for j in range(k):
        squares = (points - centers[:, j, None, :]) ** 2
        d2[:, :, j] = np.cumsum(squares, axis=-1)[..., -1]
    return d2, d2.argmin(axis=2), d2.min(axis=2).sum(axis=1)


def reference_laplacian(V):
    A = np.exp(-V)
    np.fill_diagonal(A, 1.0)
    degrees = A.sum(axis=1)
    inv_sqrt_d = degrees ** -0.5
    L = inv_sqrt_d[:, None] * (np.diag(degrees) - A) * inv_sqrt_d[None, :]
    return 0.5 * (L + L.T)


def assert_same_kmeans(points, k, restarts, seed):
    labels, centers, objective = spectral.kmeans(points, k, restarts=restarts,
                                                 seed=seed)
    ref_labels, ref_centers, ref_objective = reference_kmeans(
        points, k, restarts=restarts, seed=seed)
    np.testing.assert_array_equal(labels, ref_labels)
    if np.atleast_2d(points).shape[1] >= 2:
        np.testing.assert_array_equal(centers, ref_centers)
        assert objective == ref_objective
    else:
        # one column: numpy's mean sums the members pairwise, the batched
        # update sums them in point order, so they may differ in the last ulp
        np.testing.assert_allclose(centers, ref_centers, rtol=1e-13)
        assert objective == pytest.approx(ref_objective, rel=1e-13)
    assert isinstance(objective, float)


def random_cases():
    rng = np.random.default_rng(2024)
    for case in range(120):
        n = int(rng.integers(1, 60))
        d = case % 4 + 1
        if case % 6 == 0:
            k = n
        elif case % 6 == 1:
            k = 1
        else:
            k = int(rng.integers(1, min(n, 6) + 1))
        points = rng.normal(size=(n, d)) * 3.0
        if case % 3 == 0:
            points = np.round(points)  # ties and empty clusters
        restarts = (1, 7, 50)[case % 3]
        yield points, k, restarts, int(rng.integers(10_000))


@pytest.mark.parametrize("case", list(random_cases()),
                         ids=lambda case: f"n{len(case[0])}-d{case[0].shape[1]}"
                         f"-k{case[1]}-r{case[2]}")
def test_batched_kmeans_equals_reference_on_random_inputs(case):
    assert_same_kmeans(*case)


def test_batched_kmeans_equals_reference_on_run_rep_embeddings(monkeypatch):
    calls = []
    kmeans = spectral.kmeans

    def recording_kmeans(points, k, restarts=50, seed=0):
        calls.append((np.array(points, dtype=float), k, restarts, seed))
        return kmeans(points, k, restarts=restarts, seed=seed)

    monkeypatch.setattr(spectral, "kmeans", recording_kmeans)
    monkeypatch.setattr(simulation, "kmeans", recording_kmeans)
    methods = ("spectral", "spectral_identity", "kmeans_raw")
    for model, T in (("logistic", 60), ("model1", 60), ("model2", 60),
                     ("model3", 60)):
        config = SimulationConfig(model=model, n=30 if model != "model2"
                                  else 24, T=T, reps=3, seed=7,
                                  methods=methods)
        for rep in range(config.reps):
            run_rep(config, rep)
    monkeypatch.undo()
    assert len(calls) == 4 * 3 * len(methods)
    assert {points.shape[1] for points, *_ in calls} >= {1, 2, 3, 4}
    for call in calls:
        assert_same_kmeans(*call)


def test_ragged_last_chunk_with_the_best_restart_in_a_later_chunk(
        monkeypatch):
    rng = np.random.default_rng(5)
    points = np.round(rng.normal(size=(40, 2)) * 2, 1)
    k, per_chunk = 4, 3
    monkeypatch.setattr(types, "BLOCK_ENTRIES", per_chunk * 40 * (k + 2))
    rng = np.random.Generator(np.random.Philox(key=5))
    seeds = np.array([reference_farthest_point_seed(points, k, rng)
                      for _ in range(50)])
    distinct = np.unique(seeds, axis=0)
    _, objectives = spectral._lloyd(points, points[distinct])
    first_best = min(
        r for r in range(50)
        if reference_lloyd(points, points[seeds[r]], 300)[2]
        == objectives.min())
    assert len(distinct) % per_chunk != 0
    assert len(np.unique(seeds[:first_best], axis=0)) >= per_chunk
    assert_same_kmeans(points, k, 50, 5)


@pytest.mark.parametrize("k", [4, 5])
def test_empty_cluster_repair_matches_reference(k):
    # three distinct locations: seeds past the third repeat a centre, and a
    # later copy wins no argmin tie, so every restart repairs k - 3 empty
    # clusters in its first iteration, the second after the first's promotion
    points = np.array([[0.0, 0.0]] * 5 + [[1.0, 0.0]] * 3 + [[0.0, 2.0]]
                      + [[0.0, 0.0]] * 2)
    seeds = spectral._farthest_point_seeds(
        points, k, 20, np.random.Generator(np.random.Philox(key=3)))
    assert all(len(np.unique(centers, axis=0)) == 3
               for centers in points[seeds])
    assert_same_kmeans(points, k, 20, 3)


def test_tied_best_restarts_in_separate_chunks_keep_the_first(monkeypatch):
    # the four corners of a square split left/right or top/bottom at the
    # same objective; one restart per chunk
    points = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    monkeypatch.setattr(types, "BLOCK_ENTRIES", 1)
    rng = np.random.Generator(np.random.Philox(key=0))
    partitions = {tuple(reference_lloyd(
        points, points[reference_farthest_point_seed(points, 2, rng)],
        300)[0])
        for _ in range(20)}
    assert len(partitions) > 1
    assert_same_kmeans(points, 2, 20, 0)


@pytest.mark.parametrize("max_iter", [1, 300])
def test_stacked_lloyd_repairs_in_cluster_order_next_to_a_plain_restart(
        monkeypatch, max_iter):
    points = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    centers = np.array([
        # cluster 0 is empty; its promoted point leaves cluster 1 before
        # cluster 1's mean is taken
        [[100.0, 100.0], [0.5, 0.0], [10.5, 0.0]],
        [[0.0, 0.0], [10.0, 0.0], [11.0, 0.0]],
    ])
    reference = [reference_lloyd(points, c.copy(), max_iter) for c in centers]
    monkeypatch.setattr(spectral, "LLOYD_MAX_ITER", max_iter)
    labels, objectives = spectral._lloyd(points, centers)
    for r, (ref_labels, ref_centers, ref_objective) in enumerate(reference):
        np.testing.assert_array_equal(labels[r], ref_labels)
        np.testing.assert_array_equal(centers[r], ref_centers)
        assert objectives[r] == ref_objective
    np.testing.assert_array_equal(reference[0][1][:2], [[0.0, 0.0],
                                                         [1.0, 0.0]])


def test_mixed_stack_of_repairing_and_plain_restarts_matches_reference():
    rng = np.random.default_rng(11)
    points = np.round(rng.normal(size=(25, 3)))
    for seed in range(10):
        assert_same_kmeans(points, 6, 30, seed)


def tie_heavy_cases():
    rng = np.random.default_rng(15)
    grid = np.round(rng.normal(size=(30, 2)))
    duplicated = rng.normal(size=(12, 3))[rng.integers(12, size=24)]
    equal = np.ones((8, 2))
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
    line = np.arange(7.0)[:, None]
    # integer squares sum exactly, in any order, past 8 coordinates too
    wide = np.round(rng.normal(size=(30, 9)) * 2)
    for name, points in (("grid", grid), ("duplicated", duplicated),
                         ("equal", equal), ("corners", corners),
                         ("line", line), ("wide", wide)):
        for k in range(1, 7):
            for restarts in (1, 3, 50):
                yield name, points, k, restarts, k * 100 + restarts


@pytest.mark.parametrize("case", list(tie_heavy_cases()),
                         ids=lambda case: f"{case[0]}-k{case[2]}-r{case[3]}")
def test_seeding_chains_equal_per_restart_reference(case):
    _, points, k, restarts, seed = case
    rng = np.random.Generator(np.random.Philox(key=seed))
    ref_rng = np.random.Generator(np.random.Philox(key=seed))
    seeds = spectral._farthest_point_seeds(points, k, restarts, rng)
    ref_seeds = reference_distinct_seeds(points, k, restarts, ref_rng)
    assert seeds.dtype == np.intp
    np.testing.assert_array_equal(seeds, ref_seeds)
    np.testing.assert_array_equal(rng.random(4), ref_rng.random(4))


def assert_same_seeding(points, k, restarts, seed):
    """The seedings and the next draws of _farthest_point_seeds equal the
    per-restart reference; returns the seedings and the batch's starts."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    ref_rng = np.random.Generator(np.random.Philox(key=seed))
    starts = np.random.Generator(np.random.Philox(key=seed)).integers(
        len(points), size=restarts)
    seeds = spectral._farthest_point_seeds(points, k, restarts, rng)
    ref_seeds = reference_distinct_seeds(points, k, restarts, ref_rng)
    assert seeds.dtype == np.intp
    np.testing.assert_array_equal(seeds, ref_seeds)
    np.testing.assert_array_equal(rng.random(4), ref_rng.random(4))
    return seeds, set(starts.tolist())


def test_a_tie_takes_the_first_farthest_point_and_draws_nothing():
    # start 50 is as far from 0 as from 100 and takes 0, the first of them;
    # the starts are those of one integers call, and no tie draws
    points = np.arange(101.0)[:, None]
    draws = np.random.Generator(np.random.Philox(key=10))
    starts = draws.integers(101, size=8).tolist()
    rng = np.random.Generator(np.random.Philox(key=10))
    seeds = spectral._farthest_point_seeds(points, 2, 8, rng)
    assert seeds[0].tolist() == [50, 0]
    assert seeds[:, 0].tolist() == list(dict.fromkeys(starts))
    np.testing.assert_array_equal(rng.random(4), draws.random(4))
    assert_same_seeding(points, 2, 8, seed=10)


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
@pytest.mark.parametrize("kind", ["normal", "grid", "line"])
def test_seeding_in_several_blocks_of_starts(monkeypatch, kind, rows):
    rng = np.random.default_rng(rows)
    points = {"normal": rng.normal(size=(40, 3)),
              "grid": np.round(rng.normal(size=(40, 2))),
              "line": np.arange(41.0)[:, None]}[kind]
    # blocks of `rows` starts
    monkeypatch.setattr(types, "BLOCK_ENTRIES", rows * len(points))
    for k in (1, 2, 4):
        for seed in range(6):
            assert_same_seeding(points, k, 25, seed)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_identical_point_groups_tie_every_chain_at_its_first_step(k):
    # an embedding of well-separated groups: four groups of identical rows
    # on orthonormal centres, every row as far from each other group
    points = np.repeat(np.eye(4), [8, 5, 9, 8], axis=0)
    d2 = ((points[:, None] - points[None]) ** 2).sum(axis=2)
    assert ((d2 == d2.max(axis=1, keepdims=True)).sum(axis=1) > 1).all()
    for seed in range(5):
        assert_same_seeding(points, k, 50, seed)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_seedings_ignore_the_last_bits_of_the_distances(k):
    points = np.repeat(np.eye(4), [8, 5, 9, 8], axis=0)
    for seed in range(5):
        exact = spectral._farthest_point_seeds(
            points, k, 50, np.random.Generator(np.random.Philox(key=seed)))
        for noise_seed in (1, 2):
            noise = np.random.default_rng(noise_seed).normal(
                scale=1e-15, size=points.shape)
            noisy = spectral._farthest_point_seeds(
                points + noise, k, 50,
                np.random.Generator(np.random.Philox(key=seed)))
            np.testing.assert_array_equal(noisy, exact)


@pytest.mark.parametrize("k, bad, message", [
    (0, None, "k must lie in 1..5 (the number of points), got 0"),
    (-1, None, "k must lie in 1..5 (the number of points), got -1"),
    (6, None, "k must lie in 1..5 (the number of points), got 6"),
    (2, np.nan, "points contain non-finite entries"),
    (2, np.inf, "points contain non-finite entries"),
    (2, -np.inf, "points contain non-finite entries")])
def test_kmeans_rejects_bad_input(k, bad, message):
    points = np.arange(10.0).reshape(5, 2)
    if bad is not None:
        points[3, 1] = bad
    with pytest.raises(ValueError, match=re.escape(message)):
        spectral.kmeans(points, k)


@pytest.mark.parametrize("rounded", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 128, 129,
                               257])
def test_assign_equals_per_center_reference(d, rounded):
    # coordinates added in index order, on both sides of numpy's switch
    # from sequential to pairwise summation at 8 terms
    rng = np.random.default_rng(d)
    points = rng.normal(size=(40, d)) * 10.0 ** rng.integers(-3, 4, (40, d))
    if rounded:
        points = np.round(rng.normal(size=(40, d)))  # ties in distance
    points[30:] = points[:10]  # tied points
    centers = points[rng.integers(40, size=(6, 5))]
    centers[:, 3] = centers[:, 1]  # tied centers: the first must win
    d2, labels, objectives = spectral._assign(points, centers)
    ref_d2, ref_labels, ref_objectives = reference_assign(points, centers)
    assert np.array_equal(d2, ref_d2.transpose(0, 2, 1))
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(objectives, ref_objectives)
    assert (labels != 3).all()
    if d < 8:  # there the distances are those of a per-centre .sum
        sums = ((points[:, None] - centers[:, None]) ** 2).sum(axis=-1)
        assert np.array_equal(d2, sums.transpose(0, 2, 1))


@pytest.mark.parametrize("seed", range(12))
def test_in_place_laplacian_equals_reference_formula(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 401))
    V = np.abs(rng.normal(scale=10.0 ** rng.integers(-2, 3), size=(n, n)))
    V = np.triu(V, 1)
    V = V + V.T
    assert np.array_equal(spectral._laplacian(V), reference_laplacian(V))
    # the shrink of selection, and one whose product overflows to inf
    V[0, -1] = V[-1, 0] = 1e308
    with np.errstate(over="ignore"):
        for shrink in (2.0 / np.sqrt(np.log(300) * np.log(120)), 2.0):
            assert np.array_equal(spectral._laplacian(V, shrink),
                                  reference_laplacian(shrink * V))
