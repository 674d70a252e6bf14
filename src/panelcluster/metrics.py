"""Label-agreement metrics: best-permutation average and perfect match."""

from __future__ import annotations

import numpy as np

from .types import MatchScore


def _confusion(truth, estimate):
    """(G_truth, G_estimate) counts of individuals by label pair, one row or
    column per label used."""
    truth, estimate = np.asarray(truth), np.asarray(estimate)
    if truth.ndim != 1 or truth.shape != estimate.shape:
        raise ValueError("labelings must be 1-D and of equal length")
    if not truth.size:
        raise ValueError("labelings must not be empty")
    # an integer dtype, so that no float label is truncated into a match
    if not all(np.issubdtype(a.dtype, np.integer) and a.min() >= 1
               for a in (truth, estimate)):
        raise ValueError("labels must be 1-based positive integers")
    # compact each labeling to the labels it uses: the table then has one
    # row or column per used label, whatever their values
    used = [np.unique(a) for a in (truth, estimate)]
    index = tuple(u.searchsorted(a) for u, a in zip(used, (truth, estimate)))
    counts = np.zeros([len(u) for u in used], dtype=int)
    np.add.at(counts, index, 1)
    return counts


def _assignment_total(counts) -> int:
    """Largest sum of counts[i, j] over matchings that pair each row of the
    shorter side with its own column of the longer side.

    The Hungarian method (Kuhn 1955) in its shortest augmenting path form
    (Jonker & Volgenant 1987), on Python integers: each row of the shorter
    side r adds one augmenting path, found by a Dijkstra search over the c
    columns of reduced costs (the costs are -counts), so the cost is
    O(r^2 c). Among tied nearest columns a search takes an unmatched one,
    which ends it: a count table has many ties.
    """
    if counts.shape[0] > counts.shape[1]:
        counts = counts.T
    weight = counts.tolist()
    r, c = counts.shape
    u, v = [0] * r, [0] * c  # row and column potentials
    col_of, row_of = [-1] * r, [-1] * c  # the matching so far
    path = [-1] * c  # the row before each column on its shortest path
    for start in range(r):
        dist = [None] * c  # reduced cost of the shortest path to each column
        remaining = list(range(c))
        rows_seen, cols_seen = [], []
        i, reach = start, 0
        while True:
            rows_seen.append(i)
            row, base = weight[i], reach - u[i]
            best, low = None, None
            for k, j in enumerate(remaining):
                d = base - row[j] - v[j]
                dj = dist[j]
                if dj is None or d < dj:
                    dist[j] = dj = d
                    path[j] = i
                if best is None or dj < low or (dj == low and row_of[j] < 0):
                    best, low = k, dj
            reach = low
            j = remaining[best]
            remaining[best] = remaining[-1]
            remaining.pop()
            cols_seen.append(j)
            if row_of[j] < 0:
                break
            i = row_of[j]
        u[start] += reach
        for i in rows_seen[1:]:
            u[i] += reach - dist[col_of[i]]
        for j in cols_seen:
            v[j] -= reach - dist[j]
        # flip the matching along the path back to the start row
        while True:
            i = path[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return sum(weight[i][j] for i, j in enumerate(col_of))


def average_match(truth, estimate) -> MatchScore:
    """Fraction of correctly labeled individuals, maximized over bijections
    of the label alphabet (solved as a maximum-weight assignment).

    When the alphabets differ in size, the labels of the larger one left
    without a partner count as misassigned.
    """
    counts = _confusion(truth, estimate)
    average = float(_assignment_total(counts) / counts.sum())
    return MatchScore(perfect=average == 1.0, average=average)


def perfect_match(truth, estimate) -> bool:
    """True iff the partitions agree exactly up to label permutation."""
    return average_match(truth, estimate).perfect
