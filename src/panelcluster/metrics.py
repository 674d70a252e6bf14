"""Label-agreement metrics: best-permutation average and perfect match."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .types import MatchScore


def _confusion(truth, estimate):
    truth = np.asarray(truth, dtype=int)
    estimate = np.asarray(estimate, dtype=int)
    if truth.shape != estimate.shape:
        raise ValueError("labelings must have equal length")
    if not truth.size:
        raise ValueError("labelings must not be empty")
    if truth.min(initial=1) < 1 or estimate.min(initial=1) < 1:
        raise ValueError("labels must be 1-based positive integers")
    # compact each labeling to the labels it uses: the table then has one
    # row or column per used label, whatever their values
    rows = np.unique(truth, return_inverse=True)[1]
    cols = np.unique(estimate, return_inverse=True)[1]
    G = max(rows.max(initial=0), cols.max(initial=0)) + 1
    counts = np.zeros((G, G), dtype=int)
    np.add.at(counts, (rows, cols), 1)
    return counts


def average_match(truth, estimate) -> MatchScore:
    """Fraction of correctly labeled individuals, maximized over bijections
    of the label alphabet (solved as a maximum-weight assignment).

    Alphabets of different sizes are padded with empty groups.
    """
    counts = _confusion(truth, estimate)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    n = len(np.asarray(truth))
    average = float(counts[rows, cols].sum() / n)
    return MatchScore(perfect=average == 1.0, average=average)


def perfect_match(truth, estimate) -> bool:
    """True iff the partitions agree exactly up to label permutation."""
    return average_match(truth, estimate).perfect
