import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelcluster.metrics import average_match, perfect_match


def test_identical_labelings_score_one():
    labels = [1, 1, 2, 3, 3]
    score = average_match(labels, labels)
    assert score.perfect and score.average == 1.0


def test_swapped_alphabet_scores_one():
    truth = np.array([1, 1, 2, 2])
    swapped = np.array([2, 2, 1, 1])
    assert perfect_match(truth, swapped)


def test_single_misassignment():
    score = average_match([1, 1, 2, 2], [1, 2, 2, 2])
    assert score.average == pytest.approx(0.75)
    assert not score.perfect


def test_one_flip_breaks_perfect():
    assert not perfect_match([1, 2, 3], [1, 2, 2])


def test_padding_flagged_for_unequal_alphabets():
    score = average_match([1, 1, 2, 2], [1, 1, 2, 3])
    assert score.average == pytest.approx(0.75)


@pytest.mark.parametrize("estimate", [[1, 1, 2, 3], [2, 2, 1, 1]])
def test_match_score_is_json_ready(estimate):
    score = average_match([1, 1, 2, 2], estimate)
    assert type(score.perfect) is bool
    json.dumps(dataclasses.asdict(score))


@pytest.mark.parametrize("huge", [2 ** 62, 10 ** 9 + 7])
def test_label_values_do_not_size_the_table(huge):
    assert average_match([1, 1], [1, huge]) == average_match([1, 1], [1, 2])
    assert average_match([huge, 3, 3], [1, 2, 2]).perfect


def test_rejects_zero_based_labels():
    with pytest.raises(ValueError):
        average_match([0, 1], [1, 1])


def test_rejects_empty_labelings():
    with pytest.raises(ValueError, match="^labelings must not be empty$"):
        average_match([], [])


def test_rejects_length_mismatch():
    with pytest.raises(ValueError):
        average_match([1, 2], [1, 2, 3])


labelings = st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                     max_size=30)


@given(labelings)
def test_self_match_is_always_perfect(labels):
    assert average_match(labels, labels).average == 1.0


@given(labelings, st.permutations([1, 2, 3, 4]))
@settings(max_examples=200)
def test_invariant_to_bijective_relabeling(labels, perm):
    relabeled = [perm[v - 1] for v in labels]
    base = average_match(labels, labels)
    assert average_match(labels, relabeled).average == base.average == 1.0


@given(labelings, labelings)
@settings(max_examples=200)
def test_symmetric_in_arguments(a, b):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    assert average_match(a, b).average == pytest.approx(
        average_match(b, a).average)


def enumeration_match(truth, estimate, G):
    best = 0
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    for perm in itertools.permutations(range(1, G + 1)):
        mapped = np.array([perm[v - 1] for v in truth])
        best = max(best, np.mean(mapped == estimate))
    return best


@pytest.mark.parametrize("seed", range(100))
def test_assignment_equals_exhaustive_enumeration(seed):
    rng = np.random.default_rng(seed)
    G = int(rng.integers(2, 7))
    n = int(rng.integers(G, 40))
    truth = rng.integers(1, G + 1, size=n)
    estimate = rng.integers(1, G + 1, size=n)
    # make sure both alphabets span 1..G so no padding kicks in
    truth[:G] = np.arange(1, G + 1)
    estimate[:G] = rng.permutation(np.arange(1, G + 1))
    score = average_match(truth, estimate)
    assert score.average == pytest.approx(enumeration_match(truth, estimate, G))
