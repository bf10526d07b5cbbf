import numpy as np
import pytest

from chatterkit import learn
from chatterkit.errors import EvaluationError
from chatterkit.rfe import (
    Ranking,
    best_subset_for_split,
    nested_subsets,
    rank_features,
    select_best_k,
)


def planted(seed, n=80, d=8, informative=0, strength=2.0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    while len(np.unique(y)) < 2:
        y = rng.integers(0, 2, n)
    X = rng.normal(0, 1, (n, d))
    X[:, informative] += (2 * y - 1) * strength
    return X, y


def test_single_feature_trivial_ranking():
    X, y = planted(0, d=1)
    assert rank_features(X, y, "lr").order == (0,)


def test_planted_feature_ranks_first_for_lr():
    hits = 0
    for seed in range(20):
        X, y = planted(seed, informative=3)
        if rank_features(X, y, "lr", seed=seed).order[0] == 3:
            hits += 1
    assert hits >= 19


@pytest.mark.parametrize("kind", learn.KINDS)
def test_ranking_is_permutation(kind):
    rng = np.random.default_rng(1)
    reps = 50 if kind in ("svm", "lr") else 5
    for _ in range(reps):
        n = int(rng.integers(6, 30))
        d = int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        y = np.arange(n) % 2
        order = rank_features(X, y, kind, seed=2).order
        assert sorted(order) == list(range(d))


def test_ranking_validates_permutation():
    with pytest.raises(EvaluationError, match="not a permutation"):
        Ranking(order=(0, 0, 2))


@pytest.mark.parametrize("d", (12, 30))
def test_nested_subsets_chain(d):
    X, y = planted(4, n=60, d=d)
    subsets = nested_subsets(rank_features(X, y, "svm"))
    assert len(subsets) == d
    assert len(subsets[-1]) == d
    for small, big in zip(subsets, subsets[1:]):
        assert set(small) < set(big)


def test_rank_deterministic():
    X, y = planted(5, d=10)
    a = rank_features(X, y, "rf", seed=3).order
    b = rank_features(X, y, "rf", seed=3).order
    assert a == b


def test_tree_ranking_invariant_to_monotone_transforms():
    X, y = planted(6, n=50, d=4)
    r1 = rank_features(X, y, "rf", seed=7).order
    X2 = np.column_stack([
        X[:, 0] ** 3,
        np.exp(X[:, 1]),
        5.0 * X[:, 2] + 3.0,
        np.arctan(X[:, 3]),
    ])
    r2 = rank_features(X2, y, "rf", seed=7).order
    assert r1 == r2


class TestSelectBestK:
    def test_scores_each_nested_prefix_once(self):
        X, y = planted(7, d=6, informative=3)
        ranking = rank_features(X, y, "lr")
        seen = []

        def score(cols):
            # reward subsets containing the planted column, penalize size
            seen.append(cols)
            return (1.0 if 3 in cols else 0.0) - 0.01 * len(cols)

        best_k, best = select_best_k(ranking, score)
        assert seen == [list(ranking.order[:k]) for k in range(1, 7)]
        assert best_k == ranking.order.index(3) + 1
        assert best == score(seen[best_k - 1])

    def test_planted_column_selected(self):
        X, y = planted(8, informative=2)
        ranking = rank_features(X, y, "lr")
        tr, te = np.arange(0, 60), np.arange(60, 80)

        def score(cols):
            model = learn.fit("lr", X[tr][:, cols], y[tr])
            return model.accuracy(X[te][:, cols], y[te])

        best_k, best_acc = select_best_k(ranking, score)
        assert 1 <= best_k <= X.shape[1]
        cols = ranking.order[:best_k]
        assert 2 in cols
        assert best_acc >= 0.8

    def test_tie_goes_to_smallest_k(self):
        X, y = planted(9, d=5)
        ranking = rank_features(X, y, "lr")
        best_k, _ = select_best_k(ranking, lambda cols: 0.5)
        assert best_k == 1

    def test_single_feature(self):
        X, y = planted(10, d=1)
        ranking = rank_features(X, y, "lr")
        best_k, _ = select_best_k(ranking, lambda cols: 1.0)
        assert best_k == 1


def _split_accuracies(X, y, kind, subset, tr, te, seed):
    """Train and test accuracy of one fit of the chosen columns."""
    cols = list(subset)
    model = learn.fit(kind, X[tr][:, cols], y[tr], seed=seed)
    return model.accuracy(X[tr][:, cols], y[tr]), model.accuracy(X[te][:, cols], y[te])


class TestBestSubsetForSplit:
    def test_planted_feature_in_best_subset(self):
        X, y = planted(11, n=90, d=10, informative=4, strength=3.0)
        tr, te = np.arange(60), np.arange(60, 90)
        subset = best_subset_for_split(X, y, "lr", tr, [(tr, te)], seed=1)
        train_acc, test_acc = _split_accuracies(X, y, "lr", subset, tr, te, seed=1)
        assert 4 in subset
        assert test_acc >= 0.9
        assert 0.0 <= train_acc <= 1.0

    def test_all_noise_still_returns_valid_subset(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 6))
        y = np.arange(40) % 2
        tr, te = np.arange(30), np.arange(30, 40)
        subset = best_subset_for_split(X, y, "svm", tr, [(tr, te)], seed=1)
        _, test_acc = _split_accuracies(X, y, "svm", subset, tr, te, seed=1)
        assert 1 <= len(subset) <= 6
        assert set(subset) <= set(range(6))
        assert 0.0 <= test_acc <= 1.0

    def test_deterministic(self):
        X, y = planted(13, n=60, d=8)
        tr, te = np.arange(40), np.arange(40, 60)
        args = (X, y, "gb", tr, [(tr, te)])
        assert best_subset_for_split(*args, seed=5) == best_subset_for_split(
            *args, seed=5
        )
