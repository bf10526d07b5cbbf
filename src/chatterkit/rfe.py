"""Recursive feature elimination and nested-subset selection.

One feature is removed per iteration: refit on the survivors, drop the
one with the smallest importance (ties drop the highest original index),
and repeat until one survives. The elimination order reversed is the
ranking, best first.

`select_best_k` is the one loop over the nested subsets of a ranking;
each caller passes the score to pick by, and so decides which rows the
choice may see.
"""

from dataclasses import dataclass

import numpy as np

from . import learn
from .errors import EvaluationError


@dataclass(frozen=True)
class Ranking:
    order: tuple  # permutation of feature indices, best-ranked first

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise EvaluationError(f"ranking {self.order} is not a permutation")


def rank_features(X, y, kind, seed=0):
    """Full RFE ranking of the columns of X."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    surviving = list(range(d))
    eliminated = []
    while len(surviving) > 1:
        model = learn.fit(kind, X[:, surviving], y, seed=seed)
        imp = model.importance()
        worst = np.min(imp)
        # among minimal-importance survivors, drop the highest original index
        drop_pos = max(i for i in range(len(imp)) if imp[i] == worst)
        eliminated.append(surviving.pop(drop_pos))
    return Ranking(order=tuple(surviving + eliminated[::-1]))


def nested_subsets(ranking):
    """S_1 subset S_2 subset ... with S_k = top-k ranked features."""
    return [tuple(ranking.order[:k]) for k in range(1, len(ranking.order) + 1)]


def select_best_k(ranking, score):
    """(k, score) for the top-k ranked columns that score best.

    `score(cols)` scores a list of column indices. Ties go to the smallest k.
    """
    best_k, best = None, None
    for k, subset in enumerate(nested_subsets(ranking), start=1):
        acc = score(list(subset))
        if best_k is None or acc > best:
            best_k, best = k, acc
    return best_k, best


def best_subset_for_split(X_train, y_train, X_test, y_test, kind, seed=0):
    """Rank on the training rows, then pick the nested subset by test accuracy.

    Returns (subset, train_accuracy, test_accuracy) for the subset with
    the highest test accuracy (ties to the smallest subset). Ranking
    never sees the test rows but the choice does, so the test accuracy
    is an optimistic upper bound. One fit per subset.
    """
    ranking = rank_features(X_train, y_train, kind, seed=seed)
    train_acc = {}

    def test_accuracy(cols):
        model = learn.fit(kind, X_train[:, cols], y_train, seed=seed)
        train_acc[len(cols)] = model.accuracy(X_train[:, cols], y_train)
        return model.accuracy(X_test[:, cols], y_test)

    k, test_acc = select_best_k(ranking, test_accuracy)
    return ranking.order[:k], train_acc[k], test_acc
