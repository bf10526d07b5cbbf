"""Recursive feature elimination and nested-subset selection.

One feature is removed per iteration: refit on the survivors, drop the
one with the smallest importance (ties drop the highest original index),
and repeat until one survives. The elimination order reversed is the
ranking, best first.
"""

from dataclasses import dataclass

import numpy as np

from . import learn
from .errors import EvaluationError


@dataclass(frozen=True)
class Ranking:
    order: tuple  # permutation of feature indices, best-ranked first
    classifier: str
    seed: int

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
    order = tuple(surviving + eliminated[::-1])
    return Ranking(order=order, classifier=kind, seed=int(seed))


def nested_subsets(ranking):
    """S_1 subset S_2 subset ... with S_k = top-k ranked features."""
    return [tuple(ranking.order[:k]) for k in range(1, len(ranking.order) + 1)]


def select_best_k(X, y, ranking, protocol):
    """Pick the subset size maximizing the protocol's mean test accuracy.

    `protocol(X_sub, y)` must return a mean test accuracy for the given
    column subset. Ties go to the smallest k.
    """
    best_k, best_acc = None, -1.0
    for k, subset in enumerate(nested_subsets(ranking), start=1):
        acc = protocol(np.asarray(X)[:, list(subset)], y)
        if acc > best_acc:
            best_k, best_acc = k, acc
    return best_k, best_acc


def best_subset_for_split(X_train, y_train, X_test, y_test, kind, seed=0):
    """Rank on the training rows, then score every nested subset.

    Returns (subset, train_accuracy, test_accuracy) for the subset with
    the highest test accuracy (ties to the smallest subset). Ranking
    never sees the test rows.
    """
    ranking = rank_features(X_train, y_train, kind, seed=seed)
    best = None
    for subset in nested_subsets(ranking):
        cols = list(subset)
        model = learn.fit(kind, X_train[:, cols], y_train, seed=seed)
        train_acc = float(np.mean(model.predict(X_train[:, cols]) == y_train))
        test_acc = float(np.mean(model.predict(X_test[:, cols]) == y_test))
        if best is None or test_acc > best[2]:
            best = (subset, train_acc, test_acc)
    return best
