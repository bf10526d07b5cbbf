"""Recursive feature elimination and nested-subset selection.

One feature is removed per iteration: refit on the survivors, drop the
one with the smallest importance (ties drop the highest original index),
and repeat until one survives. The elimination order reversed is the
ranking, best first.

`best_subset_for_split` is the one selector every protocol calls; the
row splits it is given decide which rows the choice may see. It fits a
subset on all its splits in one `learn.fit_many` call.
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


def best_subset_for_split(X, y, kind, rank_rows, splits, seed=0):
    """Columns of the nested subset with the best mean accuracy over `splits`.

    Ranks on X[rank_rows], then fits each subset on the fit rows of every
    (fit_rows, score_rows) pair and scores it on the score rows. Ties go
    to the smallest subset.
    """
    ranking = rank_features(X[rank_rows], y[rank_rows], kind, seed=seed)

    def mean_accuracy(cols):
        # fit_many gathers rows, then columns, as the protocols gather their
        # own fits: the gather's memory order sets the last bits of a linear fit
        models = learn.fit_many(kind, X, y, [(fit, cols) for fit, _ in splits], seed=seed)
        return float(np.mean([
            model.accuracy(X[score][:, cols], y[score])
            for model, (_, score) in zip(models, splits)
        ]))

    k, _ = select_best_k(ranking, mean_accuracy)
    return ranking.order[:k]
