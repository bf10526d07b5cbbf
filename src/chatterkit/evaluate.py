"""Experiment protocols: repeated splits, k-fold CV, transfer learning.

`repeated_split_eval` and `kfold_cv` only draw (train, test) index
pairs (the former through `repeated_splits`, which `rank-report` also
uses); one loop, `_resample`, fits and scores them. Under RFE every
protocol picks its columns with `rfe.best_subset_for_split`.

All splits are stratified by the binary label and every random draw is
derived from an explicit seed, so a whole experiment is reproducible
bit-for-bit. `emit_report` writes the JSON report; `check_report` checks one.
"""

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import learn, rfe
from .dataset import atomic_write
from .errors import EvaluationError
from .seeds import rng_for

# stratified splits of the source on which transfer_eval's RFE picks k
N_INTERNAL_SPLITS = 5


@dataclass(frozen=True)
class EvalResult:
    per_rep: tuple  # (train_accuracy, test_accuracy) pairs
    protocol: str
    classifier: str
    seed: int
    use_rfe: bool
    selected_subsets: tuple = ()  # chosen feature subsets, one per rep (RFE only)
    config_id: str = ""

    @property
    def mean_train(self):
        return float(np.mean([t for t, _ in self.per_rep]))

    @property
    def std_train(self):
        return float(np.std([t for t, _ in self.per_rep]))

    @property
    def mean_test(self):
        return float(np.mean([t for _, t in self.per_rep]))

    @property
    def std_test(self):
        return float(np.std([t for _, t in self.per_rep]))

    def as_row(self):
        return {
            "protocol": self.protocol,
            "config_id": self.config_id,
            "classifier": self.classifier,
            "rfe": self.use_rfe,
            "mean_train": self.mean_train,
            "std_train": self.std_train,
            "mean_test": self.mean_test,
            "std_test": self.std_test,
            "n_rep": len(self.per_rep),
        }


@dataclass(frozen=True)
class TransferResult:
    source_config: str
    target_config: str
    classifier: str
    use_rfe: bool
    train_accuracy: float
    test_accuracy: float
    seed: int
    selected_subset: tuple = ()

    def as_row(self):
        return {
            "protocol": "transfer",
            "source_config": self.source_config,
            "target_config": self.target_config,
            "classifier": self.classifier,
            "rfe": self.use_rfe,
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
        }


def stratified_split(y, test_frac, rng):
    """Class-preserving train/test index split (ratio kept within 1 row)."""
    train_idx, test_idx = [], []
    for cls in np.unique(y):
        members = np.nonzero(y == cls)[0]
        perm = rng.permutation(members)
        n_test = int(round(test_frac * members.size))
        n_test = min(max(n_test, 1), members.size - 1)  # both sides non-empty
        test_idx.extend(perm[:n_test])
        train_idx.extend(perm[n_test:])
    if not test_idx:
        raise EvaluationError("no class has two rows, so none is left to test on")
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


def stratified_folds(y, k, rng):
    """k stratified folds as index arrays (round-robin per class)."""
    if k < 2 or k > y.size:
        raise EvaluationError(f"k={k} incompatible with {y.size} rows")
    folds = [[] for _ in range(k)]
    offset = 0
    for cls in np.unique(y):
        members = rng.permutation(np.nonzero(y == cls)[0])
        for i, idx in enumerate(members):
            folds[(i + offset) % k].append(idx)
        offset += members.size % k
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def _resample(fm, pairs, kind, use_rfe, seed, protocol, config_id):
    """Fit and score each (train_idx, test_idx) pair of the lazy `pairs`.

    With RFE the pair's test rows pick its columns, so its test accuracy is optimistic.
    """
    per_rep, subsets = [], []
    for train_idx, test_idx in pairs:
        cols = slice(None)
        if use_rfe:
            subset = rfe.best_subset_for_split(fm.X, fm.y, kind, train_idx,
                                               [(train_idx, test_idx)], seed=seed)
            subsets.append(subset)
            cols = list(subset)
        Xtr, ytr = fm.X[train_idx][:, cols], fm.y[train_idx]
        model = learn.fit(kind, Xtr, ytr, seed=seed)
        per_rep.append((model.accuracy(Xtr, ytr),
                        model.accuracy(fm.X[test_idx][:, cols], fm.y[test_idx])))
    return EvalResult(per_rep=tuple(per_rep), protocol=protocol, classifier=kind,
                      seed=int(seed), use_rfe=use_rfe, selected_subsets=tuple(subsets),
                      config_id=config_id)


def _both_classes(y):
    if len(np.unique(y)) < 2:
        raise EvaluationError("need both classes present")


def repeated_splits(y, n_rep=10, test_frac=0.33, seed=0):
    """n_rep independent stratified (train_idx, test_idx) pairs, drawn lazily.

    The arguments are checked at the call, before any pair is drawn.
    """
    if n_rep < 1:
        raise EvaluationError(f"n_rep={n_rep}, need at least one split")
    if not 0.0 < test_frac < 1.0:
        raise EvaluationError(f"test_frac={test_frac} must lie in (0, 1)")
    _both_classes(y)
    return (stratified_split(y, test_frac, rng_for(seed, "split", r)) for r in range(n_rep))


def repeated_split_eval(fm, kind, use_rfe=False, n_rep=10, test_frac=0.33, seed=0,
                        config_id=""):
    """n_rep independent stratified 67/33 splits, aggregated mean +- std."""
    return _resample(fm, repeated_splits(fm.y, n_rep, test_frac, seed), kind, use_rfe, seed,
                     f"repeated_split(n={n_rep},test_frac={test_frac})", config_id)


def kfold_cv(fm, kind, use_rfe=False, k=10, seed=0, config_id=""):
    """Stratified k-fold cross-validation."""
    _both_classes(fm.y)

    def pairs():
        all_idx = np.arange(fm.n_rows)
        for i, test_idx in enumerate(stratified_folds(fm.y, k, rng_for(seed, "fold"))):
            train_idx = np.setdiff1d(all_idx, test_idx)
            if len(np.unique(fm.y[train_idx])) < 2:
                raise EvaluationError(f"fold {i}: training part is single-class")
            yield train_idx, test_idx

    return _resample(fm, pairs(), kind, use_rfe, seed, f"kfold(k={k})", config_id)


def transfer_eval(source, target, kind, use_rfe=False, seed=0):
    """Train on all source rows, score on all target rows.

    With RFE the ranking uses all source rows and the subset size is
    chosen by mean accuracy on N_INTERNAL_SPLITS stratified splits of the
    source; target rows never influence training, ranking, or scaling.
    """
    if tuple(source.feature_names) != tuple(target.feature_names):
        raise EvaluationError("source/target feature layouts differ")
    if len(np.unique(source.y)) < 2:
        raise EvaluationError("source has a single class")
    cols = slice(None)
    subset = ()
    if use_rfe:
        inner = [stratified_split(source.y, 0.33, rng_for(seed, "transfer", r))
                 for r in range(N_INTERNAL_SPLITS)]
        subset = rfe.best_subset_for_split(source.X, source.y, kind,
                                           np.arange(source.n_rows), inner, seed=seed)
        cols = list(subset)
    Xtr, Xte = source.X[:, cols], target.X[:, cols]
    model = learn.fit(kind, Xtr, source.y, seed=seed)
    src_id = source.config_ids[0] if source.config_ids else "source"
    tgt_id = target.config_ids[0] if target.config_ids else "target"
    return TransferResult(
        source_config=src_id,
        target_config=tgt_id,
        classifier=kind,
        use_rfe=use_rfe,
        train_accuracy=model.accuracy(Xtr, source.y),
        test_accuracy=model.accuracy(Xte, target.y),
        seed=int(seed),
        selected_subset=subset,
    )


def ranking_frequency(selected_subsets, n_features):
    """How often each feature index appears in the selected subsets."""
    counts = np.zeros(n_features, dtype=int)
    for subset in selected_subsets:
        for idx in subset:
            counts[idx] += 1
    return counts


def emit_report(results, path):
    """Write EvalResult/TransferResult rows as a JSON report, atomically."""
    rows = [r.as_row() for r in results]
    atomic_write(path, json.dumps({"results": rows}, indent=2, sort_keys=True) + "\n")


def check_report(path):
    """Minimal schema check on an emitted report; exit code 2 on failure."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        rows = doc.get("results") if isinstance(doc, dict) else None
        if not isinstance(rows, list) or not rows:
            raise ValueError(f"'results' is {rows!r}, expected a non-empty list")
        for i, row in enumerate(rows):
            for key in ("classifier", "rfe"):
                if key not in row:
                    raise ValueError(f"results[{i}] has no {key!r}")
            for key, val in row.items():
                if key.startswith(("mean_", "std_")) or key.endswith("accuracy"):
                    if not (isinstance(val, (int, float)) and 0.0 <= val <= 1.0):
                        raise ValueError(f"results[{i}][{key!r}] is {val!r}, "
                                         "expected a number in [0, 1]")
    except Exception as exc:
        print(f"report check failed: {exc}", file=sys.stderr)
        return 2
    return 0
