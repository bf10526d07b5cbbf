"""The shared resampling loop and the one nested-subset selection
against the protocol code they replaced.

`repeated_split_eval`, `kfold_cv` and `transfer_eval` must return what
the old per-protocol loops returned (equal `repr`), or raise the same
exception with the same message; `rfe.best_subset_for_split` must pick
the old subset. The old code is kept here, unchanged, as the reference; the
`rfe` namespace below stands in for the module it called into.
"""

import types

import numpy as np
import pytest

from chatterkit import evaluate, learn
from chatterkit import rfe as rfe_module
from chatterkit.errors import EvaluationError
from chatterkit.evaluate import EvalResult, TransferResult, stratified_folds, stratified_split
from chatterkit.featurize import FeatureMatrix
from chatterkit.rfe import nested_subsets, rank_features
from chatterkit.seeds import rng_for


# the old rfe.select_best_k and rfe.best_subset_for_split, verbatim

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


rfe = types.SimpleNamespace(
    rank_features=rank_features,
    select_best_k=select_best_k,
    best_subset_for_split=best_subset_for_split,
)


def _accuracy(model, X, y):
    return float(np.mean(model.predict(X) == y))


# the old evaluate protocols, verbatim

def _one_split_scores(fm, train_idx, test_idx, kind, use_rfe, seed):
    Xtr, ytr = fm.X[train_idx], fm.y[train_idx]
    Xte, yte = fm.X[test_idx], fm.y[test_idx]
    if use_rfe:
        subset, train_acc, test_acc = rfe.best_subset_for_split(
            Xtr, ytr, Xte, yte, kind, seed=seed
        )
        return train_acc, test_acc, subset
    model = learn.fit(kind, Xtr, ytr, seed=seed, feature_names=fm.feature_names)
    return _accuracy(model, Xtr, ytr), _accuracy(model, Xte, yte), ()


def repeated_split_eval(fm, kind, use_rfe=False, n_rep=10, test_frac=0.33, seed=0,
                        config_id=""):
    """n_rep independent stratified 67/33 splits, aggregated mean +- std."""
    if len(np.unique(fm.y)) < 2:
        raise EvaluationError("need both classes present")
    per_rep, subsets = [], []
    for r in range(n_rep):
        rng = rng_for(seed, "split", r)
        for attempt in range(100):
            train_idx, test_idx = stratified_split(fm.y, test_frac, rng)
            if len(np.unique(fm.y[train_idx])) == 2:
                break
        else:
            raise EvaluationError("could not draw a two-class training split")
        train_acc, test_acc, subset = _one_split_scores(
            fm, train_idx, test_idx, kind, use_rfe, seed
        )
        per_rep.append((train_acc, test_acc))
        subsets.append(subset)
    return EvalResult(
        per_rep=tuple(per_rep),
        protocol=f"repeated_split(n={n_rep},test_frac={test_frac})",
        classifier=kind,
        seed=int(seed),
        use_rfe=use_rfe,
        selected_subsets=tuple(subsets) if use_rfe else (),
        config_id=config_id,
    )


def kfold_cv(fm, kind, use_rfe=False, k=10, seed=0, config_id=""):
    """Stratified k-fold cross-validation."""
    if len(np.unique(fm.y)) < 2:
        raise EvaluationError("need both classes present")
    rng = rng_for(seed, "fold")
    folds = stratified_folds(fm.y, k, rng)
    all_idx = np.arange(fm.n_rows)
    per_rep, subsets = [], []
    for i, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, test_idx)
        if len(np.unique(fm.y[train_idx])) < 2:
            raise EvaluationError(f"fold {i}: training part is single-class")
        if test_idx.size == 0:
            raise EvaluationError(f"fold {i}: empty test fold")
        train_acc, test_acc, subset = _one_split_scores(
            fm, train_idx, test_idx, kind, use_rfe, seed
        )
        per_rep.append((train_acc, test_acc))
        subsets.append(subset)
    return EvalResult(
        per_rep=tuple(per_rep),
        protocol=f"kfold(k={k})",
        classifier=kind,
        seed=int(seed),
        use_rfe=use_rfe,
        selected_subsets=tuple(subsets) if use_rfe else (),
        config_id=config_id,
    )


def transfer_eval(source, target, kind, use_rfe=False, seed=0,
                  n_internal_splits=5):
    """Train on all source rows, score on all target rows.

    With RFE the ranking is computed on all source rows and the subset
    size is chosen by internal stratified splits of the source; target
    rows never influence training, ranking, or scaling.
    """
    if tuple(source.feature_names) != tuple(target.feature_names):
        raise EvaluationError("source/target feature layouts differ")
    if len(np.unique(source.y)) < 2:
        raise EvaluationError("source has a single class")
    cols = None
    subset = ()
    if use_rfe:
        ranking = rfe.rank_features(source.X, source.y, kind, seed=seed)

        def protocol(X_sub, y):
            accs = []
            for r in range(n_internal_splits):
                rng = rng_for(seed, "transfer", r)
                tr, te = stratified_split(y, 0.33, rng)
                model = learn.fit(kind, X_sub[tr], y[tr], seed=seed)
                accs.append(float(np.mean(model.predict(X_sub[te]) == y[te])))
            return float(np.mean(accs))

        best_k, _ = rfe.select_best_k(source.X, source.y, ranking, protocol)
        subset = tuple(ranking.order[:best_k])
        cols = list(subset)
    Xtr = source.X if cols is None else source.X[:, cols]
    Xte = target.X if cols is None else target.X[:, cols]
    model = learn.fit(kind, Xtr, source.y, seed=seed)
    src_id = source.config_ids[0] if source.config_ids else "source"
    tgt_id = target.config_ids[0] if target.config_ids else "target"
    return TransferResult(
        source_config=src_id,
        target_config=tgt_id,
        classifier=kind,
        use_rfe=use_rfe,
        train_accuracy=float(np.mean(model.predict(Xtr) == source.y)),
        test_accuracy=float(np.mean(model.predict(Xte) == target.y)),
        seed=int(seed),
        selected_subset=subset,
    )


def _matrix(X, y, config_id="cfg", names=None):
    X = np.asarray(X, dtype=float)
    names = names or tuple(f"f{i}" for i in range(X.shape[1]))
    return FeatureMatrix(X=X, y=y, feature_names=names, config_ids=(config_id,))


def _cases():
    """name -> (source, target): overlapping, separable and edge-case matrices."""
    rng = np.random.default_rng(70)
    y = np.arange(24) % 2
    # rounded, weakly informative columns: ties in importances and in
    # accuracies, and a transfer subset that depends on the inner splits
    X = np.round(rng.normal(size=(24, 4)) + 0.4 * y[:, None] * [1, 0.5, 0, 0], 1)
    sep = rng.normal(0, 0.5, (20, 3))
    sep[:, 1] += 3 * (np.arange(20) % 2)
    lone = rng.normal(size=(9, 2))
    bad = X.copy()
    bad[5, 2] = np.inf
    return {
        "overlap": (_matrix(X, y), _matrix(X[:, ::-1] + 0.3, y, "tgt")),
        "separable": (_matrix(sep, np.arange(20) % 2), _matrix(-sep, np.arange(20) % 2, "t")),
        # one row of class 1: it always trains, and k-fold's third fold has
        # a single-class training part
        "lone_row": (_matrix(lone, [0] * 5 + [1] + [0] * 3),
                     _matrix(lone, [0, 1] * 4 + [0], "t")),
        # two rows: every split has an empty test side
        "two_rows": (_matrix([[0.0, 1.0], [1.0, 0.5]], [0, 1]),
                     _matrix([[0.5, 0.5], [2.0, 2.0]], [1, 0], "t")),
        "single_class": (_matrix(X, np.zeros(24, int)), _matrix(X, y, "t")),
        "non_finite": (_matrix(bad, y), _matrix(X, y, "t")),
        "layouts_differ": (_matrix(X, y), _matrix(X, y, "t", tuple("abcd"))),
    }


CASES = _cases()


def _assert_same(got, want, name, protocol):
    if name == "two_rows" and want.startswith("IndexError"):
        # the old split returned a float index array for its empty test
        # side, and indexing with it raised; the split now says why
        assert got == ("EvaluationError: no class has two rows, "
                       "so none is left to test on"), (name, protocol)
    else:
        assert got == want, (name, protocol)


def _outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # the reference must raise the same
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("use_rfe", (False, True), ids=("plain", "rfe"))
@pytest.mark.parametrize("kind", learn.KINDS)
def test_protocols_match_reference(kind, use_rfe):
    seen = {}
    for name, (source, target) in CASES.items():
        if use_rfe and kind in ("rf", "gb") and name == "separable":
            continue  # slow, and covered by the other kinds
        for protocol, new, old, args in (
            ("split", evaluate.repeated_split_eval, repeated_split_eval,
             dict(n_rep=2, seed=3, config_id=name)),
            ("kfold", evaluate.kfold_cv, kfold_cv, dict(k=3, seed=4, config_id=name)),
        ):
            got = _outcome(new, source, kind, use_rfe=use_rfe, **args)
            _assert_same(got, _outcome(old, source, kind, use_rfe=use_rfe, **args),
                         name, protocol)
            seen[name, protocol] = got
        got = _outcome(evaluate.transfer_eval, source, target, kind, use_rfe=use_rfe, seed=5)
        _assert_same(got, _outcome(transfer_eval, source, target, kind, use_rfe=use_rfe,
                                   seed=5), name, "transfer")
        seen[name, "transfer"] = got
    # the comparison covers every error path and the edge cases
    assert seen["lone_row", "kfold"] == (
        "EvaluationError: fold 2: training part is single-class")
    assert seen["two_rows", "kfold"] == "EvaluationError: k=3 incompatible with 2 rows"
    assert seen["two_rows", "split"].startswith("EvaluationError: no class has two rows")
    assert seen["non_finite", "split"] == "FitError: non-finite feature values"
    assert seen["layouts_differ", "transfer"] == (
        "EvaluationError: source/target feature layouts differ")
    assert seen["single_class", "kfold"] == "EvaluationError: need both classes present"
    assert seen["single_class", "transfer"] == "EvaluationError: source has a single class"
    if use_rfe:
        assert "selected_subsets=((" in seen["overlap", "split"]


@pytest.mark.parametrize("kind", ("svm", "lr"))
def test_best_subset_for_split_matches_reference(kind):
    source, target = CASES["overlap"]
    args = (source.X[:16], source.y[:16], target.X[16:], target.y[16:], kind)
    subset, _, _ = best_subset_for_split(*args, seed=2)
    X, y = np.vstack([args[0], args[2]]), np.concatenate([args[1], args[3]])
    tr, te = np.arange(16), np.arange(16, 24)
    assert repr(rfe_module.best_subset_for_split(X, y, kind, tr, [(tr, te)], seed=2)) == repr(
        subset)


def test_single_class_checked_before_fold_count():
    tiny = _matrix([[0.0], [1.0]], [1, 1])
    with pytest.raises(EvaluationError, match="need both classes present"):
        evaluate.kfold_cv(tiny, "lr", k=5)
