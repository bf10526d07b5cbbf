import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatterkit import learn
from chatterkit.errors import EvaluationError
from chatterkit.evaluate import (
    EvalResult,
    check_report,
    emit_report,
    kfold_cv,
    ranking_frequency,
    repeated_split_eval,
    stratified_folds,
    stratified_split,
    transfer_eval,
)
from chatterkit.featurize import FeatureMatrix


def blobs_matrix(n=40, d=4, gap=3.0, seed=0, config_id="cfg"):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = rng.normal(0, 0.5, (n, d))
    X[:, 0] += (2 * y - 1) * gap
    return FeatureMatrix(
        X=X, y=y,
        feature_names=tuple(f"f{i}" for i in range(d)),
        config_ids=(config_id,),
    )


class TestStratifiedSplit:
    def test_partition_and_stratification(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n0 = int(rng.integers(3, 40))
            n1 = int(rng.integers(3, 40))
            y = np.array([0] * n0 + [1] * n1)
            tr, te = stratified_split(y, 0.33, rng)
            assert sorted(np.concatenate([tr, te])) == list(range(y.size))
            for cls, n_cls in ((0, n0), (1, n1)):
                n_test = int(np.sum(y[te] == cls))
                assert abs(n_test - 0.33 * n_cls) <= 1.0
                assert 1 <= n_test <= n_cls - 1

    def test_folds_partition(self):
        rng = np.random.default_rng(2)
        y = np.array([0] * 17 + [1] * 23)
        folds = stratified_folds(y, 10, rng)
        assert len(folds) == 10
        all_idx = np.concatenate(folds)
        assert sorted(all_idx) == list(range(40))
        sizes = [f.size for f in folds]
        assert max(sizes) - min(sizes) <= 1
        # class ratio within 1 sample of proportional per fold
        for f in folds:
            n1 = int(np.sum(y[f] == 1))
            assert abs(n1 - 23 / 40 * f.size) <= 1.0

    def test_bad_k(self):
        rng = np.random.default_rng(3)
        with pytest.raises(EvaluationError):
            stratified_folds(np.array([0, 1, 0, 1]), 1, rng)
        with pytest.raises(EvaluationError):
            stratified_folds(np.array([0, 1, 0, 1]), 5, rng)


_LABELS = st.lists(st.integers(0, 1), min_size=1, max_size=40).map(np.array)


@settings(max_examples=300, deadline=None)
@given(_LABELS, st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_stratified_split_properties(y, test_frac, seed):
    if np.bincount(y).max() < 2:
        with pytest.raises(EvaluationError, match="none is left to test on"):
            stratified_split(y, test_frac, np.random.default_rng(seed))
        return
    tr, te = stratified_split(y, test_frac, np.random.default_rng(seed))
    assert sorted(np.concatenate([tr, te]).tolist()) == list(range(y.size))
    for cls in np.unique(y):
        n_cls = int(np.sum(y == cls))
        assert abs(int(np.sum(y[te] == cls)) - test_frac * n_cls) <= 1.0
        # every class trains, so a two-class y always gives a two-class fit
        assert cls in y[tr]
        if n_cls >= 2:
            assert cls in y[te]
    again = stratified_split(y, test_frac, np.random.default_rng(seed))
    assert tr.tolist() == again[0].tolist() and te.tolist() == again[1].tolist()


@settings(max_examples=300, deadline=None)
@given(_LABELS.filter(lambda y: y.size >= 2), st.data(), st.integers(0, 2**32 - 1))
def test_stratified_folds_properties(y, data, seed):
    k = data.draw(st.integers(2, y.size))
    folds = stratified_folds(y, k, np.random.default_rng(seed))
    assert len(folds) == k
    assert sorted(np.concatenate(folds).tolist()) == list(range(y.size))
    sizes = [f.size for f in folds]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    for cls in np.unique(y):
        n_cls = int(np.sum(y == cls))
        for f in folds:
            assert abs(int(np.sum(y[f] == cls)) - n_cls / k) < 1.0
    again = stratified_folds(y, k, np.random.default_rng(seed))
    assert [f.tolist() for f in folds] == [f.tolist() for f in again]


class TestRepeatedSplit:
    @pytest.mark.parametrize("kwargs", [dict(n_rep=0), dict(n_rep=-1),
                                        dict(test_frac=0.0), dict(test_frac=1.0),
                                        dict(test_frac=1.5), dict(test_frac=-0.2),
                                        dict(test_frac=float("nan"))])
    def test_bad_settings_raise(self, kwargs):
        with pytest.raises(EvaluationError, match="n_rep|test_frac"):
            repeated_split_eval(blobs_matrix(), "lr", **kwargs)

    def test_rep_count_and_range(self):
        res = repeated_split_eval(blobs_matrix(), "lr", n_rep=7, seed=1)
        assert len(res.per_rep) == 7
        for tr, te in res.per_rep:
            assert 0.0 <= tr <= 1.0
            assert 0.0 <= te <= 1.0

    def test_separable_high_accuracy(self):
        res = repeated_split_eval(blobs_matrix(), "svm", seed=2)
        assert res.mean_test >= 0.95

    def test_deterministic(self):
        fm = blobs_matrix(seed=4)
        a = repeated_split_eval(fm, "lr", seed=3)
        b = repeated_split_eval(fm, "lr", seed=3)
        assert a.per_rep == b.per_rep

    def test_seed_changes_splits(self):
        fm = blobs_matrix(seed=5, gap=0.4)
        a = repeated_split_eval(fm, "lr", seed=1)
        b = repeated_split_eval(fm, "lr", seed=2)
        assert a.per_rep != b.per_rep

    def test_single_class_rejected(self):
        fm = blobs_matrix()
        single = FeatureMatrix(
            X=fm.X, y=np.zeros_like(fm.y), feature_names=fm.feature_names
        )
        with pytest.raises(EvaluationError):
            repeated_split_eval(single, "lr")

    def test_rfe_records_subsets(self):
        res = repeated_split_eval(blobs_matrix(), "lr", use_rfe=True, n_rep=3, seed=1)
        assert len(res.selected_subsets) == 3
        for subset in res.selected_subsets:
            assert 1 <= len(subset) <= 4

    def test_aggregates_match_per_rep(self):
        res = repeated_split_eval(blobs_matrix(seed=6, gap=0.5), "lr", seed=4)
        tests = [te for _, te in res.per_rep]
        assert abs(res.mean_test - np.mean(tests)) < 1e-12
        assert abs(res.std_test - np.std(tests)) < 1e-12


class TestKfold:
    def test_fold_count(self):
        res = kfold_cv(blobs_matrix(), "lr", k=10, seed=1)
        assert len(res.per_rep) == 10
        assert res.protocol == "kfold(k=10)"

    def test_leave_one_out_size_folds(self):
        fm = blobs_matrix(n=10)
        res = kfold_cv(fm, "lr", k=10, seed=1)
        assert len(res.per_rep) == 10

    def test_deterministic(self):
        fm = blobs_matrix(seed=7)
        assert kfold_cv(fm, "rf", k=5, seed=2).per_rep == \
            kfold_cv(fm, "rf", k=5, seed=2).per_rep


class TestTransfer:
    def test_self_transfer_high(self):
        fm = blobs_matrix(seed=8)
        res = transfer_eval(fm, fm, "svm", seed=1)
        assert res.test_accuracy >= 0.95
        assert res.source_config == res.target_config == "cfg"

    def test_shifted_target_degrades(self):
        src = blobs_matrix(seed=9)
        # flip the informative axis so the learned boundary inverts
        tgt = FeatureMatrix(
            X=src.X * np.array([-1.0, 1, 1, 1]), y=src.y,
            feature_names=src.feature_names, config_ids=("tgt",),
        )
        res = transfer_eval(src, tgt, "svm", seed=1)
        assert res.test_accuracy <= 0.2

    def test_single_class_source_rejected(self):
        fm = blobs_matrix()
        single = FeatureMatrix(
            X=fm.X, y=np.ones_like(fm.y), feature_names=fm.feature_names
        )
        with pytest.raises(EvaluationError):
            transfer_eval(single, fm, "lr")

    def test_layout_mismatch_rejected(self):
        fm = blobs_matrix()
        other = FeatureMatrix(
            X=fm.X, y=fm.y, feature_names=tuple(f"g{i}" for i in range(4))
        )
        with pytest.raises(EvaluationError):
            transfer_eval(fm, other, "lr")

    def test_rfe_subset_recorded(self):
        fm = blobs_matrix(seed=10)
        res = transfer_eval(fm, fm, "lr", use_rfe=True, seed=1)
        assert 1 <= len(res.selected_subset) <= 4
        assert 0 in res.selected_subset  # the informative axis survives


def test_ranking_frequency_accounting():
    subsets = [(0, 2), (2,), (1, 2, 3)]
    counts = ranking_frequency(subsets, 5)
    assert list(counts) == [1, 1, 3, 1, 0]
    assert counts.sum() == sum(len(s) for s in subsets)
    assert np.all(counts <= len(subsets))


class TestEmitReport:
    @staticmethod
    def result():
        return EvalResult(
            per_rep=((1.0, 0.9), (0.95, 0.85)),
            protocol="repeated_split(n=2,test_frac=0.33)",
            classifier="lr",
            seed=1,
            use_rfe=False,
            config_id="cfg",
        )

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        emit_report([self.result()], str(path))
        doc = json.loads(path.read_text())
        row = doc["results"][0]
        assert row["classifier"] == "lr"
        assert row["mean_test"] == pytest.approx(0.875)

    def test_check_names_what_is_missing(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        row = self.result().as_row()
        del row["classifier"]
        for doc, named in (({"results": []}, "'results' is []"), ({}, "'results' is None"),
                           ({"results": [row]}, "results[0] has no 'classifier'")):
            path.write_text(json.dumps(doc))
            assert check_report(str(path)) == 2
            assert named in capsys.readouterr().err


def test_no_leakage_canary():
    """A sentinel planted only in test rows must not change the model."""
    fm = blobs_matrix(seed=11)
    rng = np.random.default_rng(0)
    train_idx, test_idx = stratified_split(fm.y, 0.33, rng)
    poisoned = fm.X.copy()
    poisoned[test_idx] = 123456.789
    for kind in learn.KINDS:
        clean = learn.fit(kind, fm.X[train_idx], fm.y[train_idx], seed=3)
        dirty = learn.fit(kind, poisoned[train_idx], fm.y[train_idx], seed=3)
        assert clean.to_json() == dirty.to_json()
