import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chatterkit import learn
from chatterkit.errors import FitError
from chatterkit.featurize import standardize
from chatterkit.learn import (
    Model,
    fit,
    logistic_loss_grad,
)
from chatterkit.trees import GradientBoosting, RandomForest, Tree


def hinge_subgrad(w, Z1, y_signed, lam):
    """A subgradient of the L2-regularized mean hinge loss.

    Z1 carries an appended all-ones bias column; w includes the bias
    weight as its last component.
    """
    viol = y_signed * (Z1 @ w) < 1.0
    return lam * w - (Z1[viol].T @ y_signed[viol]) / y_signed.size


def hinge_loss_subgrad(w, Z1, y_signed, lam):
    """L2-regularized mean hinge loss and hinge_subgrad at w."""
    margins = y_signed * (Z1 @ w)
    loss = 0.5 * lam * float(w @ w) + float(np.mean(np.maximum(0.0, 1.0 - margins)))
    return loss, hinge_subgrad(w, Z1, y_signed, lam)


def _reference_fit_svm(Z, y_signed):
    """learn._fit_svm as it was before the pull was memoized, verbatim: one
    hinge_subgrad per epoch, which gathers the violating rows every time."""
    n, d = Z.shape
    lam = 1.0 / (learn.SVM_C * n)
    Z1 = np.hstack([Z, np.ones((n, 1))])
    w = np.zeros(d + 1)
    for t in range(1, learn.SVM_EPOCHS + 1):
        w -= hinge_subgrad(w, Z1, y_signed, lam) / (lam * t)
    return w[:-1], w[-1]


def separable_blobs(n=100, margin=1.0, seed=0, d=2):
    """Two blobs separated along the first axis with a clear margin."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = rng.normal(0, 0.3, size=(n, d))
    X[:half, 0] -= 1.0 + margin / 2
    X[half:, 0] += 1.0 + margin / 2
    y = np.array([0] * half + [1] * (n - half))
    return X, y


@pytest.mark.parametrize("kind", learn.KINDS)
def test_separable_blobs_perfect_train_accuracy(kind):
    X, y = separable_blobs()
    model = fit(kind, X, y, seed=5)
    assert np.mean(model.predict(X) == y) == 1.0


@pytest.mark.parametrize("kind", learn.KINDS)
def test_single_class_rejected(kind):
    X = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(FitError):
        fit(kind, X, np.zeros(10, dtype=int), seed=1)


@pytest.mark.parametrize("kind", learn.KINDS)
def test_labels_other_than_0_or_1_rejected(kind):
    X, y = separable_blobs(40, d=3)
    for bad, shown in ((y + 1, "[1, 2]"), (2 * y - 1, "[-1, 1]"),
                       (np.where(y == 1, 0.7, 0.0), "[0.0, 0.7]")):
        message = re.escape(f"labels must be 0 or 1, got {shown}")
        with pytest.raises(FitError, match=f"^{message}$"):
            fit(kind, X, bad, seed=1)
    want = fit(kind, X, y, seed=1).to_json()
    assert fit(kind, X, y.astype(bool), seed=1).to_json() == want
    assert fit(kind, X, y.astype(float), seed=1).to_json() == want


@pytest.mark.parametrize("kind", learn.KINDS)
def test_one_label_per_row_required(kind):
    X, y = separable_blobs(10, d=3)
    for bad, shape in ((y[:8], "(8,)"), (y[:, None], "(10, 1)")):
        message = re.escape(f"need one label per row: 10 rows, labels of shape {shape}")
        with pytest.raises(FitError, match=f"^{message}$"):
            fit(kind, X, bad, seed=1)


def test_unknown_kind_and_single_row_rejected():
    X, y = separable_blobs(10)
    with pytest.raises(FitError, match="unknown classifier kind 'knn'"):
        fit("knn", X, y)
    with pytest.raises(FitError, match="need at least 2 rows"):
        fit("lr", X[:1], y[:1])


def test_non_finite_rejected():
    X, y = separable_blobs(20)
    X[3, 1] = np.nan
    with pytest.raises(FitError):
        fit("lr", X, y)


@pytest.mark.parametrize("kind", learn.KINDS)
def test_fit_deterministic(kind):
    X, y = separable_blobs(40, seed=2)
    m1 = fit(kind, X, y, seed=7)
    m2 = fit(kind, X, y, seed=7)
    assert m1.to_json() == m2.to_json()


@pytest.mark.parametrize("kind", learn.KINDS)
def test_serialization_round_trip(kind):
    X, y = separable_blobs(40, seed=3, d=4)
    model = fit(kind, X, y, seed=9)
    text = model.to_json()
    restored = Model.from_json(text)
    assert restored.to_json() == text
    probe = np.random.default_rng(4).normal(size=(25, 4))
    assert np.array_equal(model.predict(probe), restored.predict(probe))
    assert np.allclose(model.decision_scores(probe), restored.decision_scores(probe))
    assert np.allclose(model.importance(), restored.importance())


def test_malformed_model_text_rejected():
    text = fit("svm", *separable_blobs(20), seed=1).to_json()
    doc = json.loads(text)
    with pytest.raises(FitError, match="^model text is not JSON: "):
        Model.from_json(text[:-1])
    for key in ("kind", "scaler", "weights", "feature_names"):
        partial = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(FitError, match=f"^model text has no '{key}' key$"):
            Model.from_json(json.dumps(partial))
    with pytest.raises(FitError, match="^unsupported model format: 2$"):
        Model.from_json(json.dumps({**doc, "format_version": 2}))
    with pytest.raises(FitError, match="^unknown classifier kind 'knn'$"):
        Model.from_json(json.dumps({**doc, "kind": "knn"}))


@pytest.mark.parametrize("field, value", [
    (None, []), (None, "x"), ("weights", 5), ("weights", []), ("scaler", 5),
    ("trees", 5), ("feature_names", 5),
], ids=["list", "string", "weights-int", "weights-empty", "scaler-int", "trees-int",
        "feature_names-int"])
def test_wrong_shape_model_text_rejected(field, value):
    kind = "rf" if field == "trees" else "svm"
    X, y = separable_blobs(20)
    doc = json.loads(fit(kind, X, y, seed=1).to_json())
    text = json.dumps(value if field is None else {**doc, field: value})
    with pytest.raises(FitError, match="^model text is not a model: "):
        Model.from_json(text)


@pytest.mark.parametrize("kind", learn.KINDS)
@pytest.mark.parametrize("d", (0, 1, 2, 5))
def test_zero_rows_score_empty(kind, d):
    X, y = separable_blobs(20, d=max(d, 1))
    model = fit(kind, X[:, :d], y, seed=1)
    scores = model.decision_scores(np.zeros((0, d)))
    assert scores.dtype == np.float64 and scores.shape == (0,)
    assert model.predict(np.zeros((0, d))).shape == (0,)


@pytest.mark.parametrize("kind", learn.KINDS)
def test_width_is_checked_on_every_matrix(kind):
    X, y = separable_blobs(20, d=6)
    model = fit(kind, X, y, seed=1)
    for bad in (np.zeros((5, 0)), np.zeros((0, 5)), np.zeros((3, 7)), np.zeros(6)):
        with pytest.raises(FitError, match="^expected 6 features"):
            model.predict(bad)
    assert model.predict(np.zeros((0, 6))).size == 0
    with pytest.raises(FitError, match="^2 feature names for 6 features$"):
        fit(kind, X, y, seed=1, feature_names=("a", "b"))


def test_predict_width_mismatch():
    X, y = separable_blobs(20)
    model = fit("rf", X, y, seed=1)
    with pytest.raises(FitError):
        model.predict(np.zeros((3, 5)))


@pytest.mark.parametrize("kind", learn.KINDS)
def test_scores_monotone_with_predict(kind):
    X, y = separable_blobs(60, seed=6, d=3)
    model = fit(kind, X, y, seed=2)
    probe = np.random.default_rng(7).normal(size=(50, 3))
    scores = model.decision_scores(probe)
    labels = model.predict(probe)
    assert np.array_equal(labels, (scores > 0).astype(int))


def test_lr_scores_are_log_odds():
    X, y = separable_blobs(60)
    model = fit("lr", X, y)
    s = model.decision_scores(X)
    p = 1.0 / (1.0 + np.exp(-s))
    assert np.all((p > 0) & (p < 1))


def test_svm_margin_scales_score():
    X, y = separable_blobs(100, margin=1.0, seed=8)
    model = fit("svm", X, y, seed=0)
    near = np.array([[0.3, 0.0]])
    far = np.array([[3.0, 0.0]])
    assert abs(model.decision_scores(far)[0]) > abs(model.decision_scores(near)[0])


class TestImportance:
    def test_lr_planted_signal(self):
        rng = np.random.default_rng(9)
        n = 200
        y = rng.integers(0, 2, n)
        X = np.column_stack([y + rng.normal(0, 0.05, n), rng.normal(0, 1, n)])
        imp = fit("lr", X, y).importance()
        assert imp[0] > imp[1]

    @pytest.mark.parametrize("kind", ("rf", "gb"))
    def test_tree_importances_sum_to_one(self, kind):
        X, y = separable_blobs(50, seed=10, d=5)
        imp = fit(kind, X, y, seed=3).importance()
        assert imp.shape == (5,)
        assert np.all(imp >= 0)
        assert abs(imp.sum() - 1.0) < 1e-9

    def test_single_feature_model(self):
        X, y = separable_blobs(30, d=1)
        assert fit("lr", X, y).importance().shape == (1,)


class TestGradientChecks:
    def test_logistic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(30, 4))
        ys = rng.choice([-1.0, 1.0], size=30)
        lam = 1e-4
        eps = 1e-6
        for _ in range(20):
            w = rng.normal(size=4)
            b = float(rng.normal())
            _, gw, gb = logistic_loss_grad(w, b, Z, ys, lam)
            for i in range(4):
                dw = np.zeros(4)
                dw[i] = eps
                lp, _, _ = logistic_loss_grad(w + dw, b, Z, ys, lam)
                lm, _, _ = logistic_loss_grad(w - dw, b, Z, ys, lam)
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - gw[i]) <= 1e-5 * max(1.0, abs(fd))
            lp, _, _ = logistic_loss_grad(w, b + eps, Z, ys, lam)
            lm, _, _ = logistic_loss_grad(w, b - eps, Z, ys, lam)
            fd = (lp - lm) / (2 * eps)
            assert abs(fd - gb) <= 1e-5 * max(1.0, abs(fd))

    def test_hinge_subgradient_matches_finite_differences_off_kink(self):
        rng = np.random.default_rng(12)
        Z1 = np.hstack([rng.normal(size=(30, 3)), np.ones((30, 1))])
        ys = rng.choice([-1.0, 1.0], size=30)
        lam = 0.01
        eps = 1e-7
        checked = 0
        while checked < 20:
            w = rng.normal(size=4)
            margins = ys * (Z1 @ w)
            if np.min(np.abs(margins - 1.0)) <= 1e-3:
                continue
            _, grad = hinge_loss_subgrad(w, Z1, ys, lam)
            for i in range(4):
                dw = np.zeros(4)
                dw[i] = eps
                lp, _ = hinge_loss_subgrad(w + dw, Z1, ys, lam)
                lm, _ = hinge_loss_subgrad(w - dw, Z1, ys, lam)
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(fd))
            checked += 1


def oracle_cart(X, y):
    """Brute-force CART: plain nested loops, same tie rules (lowest
    feature, lowest threshold), gini impurity, grow until pure."""

    def gini_of(labels):
        if len(labels) == 0:
            return 0.0
        p1 = sum(labels) / len(labels)
        return 1.0 - p1 * p1 - (1.0 - p1) ** 2

    def build(rows, labels):
        n = len(labels)
        ones = sum(labels)
        majority = 1 if 2 * ones > n else 0
        if n < 2 or ones == 0 or ones == n:
            return ("leaf", majority)
        best = None
        for j in range(len(rows[0])):
            values = sorted(set(r[j] for r in rows))
            for lo, hi in zip(values, values[1:]):
                thr = (lo + hi) / 2.0
                left = [labels[i] for i in range(n) if rows[i][j] <= thr]
                right = [labels[i] for i in range(n) if rows[i][j] > thr]
                score = (len(left) * gini_of(left) + len(right) * gini_of(right)) / n
                if best is None or score < best[0]:
                    best = (score, j, thr)
        if best is None or best[0] >= gini_of(labels):
            return ("leaf", majority)
        _, j, thr = best
        li = [i for i in range(n) if rows[i][j] <= thr]
        ri = [i for i in range(n) if rows[i][j] > thr]
        return (
            "node", j, thr,
            build([rows[i] for i in li], [labels[i] for i in li]),
            build([rows[i] for i in ri], [labels[i] for i in ri]),
        )

    def classify(tree, row):
        while tree[0] == "node":
            tree = tree[3] if row[tree[1]] <= tree[2] else tree[4]
        return tree[1]

    tree = build([list(r) for r in X], list(int(v) for v in y))
    return np.array([classify(tree, row) for row in X])


def test_single_tree_matches_cart_oracle():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(8, 33))
        X = np.round(rng.normal(size=(n, 3)), 2)
        # ensure distinct rows
        X[:, 0] += np.arange(n) * 1e-6
        y = rng.integers(0, 2, n)
        if len(np.unique(y)) < 2:
            continue
        tree = Tree(gini=True).fit(X, y)
        assert np.array_equal(tree.predict(X), oracle_cart(X, y))


def test_gb_training_loss_non_increasing():
    rng = np.random.default_rng(14)
    for seed in range(3):
        X = rng.normal(size=(40, 6))
        y = rng.integers(0, 2, 40)
        if len(np.unique(y)) < 2:
            continue
        gb = GradientBoosting().fit(X, y)
        hist = np.array(gb.loss_history_)
        assert np.all(np.diff(hist) <= 1e-12)


def test_gb_line_search_giving_up_keeps_the_base_score(monkeypatch):
    losses = iter(range(10**6))  # every loss is larger than the one before
    monkeypatch.setattr(GradientBoosting, "_logloss",
                        staticmethod(lambda F, y_signed: float(next(losses))))
    X, y = separable_blobs(20, d=3)
    gb = GradientBoosting().fit(X, y)
    assert [scale for _, scale in gb.stages] == [0.0] * len(gb.stages)
    assert gb.loss_history_ == [0.0] * (len(gb.stages) + 1)
    assert np.array_equal(gb.importance(), np.zeros(3))
    assert np.array_equal(gb.decision_function(X), np.full(20, gb.base_score))


@pytest.mark.parametrize("kind", ("rf", "gb"))
def test_tree_models_invariant_to_monotone_transforms(kind):
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 4))
    y = rng.integers(0, 2, 40)
    m1 = fit(kind, X, y, seed=21)
    X2 = np.column_stack([
        X[:, 0] ** 3,
        np.exp(X[:, 1]),
        5.0 * X[:, 2] + 3.0,
        np.arctan(X[:, 3]),
    ])
    m2 = fit(kind, X2, y, seed=21)
    assert np.array_equal(m1.predict(X), m2.predict(X2))


def test_forest_seed_controls_bootstrap():
    X, y = separable_blobs(40, seed=16, d=3)
    f1 = RandomForest(seed=1).fit(X, y)
    f2 = RandomForest(seed=1).fit(X, y)
    f3 = RandomForest(seed=2).fit(X, y)
    d1 = [t.to_dict() for t in f1.trees]
    d2 = [t.to_dict() for t in f2.trees]
    d3 = [t.to_dict() for t in f3.trees]
    assert d1 == d2
    assert d1 != d3


def test_forced_negative_decision_rule():
    X, y = separable_blobs(20)
    model = fit("svm", X, y)
    # a weight vector of zeros with negative bias labels everything 0
    zeroed = Model(
        kind="svm",
        feature_names=model.feature_names,
        seed=0,
        scaler=model.scaler,
        impl=(np.array([0.0, 0.0]), -1.0),
    )
    assert np.all(zeroed.predict(X) == 0)


@st.composite
def _svm_problem(draw):
    """(X, y): 2-60 rows, 1-31 columns of tied small integers or free
    floats, and labels with both classes."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 31))
    values = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-1e3, 1e3, allow_subnormal=False))
    X = draw(hnp.arrays(np.float64, (n, d), elements=values))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    y[0], y[-1] = 0, 1
    return X, y


def _opposite_duplicates():
    """Every row twice, once per label: each epoch has violators."""
    rows = np.random.default_rng(30).normal(size=(10, 4))
    return np.repeat(rows, 2, axis=0), np.tile([0, 1], 10)


def _constant_column():
    """Column 1 standardizes to all zeros."""
    X, y = separable_blobs(30, seed=31, d=3)
    X[:, 1] = 2.5
    return X, y


def _transfer_linear_shape():
    """20 x 30, the shape of the transfer_linear workload's source matrix."""
    X = np.random.default_rng(32).normal(size=(20, 30))
    return X, np.repeat([0, 1], 10)


@settings(max_examples=100, deadline=None)
@given(_svm_problem())
@example((np.array([[0.0], [1.0]]), np.array([0, 1])))
@example(_opposite_duplicates())
@example(separable_blobs(40, margin=3.0, seed=33))  # 12 distinct masks, most pulls reused
@example(_constant_column())
@example(_transfer_linear_shape())
def test_svm_fit_matches_per_epoch_subgradient(problem):
    X, y = problem
    Z = standardize(X).transform(X)
    y_signed = 2.0 * y - 1.0
    w_ref, b_ref = _reference_fit_svm(Z, y_signed)
    w, b = learn._fit_svm(Z, y_signed)
    assert w.tobytes() == w_ref.tobytes()
    assert np.float64(b).tobytes() == np.float64(b_ref).tobytes()


# sha256 of Model.to_json() for learn.fit("svm", *_svm_digest_matrix(), seed=7),
# taken with the per-epoch subgradient loop; the memoized pull must not move it
_SVM_DIGEST = "de70937c0e978762eafa323effeea4c913d64e01e79357e5dc8e10635c229ee6"


def _svm_digest_matrix():
    """40 x 6, rounded to one decimal, noisy labels, last column constant."""
    rng = np.random.default_rng(21)
    X = np.round(rng.normal(size=(40, 6)), 1)
    X[:, 5] = 1.0
    y = (X[:, 0] + 0.5 * rng.normal(size=40) > 0).astype(int)
    return X, y


def test_seeded_svm_model_byte_identical_to_per_epoch_loop():
    text = fit("svm", *_svm_digest_matrix(), seed=7).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _SVM_DIGEST


@st.composite
def _fit_many_problem(draw):
    """(X, y, jobs): 2-16 rows, 0-6 columns, and 1-6 jobs of one or two
    shapes, whose rows repeat and hold both classes."""
    n = draw(st.integers(2, 16))
    d = draw(st.integers(0, 6))
    values = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-1e3, 1e3, allow_subnormal=False))
    X = draw(hnp.arrays(np.float64, (n, d), elements=values))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    y[0], y[-1] = 0, 1
    shapes = draw(st.lists(st.tuples(st.integers(2, 2 * n), st.integers(0, d)),
                           min_size=1, max_size=2))
    jobs = []
    for _ in range(draw(st.integers(1, 6))):
        n_rows, n_cols = draw(st.sampled_from(shapes))
        rest = draw(st.lists(st.integers(0, n - 1), min_size=n_rows - 2, max_size=n_rows - 2))
        rows = np.array(draw(st.permutations([0, n - 1, *rest])))
        cols = np.array(draw(st.permutations(range(d)))[:n_cols], dtype=int)
        jobs.append((rows, cols))
    return X, y, jobs


def _zero_column_jobs():
    X, y = separable_blobs(12, seed=40)
    return X[:, :0], y, [(np.arange(12), np.arange(0)), (np.array([0, 11, 11]), np.arange(0))]


def _alternating_jobs():
    """Shapes (12, 3) and (8, 2) take turns, so the two groups interleave."""
    X, y = separable_blobs(20, seed=41, d=4)
    rng = np.random.default_rng(41)
    jobs = []
    for i in range(5):
        n_rows, n_cols = (12, 3) if i % 2 == 0 else (8, 2)
        rows = np.concatenate([[0, 19], rng.integers(0, 20, n_rows - 2)])
        jobs.append((rows, rng.permutation(4)[:n_cols]))
    return X, y, jobs


@pytest.mark.parametrize("kind", learn.KINDS)
@settings(max_examples=40, deadline=None)
@given(problem=_fit_many_problem())
@example(problem=_zero_column_jobs())
@example(problem=_alternating_jobs())
def test_fit_many_matches_fit_loop(kind, problem):
    X, y, jobs = problem
    models = learn.fit_many(kind, X, y, jobs, seed=3)
    loop = [fit(kind, X[rows][:, cols], y[rows], seed=3) for rows, cols in jobs]
    assert [m.to_json() for m in models] == [m.to_json() for m in loop]
    unseen = np.random.default_rng(len(jobs)).normal(size=(7, X.shape[1]))
    for (_, cols), model, want in zip(jobs, models, loop):
        scores = model.decision_scores(unseen[:, cols])
        assert scores.tobytes() == want.decision_scores(unseen[:, cols]).tobytes()


@pytest.mark.parametrize("kind", learn.KINDS)
def test_fit_many_refuses_a_bad_job_as_fit_does(kind):
    X, y = separable_blobs(20, d=3)
    X[5, 1] = np.nan
    cols = np.array([2, 0])
    good = (np.arange(6, 20), cols)
    assert learn.fit_many(kind, X, y, []) == []
    for bad in ((np.arange(8), cols),  # one class
                (np.arange(20), np.array([1, 2])),  # a NaN
                (np.array([12]), cols)):  # one row
        rows, bad_cols = bad
        with pytest.raises(FitError) as by_fit:
            fit(kind, X[rows][:, bad_cols], y[rows], seed=1)
        with pytest.raises(FitError) as by_many:
            learn.fit_many(kind, X, y, [good, bad, good], seed=1)
        assert str(by_many.value) == str(by_fit.value)
    with pytest.raises(FitError, match="^unknown classifier kind 'knn'"):
        learn.fit_many("knn", X, y, [good])
