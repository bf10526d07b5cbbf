"""The batched split kernel, the lockstep grower and the flat-array tree
against the code they replaced.

`_best_split` must return, for every node of a batch, exactly the
(impurity, feature, threshold) tuple that the old per-feature loops and
the old one-node kernel returned. `Tree` must grow, predict and
serialise exactly as the old linked-node `ClassificationTree` and
`RegressionTree` did, and as the recursive flat-array `Tree._build` did;
`RandomForest` exactly as its old one-tree-at-a-time loop did, and
`GradientBoosting` as its old per-stage fit and predict did, so that
seeded forests and boosted models stay byte-identical. The old code is
kept here, unchanged, as the reference.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chatterkit import learn
from chatterkit.trees import (GB_LEARNING_RATE, GB_MAX_DEPTH, GB_ROUNDS, N_TREES,
                              GradientBoosting, RandomForest, Tree, _best_split, _gini)


def _split_one_node(X, t, features, gini):
    """Best (impurity, feature, threshold) over candidate features, or None.

    Impurity is the size-weighted Gini of the two children when `gini`
    is true (t holds 0/1 labels), else their summed squared error about
    the child means (t holds float targets). Positions between equal
    neighbouring values cannot be split and are masked to inf.
    """
    n = t.size
    cols = X[:, features]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    ts = t[order]
    splittable = xs[1:] > xs[:-1]
    if not splittable.any():
        return None
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    cum = np.cumsum(ts, axis=0)
    if gini:
        n1_left = cum[:-1]
        n1_right = cum[-1] - n1_left
        p1l = n1_left / n_left
        p1r = n1_right / n_right
        score = (
            n_left * (1.0 - p1l**2 - (1.0 - p1l) ** 2)
            + n_right * (1.0 - p1r**2 - (1.0 - p1r) ** 2)
        ) / n
    else:
        cum2 = np.cumsum(ts * ts, axis=0)
        sl, sl2 = cum[:-1], cum2[:-1]
        sr, sr2 = cum[-1] - sl, cum2[-1] - sl2
        score = (sl2 - sl * sl / n_left) + (sr2 - sr * sr / n_right)
    score = np.where(splittable, score, np.inf).T  # feature-major
    j, i = divmod(int(np.argmin(score)), n - 1)
    threshold = 0.5 * (float(xs[i, j]) + float(xs[i + 1, j]))
    return float(score[j, i]), int(features[j]), float(threshold)


def _padded(X, t):
    """X and t with the padding row `_best_split` reads: NaN, target 0."""
    return np.vstack((X, np.full(X.shape[1], np.nan))), np.append(t, 0.0)


def _split(X, t, features, gini):
    """`_best_split` on one node holding every row of X."""
    return _best_split(*_padded(X, t), [np.arange(t.size)], [features], gini)[0]


def _best_split_gini(X, y, features):
    """Best (feature, threshold, gini) over candidate features, or None."""
    n = y.size
    parent_n1 = int(y.sum())
    best = None  # (gini, feature, threshold)
    for j in features:
        x = X[:, j]
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        splittable = np.nonzero(xs[1:] > xs[:-1])[0]
        if splittable.size == 0:
            continue
        cum1 = np.cumsum(ys)
        n_left = splittable + 1
        n1_left = cum1[splittable]
        n_right = n - n_left
        n1_right = parent_n1 - n1_left
        p1l = n1_left / n_left
        p1r = n1_right / n_right
        gini = (
            n_left * (1.0 - p1l**2 - (1.0 - p1l) ** 2)
            + n_right * (1.0 - p1r**2 - (1.0 - p1r) ** 2)
        ) / n
        k = int(np.argmin(gini))  # first minimum = lowest threshold
        if best is None or gini[k] < best[0]:
            i = splittable[k]
            best = (float(gini[k]), int(j), float(0.5 * (xs[i] + xs[i + 1])))
    return best


def _best_split_mse(X, t, features):
    """Variance-minimizing split for regression targets t."""
    n = t.size
    best = None
    for j in features:
        x = X[:, j]
        order = np.argsort(x, kind="stable")
        xs, ts = x[order], t[order]
        splittable = np.nonzero(xs[1:] > xs[:-1])[0]
        if splittable.size == 0:
            continue
        cum = np.cumsum(ts)
        cum2 = np.cumsum(ts * ts)
        n_left = splittable + 1
        n_right = n - n_left
        sl, sl2 = cum[splittable], cum2[splittable]
        sr, sr2 = cum[-1] - sl, cum2[-1] - sl2
        sse = (sl2 - sl * sl / n_left) + (sr2 - sr * sr / n_right)
        k = int(np.argmin(sse))
        if best is None or sse[k] < best[0]:
            i = splittable[k]
            best = (float(sse[k]), int(j), float(0.5 * (xs[i] + xs[i + 1])))
    return best


_TIED = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
_FREE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _column(draw, n, earlier):
    """One feature column: heavily tied, constant, free floats, rounded,
    or a negated earlier column (the same partitions in reverse order,
    so exact ties across features are common)."""
    styles = ["tied", "constant", "free", "rounded"] + ["mirror"] * bool(earlier)
    style = draw(st.sampled_from(styles))
    if style == "mirror":
        return [-v for v in draw(st.sampled_from(earlier))]
    if style == "constant":
        return [draw(_FREE)] * n
    if style == "rounded":
        return [round(v, 1) for v in draw(st.lists(
            st.floats(-3, 3), min_size=n, max_size=n))]
    elem = _TIED if style == "tied" else st.one_of(_TIED, _FREE)
    return draw(st.lists(elem, min_size=n, max_size=n))


@st.composite
def _split_problem(draw, target):
    """(X, t, features): features is a sorted subset of the columns."""
    n = draw(st.integers(0, 24))
    d = draw(st.integers(0, 6))
    cols = []
    for _ in range(d):
        cols.append(draw(_column(n, cols)))
    X = np.array(cols, dtype=float).T.reshape(n, d)
    t = np.array(draw(st.lists(target, min_size=n, max_size=n)))
    features = sorted(draw(st.sets(st.integers(0, d - 1)))) if d else []
    if draw(st.booleans()):
        features = np.arange(d)
    return X, t, features


@settings(max_examples=400, deadline=None)
@given(_split_problem(st.integers(0, 1)))
def test_gini_split_matches_reference_loop(problem):
    X, y, features = problem
    y = y.astype(int)
    assert repr(_split(X, y, features, gini=True)) == repr(
        _best_split_gini(X, y, features)
    )


@settings(max_examples=400, deadline=None)
@given(_split_problem(st.one_of(_TIED, st.floats(-10, 10))))
def test_mse_split_matches_reference_loop(problem):
    X, t, features = problem
    t = t.astype(float)
    assert repr(_split(X, t, features, gini=False)) == repr(
        _best_split_mse(X, t, features)
    )


def test_ties_go_to_lowest_feature_then_lowest_threshold():
    # column 1 mirrors column 0: both separate y perfectly, column 0 at
    # its last threshold and column 1 at its first; column 2 is constant
    X = np.array([[0.0, 0, 5], [1, -1, 5], [2, -2, 5], [3, -3, 5]])
    y = np.array([0, 0, 0, 1])
    for gini, t in ((True, y), (False, y.astype(float))):
        assert _split(X, t, [0, 1, 2], gini) == (0.0, 0, 2.5)
        assert _split(X, t, [1, 2], gini) == (0.0, 1, -2.5)
        assert _split(X, t, [2], gini) is None
        assert _split(X[:, :0], t, [], gini) is None
    # two equally good thresholds within one column: the lower one wins
    impurity, feature, threshold = _split(X, np.array([0, 1, 1, 0]), [0], True)
    assert impurity == pytest.approx(1 / 3) and (feature, threshold) == (0, 0.5)


@dataclass
class _Node:
    value: float  # majority class (classification) or leaf value (regression)
    feature: int = -1
    threshold: float = 0.0
    left: "._Node" = None
    right: "._Node" = None

    @property
    def is_leaf(self):
        return self.left is None

    def to_dict(self):
        if self.is_leaf:
            return {"value": self.value}
        return {
            "value": self.value,
            "feature": int(self.feature),
            "threshold": float(self.threshold),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        node = cls(value=d["value"])
        if "feature" in d:
            node.feature = d["feature"]
            node.threshold = d["threshold"]
            node.left = cls.from_dict(d["left"])
            node.right = cls.from_dict(d["right"])
        return node


class ClassificationTree:
    """CART with Gini impurity; grows until pure or unsplittable."""

    def __init__(self, max_features=None, rng=None):
        self.max_features = max_features
        self.rng = rng
        self.root = None
        self.n_features = 0
        self.importance_ = None

    def _candidate_features(self, d):
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        picked = self.rng.choice(d, size=self.max_features, replace=False)
        return np.sort(picked)

    def _build(self, X, y, n_total):
        n = y.size
        n1 = int(y.sum())
        majority = 1 if n1 * 2 > n else 0
        if n < 2 or n1 == 0 or n1 == n:
            return _Node(value=majority)
        best = _split_one_node(X, y, self._candidate_features(X.shape[1]), gini=True)
        if best is None:
            return _Node(value=majority)
        child_gini, feature, threshold = best
        decrease = (_gini(n1, n) - child_gini) * n / n_total
        if decrease <= 0:
            return _Node(value=majority)
        self.importance_[feature] += decrease
        mask = X[:, feature] <= threshold
        node = _Node(value=majority, feature=feature, threshold=threshold)
        node.left = self._build(X[mask], y[mask], n_total)
        node.right = self._build(X[~mask], y[~mask], n_total)
        return node

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        self.n_features = X.shape[1]
        self.importance_ = np.zeros(self.n_features)
        self.root = self._build(X, y, y.size)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0], dtype=int)
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


class RegressionTree:
    """Squared-error CART used as the gradient-boosting base learner."""

    def __init__(self, max_depth=None):
        self.max_depth = max_depth
        self.root = None
        self.importance_ = None

    def _build(self, X, idx, t, h, depth, n_total):
        n = idx.size
        if h is None:
            leaf_value = float(t[idx].mean())
        else:
            denom = float(h[idx].sum())
            leaf_value = float(t[idx].sum() / denom) if denom > 1e-12 else 0.0
        if n < 2 or (self.max_depth is not None and depth >= self.max_depth):
            return _Node(value=leaf_value)
        sub = t[idx]
        if np.all(sub == sub[0]):
            return _Node(value=leaf_value)
        best = _split_one_node(X[idx], sub, np.arange(X.shape[1]), gini=False)
        if best is None:
            return _Node(value=leaf_value)
        sse, feature, threshold = best
        parent_sse = float(((sub - sub.mean()) ** 2).sum())
        decrease = (parent_sse - sse) / n_total
        if decrease <= 0:
            return _Node(value=leaf_value)
        self.importance_[feature] += decrease
        mask = X[idx, feature] <= threshold
        node = _Node(value=leaf_value, feature=feature, threshold=threshold)
        node.left = self._build(X, idx[mask], t, h, depth + 1, n_total)
        node.right = self._build(X, idx[~mask], t, h, depth + 1, n_total)
        return node

    def fit(self, X, targets, hessians=None):
        X = np.asarray(X, dtype=float)
        t = np.asarray(targets, dtype=float)
        self.importance_ = np.zeros(X.shape[1])
        self.root = self._build(X, np.arange(t.size), t, hessians, 0, t.size)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


@st.composite
def _tree_problem(draw, target):
    """(X, t): 1-30 rows; columns as in _split_problem, or exact copies."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(0, 5))
    cols = []
    for _ in range(d):
        if cols and draw(st.integers(0, 3)) == 0:
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            cols.append(draw(_column(n, cols)))
    X = np.array(cols, dtype=float).T.reshape(n, d)
    t = np.array(draw(st.lists(target, min_size=n, max_size=n)))
    return X, t


def _sides_taken(flat, X):
    """{(split node, went left)} over the routes of the rows of X."""
    taken = set()
    for row in X:
        i = 0
        while flat.left[i] >= 0:
            go_left = bool(row[flat.feature[i]] <= flat.threshold[i])
            taken.add((i, go_left))
            i = flat.left[i] if go_left else flat.right[i]
    return taken


def _splits_both_ways(flat, X):
    """Whether every split node sends some rows of X left and some right."""
    splits = np.flatnonzero(flat.left >= 0).tolist()
    return _sides_taken(flat, X) == {(i, side) for i in splits for side in (True, False)}


def _fit_both(fit_old, fit_new, X, gini):
    """(old, new) fitted trees, or (None, new) where the old one is degenerate.

    A split whose midpoint threshold rounds onto one of its two values
    (adjacent floats, e.g. 0 and the smallest negative subnormal) or
    overflows to +-inf sends every row one way. The old tree code then
    recursed on the same rows until RecursionError, or, where max_depth
    or a new candidate draw ended that, kept a node with an empty child.
    `Tree` now makes such a node a leaf: it must fit, and each of
    its split nodes must send training rows both ways.
    """
    try:
        old = fit_old()
    except RecursionError:
        old = None
    new = fit_new()
    assert _splits_both_ways(new, X)
    if old is None or not _splits_both_ways(Tree.from_dict(old.root.to_dict(), gini), X):
        return None, new
    return old, new


def _assert_same_tree(old, new, X, gini):
    """Same nested dict (with JSON types), importances and predictions;
    the same again for a Tree read back from the old tree's dict."""
    want = json.dumps(old.root.to_dict(), sort_keys=True)
    assert json.dumps(new.to_dict(), sort_keys=True) == want
    assert new.importance_.tobytes() == old.importance_.tobytes()
    d = X.shape[1]
    shuffled = X.copy()
    for j in range(d):
        shuffled[:, j] = np.roll(X[:, j], j + 1)
    restored = Tree.from_dict(old.root.to_dict(), gini)
    assert json.dumps(restored.to_dict(), sort_keys=True) == want
    for rows in (X, shuffled + 0.25, shuffled - 0.25, np.zeros((0, d))):
        expected = old.predict(rows)
        for tree in (new, restored):
            got = tree.predict(rows)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


def _signed_zero_column():
    """Column 0 holds -0.0 and 0.0 in one tied block, between -1.0 and 1.0
    rows of the other class: the best splits lie on both sides of it."""
    X = np.zeros((10, 2))
    X[:, 0] = [-0.0, 0.0, 1.0, -0.0, -1.0, 0.0, 1.0, -0.0, -1.0, 0.0]
    X[:, 1] = [0.0, -0.0, 2.0, 3.0, 0.0, -0.0, 1.0, 0.0, 2.0, -0.0]
    y = np.array([1, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    return X, y


@st.composite
def _gini_problem(draw):
    """(X, y, max_features, seed): a _tree_problem with 0/1 labels, a
    candidate count and the seed of the candidate draws."""
    X, y = draw(_tree_problem(st.integers(0, 1)))
    max_features = draw(st.one_of(st.none(), st.integers(1, X.shape[1] + 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    return X, y, max_features, seed


@settings(max_examples=300, deadline=None)
@given(_gini_problem())
@example((*_signed_zero_column(), None, 0))
@example((*_signed_zero_column(), 1, 3))
def test_gini_tree_matches_reference(problem):
    X, y, max_features, seed = problem
    y = y.astype(int)
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    old, new = _fit_both(
        lambda: ClassificationTree(max_features=max_features, rng=old_rng).fit(X, y),
        lambda: Tree(gini=True, max_features=max_features, rng=new_rng).fit(X, y),
        X, gini=True,
    )
    if old is not None:
        _assert_same_tree(old, new, X, gini=True)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


@st.composite
def _regression_problem(draw):
    """(X, t, max_depth, hessians): a _tree_problem with float targets, a
    depth limit and optional hessians."""
    X, t = draw(_tree_problem(st.one_of(_TIED, st.floats(-10, 10))))
    max_depth = draw(st.sampled_from([None, 3, 1]))
    hessians = draw(st.one_of(st.none(), st.lists(
        st.one_of(st.sampled_from([0.0, 1e-13, 0.25]), st.floats(0, 0.25)),
        min_size=t.size, max_size=t.size).map(np.array)))
    return X, t.astype(float), max_depth, hessians


def _signed_zero_leaf():
    """A problem with a leaf of -0.0: the mean of 0.0 and -5e-324 (rows 7
    and 17, the only ones with X = 1). Leaf values must keep that sign."""
    X = np.zeros((18, 1))
    X[[7, 17], 0] = 1.0
    t = np.full(18, -1.0)
    t[7], t[17] = 0.0, -5e-324
    return X, t, None, None


@settings(max_examples=300, deadline=None)
@given(_regression_problem())
@example(_signed_zero_leaf())
@example((_signed_zero_column()[0],
          np.array([2.0, 2.0, -1.0, 2.5, 0.0, 2.0, -1.0, 2.0, 0.0, 1.5]), None, None))
def test_regression_tree_matches_reference(problem):
    X, t, max_depth, hessians = problem
    old, new = _fit_both(
        lambda: RegressionTree(max_depth=max_depth).fit(X, t, hessians),
        lambda: Tree(gini=False, max_depth=max_depth).fit(X, t, hessians),
        X, gini=False,
    )
    if old is not None:
        _assert_same_tree(old, new, X, gini=False)


# the threshold rounds up onto the upper value (0.0 and -5e-324), or the
# sum of the two values overflows to +inf or -inf
_DEGENERATE = [
    ([0.0, -5e-324, 1.0, 0.0, -5e-324], [1, 0, 0, 1, 1]),
    ([1.7e308, 1.7e308, 1.75e308, 1.75e308], [0, 0, 1, 1]),
    ([-1.7e308, -1.7e308, -1.75e308, -1.75e308], [0, 0, 1, 1]),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gini", (True, False))
@pytest.mark.parametrize("column, y", _DEGENERATE)
@pytest.mark.parametrize("max_depth", (None, 3))
def test_split_sending_every_row_one_way_is_a_leaf(column, y, gini, max_depth):
    X = np.array(column)[:, None]
    target = np.array(y, dtype=int if gini else float)
    tree = Tree(gini=gini, max_depth=max_depth).fit(X, target)
    assert _splits_both_ways(tree, X)
    assert np.isfinite(tree.value).all()
    assert np.isfinite(tree.importance_).all()
    assert tree.predict(X).shape == (X.shape[0],)


def test_tree_node_arrays_are_pre_order():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = Tree(gini=False).fit(X, np.array([0.0, 1.0, 2.0, 3.0]))
    # root splits at 1.5; its left child (node 1) at 0.5, its right at 2.5
    assert tree.threshold.tolist() == [1.5, 0.5, 0.0, 0.0, 2.5, 0.0, 0.0]
    assert tree.left.tolist() == [1, 2, -1, -1, 5, -1, -1]
    assert tree.right.tolist() == [4, 3, -1, -1, 6, -1, -1]
    assert tree.feature.tolist() == [0, 0, -1, -1, 0, -1, -1]
    assert tree.depth == 2
    assert tree.predict(X).tolist() == [0.0, 1.0, 2.0, 3.0]


def test_boosting_without_stages_scores_its_base():
    X, y = _digest_matrix()
    doc = json.loads(learn.fit("gb", X, y).to_json())
    doc["stages"] = []
    model = learn.Model.from_json(json.dumps(doc))
    assert model.decision_scores(X).tolist() == [doc["base_score"]] * len(X)


def _simd_runtime():
    """numpy's runtime report, which names the SIMD extensions in use."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_runtime()
    return out.getvalue()


# sha256 of Model.to_json() for learn.fit(kind, *_digest_matrix(), seed=7),
# taken with the per-feature split loops above; the kernel must not move them
_MODEL_DIGESTS = {
    "rf": "9dbf68802391b266892a6604bed23ff143ccd3b25b37912182c0752f90bfd00a",
    "gb": "0a3fd6f2c680a189db45cd2f4f3425a5670c0ff68722ec2ab2aefe17934671cd",
}


def _digest_matrix():
    """40 x 6, rounded to one decimal (many ties), last column constant."""
    rng = np.random.default_rng(20)
    X = np.round(rng.normal(size=(40, 6)), 1)
    X[:, 5] = 1.0
    y = (X[:, 0] + 0.5 * rng.normal(size=40) > 0).astype(int)
    return X, y


def test_seeded_tree_models_byte_identical_to_loop_kernel():
    X, y = _digest_matrix()
    for kind, want in _MODEL_DIGESTS.items():
        text = learn.fit(kind, X, y, seed=7).to_json()
        # np.exp and np.logaddexp pick SIMD code per CPU, so a gb-only
        # mismatch on another CPU may be a last-bit difference, not a fault
        assert hashlib.sha256(text.encode()).hexdigest() == want, (
            f"{kind}; numpy runtime:\n{_simd_runtime()}"
        )


class _RecursiveTree(Tree):
    """`Tree` as it grew before the lockstep grower, verbatim: a recursive
    depth-first build with one split search per node. `_best_split` there
    is `_split_one_node` here."""

    def _candidate_features(self, d):
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        picked = self.rng.choice(d, size=self.max_features, replace=False)
        return np.sort(picked)

    def _build(self, X, t, h, idx, depth, nodes):
        """Append the subtree over rows idx to nodes; return its root's index."""
        n = idx.size
        sub = t[idx]
        stop = n < 2 or (self.max_depth is not None and depth >= self.max_depth)
        if self.gini:
            n1 = int(sub.sum())
            value = 1 if n1 * 2 > n else 0
            stop = stop or n1 == 0 or n1 == n
        else:
            if h is None:
                value = float(sub.mean())
            else:
                denom = float(h[idx].sum())
                value = float(sub.sum() / denom) if denom > 1e-12 else 0.0
            stop = stop or bool(np.all(sub == sub[0]))
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, value])
        if stop:
            return node
        Xn = X.take(idx, axis=0)
        best = _split_one_node(Xn, sub, self._candidate_features(X.shape[1]), self.gini)
        if best is None:
            return node
        score, feature, threshold = best
        mask = Xn[:, feature] <= threshold
        if not 0 < np.count_nonzero(mask) < n:
            # the midpoint rounded onto a value or overflowed: no split
            return node
        if self.gini:
            decrease = (_gini(n1, n) - score) * n / t.size
        else:
            decrease = (float(((sub - sub.mean()) ** 2).sum()) - score) / t.size
        if decrease <= 0:
            return node
        self.importance_[feature] += decrease
        left = self._build(X, t, h, idx[mask], depth + 1, nodes)
        right = self._build(X, t, h, idx[~mask], depth + 1, nodes)
        nodes[node][:4] = feature, threshold, left, right
        return node

    def _set_nodes(self, nodes):
        feature, threshold, left, right, value = zip(*nodes)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=int if self.gini else float)
        depth = [0] * len(nodes)  # pre-order: a parent comes before its children
        for i, (lo, hi) in enumerate(zip(left, right)):
            if lo >= 0:
                depth[lo] = depth[hi] = depth[i] + 1
        self.depth = max(depth)

    def fit(self, X, targets, hessians=None):
        X = np.asarray(X, dtype=float)
        t = np.asarray(targets, dtype=int if self.gini else float)
        self.importance_ = np.zeros(X.shape[1])
        nodes = []
        self._build(X, t, hessians, np.arange(t.size), 0, nodes)
        self._set_nodes(nodes)
        return self

    def predict(self, X):
        """Leaf values for all rows, moving every row down one level per step."""
        X = np.asarray(X, dtype=float)
        node = np.zeros(X.shape[0], dtype=np.intp)
        if self.depth:
            # each row's next node from every node: one rows x nodes table,
            # then one lookup per level; a leaf (feature -1 reads the last
            # column) is overwritten to lead to itself
            step = np.where(X[:, self.feature] <= self.threshold, self.left, self.right)
            leaves = np.flatnonzero(self.left < 0)
            step[:, leaves] = leaves
            rows = np.arange(X.shape[0])
            for _ in range(self.depth):
                node = step[rows, node]
        return self.value[node]


class _LoopForest(RandomForest):
    """`RandomForest` before the lockstep grower, verbatim: one tree at a
    time, each grown by `_RecursiveTree`, and one predict call per tree."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n, d = X.shape
        self.n_features = d
        max_features = int(np.ceil(np.sqrt(d)))
        children = np.random.SeedSequence(self.seed).spawn(N_TREES)
        self.trees = []
        for ss in children:
            rng = np.random.Generator(np.random.PCG64(ss))
            boot = rng.integers(0, n, size=n)
            tree = _RecursiveTree(gini=True, max_features=max_features, rng=rng)
            tree.fit(X[boot], y[boot])
            self.trees.append(tree)
        return self

    def decision_function(self, X):
        """Fraction of trees voting 1, less 0.5."""
        votes = np.zeros(np.asarray(X).shape[0])
        for tree in self.trees:
            votes += tree.predict(X)
        return votes / len(self.trees) - 0.5


class _PredictBoosting(GradientBoosting):
    """`GradientBoosting` before the lockstep grower and the stacked leaf
    lookup, verbatim: each round's tree grown by `_RecursiveTree`, its step
    read by predict, and one predict call per stage to score."""

    @staticmethod
    def _logloss(F, y_signed):
        return float(np.mean(np.logaddexp(0.0, -y_signed * F)))

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        y_signed = 2.0 * y - 1.0
        p = np.clip(y.mean(), 1e-12, 1 - 1e-12)
        self.base_score = float(np.log(p / (1.0 - p)))
        F = np.full(y.size, self.base_score)
        loss = self._logloss(F, y_signed)
        self.stages = []
        self.loss_history_ = [loss]
        for _ in range(GB_ROUNDS):
            prob = 1.0 / (1.0 + np.exp(-F))
            residual = y - prob
            hessian = prob * (1.0 - prob)
            tree = _RecursiveTree(gini=False, max_depth=GB_MAX_DEPTH).fit(X, residual, hessian)
            step = tree.predict(X)
            scale = GB_LEARNING_RATE
            for _ in range(60):
                new_loss = self._logloss(F + scale * step, y_signed)
                if new_loss <= loss:
                    break
                scale *= 0.5
            else:
                scale = 0.0
                new_loss = loss
            F = F + scale * step
            loss = new_loss
            self.loss_history_.append(loss)
            self.stages.append((tree, scale))
        return self

    def decision_function(self, X):
        F = np.full(np.asarray(X).shape[0], self.base_score)
        for tree, scale in self.stages:
            F += scale * tree.predict(X)
        return F


_STYLES = ("tied", "constant", "free", "rounded", "integer", "degenerate", "mirror")


@st.composite
def _matrix(draw, min_rows=2, max_rows=60, max_cols=30):
    """An n x d matrix (n 2-60, d 1-30) whose columns are heavily tied,
    constant, free floats, rounded, small integers, drawn from a
    `_DEGENERATE` column's values (midpoints that round onto a value or
    overflow), or a negated earlier column."""
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.empty((n, d))
    for j in range(d):
        style = draw(st.sampled_from(_STYLES[:-1] if j == 0 else _STYLES))
        if style == "tied":
            X[:, j] = rng.choice([-1.0, 0.0, 0.5, 2.0], size=n)
        elif style == "constant":
            X[:, j] = rng.uniform(-1e3, 1e3)
        elif style == "free":
            X[:, j] = rng.uniform(-1e3, 1e3, size=n)
        elif style == "rounded":
            X[:, j] = np.round(rng.normal(0, 1.5, size=n), 1)
        elif style == "integer":
            X[:, j] = rng.integers(0, 5, size=n)
        elif style == "degenerate":
            X[:, j] = rng.choice(draw(st.sampled_from(_DEGENERATE))[0], size=n)
        else:
            X[:, j] = -X[:, rng.integers(0, j)]
    return X


def _labels(draw, n):
    return np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))


def _json(kind, ensemble, d, seed=0):
    model = learn.Model(kind=kind, feature_names=tuple(f"f{j}" for j in range(d)),
                        seed=seed, scaler=None, impl=ensemble)
    return model.to_json()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(_matrix(), st.data())
def test_forest_matches_one_tree_at_a_time(X, data):
    y = _labels(data.draw, X.shape[0])
    seed = data.draw(st.integers(0, 2**32 - 1))
    old = _LoopForest(seed=seed).fit(X, y)
    new = RandomForest(seed=seed).fit(X, y)
    assert _json("rf", new, X.shape[1], seed) == _json("rf", old, X.shape[1], seed)
    assert new.importance().tobytes() == old.importance().tobytes()
    shuffled = np.roll(X, 1, axis=0) + 0.25
    for rows in (X, shuffled, X[:1], X[:0]):
        assert new.decision_function(rows).tobytes() == old.decision_function(rows).tobytes()


@settings(max_examples=20, deadline=None)
@given(_matrix(max_rows=40, max_cols=10), st.data())
def test_boosting_matches_predict_per_round(X, data):
    y = _labels(data.draw, X.shape[0])
    old = _PredictBoosting().fit(X, y)
    new = GradientBoosting().fit(X, y)
    assert _json("gb", new, X.shape[1]) == _json("gb", old, X.shape[1])
    assert repr(new.loss_history_) == repr(old.loss_history_)
    assert new.importance().tobytes() == old.importance().tobytes()
    shuffled = np.roll(X, 1, axis=0) + 0.25
    for rows in (X, shuffled, X[:1], X[:0]):
        assert new.decision_function(rows).tobytes() == old.decision_function(rows).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_matrix(), st.data())
def test_tree_matches_recursive_build(X, data):
    n, d = X.shape
    gini = data.draw(st.booleans())
    if gini:
        t = _labels(data.draw, n)
        max_features = data.draw(st.one_of(st.none(), st.integers(1, d + 1)))
        max_depth, hessians = None, None
        seed = data.draw(st.integers(0, 2**32 - 1))
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    else:
        t = np.array(data.draw(st.lists(st.one_of(_TIED, st.floats(-10, 10)),
                                        min_size=n, max_size=n)))
        max_features, old_rng, new_rng = None, None, None
        max_depth = data.draw(st.sampled_from([None, 3, 1]))
        hessians = data.draw(st.one_of(st.none(), st.just(np.abs(t) / 40)))
    old = _RecursiveTree(gini, max_features, max_depth, old_rng).fit(X, t, hessians)
    new = Tree(gini, max_features, max_depth, new_rng).fit(X, t, hessians)
    assert json.dumps(new.to_dict()) == json.dumps(old.to_dict())
    assert new.importance_.tobytes() == old.importance_.tobytes()
    assert new.depth == old.depth
    for rows in (X, np.roll(X, 1, axis=0) - 0.25):
        assert new.predict(rows).tobytes() == old.predict(rows).tobytes()
    if gini:
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(_matrix(max_rows=30, max_cols=8), st.data())
def test_batched_split_equals_one_node_at_a_time(X, data):
    """Nodes of different sizes (rows may repeat, as in a bootstrap) scored
    in one call give what each gives alone, padding and all."""
    n, d = X.shape
    gini = data.draw(st.booleans())
    t = _labels(data.draw, n) if gini else np.array(data.draw(st.lists(
        st.one_of(_TIED, st.floats(-10, 10)), min_size=n, max_size=n)))
    k = data.draw(st.integers(1, d))
    nodes = data.draw(st.lists(st.tuples(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2 * n).map(np.array),
        st.sets(st.integers(0, d - 1), min_size=k, max_size=k).map(sorted)),
        min_size=1, max_size=6))
    rows = [r.astype(np.intp) for r, _ in nodes]
    features = [f for _, f in nodes]
    got = _best_split(*_padded(X, t), rows, features, gini)
    want = [_split_one_node(X[r], t[r], f, gini) for r, f in zip(rows, features)]
    assert repr(got) == repr(want)
