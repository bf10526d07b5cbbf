"""Decision-tree ensembles: one CART tree, random forest, gradient boosting.

`Tree` grows Gini trees on 0/1 labels (the forest) and squared-error
trees on float targets (boosting) with one split search, `_best_split`,
which scores every threshold of every candidate column in a single
vectorized pass (presorted split finding as in CART and SLIQ). Split
search is deterministic: ties resolve to the first minimum in
feature-major order: lowest feature index, then lowest threshold.

A fitted tree is five flat arrays indexed by node number: `feature`,
`threshold`, `left`, `right` and `value`. Nodes are numbered in
pre-order: the root is 0, a split node's left child is the next number
and its right child comes after the whole left subtree. A row at split
node i goes left when X[row, feature[i]] <= threshold[i]. A leaf has
`left == right == feature == -1`. Every node, split or leaf, holds a
`value`: the majority class (int) or the leaf value (float). `depth` is
the longest root-to-leaf path, the number of steps `predict` takes.
"""

import numpy as np

# Every fit uses these: 100 bagged trees (Breiman 2001), and 100 boosting
# rounds of depth-3 trees at rate 0.1 (Friedman 2001).
N_TREES = 100
GB_ROUNDS = 100
GB_LEARNING_RATE = 0.1
GB_MAX_DEPTH = 3


def _gini(n1, n):
    p1 = n1 / n
    return 1.0 - p1 * p1 - (1.0 - p1) ** 2


def _best_split(X, t, features, gini):
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


class Tree:
    """CART on flat pre-order node arrays.

    With `gini` the targets are 0/1 labels, leaves hold the majority
    class and growth stops at pure nodes; otherwise the targets are
    floats, leaves hold their mean (or the Newton step sum(t) / sum(h)
    when hessians are given) and growth stops at constant targets.
    `max_features` draws a sorted random subset of candidate columns
    from `rng` at each node that is split.
    """

    def __init__(self, gini, max_features=None, max_depth=None, rng=None):
        self.gini = gini
        self.max_features = max_features
        self.max_depth = max_depth
        self.rng = rng
        self.feature = self.threshold = self.left = self.right = self.value = None
        self.depth = 0
        self.importance_ = None

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
        best = _best_split(Xn, sub, self._candidate_features(X.shape[1]), self.gini)
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

    def to_dict(self):
        """The tree as nested dicts: leaves {"value"}, splits also
        {"feature", "threshold", "left", "right"}."""
        feature, threshold, left, right, value = (
            a.tolist() for a in (self.feature, self.threshold, self.left, self.right, self.value)
        )

        def nested(i):
            if left[i] < 0:
                return {"value": value[i]}
            return {
                "value": value[i],
                "feature": feature[i],
                "threshold": threshold[i],
                "left": nested(left[i]),
                "right": nested(right[i]),
            }

        return nested(0)

    @classmethod
    def from_dict(cls, d, gini):
        """Rebuild the node arrays from to_dict() output (no importances)."""
        tree = cls(gini)
        nodes = []

        def walk(d):
            node = len(nodes)
            nodes.append([-1, 0.0, -1, -1, d["value"]])
            if "feature" in d:
                left, right = walk(d["left"]), walk(d["right"])
                nodes[node][:4] = d["feature"], d["threshold"], left, right
            return node

        walk(d)
        tree._set_nodes(nodes)
        return tree


class RandomForest:
    """Bagged Gini trees with sqrt(d) feature subsampling per split."""

    def __init__(self, seed=0):
        self.seed = seed
        self.trees = []
        self.n_features = 0

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
            tree = Tree(gini=True, max_features=max_features, rng=rng)
            tree.fit(X[boot], y[boot])
            self.trees.append(tree)
        return self

    def decision_function(self, X):
        """Fraction of trees voting 1, less 0.5."""
        votes = np.zeros(np.asarray(X).shape[0])
        for tree in self.trees:
            votes += tree.predict(X)
        return votes / len(self.trees) - 0.5

    def importance(self):
        total = np.zeros(self.n_features)
        for tree in self.trees:
            total += tree.importance_
        s = total.sum()
        return total / s if s > 0 else total


class GradientBoosting:
    """Depth-3 regression trees boosted on logistic loss.

    Each round fits a tree to the loss gradient with Newton leaf values;
    the leaf scale is halved (down to zero) whenever a full step would
    increase the training log-loss, which keeps the loss non-increasing.
    """

    def __init__(self):
        self.base_score = 0.0
        self.stages = []  # (tree, scale) pairs
        self.loss_history_ = []

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
            tree = Tree(gini=False, max_depth=GB_MAX_DEPTH).fit(X, residual, hessian)
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

    def importance(self):
        d = self.stages[0][0].importance_.size if self.stages else 0
        total = np.zeros(d)
        for tree, scale in self.stages:
            if scale > 0:
                total += tree.importance_
        s = total.sum()
        return total / s if s > 0 else total
