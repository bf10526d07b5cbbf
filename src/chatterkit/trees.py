"""Decision-tree ensembles: one CART tree, random forest, gradient boosting.

`Tree` grows Gini trees on 0/1 labels (the forest) and squared-error
trees on float targets (boosting) with one split search, `_best_split`,
which scores every threshold of every candidate column of many nodes in
a single vectorized pass (presorted split finding as in CART and SLIQ).
Split search is deterministic: ties resolve to the first minimum in
feature-major order: lowest feature index, then lowest threshold.

One grower, `_grow`, advances a list of trees together and scores the
nodes it pops from all of them in one `_best_split` call. A tree that
draws candidate features from its own generator (the forest's, each
seeded from its own spawned `PCG64`) pops one node per step from its
depth-first stack, so it draws in pre-order and its stream is the one a
recursive build would use. A tree that draws nothing (boosting) pops
its whole stack per step, one call per depth level. In the call each
node's rows are padded to the largest node's count with a row of NaN
features and target 0: NaN sorts after every value and cannot be split
next to, so every real prefix sum, score, tie-break and threshold keeps
the bits it has for the node alone, and no padded position can win.

A fitted tree is five flat arrays indexed by node number: `feature`,
`threshold`, `left`, `right` and `value`. Nodes are numbered in
pre-order: the root is 0, a split node's left child is the next number
and its right child comes after the whole left subtree. Importances are
summed in that order too, whatever order the grower met the nodes in.
A row at split node i goes left when X[row, feature[i]] <= threshold[i].
A leaf has `left == right == feature == -1`. Every node, split or leaf,
holds a `value`: the majority class (int) or the leaf value (float).
`depth` is the longest root-to-leaf path, the number of steps `predict`
takes. The forest stacks the node arrays of all its trees and moves
every row down all of them at once, summing the integer votes exactly.
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


def _best_split(X, t, rows, features, gini):
    """Best (impurity, feature, threshold) of each node, or None.

    Node b holds the rows `rows[b]` of X and t (an index array, repeats
    allowed; at least two rows per node unless no node has two) and may
    split on the columns `features[b]` (in any order), the same number of
    columns for every node. The last row of X is all NaN and the last
    target is 0: positions past a node's own rows read that row.
    Impurity is the size-weighted Gini of the two children when `gini` is
    true (t holds 0/1 labels), else their summed squared error about the
    child means (t holds float targets). Positions between equal
    neighbouring values cannot be split, nor can a position next to a
    NaN: all are masked to inf.
    """
    sizes = [r.size for r in rows]
    features = np.sort(np.array(features, dtype=np.intp).reshape(len(rows), -1), axis=1)
    width = max(sizes)
    if width < 2 or features.shape[1] == 0:
        return [None] * len(rows)
    # (node, feature, row) blocks: each row of a block is one column of a
    # node, sorted; NaN padding sorts after every real value, so each real
    # prefix sum has the bits it has for the node alone
    tail = np.full(width, X.shape[0] - 1)
    at = np.concatenate([part for r in rows for part in (r, tail[r.size:])])
    at = at.reshape(len(rows), width)
    cols = X.take(at[:, None, :] * X.shape[1] + features[:, :, None])
    order = cols.argsort(axis=2, kind="stable")
    # the values in that order, but for where -0.0 and 0.0 fall, which
    # changes no comparison and no midpoint between two unequal values
    xs = np.sort(cols, axis=2)
    ts = t[at].ravel()[order + width * np.arange(len(rows))[:, None, None]]
    splittable = xs[:, :, 1:] > xs[:, :, :-1]
    n = np.array(sizes, dtype=float)[:, None, None]
    n_left = np.arange(1.0, width)
    n_right = np.maximum(n - n_left, 1.0)  # padded positions: 1
    # the padding adds +0.0 to each sum, which changes no sum but -0.0
    # (all targets -0.0), and that total gives the same right sums
    cum = ts.cumsum(axis=2)  # 0/1 labels count exactly as floats
    sl, sr = cum[:, :, :-1], cum[:, :, -1:] - cum[:, :, :-1]
    if gini:
        p1l = sl / n_left
        p1r = sr / n_right
        score = (
            n_left * (1.0 - p1l**2 - (1.0 - p1l) ** 2)
            + n_right * (1.0 - p1r**2 - (1.0 - p1r) ** 2)
        ) / n
    else:
        cum2 = (ts * ts).cumsum(axis=2)
        sl2, sr2 = cum2[:, :, :-1], cum2[:, :, -1:] - cum2[:, :, :-1]
        # padded positions may overflow where no real one does; they are masked
        with np.errstate(over="ignore", invalid="ignore"):
            score = (sl2 - sl * sl / n_left) + (sr2 - sr * sr / n_right)
    score[~splittable] = np.inf
    best = score.reshape(len(rows), -1).argmin(axis=1).tolist()
    out = []
    for b, (flat, any_split) in enumerate(zip(best, splittable.any(axis=(1, 2)).tolist())):
        if not any_split:
            out.append(None)
            continue
        j, i = divmod(flat, width - 1)  # feature-major: lowest feature, then threshold
        threshold = 0.5 * (float(xs[b, j, i]) + float(xs[b, j, i + 1]))
        out.append((float(score[b, j, i]), int(features[b, j]), threshold))
    return out


def _grow(trees, X, t, h, rows):
    """Grow trees[k] on the rows rows[k] of X and t (with repeats, as a
    bootstrap draws them), and hessians h for Newton leaves, all at once.

    The trees share `gini`. Each step pops nodes from every tree's stack,
    as the module docstring describes, makes leaves of those that stop,
    and scores the rest in one `_best_split` call. Returns, per tree, its
    leaves as (rows, value) pairs: the fitted value of every row.
    """
    d = X.shape[1]
    gini = trees[0].gini
    # one padding row for _best_split: NaN features, target 0
    padded = np.vstack((X, np.full(d, np.nan))), np.append(t, 0.0)
    every_feature = np.arange(d)
    stacks = [[(r, 0, -1, 0)] for r in rows]  # (rows, depth, parent, slot)
    # per tree: [feature, threshold, left, right, value, depth, impurity decrease]
    nodes = [[] for _ in trees]
    leaves = [[] for _ in trees]
    # a tree with max_features below d draws its candidate columns per node
    draws = [tree.max_features is not None and tree.max_features < d for tree in trees]
    while True:
        batch, features = [], []
        for k, tree in enumerate(trees):
            stack, tree_nodes, max_depth = stacks[k], nodes[k], tree.max_depth
            while stack:
                r, depth, parent, slot = stack.pop()
                if parent >= 0:
                    tree_nodes[parent][slot] = len(tree_nodes)
                n = r.size
                sub = t[r]
                stop = n < 2 or (max_depth is not None and depth >= max_depth)
                if gini:
                    stat = int(sub.sum())
                    value = 1 if stat * 2 > n else 0
                    stop = stop or stat == 0 or stat == n
                else:
                    stat = sub.sum()
                    if h is None:
                        value = float(stat / n)  # the bits of sub.mean()
                    else:
                        denom = float(h[r].sum())
                        value = float(stat / denom) if denom > 1e-12 else 0.0
                    stop = stop or bool((sub == sub[0]).all())
                tree_nodes.append([-1, 0.0, -1, -1, value, depth, 0.0])
                if stop:
                    leaves[k].append((r, value))
                    continue
                batch.append((k, len(tree_nodes) - 1, r, depth, sub, stat))
                if draws[k]:
                    features.append(tree.rng.choice(d, size=tree.max_features, replace=False))
                    break
                features.append(every_feature)
        if not batch:
            break
        splits = _best_split(*padded, [entry[2] for entry in batch], features, gini)
        for (k, node, r, depth, sub, stat), best in zip(batch, splits):
            decrease = None
            if best is not None:
                score, feature, threshold = best
                n = r.size
                mask = X[r, feature] <= threshold
                # a midpoint that rounded onto a value or overflowed splits nothing
                if 0 < np.count_nonzero(mask) < n:
                    if gini:
                        decrease = (_gini(stat, n) - score) * n / rows[k].size
                    else:  # stat / n is sub.mean()
                        sse = float(((sub - stat / n) ** 2).sum())
                        decrease = (sse - score) / rows[k].size
            record = nodes[k][node]
            if decrease is None or decrease <= 0:
                leaves[k].append((r, record[4]))
                continue
            record[0], record[1], record[6] = feature, threshold, decrease
            stacks[k] += [(r[~mask], depth + 1, node, 3), (r[mask], depth + 1, node, 2)]
    for k, tree in enumerate(trees):
        # a depth-first tree met its nodes in pre-order; a level-by-level one
        # is renumbered, and its importances summed, in that order too
        tree_nodes = nodes[k] if draws[k] else _preorder(nodes[k])
        tree._set_nodes(tree_nodes)
        tree.importance_ = np.zeros(d)
        for feature, *_, decrease in tree_nodes:
            if feature >= 0:
                tree.importance_[feature] += decrease
    return leaves


def _preorder(nodes):
    """The node records [feature, threshold, left, right, ...] (root
    first, children linked by list index) renumbered in pre-order."""
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if nodes[i][2] >= 0:
            stack += (nodes[i][3], nodes[i][2])
    number = [-1] * (len(nodes) + 1)  # number[-1] stays -1: no child
    for new, old in enumerate(order):
        number[old] = new
    return [[f, th, number[lo], number[hi], *rest]
            for f, th, lo, hi, *rest in (nodes[i] for i in order)]


def _descend(X, feature, threshold, left, right, roots, depth):
    """The node each row of X reaches from each root: (rows, roots) indices.

    Every row moves down one level per step: each row's next node from
    every node is one rows x nodes table, then one lookup per level; a
    leaf (feature -1 reads the last column) is overwritten to lead to
    itself.
    """
    if not depth:
        return roots + np.zeros((X.shape[0], 1), dtype=np.intp)
    step = np.where(X[:, feature] <= threshold, left, right)
    leaves = np.flatnonzero(feature < 0)
    step[:, leaves] = leaves
    start = np.arange(0, step.size, feature.size)[:, None]  # each row's table
    step += start
    node = start + roots
    step = step.ravel()
    for _ in range(depth):
        node = step[node]
    return node - start


class Tree:
    """CART on flat pre-order node arrays.

    With `gini` the targets are 0/1 labels, leaves hold the majority
    class and growth stops at pure nodes; otherwise the targets are
    floats, leaves hold their mean (or the Newton step sum(t) / sum(h)
    when hessians are given) and growth stops at constant targets.
    `max_features` draws a random subset of candidate columns from `rng`
    at each node that is split.
    """

    def __init__(self, gini, max_features=None, max_depth=None, rng=None):
        self.gini = gini
        self.max_features = max_features
        self.max_depth = max_depth
        self.rng = rng
        self.feature = self.threshold = self.left = self.right = self.value = None
        self.depth = 0
        self.importance_ = None

    def _set_nodes(self, nodes):
        """Store pre-order nodes [feature, threshold, left, right, value,
        depth, ...] as the node arrays."""
        feature, threshold, left, right, value, depth, *_ = zip(*nodes)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=int if self.gini else float)
        self.depth = max(depth)

    def fit(self, X, targets, hessians=None):
        X = np.asarray(X, dtype=float)
        t = np.asarray(targets, dtype=int if self.gini else float)
        _grow([self], X, t, hessians, [np.arange(t.size)])
        return self

    def predict(self, X):
        """Leaf values for all rows, moving every row down one level per step."""
        X = np.asarray(X, dtype=float)
        node = _descend(X, self.feature, self.threshold, self.left, self.right, 0,
                        self.depth)
        return self.value[node[:, 0]]

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

        def walk(d, depth):
            node = len(nodes)
            nodes.append([-1, 0.0, -1, -1, d["value"], depth])
            if "feature" in d:
                left, right = walk(d["left"], depth + 1), walk(d["right"], depth + 1)
                nodes[node][:4] = d["feature"], d["threshold"], left, right
            return node

        walk(d, 0)
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
        rngs = [np.random.Generator(np.random.PCG64(ss))
                for ss in np.random.SeedSequence(self.seed).spawn(N_TREES)]
        # each tree draws its bootstrap, then its candidate features, from its own rng
        boots = [rng.integers(0, n, size=n) for rng in rngs]
        self.trees = [Tree(gini=True, max_features=max_features, rng=rng) for rng in rngs]
        _grow(self.trees, X, y, None, boots)
        return self

    def decision_function(self, X):
        """Fraction of trees voting 1, less 0.5."""
        X = np.asarray(X, dtype=float)
        sizes = [tree.value.size for tree in self.trees]
        roots = np.cumsum([0] + sizes[:-1])

        def stacked(name, offset=False):
            return np.concatenate([getattr(tree, name) + (root if offset else 0)
                                   for tree, root in zip(self.trees, roots)])

        node = _descend(X, stacked("feature"), stacked("threshold"), stacked("left", True),
                        stacked("right", True), roots, max(t.depth for t in self.trees))
        votes = stacked("value")[node].sum(axis=1)  # integers: the sum is exact
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
        return float(np.logaddexp(0.0, -y_signed * F).sum() / F.size)  # the mean's bits

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
        every_row = np.arange(y.size)
        for _ in range(GB_ROUNDS):
            prob = 1.0 / (1.0 + np.exp(-F))
            residual = y - prob
            hessian = prob * (1.0 - prob)
            tree = Tree(gini=False, max_depth=GB_MAX_DEPTH)
            step = np.empty(y.size)  # tree.predict(X), read off the leaves
            for rows, value in _grow([tree], X, residual, hessian, [every_row])[0]:
                step[rows] = value
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
