"""The four classifier families behind one fit/predict/importance contract.

Linear models (SVM, logistic regression) train on standardized features
with the scaler fitted on the training rows only; tree ensembles consume
raw features. All training is deterministic given (kind, data, seed).
`fit` trains one model; `fit_many` trains one per (rows, columns) job
with the same result, the svm jobs of each shape in lockstep.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .featurize import Scaler, standardize
from .trees import GradientBoosting, RandomForest, Tree

KINDS = ("svm", "lr", "rf", "gb")
LINEAR_KINDS = ("svm", "lr")

SVM_C = 1.0
SVM_EPOCHS = 500
LR_LAMBDA = 1e-4
LR_TOL = 1e-8
LR_MAX_ITER = 10000
MODEL_FORMAT_VERSION = 1


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def logistic_loss_grad(w, b, Z, y_signed, lam):
    """L2-regularized mean logistic loss and its exact gradient."""
    n = y_signed.size
    z = y_signed * (Z @ w + b)
    loss = float(np.mean(np.logaddexp(0.0, -z))) + 0.5 * lam * float(w @ w)
    coef = -y_signed * _sigmoid(-z) / n
    grad_w = Z.T @ coef + lam * w
    grad_b = float(coef.sum())
    return loss, grad_w, grad_b


def _fit_svm(Z, y_signed):
    """Full-batch subgradient descent on the hinge objective (1/(lam*t) steps).

    Z is one standardized (n, d) matrix, or a stack (..., n, d) of them,
    and y_signed their +-1 labels (..., n); returns (w, b) shaped (..., d)
    and (...). Each fit trains its weights and bias as one packed vector.
    A stack's fits step in lockstep, and each keeps the bits of its lone
    fit: its margins are its own matrix-vector product within one stacked
    matmul, its pulls are its own, and the step is elementwise.

    Each epoch steps by the subgradient lam*w - pull, where a fit's pull
    (Z1[viol].T @ y_signed[viol]) / n depends only on the set of its rows
    whose margin is below 1. That set takes few distinct values over the
    epochs, so each fit computes each distinct set's pull once, by that
    same expression, and reuses it: the weights are bit-identical to
    recomputing it every epoch. The stacked pulls are cached as well,
    keyed by every fit's set at once: an epoch whose sets all recur
    together does no per-fit work, and one whose sets are those of the
    epoch before does no lookup.
    The margins come from YZ1 = y_signed * Z1 in one product. y is +-1,
    so the row scaling is exact and each row's dot product is the exact
    negation of Z1's where y is -1, the same mask bit for bit.
    """
    n, d = Z.shape[-2:]
    lam = 1.0 / (SVM_C * n)
    ones = np.ones(Z.shape[:-1] + (1,))
    Z1 = np.concatenate([Z, ones], axis=-1)
    YZ1 = y_signed[..., None] * Z1
    W = np.zeros(Z1.shape[:-2] + (d + 1, 1))  # one column of weights per fit
    # array operands, not the Python floats 1.0 and lam, spare numpy a
    # scalar conversion per epoch; the elementwise results are the same
    lams = np.full_like(W, lam)
    fits = [(z1, y, {}) for z1, y in zip(Z1.reshape(-1, n, d + 1), y_signed.reshape(-1, n))]
    stacked = {}
    key = P = None
    for t in range(1, SVM_EPOCHS + 1):
        viol = YZ1 @ W < ones
        last, key = key, viol.tobytes()
        if key != last:
            P = stacked.get(key)
        if P is None:
            P = stacked[key] = np.empty_like(W)
            rows = zip(fits, viol.reshape(-1, n), P.reshape(-1, d + 1))
            for b, ((z1, y, cache), v, p) in enumerate(rows):
                own = key[b * n:(b + 1) * n]
                if own not in cache:
                    cache[own] = (z1[v].T @ y[v]) / n
                p[:] = cache[own]
        W -= (lams * W - P) / (lam * t)
    # [()] turns a lone fit's 0-d bias into a scalar and leaves a stack's as is
    return W[..., :-1, 0], W[..., -1, 0][()]


def _fit_lr(Z, y_signed):
    """Gradient descent with Armijo backtracking; stops at LR_TOL grad norm."""
    d = Z.shape[1]
    w = np.zeros(d)
    b = 0.0
    step = 1.0
    loss, gw, gb = logistic_loss_grad(w, b, Z, y_signed, LR_LAMBDA)
    for _ in range(LR_MAX_ITER):
        gnorm2 = float(gw @ gw) + gb * gb
        if np.sqrt(gnorm2) < LR_TOL:
            break
        step = min(step * 2.0, 1e8)
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new, gw_new, gb_new = logistic_loss_grad(
                w_new, b_new, Z, y_signed, LR_LAMBDA
            )
            if loss_new <= loss - 1e-4 * step * gnorm2 or step < 1e-16:
                break
            step *= 0.5
        w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
    return w, b


def _tree_entry(tree, **extra):
    return {"root": tree.to_dict(), "importance": tree.importance_.tolist(), **extra}


def _tree_from_entry(entry, gini):
    tree = Tree.from_dict(entry["root"], gini)
    tree.importance_ = np.array(entry["importance"])
    return tree


@dataclass(frozen=True)
class Model:
    kind: str
    feature_names: tuple
    seed: int
    scaler: Scaler  # None for tree models
    impl: object  # (w, b) for a linear kind, else the fitted ensemble

    def _check_width(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise FitError(
                f"expected {len(self.feature_names)} features, got "
                f"{X.shape[1] if X.ndim == 2 else '?'}"
            )
        return X

    def decision_scores(self, X):
        """Real-valued scores; score > 0 <=> predicted label 1."""
        X = self._check_width(X)
        if self.kind in LINEAR_KINDS:
            w, b = self.impl
            return self.scaler.transform(X) @ w + b
        return self.impl.decision_function(X)

    def predict(self, X):
        return (self.decision_scores(X) > 0).astype(int)

    def accuracy(self, X, y):
        """Fraction of rows whose predicted label equals y."""
        return float(np.mean(self.predict(X) == y))

    def importance(self):
        """Non-negative per-feature scores (|weight| or impurity decrease)."""
        if self.kind in LINEAR_KINDS:
            return np.abs(self.impl[0])
        return self.impl.importance()

    def to_json(self):
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "feature_names": list(self.feature_names),
            "seed": self.seed,
            "scaler": self.scaler.to_dict() if self.scaler else None,
        }
        if self.kind == "svm":  # the bias is the last weight
            doc["weights"] = np.append(*self.impl).tolist()
        elif self.kind == "lr":
            doc["weights"] = self.impl[0].tolist()
            doc["bias"] = self.impl[1]
        elif self.kind == "rf":
            doc["n_features"] = self.impl.n_features
            doc["trees"] = [_tree_entry(t) for t in self.impl.trees]
        else:
            doc["base_score"] = self.impl.base_score
            doc["stages"] = [_tree_entry(t, scale=s) for t, s in self.impl.stages]
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
            if doc.get("format_version") != MODEL_FORMAT_VERSION:
                raise FitError(f"unsupported model format: {doc.get('format_version')}")
            kind = doc["kind"]
            scaler = Scaler.from_dict(doc["scaler"]) if doc["scaler"] else None
            if kind == "svm":
                packed = np.array(doc["weights"])
                impl = (packed[:-1], packed[-1])
            elif kind == "lr":
                impl = (np.array(doc["weights"]), float(doc["bias"]))
            elif kind == "rf":
                impl = RandomForest(seed=doc["seed"])
                impl.n_features = doc["n_features"]
                impl.trees = [_tree_from_entry(td, gini=True) for td in doc["trees"]]
            elif kind == "gb":
                impl = GradientBoosting()
                impl.base_score = doc["base_score"]
                impl.stages = [
                    (_tree_from_entry(sd, gini=False), sd["scale"]) for sd in doc["stages"]
                ]
            else:
                raise FitError(f"unknown classifier kind {kind!r}")
            return cls(
                kind=kind,
                feature_names=tuple(doc["feature_names"]),
                seed=doc["seed"],
                scaler=scaler,
                impl=impl,
            )
        except json.JSONDecodeError as exc:
            raise FitError(f"model text is not JSON: {exc}") from None
        except KeyError as exc:
            raise FitError(f"model text has no {exc.args[0]!r} key") from None
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise FitError(f"model text is not a model: {exc}") from None


def _checked(kind, X, y, seed):
    """(X as floats, y as 0/1 ints) for a fit, or the FitError that refuses them."""
    if kind not in KINDS:
        raise FitError(f"unknown classifier kind {kind!r} (expected one of {KINDS})")
    if seed < 0:  # numpy's generators take none, and every kind refuses it alike
        raise FitError(f"seed must be a non-negative integer, got {seed}")
    X = np.asarray(X, dtype=float)
    labels = np.asarray(y)
    if not np.isin(labels, (0, 1)).all():
        raise FitError(f"labels must be 0 or 1, got {np.unique(labels).tolist()}")
    y = labels.astype(int)
    if X.ndim != 2 or X.shape[0] < 2:
        raise FitError("need at least 2 rows")
    if y.shape != (X.shape[0],):
        raise FitError(f"need one label per row: {X.shape[0]} rows, labels of shape {y.shape}")
    if not np.all(np.isfinite(X)):
        raise FitError("non-finite feature values")
    if len(np.unique(y)) < 2:
        raise FitError("training labels contain a single class")
    return X, y


def _standardized(X, y):
    """(scaler fitted on X, standardized X, labels as -1/+1) for a linear fit."""
    scaler = standardize(X)
    return scaler, scaler.transform(X), 2.0 * y - 1.0


def _names(d):
    return tuple(f"f{i}" for i in range(d))


def fit(kind, X, y, seed=0, feature_names=None):
    """Train one classifier on a labeled matrix."""
    X, y = _checked(kind, X, y, seed)
    if feature_names is None:
        feature_names = _names(X.shape[1])
    if len(feature_names) != X.shape[1]:
        raise FitError(f"{len(feature_names)} feature names for {X.shape[1]} features")

    scaler = None
    if kind in LINEAR_KINDS:
        scaler, Z, y_signed = _standardized(X, y)
        impl = _fit_svm(Z, y_signed) if kind == "svm" else _fit_lr(Z, y_signed)
    elif kind == "rf":
        impl = RandomForest(seed=seed).fit(X, y)
    else:
        impl = GradientBoosting().fit(X, y)
    return Model(
        kind=kind,
        feature_names=tuple(feature_names),
        seed=int(seed),
        scaler=scaler,
        impl=impl,
    )


def fit_many(kind, X, y, jobs, seed=0):
    """`[fit(kind, X[rows][:, cols], y[rows], seed=seed) for rows, cols in jobs]`.

    Rows are gathered before columns, as in that loop: the gather's memory
    order sets the last bits of a linear fit. svm jobs are all checked
    first, raising the message `fit` would for the first bad one; then the
    jobs of each (rows, columns) shape train in lockstep in one `_fit_svm`
    call, with the same bits as one by one. Other kinds run that loop.
    """
    if kind != "svm":
        return [fit(kind, X[rows][:, cols], y[rows], seed=seed) for rows, cols in jobs]
    prepared = [_standardized(*_checked(kind, X[rows][:, cols], y[rows], seed))
                for rows, cols in jobs]
    groups = {}
    for i, (_, Z, _) in enumerate(prepared):
        groups.setdefault(Z.shape, []).append(i)
    impls = {}
    for members in groups.values():
        W, B = _fit_svm(np.stack([prepared[i][1] for i in members]),
                        np.stack([prepared[i][2] for i in members]))
        impls.update(zip(members, zip(W, B)))
    return [
        Model(kind=kind, feature_names=_names(Z.shape[1]), seed=int(seed), scaler=scaler,
              impl=impls[i])
        for i, (scaler, Z, _) in enumerate(prepared)
    ]
