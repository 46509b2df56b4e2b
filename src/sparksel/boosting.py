"""Discrete AdaBoost over depth-1 decision stumps.

Weak learner: h(x) = polarity if x[j] >= threshold else -polarity.
Candidate thresholds per feature are one sentinel below the minimum
plus the midpoints between consecutive distinct values, so constant
predictions are always reachable.  Ties in weighted error resolve to
the lowest feature index, then the lowest threshold, then polarity +1.

``presort`` sorts every column once: ``selection`` presorts a run's
whole train table and slices it per fit.  Each round's ``train_stump``
is then one cumulative sum of the class weights over that order and
one flat argmin over a (feature, split position, polarity) error
layout, whose first minimum is exactly the tie-break above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, is_binary

EPS = 1e-10


@dataclass(frozen=True)
class Stump:
    feature_index: int
    threshold: float
    polarity: int
    alpha: float

    def predict(self, X):
        """Signed prediction in {-1, +1} per row."""
        out = np.where(X[:, self.feature_index] >= self.threshold, 1, -1)
        return self.polarity * out


@dataclass(frozen=True)
class AdaBoostModel:
    stumps: tuple

    def __post_init__(self):
        if not self.stumps:
            raise DataError("a model needs at least one stump")

    @property
    def rounds(self) -> int:
        return len(self.stumps)

    def margins(self, X):
        """Real-valued ensemble score sum(alpha_t * h_t(x)) per row."""
        X = np.asarray(X, dtype=np.float64)
        J = [s.feature_index for s in self.stumps]
        needed = 1 + max(J)
        if X.ndim != 2 or X.shape[1] < needed:
            raise DataError(
                "model indexes feature %d; X has %d columns"
                % (needed - 1, X.shape[1] if X.ndim == 2 else -1)
            )
        T = np.array([s.threshold for s in self.stumps])
        A = np.array([s.polarity * s.alpha for s in self.stumps])
        # summed left to right from 0: np.sum's pairwise order changes bits
        terms = np.zeros((X.shape[0], len(J) + 1))
        terms[:, 1:] = np.where(X[:, J] >= T, A, -A)
        return np.cumsum(terms, axis=1)[:, -1]

    def predict(self, X):
        """Hard 0/1 labels; a zero margin maps to class 1."""
        return hard_labels(self.margins(X))


def hard_labels(margins):
    """0/1 labels from ensemble margins; a zero margin maps to class 1."""
    return np.where(margins >= 0.0, 1, 0).astype(np.int64)


def _matrix(X):
    """X as a non-empty, finite float64 matrix, else DataError."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise DataError("X must be a non-empty 2-D matrix")
    if not np.isfinite(X).all():
        raise DataError("X must hold finite values only")
    return X


def presort(X):
    """The weight-independent part of the stump scan.

    Returns ``(order, tied, thresholds)``, each shaped (d, n) with one
    row per feature: the stable row order by value, whether split
    position k (k rows fall below the threshold) is no split because
    sorted values k-1 and k are equal, and the candidate threshold at k
    (one below the minimum at k = 0, else the midpoint of sorted values
    k-1 and k).  ``X`` must already be a finite 2-D matrix.  Row j
    depends on column j alone, so ``presort(X[:, cols])`` equals
    ``tuple(a[cols] for a in presort(X))``.
    """
    cols = np.asarray(X, dtype=np.float64).T
    order = np.argsort(cols, axis=1, kind="stable")
    v = np.take_along_axis(cols, order, axis=1)
    tied = np.zeros(order.shape, dtype=bool)
    tied[:, 1:] = v[:, 1:] == v[:, :-1]
    thresholds = np.empty(order.shape)
    thresholds[:, 0] = v[:, 0] - 1.0
    thresholds[:, 1:] = 0.5 * (v[:, :-1] + v[:, 1:])
    return order, tied, thresholds


def train_stump(X, y, w, view=None):
    """Exhaustive weighted-error scan over all (feature, threshold,
    polarity) stumps.

    Candidate thresholds per feature are one value below the column
    minimum (constant prediction) plus every midpoint between
    consecutive distinct values.  Returns (stump, error) with the
    stump's alpha left at 0; the boosting loop assigns it.  Ties go to
    the lowest feature, then the lowest threshold, then polarity +1:
    errors are laid out (feature, split position, polarity) with
    non-splits at +inf, and the first minimum wins.

    Parameters
    ----------
    X : ndarray, shape (n, d)
        Finite values.
    y : ndarray, shape (n,)
        Labels in {-1, +1}.
    w : ndarray, shape (n,)
        Non-negative sample weights summing to 1 within 1e-9.
    view : tuple, optional
        ``presort(X)``; ``train`` passes it so the scan never sorts.
        Without it, X, y and w are validated and X is presorted.
    """
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if view is None:
        X = _matrix(X)
        if y.shape != (X.shape[0],) or w.shape != (X.shape[0],):
            raise DataError("y and w must be vectors of length %d" % X.shape[0])
        view = presort(X)
    if abs(w.sum() - 1.0) > 1e-9 or (w < 0).any():
        raise DataError("weights must be non-negative and sum to 1")
    order, tied, thresholds = view
    d, n = order.shape
    w_pos = np.where(y > 0, w, 0.0)
    w_neg = np.where(y < 0, w, 0.0)
    total_pos = w_pos.sum()
    total_neg = w_neg.sum()

    # cum_*[j, k]: weight of the k lowest rows of feature j
    below = order[:, :-1]
    cum_pos = np.zeros((d, n))
    cum_neg = np.zeros((d, n))
    np.cumsum(w_pos[below], axis=1, out=cum_pos[:, 1:])
    np.cumsum(w_neg[below], axis=1, out=cum_neg[:, 1:])
    # polarity +1 misclassifies positives below and negatives at/above;
    # (total - cum) + cum is bit for bit cum + (total - cum)
    errs = np.empty((d, n, 2))
    plus, minus = errs[:, :, 0], errs[:, :, 1]
    np.subtract(total_neg, cum_neg, out=plus)
    plus += cum_pos
    np.subtract(total_pos, cum_pos, out=minus)
    minus += cum_neg
    errs[tied] = np.inf
    best = int(np.argmin(errs))  # first hit wins on ties
    j, k, p = np.unravel_index(best, errs.shape)
    stump = Stump(
        feature_index=int(j),
        threshold=float(thresholds[j, k]),
        polarity=1 - 2 * int(p),
        alpha=0.0,
    )
    return stump, float(errs[j, k, p])


def train(X, labels, rounds: int, history: dict | None = None, view=None) -> AdaBoostModel:
    """Fit an AdaBoost ensemble of at most ``rounds`` stumps.

    Weights start uniform and are renormalized to sum 1 every round.
    The weighted error is clamped to [1e-10, 1 - 1e-10] before the
    stump weight alpha = 0.5 ln((1 - eps) / eps); training stops early
    once a stump with raw error <= 1e-10 has been appended.

    Passing a dict as ``history`` fills it with per-round diagnostics:
    "epsilon", "weight_sum" (after the update), "bound" (the running
    exponential loss bound prod 2*sqrt(eps*(1-eps))), and "train_error".
    ``view`` is ``presort(X)`` when the caller has it; else X is presorted here.
    """
    X = _matrix(X)
    view = presort(X) if view is None else view
    if len(view) != 3 or any(np.shape(a) != X.shape[::-1] for a in view):
        raise DataError("presorted view does not match X's %d x %d shape" % X.shape)
    labels = np.asarray(labels)
    if labels.shape != (X.shape[0],) or not is_binary(labels):
        raise DataError("labels must be a 0/1 vector matching X rows")
    if not ((labels == 0).any() and (labels == 1).any()):
        raise DataError("single-class training labels")
    if rounds < 1:
        raise DataError("rounds must be >= 1")
    if history is not None:
        history.update(epsilon=[], weight_sum=[], bound=[], train_error=[])

    y = 2.0 * labels - 1.0
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    stumps = []
    margin = np.zeros(n)
    bound = 1.0
    for _ in range(rounds):
        stump, err = train_stump(X, y, w, view)
        eps = min(max(err, EPS), 1.0 - EPS)
        alpha = 0.5 * math.log((1.0 - eps) / eps)
        stump = Stump(stump.feature_index, stump.threshold, stump.polarity, alpha)
        stumps.append(stump)
        preds = stump.predict(X)
        stop = err <= EPS
        if not stop:
            w = w * np.exp(-alpha * y * preds)
            w = w / w.sum()
        if history is not None:
            margin += alpha * preds
            bound *= 2.0 * math.sqrt(eps * (1.0 - eps))
            history["epsilon"].append(err)
            history["weight_sum"].append(float(w.sum()))
            history["bound"].append(bound)
            history["train_error"].append(float(np.mean(np.where(margin >= 0, 1, -1) != y)))
        if stop:
            break
    return AdaBoostModel(stumps=tuple(stumps))
