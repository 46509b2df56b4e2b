"""Discrete AdaBoost over depth-1 decision stumps.

Weak learner: h(x) = polarity if x[j] >= threshold else -polarity.
Candidate thresholds per feature are one sentinel below the minimum
plus the midpoints between consecutive distinct values, so constant
predictions are always reachable.  Ties in weighted error resolve to
the lowest feature index, then the lowest threshold, then polarity +1.

``presort`` gives the view, each column's row order: ``selection``
presorts a run's whole train table once and slices its rows per fit.
``train`` then builds one scan state per fit from X, that order and the
labels: X's sorted values and ties, whence each round's threshold (so a
view cannot disagree with X), a flat gather index into the stacked class
weights, the class mask and the round buffers.  The scan state checks every input
of a fit, so ``train`` and ``train_stump`` share one copy of each rule.
Each round is one gather and one cumulative sum of the class weights,
both polarities' errors in two calls, and a first-minimum search: the
lower of the two polarity errors per (feature, split position), with
non-splits at +inf, whose first minimum in that order is the stump,
polarity +1 if it reaches the minimum.  That is exactly the tie-break
above.  ``train_stump`` runs one round of the same scan.
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


def presort(X):
    """The view: X's row indices by ascending value, ties in row order,
    one row per column, shaped (d, n).  Row j depends on column j alone,
    so ``presort(X[:, cols])`` equals ``presort(X)[cols]``."""
    return np.argsort(np.asarray(X, dtype=np.float64).T, axis=1, kind="stable")


class _Scan:
    """The stump scan's per-fit state.  It checks that X is a finite,
    non-empty matrix, that the view (``presort(X)`` when none is passed)
    has X's transposed shape, holds a permutation of 0..n-1 in each row
    and orders X's columns, and that y holds one -1 or +1 label per row.
    It holds X's sorted values (d, n), the tie mask (split position k,
    with k rows below the threshold, is no split when sorted values k-1
    and k are equal), the (2d, n - 1) flat gather index of the k lowest
    rows of each feature into the stacked (positive, negative) class
    weights, the (2, n) class mask, and the cumulative (2d, n) and error
    (2, d, n) buffers every round reuses.  A round's threshold is one
    below the minimum at k = 0, else the midpoint of sorted values k-1
    and k."""

    def __init__(self, X, y, view=None):
        self.X = X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or 0 in X.shape:
            raise DataError("X must be a non-empty 2-D matrix")
        if not np.isfinite(X).all():
            raise DataError("X must hold finite values only")
        n, d = X.shape
        order = presort(X) if view is None else np.asarray(view)
        if order.shape != (d, n):
            raise DataError("presorted view does not match X's %d x %d shape" % X.shape)
        rows = n * np.arange(d)[:, None]  # each feature's offset in X.T's flat order
        if view is not None:
            # with integers in [0, n), hitting every cell makes each row a permutation
            hit = np.zeros(d * n, dtype=bool)
            if order.dtype.kind in "iu" and order.min() >= 0 and order.max() < n:
                hit[order + rows] = True
            if not hit.all():
                raise DataError("presorted view rows must be permutations of 0..%d" % (n - 1))
            order = order.astype(np.intp, copy=False)  # a narrow dtype would wrap below + n
        # X's values in view order: one flat gather, like each round's
        v = X.T.take(order + rows)
        lo, hi = v[:, :-1], v[:, 1:]
        if (hi < lo).any():
            raise DataError("presorted view does not order X's columns")
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (n,) or not ((y == 1.0) | (y == -1.0)).all():
            raise DataError("labels must be -1 or +1, one per row of X")
        self.sorted = v
        self.tied = np.zeros((d, n), dtype=bool)
        self.tied[:, 1:] = hi == lo
        below = order[:, :-1]
        self.index = np.concatenate((below, below + n))
        self.cls = np.array([y > 0, y < 0])
        self.cum = np.zeros((2 * d, n))  # split position 0 stays zero
        self.errs = np.empty((2, d, n))

    def __call__(self, w):
        """(feature, threshold, polarity, error) of the best stump under
        weights ``w``, with the tie-break of ``train_stump``; ``w`` is
        checked on every call."""
        w = np.asarray(w, dtype=np.float64)
        # the exact comparison fails on NaN and inf too
        if w.shape != self.cls.shape[1:] or not abs(w.sum() - 1.0) <= 1e-9 or (w < 0).any():
            raise DataError("weights must be finite, non-negative, one per row and sum to 1")
        W = np.where(self.cls, w, 0.0)
        total = np.add.reduce(W, axis=1)
        # cum[c, j, k]: class c's weight of the k lowest rows of feature j
        np.cumsum(W.ravel()[self.index], axis=1, out=self.cum[:, 1:])
        cum, errs = self.cum.reshape(self.errs.shape), self.errs
        # polarity +1 misclassifies positives below and negatives at/above;
        # (total - cum) + cum is bit for bit cum + (total - cum)
        np.subtract(total[::-1, None, None], cum[::-1], out=errs)
        errs += cum
        plus, low = errs
        np.minimum(plus, low, out=low)  # low[j, k]: the lower polarity's error
        np.copyto(low, np.inf, where=self.tied)
        # the first minimum in (feature, split position) order
        j, k = divmod(int(low.argmin()), low.shape[1])
        polarity = 1 if plus[j, k] == low[j, k] else -1
        v = self.sorted[j]
        threshold = v[0] - 1.0 if k == 0 else 0.5 * (v[k - 1] + v[k])
        return j, float(threshold), polarity, float(low[j, k])


def train_stump(X, y, w, view=None):
    """Exhaustive weighted-error scan over all (feature, threshold,
    polarity) stumps.

    Candidate thresholds per feature are one value below the column
    minimum (constant prediction) plus every midpoint between
    consecutive distinct values.  Returns (stump, error) with the
    stump's alpha left at 0; the boosting loop assigns it.  Ties go to
    the lowest feature, then the lowest threshold, then polarity +1:
    non-splits score +inf, and among the stumps at the minimum error the
    first (feature, split position) wins, polarity +1 before -1.  This
    is one round of the scan ``train`` runs, on a scan state built for
    this call.

    Parameters
    ----------
    X : ndarray, shape (n, d)
        Finite values.
    y : ndarray, shape (n,)
        Labels in {-1, +1}.
    w : ndarray, shape (n,)
        Finite, non-negative sample weights summing to 1 within 1e-9.
    view : ndarray, shape (d, n), optional
        ``presort(X)``, the row order of each column: each row an integer
        permutation of 0..n-1 that orders X; with it the scan never
        sorts.  Every input is checked either way: the scan's checks are
        ``train``'s.
    """
    j, threshold, polarity, err = _Scan(X, y, view)(w)
    return Stump(j, threshold, polarity, 0.0), err


def train(X, labels, rounds: int, history: dict | None = None, view=None) -> AdaBoostModel:
    """Fit an AdaBoost ensemble of at most ``rounds`` stumps.

    Weights start uniform and are renormalized to sum 1 every round.
    The weighted error is clamped to [1e-10, 1 - 1e-10] before the
    stump weight alpha = 0.5 ln((1 - eps) / eps); training stops early
    once a stump with raw error <= 1e-10 has been appended.

    Passing a dict as ``history`` fills it with per-round diagnostics:
    "epsilon", "weight_sum" (after the update), "bound" (the running
    exponential loss bound prod 2*sqrt(eps*(1-eps))), and "train_error".
    ``view`` is the row order ``presort(X)`` if the caller has it; else X is presorted.

    The scan state, built once per fit, checks X, the view and the labels
    as ``train_stump`` does and holds the set-up (sorted values, ties,
    gather index, class mask, buffers); each round reruns only its
    weight-dependent steps, so every round chooses the stump
    ``train_stump(X, y, w, view)`` would.
    """
    labels = np.asarray(labels)
    if not is_binary(labels):
        raise DataError("labels must be 0 or 1")
    if not ((labels == 0).any() and (labels == 1).any()):
        raise DataError("single-class training labels")
    if rounds < 1:
        raise DataError("rounds must be >= 1")
    y = 2.0 * labels - 1.0
    scan = _Scan(X, y, view)
    X = scan.X
    if history is not None:
        history.update(epsilon=[], weight_sum=[], bound=[], train_error=[])

    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    stumps = []
    margin = np.zeros(n)
    bound = 1.0
    for _ in range(rounds):
        j, threshold, polarity, err = scan(w)
        eps = min(max(err, EPS), 1.0 - EPS)
        alpha = 0.5 * math.log((1.0 - eps) / eps)
        stump = Stump(j, threshold, polarity, alpha)
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
            history["train_error"].append(float(np.mean(hard_labels(margin) != labels)))
        if stop:
            break
    return AdaBoostModel(stumps=tuple(stumps))
