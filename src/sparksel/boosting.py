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
view cannot disagree with X), a gather index into the class weights,
the class mask and the round buffers.  The scan state checks X, the view
and the labels for ``train`` and ``train_stump`` alike; ``train_stump``
checks the weights, which only its callers supply.  Each row's positive-
and negative-class weights are one complex number, so each round is one
gather and one complex cumulative sum, whose real and imaginary parts
are the two classes' left-to-right float sums, both polarities' errors,
and a first-minimum search: the lower of the two polarity errors per
(feature, split position), with non-splits at +inf, whose first minimum
in that order is the stump, polarity +1 if it reaches the minimum.  That
is exactly the tie-break above.  A round of ``train`` is that scan and
one weight update; ``train_stump`` runs one scan.
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
    and orders X's columns, and that y holds one -1 or +1 label per row;
    the weights are not checked here (see ``train_stump``).  It holds X's
    sorted values (d, n), the tie mask (split position k, with k rows
    below the threshold, is no split when sorted values k-1 and k are
    equal) and whether any position is tied, the (d, n - 1) gather index
    of the k lowest rows of each feature, the (2, n) class mask, and the
    buffers every round reuses: the (n,) complex class-weight pair, the
    complex cumulative (d, n) and remainder (d, n) sums and the (2, d, n)
    errors.  A round's threshold is one below the minimum at k = 0, else
    the midpoint of sorted values k-1 and k."""

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
                # uint64 + int64 rows would promote to float
                order = order.astype(np.intp, copy=False)
                hit[order + rows] = True
            if not hit.all():
                raise DataError("presorted view rows must be permutations of 0..%d" % (n - 1))
        # X's values in view order: one flat gather
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
        self.any_tied = bool(self.tied.any())
        self.below = np.ascontiguousarray(order[:, :-1])  # a strided index gathers slower
        self.cls = np.array([y > 0, y < 0])
        self.pair = np.empty(n, dtype=np.complex128)
        self.cum = np.zeros((d, n), dtype=np.complex128)  # split position 0 stays zero
        self.rest = np.empty((d, n), dtype=np.complex128)
        self.errs = np.empty((2, d, n))

    def __call__(self, w):
        """(feature, threshold, polarity, error) of the best stump under
        weights ``w``, with the tie-break of ``train_stump``."""
        W = np.where(self.cls, w, 0.0)
        # contiguous rows: a reduce over the interleaved pair sums in another order
        tp, tn = np.add.reduce(W, axis=1)
        pair, cum, rest = self.pair, self.cum, self.rest
        pair.real, pair.imag = W
        # cum[j, k]: the (positive, negative) weight of the k lowest rows of
        # feature j; a complex add is the two float adds, so one cumsum
        # runs both classes' left-to-right sums in step
        pair.take(self.below).cumsum(axis=1, out=cum[:, 1:])
        np.subtract(complex(tp, tn), cum, out=rest)
        # polarity +1 misclassifies positives below and negatives at/above
        plus, low = self.errs
        np.add(rest.imag, cum.real, out=plus)  # (tn - cn) + cp
        np.add(rest.real, cum.imag, out=low)  # (tp - cp) + cn
        np.minimum(plus, low, out=low)  # low[j, k]: the lower polarity's error
        if self.any_tied:
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
        Finite, non-negative sample weights summing to 1 within 1e-9,
        checked here: this is the one caller whose weights come from
        outside (``train`` makes its own).
    view : ndarray, shape (d, n), optional
        ``presort(X)``, the row order of each column: each row an integer
        permutation of 0..n-1 that orders X; with it the scan never
        sorts.  X, the view and y are checked either way, by the scan
        state ``train`` builds too.
    """
    scan = _Scan(X, y, view)
    w = np.asarray(w, dtype=np.float64)
    # the exact comparison fails on NaN and inf too
    if w.shape != scan.cls.shape[1:] or not abs(w.sum() - 1.0) <= 1e-9 or (w < 0).any():
        raise DataError("weights must be finite, non-negative, one per row and sum to 1")
    j, threshold, polarity, err = scan(w)
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
    gather index, class mask, buffers).  A round is the scan and the
    weight update w * exp(-alpha * y * h) / sum, where y * h is +1 on the
    rows the stump gets right, so the exponent is -alpha there and
    +alpha elsewhere.  The weights are not checked per round: they start
    uniform, |alpha| <= 0.5 ln(1e10) keeps every factor finite and
    positive, and each round renormalizes them.  So every round chooses
    the stump ``train_stump(X, y, w, view)`` would.
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
    XT = scan.X.T
    if history is not None:
        history.update(epsilon=[], weight_sum=[], bound=[], train_error=[])

    n = XT.shape[1]
    w = np.full(n, 1.0 / n)
    picks = []
    margin = np.zeros(n)
    bound = 1.0
    for _ in range(rounds):
        j, threshold, polarity, err = scan(w)
        eps = min(max(err, EPS), 1.0 - EPS)
        alpha = 0.5 * math.log((1.0 - eps) / eps)
        picks.append((j, threshold, polarity, alpha))
        # right: the stump's sign (polarity if x >= threshold) is y's
        right = (XT[j] >= threshold) == scan.cls[0 if polarity > 0 else 1]
        stop = err <= EPS
        if not stop:
            w = w * np.exp(np.where(right, -alpha, alpha))
            w /= w.sum()
        if history is not None:
            margin += alpha * np.where(right, y, -y)
            bound *= 2.0 * math.sqrt(eps * (1.0 - eps))
            history["epsilon"].append(err)
            history["weight_sum"].append(float(w.sum()))
            history["bound"].append(bound)
            history["train_error"].append(float(np.mean(hard_labels(margin) != labels)))
        if stop:
            break
    return AdaBoostModel(stumps=tuple(Stump(*pick) for pick in picks))
