"""Discrete AdaBoost over depth-1 decision stumps.

Weak learner: h(x) = polarity if x[j] >= threshold else -polarity.
Candidate thresholds per feature are one sentinel below the minimum
plus the midpoints between consecutive distinct values (the upper value
where a midpoint rounds onto the lower one or overflows), so constant
predictions are always reachable.  Ties in weighted error resolve to
the lowest feature index, then the lowest threshold, then polarity +1.

A scan table (``_Table``) holds what every scan on X shares: X's
columns as rows, each column's sorted values and ties, whence each
round's threshold, and the gather index of its row order.  Only this
package builds one, from X, so it cannot disagree with X; ``selection``
builds one per run from its train table and each fit takes the table's
rows of its columns, without a sort.  ``train`` and ``train_stump`` build
their own from a matrix.  The table checks X; a scan state per fit checks
the labels and holds the class mask and the round buffers;
``train_stump`` checks the weights, which only its callers supply.  Each
row's positive- and negative-class weights are one complex number, so
each round is one gather and one complex cumulative sum, whose real and
imaginary parts are the two classes' left-to-right float sums, both
polarities' errors, and a first-minimum search: the lower of the two
polarity errors per (feature, split position), with non-splits at +inf,
whose first minimum in that order is the stump, polarity +1 if it
reaches the minimum.  That is exactly the tie-break above.  A round of
``train`` is that scan and one weight update; ``train_stump`` runs one
scan.
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


def hard_labels(margins):
    """0/1 labels from ensemble margins; a zero margin maps to class 1."""
    return np.where(margins >= 0.0, 1, 0).astype(np.int64)


class _Table:
    """A run's scan table: the set-up of every stump scan on X or on a
    subset of its columns.  It checks once that X is a finite, non-empty
    matrix and holds, one row per feature: X's column (``XT``), its values
    sorted stably (``sorted``), the tie mask (``tied``: split position k,
    with k rows below the threshold, is no split when sorted values k-1
    and k are equal) and the row indices of the k lowest rows (``below``,
    (d, n - 1), the scan's gather index).  Each row depends on its column
    alone, so ``table[cols]``, the table of ``X[:, cols]``, takes those
    rows and never sorts.  Only this package builds one, from X, so a
    table cannot disagree with X."""

    def __init__(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or 0 in X.shape:
            raise DataError("X must be a non-empty 2-D matrix")
        if not np.isfinite(X).all():
            raise DataError("X must hold finite values only")
        self.XT = np.ascontiguousarray(X.T)
        order = np.argsort(self.XT, axis=1, kind="stable")
        self.sorted = v = np.take_along_axis(self.XT, order, axis=1)
        self.tied = np.zeros(v.shape, dtype=bool)
        self.tied[:, 1:] = v[:, 1:] == v[:, :-1]
        self.below = np.ascontiguousarray(order[:, :-1])  # a strided index gathers slower

    def __getitem__(self, cols):
        part = object.__new__(_Table)
        part.__dict__ = {k: a.take(cols, axis=0) for k, a in self.__dict__.items()}
        return part


class _Scan:
    """The stump scan's per-fit state on a table: it checks that y holds
    one -1 or +1 label per row (the weights are not checked here, see
    ``train_stump``) and holds the (2, n) class mask, whether any split
    position is tied, and the buffers every round reuses: the (n,)
    complex class-weight pair, the complex cumulative (d, n) and
    remainder (d, n) sums and the (2, d, n) errors.  A round's threshold
    is one below the minimum at k = 0, else the midpoint t of sorted
    values a = v[k-1] and b = v[k], or b itself where t falls outside
    (a, b]: adjacent values round t onto a, and huge ones overflow."""

    def __init__(self, table, y):
        self.table = table
        d, n = table.XT.shape
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (n,) or not ((y == 1.0) | (y == -1.0)).all():
            raise DataError("labels must be -1 or +1, one per row of X")
        self.any_tied = bool(table.tied.any())
        self.cls = np.array([y > 0, y < 0])
        self.pair = np.empty(n, dtype=np.complex128)
        self.cum = np.zeros((d, n), dtype=np.complex128)  # split position 0 stays zero
        self.rest = np.empty((d, n), dtype=np.complex128)
        self.errs = np.empty((2, d, n))

    def __call__(self, w):
        """(feature, threshold, polarity, error) of the best stump under
        weights ``w``, with the tie-break of ``train_stump``."""
        table = self.table
        W = np.where(self.cls, w, 0.0)
        # contiguous rows: a reduce over the interleaved pair sums in another order
        tp, tn = np.add.reduce(W, axis=1)
        pair, cum, rest = self.pair, self.cum, self.rest
        pair.real, pair.imag = W
        # cum[j, k]: the (positive, negative) weight of the k lowest rows of
        # feature j; a complex add is the two float adds, so one cumsum
        # runs both classes' left-to-right sums in step
        pair.take(table.below).cumsum(axis=1, out=cum[:, 1:])
        np.subtract(complex(tp, tn), cum, out=rest)
        # polarity +1 misclassifies positives below and negatives at/above
        plus, low = self.errs
        np.add(rest.imag, cum.real, out=plus)  # (tn - cn) + cp
        np.add(rest.real, cum.imag, out=low)  # (tp - cp) + cn
        np.minimum(plus, low, out=low)  # low[j, k]: the lower polarity's error
        if self.any_tied:
            np.copyto(low, np.inf, where=table.tied)
        # the first minimum in (feature, split position) order
        j, k = divmod(int(low.argmin()), low.shape[1])
        polarity = 1 if plus[j, k] == low[j, k] else -1
        if k == 0:
            threshold = float(table.sorted[j, 0]) - 1.0
        else:
            a, b = table.sorted[j, k - 1:k + 1].tolist()
            threshold = 0.5 * (a + b)
            if not a < threshold <= b:  # x >= b is the split the scan scored
                threshold = b
        return j, threshold, polarity, float(low[j, k])


def train_stump(X, y, w):
    """Exhaustive weighted-error scan over all (feature, threshold,
    polarity) stumps.

    Candidate thresholds per feature are one value below the column
    minimum (constant prediction) plus every midpoint between
    consecutive distinct values; where a midpoint rounds onto the lower
    value (adjacent floats) or overflows, the upper value stands in, so
    the stump splits the rows where the scan did.  Returns (stump,
    error) with the stump's alpha left at 0; the boosting loop assigns
    it.  Ties go to the lowest feature, then the lowest threshold, then
    polarity +1: non-splits score +inf, and among the stumps at the
    minimum error the first (feature, split position) wins, polarity +1
    before -1.  This is one round of the scan ``train`` runs, on a table
    built for this call.

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
    """
    scan = _Scan(_Table(X), y)
    w = np.asarray(w, dtype=np.float64)
    # the exact comparison fails on NaN and inf too
    if w.shape != scan.cls.shape[1:] or not abs(w.sum() - 1.0) <= 1e-9 or (w < 0).any():
        raise DataError("weights must be finite, non-negative, one per row and sum to 1")
    j, threshold, polarity, err = scan(w)
    return Stump(j, threshold, polarity, 0.0), err


def train(X, labels, rounds: int, history: dict | None = None) -> AdaBoostModel:
    """Fit an AdaBoost ensemble of at most ``rounds`` stumps.

    Weights start uniform and are renormalized to sum 1 every round.
    The weighted error is clamped to [1e-10, 1 - 1e-10] before the
    stump weight alpha = 0.5 ln((1 - eps) / eps); training stops early
    once a stump with raw error <= 1e-10 has been appended.

    Passing a dict as ``history`` fills it with per-round diagnostics:
    "epsilon", "weight_sum" (after the update), "bound" (the running
    exponential loss bound prod 2*sqrt(eps*(1-eps))), and "train_error".

    X is a matrix, or a slice of a table this package built (``selection``
    builds one per run); a matrix gets its own table, checked as in
    ``train_stump``.  The scan state, built once per fit on the table,
    checks the labels and holds the class mask and buffers.  A round is
    the scan and the weight update w * exp(-alpha * y * h) / sum, where
    y * h is +1 on the rows the stump gets right, so the exponent is
    -alpha there and +alpha elsewhere.  The weights are not checked per
    round: they start uniform, |alpha| <= 0.5 ln(1e10) keeps every factor
    finite and positive, and each round renormalizes them.  So every
    round chooses the stump ``train_stump(X, y, w)`` would.
    """
    labels = np.asarray(labels)
    if not is_binary(labels):
        raise DataError("labels must be 0 or 1")
    if not ((labels == 0).any() and (labels == 1).any()):
        raise DataError("single-class training labels")
    if rounds < 1:
        raise DataError("rounds must be >= 1")
    y = 2.0 * labels - 1.0
    table = X if isinstance(X, _Table) else _Table(X)
    scan = _Scan(table, y)
    XT = table.XT
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
