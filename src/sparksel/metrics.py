"""Binary classification metrics: confusion counts, rates, ranking AUC.

Label convention: 1 is the positive class.  Degenerate denominators
follow fixed rules so every metric is always defined: precision and
sensitivity are 0 when their denominator vanishes, specificity is 1
when there are no negatives, F1 is 0 when 2*tp + fp + fn = 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, is_binary


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricSet:
    """The six scores used throughout: AUC, accuracy, precision,
    sensitivity, F1, specificity."""

    auc: float
    acc: float
    pre: float
    sen: float
    f1: float
    spe: float

    def as_tuple(self):
        return (self.auc, self.acc, self.pre, self.sen, self.f1, self.spe)

    def avg(self) -> float:
        """Unweighted mean of all six scores."""
        return float(sum(self.as_tuple())) / 6.0

    def to_dict(self) -> dict:
        """The six scores plus ``avg``, as a JSON-ready report record."""
        return dict(asdict(self), avg=self.avg())


def confusion(y_true, y_pred) -> ConfusionCounts:
    """Tally the 2x2 confusion table for 0/1 label vectors."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape or t.ndim != 1:
        raise DataError("y_true and y_pred must be equal-length vectors")
    if t.size == 0:
        raise DataError("empty label vectors")
    for name, v in (("y_true", t), ("y_pred", p)):
        if not is_binary(v):
            raise DataError("%s must contain only 0 and 1" % name)
    tn, fp, fn, tp = np.bincount((2 * t + p).astype(np.intp), minlength=4).tolist()
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def accuracy(c: ConfusionCounts) -> float:
    return (c.tp + c.tn) / c.total


def precision(c: ConfusionCounts) -> float:
    den = c.tp + c.fp
    return c.tp / den if den else 0.0


def sensitivity(c: ConfusionCounts) -> float:
    den = c.tp + c.fn
    return c.tp / den if den else 0.0


def f1_score(c: ConfusionCounts) -> float:
    den = 2 * c.tp + c.fp + c.fn
    return 2 * c.tp / den if den else 0.0


def specificity(c: ConfusionCounts) -> float:
    den = c.tn + c.fp
    return c.tn / den if den else 1.0


def auc(y_true, scores) -> float:
    """Area under the ROC curve via the rank-sum statistic.

    Equivalent to the probability that a random positive outscores a
    random negative, with ties counted half.  Requires both classes to
    be present.
    """
    t = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if t.shape != s.shape or t.ndim != 1:
        raise DataError("y_true and scores must be equal-length vectors")
    if np.isnan(s).any():
        raise DataError("scores hold NaN, which has no rank")
    if not is_binary(t):
        raise DataError("y_true must contain only 0 and 1")
    n_pos = int(np.sum(t == 1))
    n_neg = t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("auc needs both classes present")
    # 1-based ranks: the tie block at sorted positions [a, b) shares
    # (a + b + 1) / 2, an exact half, so the rank sum is exact
    order = np.argsort(s, kind="stable")
    v = s[order]
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    ends = np.r_[starts[1:], v.size]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    rank_sum = float(ranks[t == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def score_set(y_true, y_pred, margin_scores) -> MetricSet:
    """All six metrics at once: threshold metrics from the 0/1
    predictions, AUC from the continuous margins."""
    c = confusion(y_true, y_pred)
    return MetricSet(
        auc=auc(y_true, margin_scores),
        acc=accuracy(c),
        pre=precision(c),
        sen=sensitivity(c),
        f1=f1_score(c),
        spe=specificity(c),
    )
