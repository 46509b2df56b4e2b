"""Discrete AdaBoost over depth-1 decision stumps.

Weak learner: h(x) = polarity if x[j] >= threshold else -polarity.
Candidate thresholds per feature are one sentinel below the minimum
plus the midpoints between consecutive distinct values, so constant
predictions are always reachable.  Ties in weighted error resolve to
the lowest feature index, then the lowest threshold, then polarity +1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

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

    @property
    def rounds(self) -> int:
        return len(self.stumps)

    def margins(self, X):
        """Real-valued ensemble score sum(alpha_t * h_t(x)) per row."""
        X = np.asarray(X, dtype=np.float64)
        needed = 1 + max(s.feature_index for s in self.stumps)
        if X.ndim != 2 or X.shape[1] < needed:
            raise DataError(
                "model indexes feature %d; X has %d columns"
                % (needed - 1, X.shape[1] if X.ndim == 2 else -1)
            )
        m = np.zeros(X.shape[0])
        for s in self.stumps:
            m += s.alpha * s.predict(X)
        return m

    def predict(self, X):
        """Hard 0/1 labels; a zero margin maps to class 1."""
        return np.where(self.margins(X) >= 0.0, 1, 0).astype(np.int64)

    def to_json(self) -> str:
        recs = [
            {
                "feature_index": s.feature_index,
                "threshold": s.threshold,
                "polarity": s.polarity,
                "alpha": s.alpha,
            }
            for s in self.stumps
        ]
        return json.dumps({"stumps": recs}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AdaBoostModel":
        doc = json.loads(text)
        stumps = tuple(
            Stump(
                feature_index=int(r["feature_index"]),
                threshold=float(r["threshold"]),
                polarity=int(r["polarity"]),
                alpha=float(r["alpha"]),
            )
            for r in doc["stumps"]
        )
        return cls(stumps=stumps)


def train_stump(X, y, w):
    """Exhaustive weighted-error scan over all (feature, threshold,
    polarity) stumps.

    Candidate thresholds per feature are one value below the column
    minimum (constant prediction) plus every midpoint between
    consecutive distinct values.  Returns (stump, error) with the
    stump's alpha left at 0; the boosting loop assigns it.  The scan
    order fixes the tie-break: features ascending, thresholds ascending
    within a feature, polarity +1 before -1, and only a strictly
    smaller error displaces the incumbent.

    Parameters
    ----------
    X : ndarray, shape (n, d)
    y : ndarray, shape (n,)
        Labels in {-1, +1}.
    w : ndarray, shape (n,)
        Non-negative sample weights summing to 1 within 1e-9.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if abs(w.sum() - 1.0) > 1e-9 or (w < 0).any():
        raise DataError("weights must be non-negative and sum to 1")
    n, d = X.shape
    w_pos = np.where(y > 0, w, 0.0)
    w_neg = np.where(y < 0, w, 0.0)
    total_pos = w_pos.sum()
    total_neg = w_neg.sum()

    best = None  # (error, feature, threshold, polarity)
    for j in range(d):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        v = col[order]
        # split positions: k samples fall strictly below the threshold
        ks = np.concatenate(([0], np.flatnonzero(np.diff(v) > 0) + 1))
        cum_pos = np.concatenate(([0.0], np.cumsum(w_pos[order])))
        cum_neg = np.concatenate(([0.0], np.cumsum(w_neg[order])))
        # polarity +1 misclassifies positives below and negatives at/above
        err_plus = cum_pos[ks] + (total_neg - cum_neg[ks])
        err_minus = cum_neg[ks] + (total_pos - cum_pos[ks])

        errs = np.empty(2 * ks.size)
        errs[0::2] = err_plus
        errs[1::2] = err_minus
        local = int(np.argmin(errs))  # first hit wins on ties
        err = float(errs[local])
        if best is not None and err >= best[0]:
            continue
        k = int(ks[local // 2])
        polarity = 1 if local % 2 == 0 else -1
        threshold = v[0] - 1.0 if k == 0 else 0.5 * (v[k - 1] + v[k])
        best = (err, j, float(threshold), polarity)

    err, j, threshold, polarity = best
    return Stump(feature_index=j, threshold=threshold, polarity=polarity, alpha=0.0), err


def train(X, labels, rounds: int, history: dict | None = None) -> AdaBoostModel:
    """Fit an AdaBoost ensemble of at most ``rounds`` stumps.

    Weights start uniform and are renormalized to sum 1 every round.
    The weighted error is clamped to [1e-10, 1 - 1e-10] before the
    stump weight alpha = 0.5 ln((1 - eps) / eps); training stops early
    once a stump with raw error <= 1e-10 has been appended.

    Passing a dict as ``history`` fills it with per-round diagnostics:
    "epsilon", "weight_sum" (after the update), "bound" (the running
    exponential loss bound prod 2*sqrt(eps*(1-eps))), and "train_error".
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise DataError("X must be a non-empty 2-D matrix")
    if labels.shape != (X.shape[0],) or not np.isin(labels, (0, 1)).all():
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
        stump, err = train_stump(X, y, w)
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
