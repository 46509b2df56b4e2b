"""Wrapper feature selection: swarm positions become feature masks.

A continuous position in [0,1]^d discretizes at 0.5 into a 0/1 mask
(the boundary itself selects), a repair step flips zero bits on until
the mask keeps at least lambda = ceil(lambda_fraction * d) features,
and the objective is the negated sum of six test-set metrics of an
AdaBoost model trained on the masked columns.  A run builds one scan
table of its train side (``boosting._Table``: sorted values, ties and row
order) and each fit takes that table's rows of its columns.  It
remembers the loss of each repaired mask it has trained (a plain dict
of floats keyed by the packed mask bits), so a repeated mask costs no
training; the swarm's budget, the importance counters and the popcount
floor still count every evaluation.  The swarm hands the objective each batch of
positions in one call on the calling thread; the batch objective scores
its rows one at a time in row order, so these counters need no lock.

The ANOVA-based select-k-best filter lives here too as the
non-wrapper baseline; ``select_k_best`` runs it on the search split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boosting, metrics, swarm
from .data import Dataset, SplitPair, stratified_split
from .errors import (
    ConfigError, DataError, InvariantError, at_least, between, check_fields, check_value,
    fraction, setting,
)


@dataclass(frozen=True)
class SelectionConfig:
    """Wrapper-run parameters around one SwarmConfig.

    ``holdout_fraction`` > 0 carves an extra untouched slice off the
    data first; the search never sees it and the result reports metrics
    on it separately.  The default 0 mirrors the two-way protocol where
    the split that scores candidate masks also grades the final model.
    """

    swarm: swarm.SwarmConfig
    lambda_fraction: float = setting(0.2, "selection.lambda_fraction", fraction(0, 1))
    classifier_rounds: int = setting(50, "adaboost.rounds", at_least(1))
    test_fraction: float = setting(0.3, "split.test_fraction", fraction(0, 1))
    split_seed: int = setting(0, check=at_least(0))
    holdout_fraction: float = setting(
        0.0, "split.holdout_fraction", fraction(0, 1, lo_open=False)
    )

    def __post_init__(self):
        check_fields(self)

    @property
    def floor(self) -> int:
        """lambda: the fewest features a mask may keep."""
        return math.ceil(self.lambda_fraction * self.swarm.dimensions)


@dataclass
class ImportanceTracker:
    """Per-feature counters: +1 for each evaluated mask selecting the
    feature.  Counts never exceed the evaluation total."""

    counts: np.ndarray
    evaluations: int = 0

    @classmethod
    def for_dimensions(cls, d: int) -> "ImportanceTracker":
        return cls(counts=np.zeros(d, dtype=np.int64))

    def record(self, mask) -> None:
        mask = np.asarray(mask)
        if mask.shape != self.counts.shape:
            raise DataError(
                "mask length %d does not match tracker length %d"
                % (mask.size, self.counts.size)
            )
        self.counts += mask
        self.evaluations += 1


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Outcome of one selection run; ``select_k_best`` fills it with the
    skb filter's single evaluated mask."""

    algorithm: str
    best_mask: np.ndarray
    best_metrics: metrics.MetricSet
    loss: float
    importance: np.ndarray
    evaluations: int
    min_popcount: int
    fitness_trace: np.ndarray
    holdout_metrics: metrics.MetricSet | None = None


def discretize(x) -> np.ndarray:
    """Position to mask: bit j is 0 iff x_j < 0.5 (so 0.5 itself selects)."""
    return (np.asarray(x) >= 0.5).astype(np.int64)


def repair(mask, lam: int, rng) -> np.ndarray:
    """Flip uniformly chosen zero bits to one until the mask keeps
    lam features.  Masks already at or above lam pass unchanged; set
    bits are never cleared."""
    mask = np.asarray(mask).copy()
    if lam > mask.size:
        raise ConfigError("lambda %d exceeds dimension %d" % (lam, mask.size))
    deficit = lam - int(mask.sum())
    if deficit > 0:
        zeros = np.flatnonzero(mask == 0)
        picked = rng.permutation(zeros.size)[:deficit]
        mask[zeros[picked]] = 1
    return mask


def fit_mask(mask, split: SplitPair, cfg: SelectionConfig, holdout: Dataset | None = None,
             table=None):
    """Train on the masked train columns and score the test side and
    the ``holdout``: (loss, test metrics, holdout metrics).  ``table`` is
    the run's ``boosting._Table(split.train.features)``, or None to build
    one for this fit."""
    cols = np.flatnonzero(mask)
    if cols.size == 0:
        raise InvariantError("mask selects zero columns")
    if table is None:
        table = boosting._Table(split.train.features)
    model = boosting.train(table[cols], split.train.labels, rounds=cfg.classifier_rounds)
    mset = _score(model, split.test, cols)
    held = None if holdout is None else _score(model, holdout, cols)
    return -float(sum(mset.as_tuple())), mset, held


def _score(model, part: Dataset, cols) -> metrics.MetricSet:
    """The six metrics of ``model`` on columns ``cols`` of ``part``."""
    margins = model.margins(part.features[:, cols])
    return metrics.score_set(part.labels, boosting.hard_labels(margins), margins)


def fitness(mask, split: SplitPair, cfg: SelectionConfig, table=None):
    """Mask quality: train on masked train columns, score the test
    side, return (loss, metrics) with loss = -(sum of the six metrics).
    Lower is better; the range is [-6, 0].  ``table`` as in ``fit_mask``."""
    return fit_mask(mask, split, cfg, table=table)[:2]


def protocol_split(ds: Dataset, cfg: SelectionConfig):
    """(search split, holdout or None) of ``ds``: the holdout is carved
    first, with split seed + 1, and the search split from the rest."""
    if cfg.holdout_fraction == 0.0:
        return stratified_split(ds, cfg.test_fraction, cfg.split_seed), None
    carved = stratified_split(ds, cfg.holdout_fraction, cfg.split_seed + 1)
    return stratified_split(carved.train, cfg.test_fraction, cfg.split_seed), carved.test


def select_features(ds: Dataset, cfg: SelectionConfig) -> SelectionResult:
    """Run the configured swarm over feature masks of ``ds``.

    The swarm explores [0,1]^d; each evaluation discretizes, repairs to
    the lambda floor, asserts the constraint, trains the classifier, and
    scores the held-out side; a mask already trained in this run reuses
    its loss.  Importance counts accumulate over every evaluation.
    Equal (ds, cfg) gives a bit-identical result.
    """
    if cfg.swarm.dimensions != ds.d:
        raise ConfigError(
            "swarm.dimensions=%d but dataset has %d features"
            % (cfg.swarm.dimensions, ds.d)
        )
    split, holdout = protocol_split(ds, cfg)
    table = boosting._Table(split.train.features)

    lam = cfg.floor
    tracker = ImportanceTracker.for_dimensions(ds.d)
    min_popcount = ds.d + 1
    losses = {}  # packed repaired-mask bits -> loss, for this run only
    # its own source: the objective runs while the swarm holds a stream
    mask_streams = swarm.Streams(cfg.swarm.seed)

    def repaired(raw):
        if raw.sum() >= lam:  # repair draws only for a mask below the floor
            return repair(raw, lam, None)
        # keyed by mask content so repair is a pure function of the position
        bits = int.from_bytes(np.packbits(raw.astype(np.uint8)).tobytes(), "little")
        return repair(raw, lam, mask_streams(0x5EED, bits))

    def mask_loss(x):
        nonlocal min_popcount
        mask = repaired(discretize(x))
        pop = int(mask.sum())
        if pop < lam:
            raise InvariantError("repaired mask popcount %d < lambda %d" % (pop, lam))
        key = np.packbits(mask.astype(np.uint8)).tobytes()
        if key not in losses:
            losses[key] = fitness(mask, split, cfg, table)[0]
        tracker.record(mask)
        min_popcount = min(min_popcount, pop)
        return losses[key]

    def objective(X):
        return [mask_loss(x) for x in X]

    opt = swarm.optimize(objective, cfg.swarm)
    if tracker.evaluations != opt.evaluations_used:
        raise InvariantError(
            "importance tracker saw %d evaluations, swarm reports %d"
            % (tracker.evaluations, opt.evaluations_used)
        )

    best_mask = repaired(discretize(opt.best_x))
    loss, mset, holdout_metrics = fit_mask(best_mask, split, cfg, holdout, table)
    return SelectionResult(
        algorithm=cfg.swarm.algorithm,
        best_mask=best_mask,
        best_metrics=mset,
        loss=loss,
        importance=tracker.counts.copy(),
        evaluations=opt.evaluations_used,
        min_popcount=min_popcount,
        fitness_trace=opt.fitness_trace,
        holdout_metrics=holdout_metrics,
    )


def anova_f(ds: Dataset) -> np.ndarray:
    """One-way ANOVA F-statistic of each feature between the two
    classes.  Constant columns score 0; zero within-class variance with
    real between-class separation scores +inf."""
    y = ds.labels
    if not ((y == 0).any() and (y == 1).any()):
        raise DataError("anova_f needs both classes present")
    X = ds.features
    n = X.shape[0]
    overall = X.mean(axis=0)
    f_stats = np.zeros(ds.d)
    ss_between = np.zeros(ds.d)
    ss_within = np.zeros(ds.d)
    for cls in (0, 1):
        grp = X[y == cls]
        gm = grp.mean(axis=0)
        ss_between += grp.shape[0] * (gm - overall) ** 2
        ss_within += ((grp - gm) ** 2).sum(axis=0)
    total = ss_between + ss_within
    live = total > 0.0
    sep = live & (ss_within == 0.0)
    ordinary = live & (ss_within > 0.0)
    f_stats[sep] = np.inf
    f_stats[ordinary] = ss_between[ordinary] / (ss_within[ordinary] / (n - 2))
    return f_stats


def skb(ds: Dataset, k: int) -> np.ndarray:
    """Filter baseline: mask of the k features with the highest ANOVA
    F-statistic, ties resolved toward the lower index.  ``k`` is the
    ``skb.k`` setting and must lie in [1, d]."""
    check_value("skb.k", "int", between(1, ds.d), k)
    f_stats = anova_f(ds)
    order = np.lexsort((np.arange(ds.d), -f_stats))
    mask = np.zeros(ds.d, dtype=np.int64)
    mask[order[:k]] = 1
    return mask


def select_k_best(ds: Dataset, cfg: SelectionConfig, k: int) -> SelectionResult:
    """The skb filter as one selection run: pick ``k`` columns on the
    search split's train side, then fit and score that mask as
    ``select_features`` scores its best one, holdout included."""
    split, holdout = protocol_split(ds, cfg)
    mask = skb(split.train, k)
    loss, mset, holdout_metrics = fit_mask(mask, split, cfg, holdout)
    return SelectionResult(
        algorithm="skb", best_mask=mask, best_metrics=mset, loss=loss,
        importance=mask, evaluations=1, min_popcount=int(mask.sum()),
        fitness_trace=np.array([loss]), holdout_metrics=holdout_metrics,
    )
