"""Labeled numeric datasets: CSV I/O, synthesis and stratified splitting.

Datasets are dense float64 matrices with a binary label per row
(1 = positive class).  All randomness is seeded and every operation
here is deterministic given its arguments; a negative seed raises
DataError.  ``SynthSpec``'s fields define the ``synth.*`` config keys
(name, default, kind and range; see ``errors.setting``).
"""

from __future__ import annotations

import csv
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import DataError, at_least, between, check_fields, fraction, is_binary, setting

LABEL_COLUMN = "label"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix plus binary labels.

    Attributes
    ----------
    features : ndarray, shape (n, d)
        Float64 feature values, finite.
    labels : ndarray, shape (n,)
        Integer labels, each 0 or 1.
    feature_names : tuple of str
        One name per column, in column order.
    informative : tuple of int or None
        Column indices known to carry label signal.  Only set by
        ``generate_synthetic``; None for data of unknown provenance.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    informative: tuple | None = None

    def __post_init__(self):
        f, y = self.features, self.labels
        if f.ndim != 2:
            raise DataError("features must be a 2-D array, got ndim=%d" % f.ndim)
        if y.shape != (f.shape[0],):
            raise DataError(
                "labels length %d does not match %d rows" % (y.shape[0], f.shape[0])
            )
        if not np.isfinite(f).all():
            raise DataError("features contain non-finite values")
        if not is_binary(y):
            raise DataError("labels must be 0 or 1")
        if len(self.feature_names) != f.shape[1]:
            raise DataError(
                "%d feature names for %d columns"
                % (len(self.feature_names), f.shape[1])
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class SplitPair:
    """Train/test partition of one dataset."""

    train: Dataset
    test: Dataset


def _csv_records(path):
    """The rows of a CSV file, read as they are consumed; DataError if the
    file cannot be opened or read (not UTF-8, a NUL in the path, a field
    over the csv module's size limit)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from csv.reader(fh)
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError("cannot read %s: %s" % (path, exc)) from exc


def load_csv(path) -> Dataset:
    """Read a labeled dataset from a CSV file.

    The file must be UTF-8, comma separated, with a header row.  Exactly
    one column must be named ``label`` and hold 0/1 values; every other
    column (at least one) is a numeric feature.  Errors name the offending data row
    (1-based, header excluded) and column.

    Parameters
    ----------
    path : str or Path
        File to read.

    Returns
    -------
    Dataset
    """
    with closing(_csv_records(path)) as records:
        header = next(records, None)
        if header is None:
            raise DataError("%s: file is empty" % path)
        header = [h.strip() for h in header]
        label_hits = [i for i, h in enumerate(header) if h == LABEL_COLUMN]
        if len(label_hits) != 1:
            raise DataError(
                "%s: expected exactly one '%s' column, found %d"
                % (path, LABEL_COLUMN, len(label_hits))
            )
        label_idx = label_hits[0]
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
        if not feature_names:
            raise DataError("%s: no feature columns besides '%s'" % (path, LABEL_COLUMN))

        rows = []
        labels = []
        for rownum, rec in enumerate(records, start=1):
            if len(rec) != len(header):
                raise DataError(
                    "%s: row %d has %d fields, expected %d"
                    % (path, rownum, len(rec), len(header))
                )
            vals = []
            for col, cell in enumerate(rec):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise DataError(
                        "%s: row %d, column '%s': not a number: %r"
                        % (path, rownum, header[col], cell)
                    ) from None
            lab = vals.pop(label_idx)
            if lab not in (0.0, 1.0):
                raise DataError(
                    "%s: row %d: label must be 0 or 1, got %r"
                    % (path, rownum, rec[label_idx])
                )
            rows.append(vals)
            labels.append(int(lab))

    if not rows:
        raise DataError("%s: no data rows" % path)
    feats = np.array(rows, dtype=np.float64)
    if not np.isfinite(feats).all():
        bad = np.argwhere(~np.isfinite(feats))[0]
        raise DataError(
            "%s: row %d, column '%s': non-finite value"
            % (path, bad[0] + 1, feature_names[bad[1]])
        )
    return Dataset(feats, np.array(labels, dtype=np.int64), feature_names)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV; floats use 17 significant digits so a
    save/load round trip is bit-exact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [LABEL_COLUMN])
        for i in range(ds.n):
            row = ["%.17g" % v for v in ds.features[i]]
            row.append(str(int(ds.labels[i])))
            writer.writerow(row)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic two-class dataset.

    ``d_informative`` leading columns get a label-dependent mean shift
    (class 0 at -0.5, class 1 at +0.5) plus Gaussian noise of width
    ``noise_sigma``; the remaining ``d_noise`` columns are standard
    normal and independent of the label.  A bad value raises DataError.
    """

    n_samples: int = setting(200, "synth.n_samples", between(4, 10**6))
    d_informative: int = setting(5, "synth.d_informative", between(1, 10**4))
    d_noise: int = setting(20, "synth.d_noise", between(0, 10**4))
    class_imbalance: float = setting(0.17, "synth.class_imbalance", fraction(0, 1))
    noise_sigma: float = setting(1.0, "synth.noise_sigma", at_least(0))
    seed: int = setting(0, check=at_least(0))

    def __post_init__(self):
        check_fields(self, DataError)


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Draw a dataset according to ``spec``; bit-identical for equal specs.

    The positive-class count is fixed at round(n * class_imbalance)
    before any random draw, so the class ratio never drifts with the
    seed.
    """
    n, d_inf, d_noi = spec.n_samples, spec.d_informative, spec.d_noise
    n_pos = int(np.floor(n * spec.class_imbalance + 0.5))
    n_pos = min(max(n_pos, 1), n - 1)
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    rng.shuffle(labels)
    shift = labels.astype(np.float64) - 0.5
    informative = shift[:, None] + spec.noise_sigma * rng.standard_normal((n, d_inf))
    noise = rng.standard_normal((n, d_noi))
    feats = np.hstack([informative, noise])
    names = tuple(
        ["inf_%d" % j for j in range(d_inf)] + ["noise_%d" % j for j in range(d_noi)]
    )
    return Dataset(feats, labels, names, informative=tuple(range(d_inf)))


def stratified_split(ds: Dataset, test_fraction: float, seed: int) -> SplitPair:
    """Partition rows into train/test, preserving the class ratio.

    Each class contributes round(test_fraction * class size) rows to the
    test side, clamped so both sides keep at least one row per class.
    Row order within each side follows the source dataset.

    Parameters
    ----------
    ds : Dataset
        Source data; every class needs at least 2 rows.
    test_fraction : float
        Fraction of each class assigned to the test side, in (0, 1).
    seed : int
        Shuffle seed; equal (ds, test_fraction, seed) gives the identical
        partition.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must lie in (0, 1)")
    if seed < 0:
        raise DataError("seed must be >= 0 (got %r)" % seed)
    test_mask = np.zeros(ds.n, dtype=bool)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC1A55)))
    for cls in (0, 1):
        idx = np.flatnonzero(ds.labels == cls)
        if idx.size < 2:
            raise DataError("class %d has %d sample(s), need >= 2" % (cls, idx.size))
        n_test = int(np.floor(test_fraction * idx.size + 0.5))
        n_test = min(max(n_test, 1), idx.size - 1)
        picked = rng.permutation(idx.size)[:n_test]
        test_mask[idx[picked]] = True

    def take(mask):
        rows = np.flatnonzero(mask)
        return Dataset(
            ds.features[rows].copy(),
            ds.labels[rows].copy(),
            ds.feature_names,
            informative=ds.informative,
        )

    return SplitPair(train=take(~test_mask), test=take(test_mask))

