"""Principal component analysis on LAPACK's symmetric eigensolver.

The covariance matrix (n - 1 normalization) is diagonalized by
``numpy.linalg.eigh``.  Component count k is the smallest prefix of
the descending eigenvalue sequence whose cumulative explained-variance
ratio reaches the requested threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


def eigh(A):
    """Eigendecomposition of a symmetric matrix by ``numpy.linalg.eigh``.

    Returns (eigenvalues, vectors) with eigenvalues descending and
    vectors[i] the unit eigenvector for eigenvalues[i], sign-fixed so
    each vector's largest-magnitude entry is positive.  Equal
    eigenvalues keep LAPACK's order (stable sort).
    """
    A = np.asarray(A, dtype=np.float64)
    if (A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0
            or not np.isfinite(A).all() or not np.allclose(A, A.T, atol=1e-12)):
        raise DataError("eigh needs a finite, non-empty, symmetric square matrix")
    vals, cols = np.linalg.eigh(A)
    order = np.argsort(-vals, kind="stable")
    vecs = cols[:, order].T
    peaks = vecs[np.arange(len(vecs)), np.abs(vecs).argmax(axis=1)]
    return vals[order], np.where(peaks < 0.0, -1.0, 1.0)[:, None] * vecs


@dataclass(frozen=True, eq=False)
class PCAModel:
    """Fitted basis: rows of ``components`` are eigenvectors of the
    covariance matrix in descending eigenvalue order; the first ``k``
    are retained for projection."""

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    k: int

    @property
    def explained_ratio(self):
        """Cumulative explained-variance fractions, one per component."""
        total = float(self.eigenvalues.sum())
        if total == 0.0:
            return np.zeros(self.eigenvalues.size)
        return np.cumsum(self.eigenvalues) / total

    def transform(self, X):
        X = np.asarray(X, dtype=np.float64)
        return (X - self.mean) @ self.components[: self.k].T

    def reconstruct(self, Z):
        Z = np.asarray(Z, dtype=np.float64)
        return Z @ self.components[: self.k] + self.mean


def fit(X, variance_threshold: float = 0.95) -> PCAModel:
    """Fit a PCA basis on rows of X.

    Parameters
    ----------
    X : ndarray, shape (n, d)
        Data matrix, n >= 2.
    variance_threshold : float
        Target cumulative explained-variance ratio in (0, 1]; k is the
        smallest component count reaching it.  Degenerate data with
        zero total variance keeps a single component.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("PCA needs a 2-D matrix with at least 2 rows")
    if not np.isfinite(X).all():
        raise DataError("PCA needs finite values; X holds NaN or inf")
    if not 0.0 < variance_threshold <= 1.0:
        raise DataError("variance_threshold must lie in (0, 1]")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1)
    vals, vecs = eigh(cov)
    vals = np.maximum(vals, 0.0)  # covariance is PSD; clip rounding dust

    total = float(vals.sum())
    if total == 0.0:
        k = 1
    else:
        ratios = np.cumsum(vals) / total
        k = int(np.searchsorted(ratios, variance_threshold - 1e-12) + 1)
        k = min(k, vals.size)
    return PCAModel(mean=mean, components=vecs, eigenvalues=vals, k=k)
