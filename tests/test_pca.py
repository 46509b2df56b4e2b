"""The LAPACK-backed eigensolver ``pca.eigh`` and the variance-threshold
PCA built on it."""

import warnings

import numpy as np
import pytest

from sparksel import pca
from sparksel.errors import DataError


class TestJacobi:
    def test_diagonal_matrix_is_fixed_point(self):
        A = np.diag([4.0, 1.0])
        vals, vecs = pca.eigh(A)
        np.testing.assert_allclose(vals, [4.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-14)

    def test_known_2x2(self):
        # eigenvalues of [[2,1],[1,2]] are 3 and 1 with (1,1)/(1,-1) axes
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        vals, vecs = pca.eigh(A)
        np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vecs[:, 0]), np.sqrt([0.5, 0.5]),
                                   atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            M = rng.standard_normal((d, d))
            A = (M + M.T) / 2.0
            vals, vecs = pca.eigh(A)
            # rows of vecs are eigenvectors: A = sum_i vals[i] v_i v_i^T
            np.testing.assert_allclose(vecs.T @ np.diag(vals) @ vecs, A,
                                       atol=1e-9)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(d), atol=1e-10)
            assert np.all(np.diff(vals) <= 1e-12)  # descending

    def test_trace_conservation(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            d = int(rng.integers(2, 10))
            M = rng.standard_normal((d, d))
            A = M @ M.T
            vals, _ = pca.eigh(A)
            assert vals.sum() == pytest.approx(np.trace(A), abs=1e-8)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(DataError):
            pca.eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestFit:
    def test_points_on_a_line_need_one_component(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(60)
        direction = np.array([1.0, -2.0, 0.5])
        X = np.outer(t, direction) + np.array([3.0, 0.0, -1.0])
        model = pca.fit(X, variance_threshold=0.95)
        assert model.k == 1
        assert model.explained_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_variances(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4000, 2)) * np.array([2.0, 1.0])
        model = pca.fit(X, variance_threshold=1.0)
        assert model.eigenvalues[0] == pytest.approx(4.0, rel=0.1)
        assert model.eigenvalues[1] == pytest.approx(1.0, rel=0.1)
        assert abs(model.components[0, 0]) > 0.99

    def test_isotropic_cloud_keeps_most_axes(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((500, 6))
        model = pca.fit(X, variance_threshold=0.95)
        assert model.k >= 5
        ratios = model.eigenvalues / model.eigenvalues.sum()
        assert ratios[0] / ratios[-1] < 1.5

    def test_transform_centers_the_mean(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 5)) + 10.0
        model = pca.fit(X)
        z = model.transform(X.mean(axis=0)[None, :])
        np.testing.assert_allclose(z, 0.0, atol=1e-10)

    def test_full_rank_transform_is_an_isometry(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((30, 4))
        model = pca.fit(X, variance_threshold=1.0)
        assert model.k == 4
        Z = model.transform(X)
        d_orig = np.linalg.norm(X[:, None] - X[None, :], axis=2)
        d_proj = np.linalg.norm(Z[:, None] - Z[None, :], axis=2)
        np.testing.assert_allclose(d_proj, d_orig, atol=1e-9)

    def test_reconstruct_then_transform_is_identity_on_the_subspace(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((50, 6)) @ np.diag([3, 2, 1, 0.1, 0.05, 0.01])
        model = pca.fit(X, variance_threshold=0.9)
        Z = model.transform(X)
        Z2 = model.transform(model.reconstruct(Z))
        np.testing.assert_allclose(Z2, Z, atol=1e-9)

    def test_residual_is_orthogonal_to_kept_components(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((80, 5))
        model = pca.fit(X, variance_threshold=0.6)
        resid = X - model.reconstruct(model.transform(X))
        proj = resid @ model.components[: model.k].T
        np.testing.assert_allclose(proj, 0.0, atol=1e-9)

    def test_constant_data_keeps_one_component(self):
        X = np.full((10, 3), 2.5)
        model = pca.fit(X)
        assert model.k == 1
        np.testing.assert_allclose(model.eigenvalues, 0.0, atol=1e-15)
        np.testing.assert_allclose(model.explained_ratio, 0.0, atol=1e-15)

    def test_threshold_edges(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((40, 3)) @ np.diag([5.0, 1.0, 0.2])
        full = pca.fit(X, variance_threshold=1.0)
        assert full.k == 3
        with pytest.raises(DataError):
            pca.fit(X, variance_threshold=0.0)
        with pytest.raises(DataError):
            pca.fit(X, variance_threshold=1.2)
        with pytest.raises(DataError):
            pca.fit(X[:1])

    def test_sign_convention_is_deterministic(self):
        """Largest-magnitude entry of each component is positive, so two
        fits of the same data agree exactly."""
        rng = np.random.default_rng(13)
        X = rng.standard_normal((60, 4))
        a = pca.fit(X)
        b = pca.fit(X.copy())
        assert np.array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0


def assert_sign_convention(vecs):
    for row in vecs:
        assert row[np.argmax(np.abs(row))] > 0


class TestEigh:
    def test_rank_deficient_wide_covariance(self):
        """24 rows of 60 columns, the shape of the iPPG time-domain block:
        rank 23, so 37 eigenvalues are zero up to rounding."""
        rng = np.random.default_rng(21)
        X = rng.standard_normal((24, 60)) * rng.uniform(0.1, 3.0, size=60)
        Xc = X - X.mean(axis=0)
        cov = Xc.T @ Xc / 23
        vals, vecs = pca.eigh(cov)
        assert abs(vals.sum() - np.trace(cov)) <= 1e-8
        assert np.abs(vecs @ vecs.T - np.eye(60)).max() <= 1e-8
        assert np.all(np.diff(vals) <= 0.0)
        assert_sign_convention(vecs)
        assert np.abs(vals[23:]).max() <= 1e-10

    def test_repeated_eigenvalue(self):
        Q, _ = np.linalg.qr(np.random.default_rng(22).standard_normal((3, 3)))
        A = Q @ np.diag([2.0, 2.0, 1.0]) @ Q.T
        A = (A + A.T) / 2.0
        vals, vecs = pca.eigh(A)
        np.testing.assert_allclose(vals, [2.0, 2.0, 1.0], atol=1e-12)
        assert np.all(np.diff(vals) <= 0.0)
        np.testing.assert_allclose(vecs.T @ np.diag(vals) @ vecs, A, atol=1e-12)
        assert_sign_convention(vecs)
        vals2, vecs2 = pca.eigh(A.copy())
        assert np.array_equal(vals, vals2)
        assert np.array_equal(vecs, vecs2)

    @pytest.mark.parametrize("A", [
        np.zeros((0, 0)),
        np.zeros(3),
        np.ones((2, 3)),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
    ])
    def test_malformed_input_rejected(self, A):
        with pytest.raises(DataError):
            pca.eigh(A)


class TestFitInputs:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_named(self, bad):
        X = np.random.default_rng(23).standard_normal((10, 3))
        X[4, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(DataError, match="NaN or inf"):
                pca.fit(X)

    def test_zero_columns_rejected(self):
        with pytest.raises(DataError):
            pca.fit(np.zeros((5, 0)))
