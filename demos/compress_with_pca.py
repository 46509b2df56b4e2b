"""
Rotating data onto its principal axes
=====================================

The eigendecomposition is LAPACK's symmetric solver (``numpy.linalg.eigh``),
with eigenvalues sorted descending and each eigenvector's sign fixed so
its largest-magnitude entry is positive, so a fit is reproducible.
"""

import numpy as np

from sparksel.pca import eigh, fit

# sanity: the decomposition must rebuild its input
rng = np.random.default_rng(11)
B = rng.standard_normal((6, 6))
A = B + B.T
vals, vecs = eigh(A)
rebuilt = vecs.T @ np.diag(vals) @ vecs
print("eigh rebuild error on a random symmetric 6x6: %.2e"
      % np.abs(rebuilt - A).max())
print("eigenvalues, descending:", np.array_str(vals, precision=3))

# a 20-D cloud that secretly lives on 3 directions plus small noise
n, d, r = 400, 20, 3
latent = rng.standard_normal((n, r)) * np.array([5.0, 3.0, 1.5])
X = latent @ rng.standard_normal((r, d)) + 0.05 * rng.standard_normal((n, d))

model = fit(X, variance_threshold=0.95)
ratio = model.explained_ratio
print("\nkept k=%d of %d components at the 95%% threshold" % (model.k, d))
print("cumulative explained variance, first five: %s"
      % np.array_str(ratio[:5], precision=4))

Z = model.transform(X)
Xr = model.reconstruct(Z)
rmse = float(np.sqrt(np.mean((X - Xr) ** 2)))
print("\ncompressed %d -> %d values per row" % (d, Z.shape[1]))
print("reconstruction rmse: %.4f (data std %.4f)" % (rmse, X.std()))

# pushing the threshold to 1.0 keeps everything and the error vanishes
full = fit(X, variance_threshold=1.0)
Xf = full.reconstruct(full.transform(X))
print("full-rank rmse     : %.2e" % float(np.sqrt(np.mean((X - Xf) ** 2))))
