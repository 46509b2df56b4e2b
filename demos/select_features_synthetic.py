"""
Wrapper feature selection on a known-answer dataset
===================================================

Generate a small imbalanced dataset whose first five columns carry all
the signal, then let the swarm search binary masks.  Every candidate
mask trains a stump ensemble and is scored by the six-metric average on
a stratified test side; the mask with the lowest loss wins.
"""

import numpy as np

from sparksel import swarm
from sparksel.data import SynthSpec, generate_synthetic, stratified_split
from sparksel.selection import (
    SelectionConfig,
    fitness,
    select_features,
    select_k_best,
)

spec = SynthSpec(
    n_samples=200,
    d_informative=5,
    d_noise=20,
    class_imbalance=0.17,
    noise_sigma=1.0,
    seed=1,
)
ds = generate_synthetic(spec)
print("dataset: %d rows, %d features, %d positives"
      % (ds.n, ds.d, int(ds.labels.sum())))

cfg = SelectionConfig(
    swarm=swarm.SwarmConfig(dimensions=ds.d, max_evaluations=800, seed=1)
)
res = select_features(ds, cfg)

mask = res.best_mask
print("\nselected mask :", "".join(str(b) for b in mask))
print("informative   :", "11111" + "0" * 20, "(ground truth)")
print("kept %d of %d features; recall of the signal block: %.0f%%"
      % (mask.sum(), ds.d, 100.0 * mask[:5].sum() / 5))
print("test-side average of the six metrics: %.4f" % res.best_metrics.avg())

# the all-features baseline, scored on the identical protocol
split = stratified_split(ds, cfg.test_fraction, cfg.split_seed)
_, m_all = fitness(np.ones(ds.d, dtype=np.int64), split, cfg)
print("all-features baseline average       : %.4f" % m_all.avg())

# importance = how often each feature appeared in an evaluated mask
order = np.argsort(-res.importance)
print("\nmost-visited features:", order[:8].tolist())

# a plain filter baseline for contrast: top-k columns by F score, picked
# on the train side only and graded on the same test side
res_skb = select_k_best(ds, cfg, k=int(mask.sum()))
print("filter (top-%d by F score) average   : %.4f"
      % (mask.sum(), res_skb.best_metrics.avg()))
