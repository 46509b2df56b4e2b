"""
Boosting stumps and reading the training ledger
===============================================

Each round reweights the sample distribution, so the interesting part
of AdaBoost is the bookkeeping: the weighted error of every stump, the
exponential bound that error implies, and the fact that the weights
keep summing to one.  The history dict exposes all of it.
"""

import numpy as np

from sparksel.boosting import hard_labels, train
from sparksel.data import SynthSpec, generate_synthetic, stratified_split
from sparksel.metrics import score_set

spec = SynthSpec(
    n_samples=300,
    d_informative=4,
    d_noise=8,
    class_imbalance=0.3,
    noise_sigma=1.2,
    seed=7,
)
split = stratified_split(generate_synthetic(spec), 0.25, seed=7)
tr, te = split.train, split.test

history = {}
model = train(tr.features, tr.labels, rounds=12, history=history)

print("round  eps     bound      train_err  weight_sum")
for t in range(model.rounds):
    print(
        "%5d  %.4f  %.3e  %.4f     %.12f"
        % (
            t + 1,
            history["epsilon"][t],
            history["bound"][t],
            history["train_error"][t],
            history["weight_sum"][t],
        )
    )

# the running product 2*sqrt(eps*(1-eps)) bounds the training error
gaps = np.array(history["bound"]) - np.array(history["train_error"])
print("\nbound minus train error, per round min: %.3e (never negative)"
      % gaps.min())

# held-out quality, all six metrics from one call
margins = model.margins(te.features)
m = score_set(te.labels, hard_labels(margins), margins)
print("\nheld-out metrics")
print("  auc %.4f  acc %.4f  pre %.4f" % (m.auc, m.acc, m.pre))
print("  sen %.4f  f1  %.4f  spe %.4f" % (m.sen, m.f1, m.spe))
print("  average of the six: %.4f" % m.avg())

print("\nstumps kept: %d, first split: feature %d at %.4f"
      % (model.rounds, model.stumps[0].feature_index, model.stumps[0].threshold))
