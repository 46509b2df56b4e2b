"""Acceptance gate: twelve end-to-end properties, one test each.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Criteria with a wall-clock budget assert it themselves, so
a green line certifies the property and the budget together.
"""

import itertools
import json
import math
import re
import time

import numpy as np

from sparksel import swarm
from sparksel.boosting import train
from sparksel.cli import main
from sparksel.data import SynthSpec, generate_synthetic, stratified_split
from sparksel.ippg import (
    HR_BAND,
    RR_BAND,
    FrameSequence,
    bandpass,
    build_signal,
    spectrum,
    synth_pulse_frames,
)
from sparksel.metrics import (
    accuracy,
    auc,
    confusion,
    f1_score,
    precision,
    sensitivity,
    specificity,
)
from sparksel.pca import eigh, fit
from sparksel.selection import SelectionConfig, discretize, fitness, select_features


def test_01_confusion_metrics_match_direct_formulas():
    """1000 random label/prediction pairs: every scalar metric equals a
    from-scratch evaluation of its defining ratio, exactly."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        y = rng.integers(0, 2, size=n)
        p = rng.integers(0, 2, size=n)
        c = confusion(y, p)
        tp, fp, tn, fn = c.tp, c.fp, c.tn, c.fn
        assert accuracy(c) == (tp + tn) / (tp + tn + fp + fn)
        assert precision(c) == (tp / (tp + fp) if tp + fp else 0.0)
        assert sensitivity(c) == (tp / (tp + fn) if tp + fn else 0.0)
        assert specificity(c) == (tn / (tn + fp) if tn + fp else 1.0)
        assert f1_score(c) == (
            2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        )
    assert time.perf_counter() - t0 < 1.0


def test_02_auc_matches_pairwise_enumeration():
    """500 random scored instances, n <= 30: rank-based AUC agrees with
    counting concordant pairs (ties half) to 1e-12."""
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 31))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        if rng.uniform() < 0.5:
            s = rng.integers(0, 5, size=n).astype(np.float64)  # many ties
        else:
            s = rng.uniform(size=n)
        pos, neg = s[y == 1], s[y == 0]
        pairs = (pos[:, None] > neg[None, :]).sum() + 0.5 * (
            pos[:, None] == neg[None, :]
        ).sum()
        assert abs(auc(y, s) - pairs / (pos.size * neg.size)) <= 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_03_discretize_boundary_grid():
    """Exhaustive grid around the 0.5 threshold up to four dimensions;
    0.5 itself selects the feature."""
    values = (0.0, 0.25, 0.499, 0.5, 0.501, 1.0)
    for d in range(1, 5):
        for combo in itertools.product(values, repeat=d):
            want = [0 if v < 0.5 else 1 for v in combo]
            assert discretize(np.array(combo)).tolist() == want


def test_04_radius_degenerate_case_and_pbest_monotonicity():
    """Equal personal-best fitness gives every firework the full radius;
    personal-best traces never increase over 100 generations."""
    for n, r_max in ((3, 0.4), (10, 0.1), (6, 1.0)):
        cfg = swarm.SwarmConfig(dimensions=3, r_max=r_max)
        radii, _ = swarm.ifa_radius(
            np.full(n, 7.0), np.ones(n, dtype=int), cfg
        )
        np.testing.assert_allclose(radii, r_max, atol=1e-12)

    rng = np.random.default_rng(2)
    pbest_x = rng.uniform(size=(8, 3))
    pbest_f = rng.uniform(size=8)
    for _ in range(100):
        x = rng.uniform(size=(8, 3))
        f = rng.uniform(size=8)
        new_x, new_f = swarm.update_pbest(pbest_x, pbest_f, x, f)
        assert (new_f <= pbest_f).all()
        pbest_x, pbest_f = new_x, new_f


def test_05_selection_never_evaluates_masks_below_floor():
    """Full 25-feature wrapper run: the fitness path asserts the popcount
    floor inline, and the recorded minimum respects ceil(0.2*25)=5."""
    ds = generate_synthetic(
        SynthSpec(
            n_samples=150,
            d_informative=5,
            d_noise=20,
            class_imbalance=0.3,
            noise_sigma=1.0,
            seed=0,
        )
    )
    cfg = SelectionConfig(
        swarm=swarm.SwarmConfig(dimensions=25, max_evaluations=400, seed=0)
    )
    res = select_features(ds, cfg)
    assert math.ceil(0.2 * 25) == 5
    assert res.min_popcount >= 5
    assert res.evaluations == 400


def test_06_improved_variant_at_least_matches_classic():
    """Sphere and Rastrigin, d=10, 20k evaluations, 20 seeds: the
    history-radius variant's median best is no worse than the classic
    algorithm's on both, inside two minutes."""
    t0 = time.perf_counter()
    medians = {}
    for name, fn in (("sphere", swarm.sphere), ("rastrigin", swarm.rastrigin)):
        for algo in ("ifa", "fa"):
            best = []
            for seed in range(20):
                cfg = swarm.SwarmConfig(
                    dimensions=10,
                    max_evaluations=20000,
                    seed=seed,
                    algorithm=algo,
                )
                best.append(swarm.optimize(fn, cfg).best_fitness)
            medians[name, algo] = float(np.median(best))
    assert medians["sphere", "ifa"] <= medians["sphere", "fa"]
    assert medians["rastrigin", "ifa"] <= medians["rastrigin", "fa"]
    assert medians["sphere", "ifa"] <= 1e-2  # frozen regression bound
    assert time.perf_counter() - t0 < 120.0


def test_07_synthetic_informative_features_recovered():
    """Five seeded wrapper runs on 200x25 imbalanced data: the selected
    masks keep >= 80% of the informative block (median) and score at
    least the all-features baseline, inside five minutes."""
    t0 = time.perf_counter()
    recalls, selected_avg, baseline_avg = [], [], []
    for seed in range(5):
        ds = generate_synthetic(
            SynthSpec(
                n_samples=200,
                d_informative=5,
                d_noise=20,
                class_imbalance=0.17,
                noise_sigma=1.0,
                seed=seed,
            )
        )
        cfg = SelectionConfig(
            swarm=swarm.SwarmConfig(
                dimensions=25, max_evaluations=800, seed=seed, algorithm="ifa"
            )
        )
        res = select_features(ds, cfg)
        recalls.append(res.best_mask[:5].sum() / 5.0)
        selected_avg.append(res.best_metrics.avg())
        split = stratified_split(ds, cfg.test_fraction, cfg.split_seed)
        _, m_all = fitness(np.ones(ds.d, dtype=np.int64), split, cfg)
        baseline_avg.append(m_all.avg())
    assert float(np.median(recalls)) >= 0.8
    assert float(np.median(selected_avg)) >= float(np.median(baseline_avg))
    assert time.perf_counter() - t0 < 300.0


def test_08_boosting_round_accounting():
    """Separable 1-D data is fit in one round; weights stay normalized
    and the exponential-loss bound dominates the training error on 20
    random datasets."""
    h = {}
    train(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 1]),
          rounds=1, history=h)
    assert h["train_error"][0] == 0.0

    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(10, 41))
        d = int(rng.integers(1, 5))
        X = rng.standard_normal((n, d))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        h = {}
        train(X, y, rounds=8, history=h)
        for s in h["weight_sum"]:
            assert abs(s - 1.0) <= 1e-9
        for bound, err in zip(h["bound"], h["train_error"]):
            assert err <= bound + 1e-12


def test_09_pulse_frequencies_recovered_from_video():
    """50 synthetic captures (30 s at 25 FPS, mean-signal SNR 15 dB):
    the cardiac peak lands within 0.05 Hz in at least 95% of trials and
    the respiratory peak within 0.03 Hz, inside one minute."""
    hr_amp, noise_std, h, w = 2.0, 2.0, 8, 8
    snr_db = 10.0 * math.log10((hr_amp**2 / 2.0) / (noise_std**2 / (h * w)))
    assert snr_db >= 10.0

    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    hr_hits = rr_hits = 0
    trials = 50
    for i in range(trials):
        hr = float(rng.uniform(0.9, 3.0))
        rr = float(rng.uniform(0.18, 0.37))
        seq = synth_pulse_frames(
            25, 30.0, h, w, hr_hz=hr, rr_hz=rr,
            hr_amp=hr_amp, noise_std=noise_std, seed=i,
        )
        green = build_signal(seq, "fore").samples[1]
        hr_est = spectrum(bandpass(green, HR_BAND, 25.0), 25.0, HR_BAND).peak_hz
        rr_est = spectrum(bandpass(green, RR_BAND, 25.0), 25.0, RR_BAND).peak_hz
        hr_hits += abs(hr_est - hr) <= 0.05
        rr_hits += abs(rr_est - rr) <= 0.03
    assert hr_hits >= math.ceil(0.95 * trials)
    assert rr_hits >= math.ceil(0.95 * trials)
    assert time.perf_counter() - t0 < 60.0


def test_10_signal_matrix_equals_naive_loop():
    """100 random frame stacks: the vectorized channel-mean series equals
    a per-frame, per-channel Python loop bit for bit."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = int(rng.integers(2, 13))
        h = int(rng.integers(1, 6))
        w = int(rng.integers(1, 6))
        pixels = rng.integers(0, 256, size=(t, h, w, 3), dtype=np.uint8)
        seq = FrameSequence(pixels=pixels, fps=1)
        got = build_signal(seq, "fore").samples
        naive = np.empty((3, t))
        for ti in range(t):
            for c in range(3):
                naive[c, ti] = int(pixels[ti, :, :, c].astype(np.int64).sum()) / (h * w)
        assert np.array_equal(got, naive)


def test_11_eigen_decomposition_conserves_variance():
    """100 random covariance matrices: eigenvalues sum to the trace and
    the eigenvector rows are orthonormal, both to 1e-8."""
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(5, 31))
        d = int(rng.integers(2, 9))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, size=d)
        Xc = X - X.mean(axis=0)
        cov = Xc.T @ Xc / n
        vals, vecs = eigh(cov)
        assert abs(vals.sum() - np.trace(cov)) <= 1e-8
        assert np.abs(vecs @ vecs.T - np.eye(d)).max() <= 1e-8
        model = fit(X)
        assert np.abs(
            model.components @ model.components.T - np.eye(d)
        ).max() <= 1e-8


def test_12_reports_identical_across_runs(tmp_path):
    """One wrapper-selection config run twice writes byte-identical
    reports once the wall-time field is masked."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seeds = 0\n"
        "synth.n_samples = 40\n"
        "synth.d_informative = 2\n"
        "synth.d_noise = 4\n"
        "synth.noise_sigma = 0.5\n"
        "swarm.population = 4\n"
        "swarm.s_max = 6\n"
        "swarm.gaussian_sparks = 2\n"
        "swarm.max_evaluations = 60\n"
        "adaboost.rounds = 5\n"
    )
    out = tmp_path / "out"
    texts = []
    for _ in range(2):
        code = main(["select", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = (out / "select.json").read_text()
        json.loads(report)  # sanity: well-formed
        texts.append(re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": _',
                            report))
    assert texts[0] == texts[1]
