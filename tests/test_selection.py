"""Wrapper feature selection: mask discretization and repair, the
composite loss, the full swarm-driven search, and the filter baseline."""

import json

import numpy as np
import pytest

from sparksel import selection, swarm
from sparksel.cli import main
from sparksel.data import Dataset, SynthSpec, generate_synthetic, stratified_split
from sparksel.errors import ConfigError, DataError
from sparksel.selection import (
    ImportanceTracker,
    SelectionConfig,
    anova_f,
    discretize,
    fitness,
    protocol_split,
    repair,
    select_features,
    skb,
)


def synth(n=60, d_inf=3, d_noise=5, seed=0, sigma=0.5):
    return generate_synthetic(SynthSpec(
        n_samples=n, d_informative=d_inf, d_noise=d_noise,
        class_imbalance=0.4, noise_sigma=sigma, seed=seed))


def sel_cfg(d, max_evaluations=150, seed=0, **kw):
    sw = swarm.SwarmConfig(dimensions=d, population=5, s_max=8,
                           gaussian_sparks=2, max_evaluations=max_evaluations,
                           seed=seed)
    return SelectionConfig(swarm=sw, classifier_rounds=10, **kw)


class TestDiscretize:
    def test_boundary(self):
        assert discretize([0.49, 0.5, 0.51]).tolist() == [0, 1, 1]

    def test_endpoints(self):
        assert discretize([0.0, 1.0]).tolist() == [0, 1]


class TestRepair:
    def test_deficit_filled_exactly(self):
        rng = swarm.Streams(0)(1)
        mask = np.array([1, 0, 0, 0, 0])
        out = repair(mask, 3, rng)
        assert out.sum() == 3
        assert out[0] == 1  # set bits never cleared

    def test_at_or_above_floor_untouched(self):
        rng = swarm.Streams(0)(2)
        mask = np.array([1, 1, 0, 1])
        assert np.array_equal(repair(mask, 2, rng), mask)
        assert np.array_equal(repair(mask, 3, rng), mask)

    def test_all_zero_mask_gets_lambda_bits(self):
        out = repair(np.zeros(10, dtype=np.int64), 4, swarm.Streams(1)(0))
        assert out.sum() == 4

    def test_monotone(self):
        rng_src = np.random.default_rng(5)
        for trial in range(50):
            mask = rng_src.integers(0, 2, size=12)
            out = repair(mask, 6, swarm.Streams(2)(trial))
            assert np.all(out >= mask)
            assert out.sum() >= 6

    def test_lambda_exceeding_dimension_rejected(self):
        with pytest.raises(ConfigError):
            repair(np.zeros(3, dtype=np.int64), 4, swarm.Streams(0)(0))


class TestFitness:
    def test_separable_data_reaches_floor(self):
        """With clean class structure the six metrics all hit 1 and the
        loss lands on its lower bound of -6."""
        ds = synth(n=80, d_inf=2, d_noise=2, sigma=0.05)
        split = stratified_split(ds, 0.3, 0)
        cfg = sel_cfg(ds.d)
        mask = np.array([1, 1, 0, 0])
        loss, mset = fitness(mask, split, cfg)
        assert loss == pytest.approx(-6.0, abs=1e-9)
        assert mset.avg() == pytest.approx(1.0, abs=1e-9)

    def test_loss_bounds(self):
        ds = synth(seed=3)
        split = stratified_split(ds, 0.3, 1)
        cfg = sel_cfg(ds.d)
        rng = np.random.default_rng(0)
        for _ in range(10):
            mask = repair(rng.integers(0, 2, size=ds.d), 2,
                          swarm.Streams(0)(int(rng.integers(1 << 30))))
            loss, _ = fitness(mask, split, cfg)
            assert -6.0 <= loss <= 0.0

    def test_informative_mask_beats_pure_noise(self):
        ds = synth(n=120, d_inf=3, d_noise=5, sigma=0.3, seed=7)
        split = stratified_split(ds, 0.3, 0)
        cfg = sel_cfg(ds.d)
        good = np.array([1, 1, 1, 0, 0, 0, 0, 0])
        bad = np.array([0, 0, 0, 1, 1, 1, 0, 0])
        loss_good, _ = fitness(good, split, cfg)
        loss_bad, _ = fitness(bad, split, cfg)
        assert loss_good < loss_bad


class TestImportanceTracker:
    def test_bookkeeping_identity(self):
        t = ImportanceTracker.for_dimensions(4)
        masks = [np.array([1, 0, 1, 0]), np.array([1, 1, 1, 1]),
                 np.array([0, 0, 0, 1])]
        for m in masks:
            t.record(m)
        assert t.evaluations == 3
        assert t.counts.tolist() == [2, 1, 2, 2]
        assert t.counts.max() <= t.evaluations

    def test_shape_mismatch(self):
        t = ImportanceTracker.for_dimensions(3)
        with pytest.raises(DataError):
            t.record(np.array([1, 0]))


class TestSelectFeatures:
    def test_full_run_contract(self):
        ds = synth(n=60, d_inf=2, d_noise=6, sigma=0.4, seed=1)
        cfg = sel_cfg(ds.d, max_evaluations=120)
        res = select_features(ds, cfg)
        lam = 2  # ceil(0.2 * 8)
        assert res.best_mask.sum() >= lam
        assert res.min_popcount >= lam
        assert res.evaluations == 120
        assert res.importance.max() <= res.evaluations
        assert -6.0 <= res.loss <= 0.0
        assert res.algorithm == "ifa"
        assert res.holdout_metrics is None

    def test_same_inputs_same_result(self):
        ds = synth(seed=2)
        cfg = sel_cfg(ds.d, max_evaluations=80)
        a = select_features(ds, cfg)
        b = select_features(ds, cfg)
        assert np.array_equal(a.best_mask, b.best_mask)
        assert a.loss == b.loss
        assert np.array_equal(a.importance, b.importance)

    def test_informative_columns_accumulate_more_importance(self):
        """Noise must hurt for the counts to tilt: when any single
        planted column already separates perfectly, every mask ties and
        the counters stay flat.  Median tilt over seeds is the claim."""
        tilts = []
        for seed in range(5):
            ds = synth(n=100, d_inf=2, d_noise=8, sigma=0.8, seed=seed)
            cfg = sel_cfg(ds.d, max_evaluations=400, seed=seed)
            res = select_features(ds, cfg)
            tilts.append(res.importance[:2].mean() - res.importance[2:].mean())
        assert np.median(tilts) > 0.0

    def test_dimension_mismatch_rejected(self):
        ds = synth()
        with pytest.raises(ConfigError):
            select_features(ds, sel_cfg(ds.d + 1))

    def test_holdout_is_scored_separately(self):
        ds = synth(n=120, d_inf=2, d_noise=4, sigma=0.3, seed=6)
        cfg = sel_cfg(ds.d, max_evaluations=60, holdout_fraction=0.25)
        res = select_features(ds, cfg)
        assert res.holdout_metrics is not None
        assert 0.0 <= res.holdout_metrics.avg() <= 1.0

    def test_config_validation(self):
        sw = swarm.SwarmConfig(dimensions=4)
        with pytest.raises(ConfigError):
            SelectionConfig(swarm=sw, lambda_fraction=1.5)
        with pytest.raises(ConfigError):
            SelectionConfig(swarm=sw, lambda_fraction=0.0)
        with pytest.raises(ConfigError):
            SelectionConfig(swarm=sw, classifier_rounds=0)
        with pytest.raises(ConfigError):
            SelectionConfig(swarm=sw, test_fraction=1.0)
        with pytest.raises(ConfigError):
            SelectionConfig(swarm=sw, holdout_fraction=1.0)

    def test_negative_split_seed_rejected(self):
        with pytest.raises(ConfigError) as err:
            SelectionConfig(swarm=swarm.SwarmConfig(dimensions=4), split_seed=-1)
        assert "split_seed" in str(err.value)

    def test_golden_run_is_frozen(self):
        """Values recorded with three swarm streams per generation (report
        schema 2); any drift in the swarm's or the evaluator's bits
        changes them."""
        ds = synth(n=60, d_inf=3, d_noise=5, seed=3)
        res = select_features(ds, sel_cfg(ds.d, max_evaluations=40, seed=3))
        assert res.best_mask.tolist() == [1, 0, 1, 1, 0, 1, 0, 0]
        assert res.importance.tolist() == [13, 20, 20, 20, 20, 27, 21, 25]
        assert res.min_popcount == 2
        assert res.loss.hex() == "-0x1.57c7d994df1f6p+2"
        assert [float(v).hex() for v in res.fitness_trace] == [
            "-0x1.55fad40a57eb5p+2"] * 3 + ["-0x1.57c7d994df1f6p+2"] * 2

    def test_wide_tied_run_is_frozen(self):
        """A 60-column table rounded to one decimal (every column has
        ties, mask keys pass 32 bits) with a holdout; values recorded
        before the search split was presorted once per run."""
        ds = generate_synthetic(SynthSpec(
            n_samples=90, d_informative=4, d_noise=56, class_imbalance=0.4,
            noise_sigma=0.8, seed=11))
        ds = Dataset(np.round(ds.features, 1), ds.labels, ds.feature_names, ds.informative)
        res = select_features(ds, sel_cfg(60, max_evaluations=60, seed=11,
                                          holdout_fraction=0.25))
        assert np.flatnonzero(res.best_mask).tolist() == [
            0, 2, 3, 4, 6, 7, 9, 13, 14, 16, 17, 21, 22, 23, 24, 27, 31, 33, 37,
            42, 45, 47, 49, 51, 59]
        assert res.importance.tolist() == [
            43, 15, 30, 31, 35, 18, 36, 35, 15, 26, 31, 18, 13, 35, 34, 12, 24, 34,
            4, 17, 17, 31, 45, 32, 36, 16, 10, 35, 7, 15, 19, 27, 22, 27, 10, 14,
            8, 23, 26, 11, 13, 13, 40, 12, 15, 38, 18, 22, 13, 26, 9, 22, 28, 19,
            12, 15, 21, 20, 11, 44]
        assert (res.evaluations, res.min_popcount) == (60, 12)
        assert res.loss.hex() == "-0x1.4a4c24c24c24cp+2"
        assert res.holdout_metrics.avg().hex() == "0x1.90f709c3fabf9p-1"
        assert [float(v).hex() for v in res.fitness_trace] == [
            "-0x1.323f63f63f640p+2"] + ["-0x1.4a4c24c24c24cp+2"] * 5

    def test_search_split_is_presorted_once_per_run(self, monkeypatch):
        """One full-width scan table of the train side per run; every fit,
        the final refit included, slices it, so no other table is built."""
        shapes, real_init = [], selection.boosting._Table.__init__

        def counting_init(table, X):
            shapes.append(np.shape(X))
            real_init(table, X)

        monkeypatch.setattr(selection.boosting._Table, "__init__", counting_init)
        ds = synth(n=60, d_inf=2, d_noise=4, seed=5)
        for seed in (5, 6):
            res = select_features(ds, sel_cfg(ds.d, max_evaluations=80, seed=seed,
                                              holdout_fraction=0.2))
            assert res.evaluations == 80
        train_rows = len(protocol_split(ds, sel_cfg(ds.d, holdout_fraction=0.2))[0].train.labels)
        assert shapes == [(train_rows, ds.d)] * 2

    def test_repeated_masks_are_trained_once(self, monkeypatch):
        """The per-run loss memo trains each distinct repaired mask once,
        plus one refit of the best mask; importance still counts every
        evaluation."""
        repaired, train_calls = [], []
        real_repair, real_train = selection.repair, selection.boosting.train

        def counting_repair(*args):
            repaired.append(real_repair(*args))
            return repaired[-1]

        def counting_train(*args, **kwargs):
            train_calls.append(1)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(selection, "repair", counting_repair)
        monkeypatch.setattr(selection.boosting, "train", counting_train)
        ds = synth(n=60, d_inf=2, d_noise=4, seed=5)
        res = select_features(ds, sel_cfg(ds.d, max_evaluations=80, seed=5))
        evaluated = repaired[:-1]  # the last repair rebuilds the best mask
        assert len(evaluated) == res.evaluations == 80
        distinct = {m.tobytes() for m in evaluated}
        assert len(distinct) < len(evaluated)  # the memo had hits
        assert len(train_calls) == len(distinct) + 1
        assert res.importance.sum() == sum(int(m.sum()) for m in evaluated)


class TestAnovaF:
    def test_matches_manual_formula(self):
        ds = synth(n=50, seed=8)
        f_stats = anova_f(ds)
        X, y = ds.features, ds.labels
        for j in range(ds.d):
            col = X[:, j]
            g0, g1 = col[y == 0], col[y == 1]
            ssb = (g0.size * (g0.mean() - col.mean()) ** 2
                   + g1.size * (g1.mean() - col.mean()) ** 2)
            ssw = ((g0 - g0.mean()) ** 2).sum() + ((g1 - g1.mean()) ** 2).sum()
            expect = ssb / (ssw / (col.size - 2))
            assert f_stats[j] == pytest.approx(expect, rel=1e-10)

    def test_constant_column_scores_zero(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        y = np.array([0, 1] * 5)
        ds = Dataset(features=X, labels=y, feature_names=("flat", "ramp"))
        f_stats = anova_f(ds)
        assert f_stats[0] == 0.0

    def test_perfect_separator_scores_infinity(self):
        y = np.array([0, 0, 0, 1, 1, 1])
        X = np.column_stack([y.astype(np.float64), np.ones(6)])
        ds = Dataset(features=X, labels=y, feature_names=("sep", "flat"))
        f_stats = anova_f(ds)
        assert np.isinf(f_stats[0])
        assert f_stats[1] == 0.0

    def test_single_class_rejected(self):
        ds = Dataset(features=np.zeros((4, 1)),
                     labels=np.array([1, 1, 1, 1]), feature_names=("a",))
        with pytest.raises(DataError):
            anova_f(ds)


class TestSkb:
    def test_perfect_separator_picked_first(self):
        rng = np.random.default_rng(9)
        y = np.array([0] * 10 + [1] * 10)
        X = np.column_stack([rng.standard_normal(20),
                             y + 0.0,
                             rng.standard_normal(20)])
        ds = Dataset(features=X, labels=y, feature_names=("n1", "sep", "n2"))
        assert skb(ds, 1).tolist() == [0, 1, 0]

    def test_k_equal_d_selects_everything(self):
        ds = synth(seed=10)
        assert skb(ds, ds.d).tolist() == [1] * ds.d

    def test_k_bounds(self):
        ds = synth()
        with pytest.raises(ConfigError):
            skb(ds, 0)
        with pytest.raises(ConfigError):
            skb(ds, ds.d + 1)

    def test_ties_resolve_to_lower_index(self):
        X = np.zeros((6, 3))
        X[:, 0] = [0, 0, 0, 1, 1, 1]
        X[:, 1] = [0, 0, 0, 1, 1, 1]
        y = np.array([0, 0, 0, 1, 1, 1])
        ds = Dataset(features=X + 0.0, labels=y, feature_names=("a", "b", "c"))
        assert skb(ds, 1).tolist() == [1, 0, 0]

    def test_recovers_informative_columns_mostly(self):
        """Across seeds the filter finds most of the planted columns."""
        hits = []
        for seed in range(9):
            ds = synth(n=200, d_inf=5, d_noise=15, sigma=0.6, seed=seed)
            mask = skb(ds, 5)
            hits.append(mask[:5].sum())
        assert np.median(hits) >= 4


class TestSelectKBest:
    @pytest.mark.parametrize("holdout_fraction", [0.0, 0.25])
    def test_equals_skb_on_the_search_train_side(self, holdout_fraction, monkeypatch):
        """The filter's run is skb on the search split's train side, fit
        and scored by fit_mask, bit for bit; the holdout never reaches skb."""
        ds = synth(n=80, seed=4)
        cfg = sel_cfg(ds.d, holdout_fraction=holdout_fraction)
        split, holdout = protocol_split(ds, cfg)
        want_mask = skb(split.train, 3)
        want_loss, want_set, want_held = selection.fit_mask(want_mask, split, cfg, holdout)

        seen = []
        monkeypatch.setattr(selection, "skb", lambda part, k: seen.append(part) or skb(part, k))
        res = selection.select_k_best(ds, cfg, 3)

        assert res.best_mask.tolist() == want_mask.tolist()
        assert float.hex(res.loss) == float.hex(want_loss)
        assert res.best_metrics.to_dict() == want_set.to_dict()
        assert [float.hex(v) for v in res.fitness_trace] == [float.hex(want_loss)]
        assert res.algorithm == "skb"
        assert res.evaluations == 1
        assert res.min_popcount == 3
        assert res.importance.tolist() == res.best_mask.tolist()
        (picked_on,) = seen
        assert np.array_equal(picked_on.features, split.train.features)
        if holdout_fraction == 0.0:
            assert res.holdout_metrics is None and holdout is None
        else:
            assert res.holdout_metrics.to_dict() == want_held.to_dict()
            held_rows = {row.tobytes() for row in holdout.features}
            assert not held_rows & {row.tobytes() for row in picked_on.features}
            assert picked_on.n + split.test.n + holdout.n == ds.n


class TestResultDict:
    def test_report_shape(self, tmp_path):
        """The CLI's run record: its exact key set (an skb run adds
        ``k``), the seven metrics keys and ``avg`` as the mean of six."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.n_samples = 60\nswarm.max_evaluations = 40\n"
                       "adaboost.rounds = 5\n", encoding="utf-8")
        keys = {"algorithm", "config", "seed", "best_mask", "metrics", "loss",
                "importance", "evaluations", "min_popcount", "informative_recall",
                "wall_time_s"}
        six = ("auc", "acc", "pre", "sen", "f1", "spe")
        for args, stem, want in ((["select"], "select", keys),
                                 (["baseline", "skb"], "baseline_skb", keys | {"k"})):
            assert main(args + ["--config", str(cfg), "--out", str(tmp_path)]) == 0
            with open(tmp_path / (stem + ".json"), encoding="utf-8") as fh:
                (run,) = json.load(fh)["runs"]
            assert set(run) == want
            assert set(run["metrics"]) == set(six) | {"avg"}
            assert run["metrics"]["avg"] == pytest.approx(
                sum(run["metrics"][k] for k in six) / 6)
