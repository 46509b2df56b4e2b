"""Decision stumps and the boosted ensemble: exact stump search,
weight bookkeeping, the exponential training bound, and alpha clamping."""

import math

import numpy as np
import pytest

from sparksel import boosting
from sparksel.boosting import AdaBoostModel, Stump, _Table, hard_labels, train, train_stump
from sparksel.errors import DataError


def uniform_weights(n):
    return np.full(n, 1.0 / n)


def signs(stump, X):
    """The stump's own prediction in {-1, +1} per row."""
    p = stump.polarity
    return np.where(X[:, stump.feature_index] >= stump.threshold, p, -p)


class TestStump:
    def test_separable_column(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        stump, err = train_stump(X, y, uniform_weights(4))
        assert stump.feature_index == 0
        assert stump.threshold == pytest.approx(2.5)
        assert stump.polarity == 1
        assert err == pytest.approx(0.0)

    def test_inverted_labels_flip_polarity(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        stump, err = train_stump(X, y, uniform_weights(4))
        assert stump.polarity == -1
        assert err == pytest.approx(0.0)

    def test_all_labels_identical_is_free(self):
        """A constant predictor (threshold below the minimum) nails a
        one-class sample, so the best error is exactly zero."""
        X = np.array([[3.0], [1.0], [2.0]])
        y = np.ones(3)
        stump, err = train_stump(X, y, uniform_weights(3))
        assert err == pytest.approx(0.0)
        assert np.all(signs(stump, X) == 1.0)

    def test_weighted_error_beats_exhaustive_search(self):
        """The returned error matches a brute-force scan over every
        (feature, midpoint/sentinel, polarity) candidate."""
        rng = np.random.default_rng(21)
        for trial in range(40):
            n, d = int(rng.integers(3, 12)), int(rng.integers(1, 4))
            X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            w = rng.random(n) + 0.05
            w /= w.sum()
            stump, err = train_stump(X, y, w)
            best = np.inf
            for j in range(d):
                v = np.unique(X[:, j])
                cands = np.concatenate([[v[0] - 1.0], (v[:-1] + v[1:]) / 2.0])
                for th in cands:
                    for pol in (1, -1):
                        pred = pol * np.where(X[:, j] >= th, 1.0, -1.0)
                        best = min(best, float(w[pred != y].sum()))
            assert err == pytest.approx(best, abs=1e-12)
            pred = signs(stump, X)
            assert float(w[pred != y].sum()) == pytest.approx(err, abs=1e-12)

    def test_tie_break_prefers_lowest_feature(self):
        # both columns separate perfectly; column 0 must win
        X = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        stump, _ = train_stump(X, y, uniform_weights(4))
        assert stump.feature_index == 0

    def test_weights_must_sum_to_one(self):
        X = np.array([[1.0], [2.0]])
        y = np.array([-1.0, 1.0])
        with pytest.raises(DataError):
            train_stump(X, y, np.array([0.3, 0.3]))
        with pytest.raises(DataError):
            train_stump(X, y, np.array([1.5, -0.5]))


class TestTrain:
    def separable(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.standard_normal(n))
        y = (np.arange(n) >= n // 2).astype(np.int64)
        return x[:, None], y

    def test_zero_error_after_one_round(self):
        X, y = self.separable()
        model = train(X, y, rounds=1)
        assert np.array_equal(hard_labels(model.margins(X)), y)

    def test_weight_sums_and_bound(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = int(rng.integers(10, 40))
            X = rng.standard_normal((n, 3))
            y = rng.integers(0, 2, size=n)
            y[0], y[1] = 0, 1
            history = {}
            train(X, y, rounds=12, history=history)
            for s in history["weight_sum"]:
                assert s == pytest.approx(1.0, abs=1e-9)
            for bound, err in zip(history["bound"], history["train_error"]):
                assert bound >= err - 1e-12

    def test_margin_zero_maps_to_class_one(self):
        model = AdaBoostModel(stumps=(Stump(0, 0.5, 1, 1.0),
                                      Stump(0, 0.5, -1, 1.0)))
        X = np.array([[0.0], [1.0]])
        assert np.all(model.margins(X) == 0.0)
        assert np.all(hard_labels(model.margins(X)) == 1)

    def test_alpha_scaling_leaves_predictions_fixed(self):
        X, y = self.separable(seed=3)
        model = train(X, y, rounds=5)
        scaled = AdaBoostModel(
            stumps=tuple(Stump(s.feature_index, s.threshold, s.polarity,
                               7.0 * s.alpha) for s in model.stumps))
        assert np.array_equal(hard_labels(model.margins(X)), hard_labels(scaled.margins(X)))

    def test_duplicate_stump_equals_double_alpha(self):
        s = Stump(0, 0.5, 1, 0.8)
        doubled = AdaBoostModel(stumps=(Stump(0, 0.5, 1, 1.6),))
        twice = AdaBoostModel(stumps=(s, s))
        X = np.linspace(-1, 2, 7)[:, None]
        np.testing.assert_allclose(twice.margins(X), doubled.margins(X), atol=1e-15)

    def test_early_stop_on_perfect_stump(self):
        X, y = self.separable()
        model = train(X, y, rounds=50)
        assert model.rounds == 1

    def test_input_validation(self):
        X = np.zeros((4, 2))
        with pytest.raises(DataError):
            train(X, np.array([1, 1, 1, 1]), rounds=3)  # single class
        with pytest.raises(DataError):
            train(X, np.array([0, 1, 2, 1]), rounds=3)
        with pytest.raises(DataError):
            train(X, np.array([0, 1, 0, 1]), rounds=0)
        with pytest.raises(DataError):
            train(np.zeros(4), np.array([0, 1, 0, 1]), rounds=1)

    def test_margins_reject_narrow_matrix(self):
        model = AdaBoostModel(stumps=(Stump(2, 0.0, 1, 1.0),))
        with pytest.raises(DataError):
            model.margins(np.zeros((3, 2)))

    def test_training_error_never_increases_much(self):
        """Weighted boosting drives training error down on real signal."""
        rng = np.random.default_rng(17)
        X = rng.standard_normal((60, 4))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
        history = {}
        model = train(X, y, rounds=25, history=history)
        assert history["train_error"][-1] <= history["train_error"][0]
        assert np.mean(hard_labels(model.margins(X)) != y) <= 0.1


class TestSerialization:
    def test_epsilon_clamp_keeps_alpha_finite(self):
        X, y = np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 0, 1, 1])
        model = train(X, y, rounds=1)
        assert np.isfinite(model.stumps[0].alpha)
        assert model.stumps[0].alpha == pytest.approx(
            0.5 * np.log((1 - boosting.EPS) / boosting.EPS))


def loop_stump(X, y, w):
    """The per-feature scan train_stump replaced, kept as the reference:
    returns (error, feature, threshold, polarity)."""
    w_pos = np.where(y > 0, w, 0.0)
    w_neg = np.where(y < 0, w, 0.0)
    total_pos = w_pos.sum()
    total_neg = w_neg.sum()
    best = None
    for j in range(X.shape[1]):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        v = col[order]
        ks = np.concatenate(([0], np.flatnonzero(np.diff(v) > 0) + 1))
        cum_pos = np.concatenate(([0.0], np.cumsum(w_pos[order])))
        cum_neg = np.concatenate(([0.0], np.cumsum(w_neg[order])))
        err_plus = cum_pos[ks] + (total_neg - cum_neg[ks])
        err_minus = cum_neg[ks] + (total_pos - cum_pos[ks])
        errs = np.empty(2 * ks.size)
        errs[0::2] = err_plus
        errs[1::2] = err_minus
        local = int(np.argmin(errs))
        err = float(errs[local])
        if best is not None and err >= best[0]:
            continue
        k = int(ks[local // 2])
        polarity = 1 if local % 2 == 0 else -1
        threshold = v[0] - 1.0 if k == 0 else 0.5 * (v[k - 1] + v[k])
        best = (err, j, float(threshold), polarity)
    return best


def loop_train(X, labels, rounds, history):
    """The documented AdaBoost loop over ``loop_stump``, kept as the
    reference for ``train``: the update is w * exp(-alpha * y * h) / sum
    with h the stump's integer prediction."""
    y = 2.0 * labels - 1.0
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    stumps, margin, bound = [], np.zeros(n), 1.0
    history.update(epsilon=[], weight_sum=[], bound=[], train_error=[])
    for _ in range(rounds):
        err, j, threshold, polarity = loop_stump(X, y, w)
        eps = min(max(err, boosting.EPS), 1.0 - boosting.EPS)
        alpha = 0.5 * math.log((1.0 - eps) / eps)
        stump = Stump(j, threshold, polarity, alpha)
        stumps.append(stump)
        h = np.where(X[:, j] >= threshold, polarity, -polarity)
        if err > boosting.EPS:
            w = w * np.exp(-alpha * y * h)
            w = w / w.sum()
        margin += alpha * h
        bound *= 2.0 * math.sqrt(eps * (1.0 - eps))
        history["epsilon"].append(err)
        history["weight_sum"].append(float(w.sum()))
        history["bound"].append(bound)
        history["train_error"].append(float(np.mean((margin >= 0.0) != labels)))
        if err <= boosting.EPS:
            break
    return AdaBoostModel(tuple(stumps))


class TestVectorizedScan:
    def random_problem(self, rng, trial):
        n = 1 if trial % 25 == 0 else int(rng.integers(2, 40))
        d = 1 if trial % 7 == 0 else int(rng.integers(2, 8))
        kind = trial % 4
        if kind == 0:  # heavy ties
            X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        elif kind == 1:  # continuous
            X = rng.standard_normal((n, d))
        elif kind == 2:  # rounded values and one constant column
            X = np.round(rng.standard_normal((n, d)), 1)
            X[:, rng.integers(0, d)] = 1.5
        else:  # binary, tiny scale
            X = rng.integers(0, 2, size=(n, d)) * 1e-3
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        w = rng.random(n) * (rng.random(n) < 0.7)  # ~30% zero weights
        if w.sum() == 0.0:
            w[0] = 1.0
        return X, y, w / w.sum()

    def test_matches_loop_reference_exactly(self):
        """Feature, threshold, polarity and error equal the per-feature
        loop bit for bit, ties included."""
        rng = np.random.default_rng(44)
        for trial in range(400):
            X, y, w = self.random_problem(rng, trial)
            stump, err = train_stump(X, y, w)
            want = loop_stump(X, y, w)
            assert (err, stump.feature_index, stump.threshold, stump.polarity) == want
            assert err.hex() == want[0].hex(), trial

    def test_train_matches_loop_reference_exactly(self):
        """Every stump, alpha and history entry of a multi-round fit
        equals the loop reference bit for bit: 2 to 300 rows, so the class
        totals cross numpy's 128-element pairwise block, positive
        fractions 0.1 to 0.9, tied and untied columns, and every third fit
        on a slice of the wider table's scan table."""
        rng = np.random.default_rng(45)
        for trial in range(60):
            n = 2 + trial * 298 // 59
            X = rng.standard_normal((n, 8))
            if trial % 2:
                X = np.round(X, 1)
            labels = (rng.random(n) < 0.1 + 0.1 * (trial % 9)).astype(np.int64)
            labels[:2] = (0, 1)
            cols = np.sort(rng.choice(8, int(rng.integers(1, 7)), replace=False))
            fit_on = _Table(X)[cols] if trial % 3 == 0 else X[:, cols]
            history, want = {}, {}
            got = train(fit_on, labels, 30, history=history)
            ref = loop_train(X[:, cols], labels, 30, want)
            assert bits(got) == bits(ref), trial
            assert hexes(history) == hexes(want), trial

    def test_presorted_view_gives_the_same_stump(self):
        """A scan on a table slice, the presorted columns a fit takes,
        finds train_stump's stump on those columns."""
        rng = np.random.default_rng(8)
        X = rng.integers(0, 4, size=(30, 5)).astype(np.float64)
        y = np.where(rng.random(30) < 0.4, 1.0, -1.0)
        w = uniform_weights(30)
        for cols in (np.arange(5), np.array([4, 1, 3])):
            j, threshold, polarity, err = boosting._Scan(_Table(X)[cols], y)(w)
            assert (Stump(j, threshold, polarity, 0.0), err) == train_stump(X[:, cols], y, w)


def loop_margins(model, X):
    """Reference ensemble score: one stump at a time into a zero vector."""
    m = np.zeros(X.shape[0])
    for s in model.stumps:
        m += s.alpha * np.where(X[:, s.feature_index] >= s.threshold, s.polarity, -s.polarity)
    return m


def hexes(history):
    return {k: [float(v).hex() for v in vs] for k, vs in history.items()}


def bits(model):
    return [(s.feature_index, s.threshold.hex(), s.polarity, s.alpha.hex())
            for s in model.stumps]


class TestFullTableView:
    def test_margins_match_loop_reference_bytes(self):
        """Zero-alpha and polarity -1 stumps included, on tied values."""
        rng = np.random.default_rng(61)
        for trial in range(300):
            d = int(rng.integers(1, 6))
            X = np.round(rng.standard_normal((int(rng.integers(1, 40)), d)), 1)
            stumps = tuple(
                Stump(int(rng.integers(0, d)), float(np.round(rng.standard_normal(), 1)),
                      int(rng.choice([-1, 1])),
                      0.0 if rng.random() < 0.2 else float(rng.standard_normal() * 3))
                for _ in range(int(rng.integers(1, 60))))
            model = AdaBoostModel(stumps)
            assert model.margins(X).tobytes() == loop_margins(model, X).tobytes(), trial

    def test_sliced_view_trains_the_same_model(self):
        """train on a slice of a wider table's scan table equals train on
        the sliced columns, stump for stump, ties included."""
        rng = np.random.default_rng(62)
        for trial in range(60):
            X = np.round(rng.standard_normal((int(rng.integers(4, 60)), 12)), trial % 3)
            labels = (rng.random(X.shape[0]) < 0.3).astype(np.int64)
            labels[:2] = (0, 1)
            cols = np.flatnonzero(rng.random(12) < 0.5) if trial % 5 else np.arange(12)
            if cols.size == 0:
                cols = np.array([trial % 12])
            got = train(_Table(X)[cols], labels, 15)
            assert bits(got) == bits(train(X[:, cols], labels, 15)), trial

    def test_wide_tied_train_is_frozen(self):
        """320 rows by 32 columns rounded to one decimal, so every column
        has ties and the class totals pass numpy's 128-element pairwise
        block; 20 rounds with history, recorded before the scan state
        moved out of the round loop."""
        rng = np.random.default_rng(2024)
        X = np.round(rng.standard_normal((320, 32)), 1)
        labels = (X[:, 0] - 0.7 * X[:, 5] + rng.standard_normal(320) > 0.4).astype(np.int64)
        history = {}
        model = train(X, labels, 20, history=history)
        assert bits(model) == [
            (0, '0x1.0000000000000p-2', 1, '0x1.193ea7aad02efp-1'),
            (5, '-0x1.0000000000000p-2', -1, '0x1.93b0aee21c2b1p-2'),
            (3, '-0x1.8000000000000p-1', -1, '0x1.3b95ab9495dbdp-2'),
            (0, '-0x1.0000000000000p-2', 1, '0x1.60c8d5dd46d2bp-2'),
            (22, '-0x1.8000000000000p-1', -1, '0x1.2fc251d534675p-2'),
            (5, '0x1.8000000000000p-1', -1, '0x1.0018c79bd539dp-2'),
            (0, '0x1.2666666666666p+0', 1, '0x1.30773c379f0fdp-2'),
            (7, '-0x1.0000000000000p-2', 1, '0x1.a53f2d07c57f2p-3'),
            (31, '-0x1.3333333333334p-3', -1, '0x1.b95e49d38d165p-3'),
            (4, '-0x1.4ccccccccccccp-1', -1, '0x1.c044db1230e08p-3'),
            (12, '-0x1.b333333333334p-1', 1, '0x1.091b4c39e451ep-2'),
            (6, '-0x1.3333333333334p-3', -1, '0x1.9ecd1d9829bb0p-3'),
            (0, '-0x1.ccccccccccccdp-2', 1, '0x1.8a15dfa03b324p-3'),
            (13, '0x1.599999999999ap+0', 1, '0x1.e8693a93eadb4p-3'),
            (5, '0x1.4ccccccccccccp-1', -1, '0x1.9d2b6b3b3d82ap-3'),
            (10, '-0x1.6666666666666p-2', -1, '0x1.76edf9e7ca57ep-3'),
            (9, '-0x1.0000000000000p-2', 1, '0x1.92209e24b61f6p-3'),
            (0, '0x1.4ccccccccccccp-1', 1, '0x1.80b8e39b111cap-3'),
            (20, '-0x1.999999999999ap-5', -1, '0x1.7f2c3e76d2caap-3'),
            (20, '-0x1.8000000000000p-1', 1, '0x1.a5101c682a708p-3'),
        ]
        assert {k: [float(v).hex() for v in vs] for k, vs in history.items()} == {
            'epsilon': [
                '0x1.0000000000015p-2', '0x1.400000000000ap-2', '0x1.6705467054672p-2',
                '0x1.5645359dab481p-2', '0x1.6c6c879e8f3dap-2', '0x1.828e5fec34d4ep-2',
                '0x1.6c199a8854acdp-2', '0x1.982613c738796p-2', '0x1.9355c6afe1717p-2',
                '0x1.91b054a692213p-2', '0x1.7e54b43a3dc7cp-2', '0x1.99b1df3f8a6d8p-2',
                '0x1.9ead4859e17bcp-2', '0x1.88291b3625ffdp-2', '0x1.9a1624986fb2cp-2',
                '0x1.a34d07b87c90ep-2', '0x1.9cbd90d60592cp-2', '0x1.a0ef600886de6p-2',
                '0x1.a14f219b4cc58p-2', '0x1.98315c0fa08b8p-2',
            ],
            'weight_sum': [
                '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.fffffffffffffp-1',
                '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
                '0x1.fffffffffffffp-1', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
                '0x1.fffffffffffffp-1', '0x1.0000000000000p+0', '0x1.ffffffffffffep-1',
                '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.fffffffffffffp-1',
                '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
                '0x1.0000000000000p+0', '0x1.0000000000000p+0',
            ],
            'bound': [
                '0x1.bb67ae8584cb7p-1', '0x1.9b0c25315c2ddp-1', '0x1.884546b8938dep-1',
                '0x1.7216dd0885efcp-1', '0x1.6261f67eecf97p-1', '0x1.5794dd49a5fadp-1',
                '0x1.48ef31232049ap-1', '0x1.4218c7ae518f7p-1', '0x1.3ac24843c376bp-1',
                '0x1.335ddcefef7a2p-1', '0x1.295890e0f5a0cp-1', '0x1.23597e80c33e6p-1',
                '0x1.1e09a2c1a3ae9p-1', '0x1.16178f98ccd8ep-1', '0x1.1086f922b52e6p-1',
                '0x1.0c05f583fa101p-1', '0x1.06f03695f701ep-1', '0x1.025dc07685ad7p-1',
                '0x1.fbd182955f1c1p-2', '0x1.f1457d9ea9e44p-2',
            ],
            'train_error': [
                '0x1.0000000000000p-2', '0x1.0000000000000p-2', '0x1.d333333333333p-3',
                '0x1.f99999999999ap-3', '0x1.8cccccccccccdp-3', '0x1.999999999999ap-3',
                '0x1.6000000000000p-3', '0x1.7333333333333p-3', '0x1.6000000000000p-3',
                '0x1.6000000000000p-3', '0x1.4000000000000p-3', '0x1.2666666666666p-3',
                '0x1.2000000000000p-3', '0x1.2000000000000p-3', '0x1.2000000000000p-3',
                '0x1.0666666666666p-3', '0x1.0000000000000p-3', '0x1.199999999999ap-3',
                '0x1.0cccccccccccdp-3', '0x1.0cccccccccccdp-3',
            ],
        }

    def test_slice_equals_a_fresh_table(self):
        """``_Table(X)[cols]`` equals ``_Table(X[:, cols])`` byte for byte
        in every field: tables rounded to 0-2 decimals (ties), single
        columns, and unsorted and repeated columns."""
        rng = np.random.default_rng(63)
        for trial in range(60):
            d = 1 if trial % 6 == 0 else int(rng.integers(2, 10))
            X = np.round(rng.standard_normal((int(rng.integers(1, 50)), d)) * 3, trial % 3)
            cols = rng.integers(0, d, size=int(rng.integers(1, 2 * d + 1)))
            if trial % 4 == 0:
                cols = np.sort(np.unique(cols))
            part, fresh = _Table(X)[cols], _Table(X[:, cols])
            assert sorted(vars(part)) == sorted(vars(fresh)) == ["XT", "below", "sorted", "tied"]
            for name, want in vars(fresh).items():
                got = getattr(part, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), (trial, name)
                assert got.flags.c_contiguous, (trial, name)
                assert got.tobytes() == want.tobytes(), (trial, name)


class TestThresholdRule:
    """Where the midpoint of two sorted values is not strictly above the
    lower one and at most the upper one, the upper value is the
    threshold, so the stump splits the rows where the scan did."""

    def check(self, X, labels):
        X = np.array(X)
        y, w = 2.0 * labels - 1.0, uniform_weights(len(labels))
        stump, err = train_stump(X, y, w)
        assert err == float(w[signs(stump, X) != y].sum()) == 0.0
        history = {}
        model = train(X, labels, 5, history=history)
        assert model.stumps[0].threshold == stump.threshold
        assert history["epsilon"] == history["train_error"] == [0.0]
        assert np.array_equal(hard_labels(model.margins(X)), labels)
        return stump.threshold

    def test_midpoint_rounding_onto_the_lower_value(self):
        up = np.nextafter(1.0, 2.0)
        assert 0.5 * (1.0 + up) == 1.0
        assert self.check([[1.0], [up]], np.array([0, 1])) == up

    def test_midpoint_overflow(self):
        assert self.check([[1e308], [1.5e308]], np.array([0, 1])) == 1.5e308
        assert self.check([[-1.5e308], [-1e308]], np.array([1, 0])) == -1e308


class TestBadInputs:
    @pytest.mark.parametrize("X", [
        [[np.nan], [1.0], [2.0]],
        [[np.inf], [1.0], [2.0]],
        [[0.0, -np.inf], [1.0, 0.0], [2.0, 1.0]],
    ])
    def test_non_finite_X_rejected(self, X):
        with pytest.raises(DataError):
            train_stump(X, np.array([1.0, -1.0, 1.0]), uniform_weights(3))
        with pytest.raises(DataError):
            train(X, np.array([1, 0, 1]), rounds=2)

    def test_X_shape_rejected(self):
        y, w = np.array([1.0, -1.0, 1.0]), uniform_weights(3)
        with pytest.raises(DataError):
            train_stump(np.zeros((3, 0)), y, w)
        with pytest.raises(DataError):
            train_stump(np.zeros(3), y, w)
        with pytest.raises(DataError):
            train(np.zeros((3, 0)), np.array([1, 0, 1]), rounds=2)

    def test_y_and_w_length_must_match_rows(self):
        X = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(DataError):
            train_stump(X, np.array([1.0, -1.0]), uniform_weights(3))
        with pytest.raises(DataError):
            train_stump(X, np.array([1.0, -1.0, 1.0]), uniform_weights(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        X, y = np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(DataError, match="weights"):
            train_stump(X, y, np.array([bad, 0.25, 0.25, 0.25]))

    @pytest.mark.parametrize("y", [[1.0, 0.0, 1.0, 0.0], [1.0, -1.0, 2.0, -1.0],
                                   [1.0, -1.0, np.nan, -1.0]])
    def test_labels_must_be_plus_or_minus_one(self, y):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(DataError, match="labels"):
            train_stump(X, np.array(y), uniform_weights(4))

    def test_column_weights_rejected(self):
        """(n, 1) weights hold one weight per row but are not (n,)."""
        X = np.arange(12, dtype=np.float64).reshape(6, 2)
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        with pytest.raises(DataError, match="weights"):
            train_stump(X, y, uniform_weights(6)[:, None])

    def test_model_without_stumps_rejected(self):
        with pytest.raises(DataError):
            AdaBoostModel(stumps=()).margins(np.zeros((2, 1)))
