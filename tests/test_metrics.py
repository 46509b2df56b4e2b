"""Classification metric checks: hand-computed counts, degenerate
denominators, and the rank-statistic AUC against pair enumeration."""

import numpy as np
import pytest

from sparksel.errors import DataError
from sparksel.metrics import (
    ConfusionCounts,
    MetricSet,
    accuracy,
    auc,
    confusion,
    f1_score,
    precision,
    score_set,
    sensitivity,
    specificity,
)


def brute_force_auc(y_true, scores):
    """Literal pairwise definition: P(score_pos > score_neg) + 0.5 ties."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


class TestConfusion:
    def test_hand_tally(self):
        y_true = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        y_pred = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
        c = confusion(y_true, y_pred)
        assert (c.tp, c.fn, c.fp, c.tn) == (3, 1, 1, 5)
        assert c.total == 10

    def test_rejects_non_binary(self):
        with pytest.raises(DataError):
            confusion([0, 1, 2], [0, 1, 1])
        with pytest.raises(DataError):
            confusion([0, 1], [0, 0.5])

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(DataError):
            confusion([], [])
        with pytest.raises(DataError):
            confusion([0, 1], [0])


class TestScalarMetrics:
    """Fixed counts tp=3 fp=1 fn=1 tn=5, values derived by hand."""

    C = ConfusionCounts(tp=3, tn=5, fp=1, fn=1)

    def test_known_values(self):
        assert accuracy(self.C) == pytest.approx(0.8)
        assert precision(self.C) == pytest.approx(0.75)
        assert sensitivity(self.C) == pytest.approx(0.75)
        assert f1_score(self.C) == pytest.approx(0.75)
        assert specificity(self.C) == pytest.approx(5.0 / 6.0)

    def test_average_with_perfect_ranking(self):
        m = MetricSet(
            auc=1.0,
            acc=accuracy(self.C),
            pre=precision(self.C),
            sen=sensitivity(self.C),
            f1=f1_score(self.C),
            spe=specificity(self.C),
        )
        # (1 + .8 + .75 + .75 + .75 + 5/6) / 6
        assert m.avg() == pytest.approx(0.8138888888888889)

    def test_zero_denominator_conventions(self):
        no_predicted_pos = ConfusionCounts(tp=0, tn=4, fp=0, fn=2)
        assert precision(no_predicted_pos) == 0.0
        no_actual_pos = ConfusionCounts(tp=0, tn=4, fp=2, fn=0)
        assert sensitivity(no_actual_pos) == 0.0
        no_actual_neg = ConfusionCounts(tp=3, tn=0, fp=0, fn=1)
        assert specificity(no_actual_neg) == 1.0
        all_negative = ConfusionCounts(tp=0, tn=6, fp=0, fn=0)
        assert f1_score(all_negative) == 0.0

    def test_accuracy_matches_direct_count(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = rng.integers(0, 2, size=40)
            p = rng.integers(0, 2, size=40)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            c = confusion(y, p)
            assert accuracy(c) == pytest.approx(np.mean(y == p))


class TestAuc:
    def test_tied_scores_example(self):
        # one clean win, one tie, one loss, one win over the weakest negative
        value = auc([1, 0, 1, 0], [0.6, 0.6, 0.2, 0.1])
        assert value == pytest.approx(0.625)

    def test_perfect_and_inverted(self):
        y = [0, 0, 1, 1]
        assert auc(y, [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)
        assert auc(y, [0.9, 0.8, 0.2, 0.1]) == pytest.approx(0.0)

    def test_all_scores_equal_is_half(self):
        assert auc([0, 1, 0, 1], [3.0, 3.0, 3.0, 3.0]) == pytest.approx(0.5)

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # coarse grid forces plenty of ties
            s = rng.integers(0, 5, size=n) / 4.0
            assert auc(y, s) == pytest.approx(brute_force_auc(y, s), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc([1, 1, 1], [0.1, 0.2, 0.3])
        with pytest.raises(DataError):
            auc([0, 0], [0.1, 0.2])

    @pytest.mark.parametrize("y, s, message", [
        ([0, 1, 1], [0.1, 0.2], "equal-length"),
        ([0, 1, 2], [0.1, 0.2, 0.3], "only 0 and 1"),
    ], ids=["unequal_lengths", "label_two"])
    def test_bad_inputs_rejected(self, y, s, message):
        with pytest.raises(DataError, match=message):
            auc(y, s)

    def test_scale_invariance(self):
        """Ranks only: any strictly monotone transform leaves AUC fixed."""
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=25)
        y[0], y[1] = 0, 1
        s = rng.standard_normal(25)
        base = auc(y, s)
        assert auc(y, 10.0 * s + 3.0) == pytest.approx(base, abs=1e-15)
        assert auc(y, np.exp(s)) == pytest.approx(base, abs=1e-15)


def test_score_set_bundles_all_six():
    y = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    p = np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0])
    margins = np.where(p == 1, 1.0, -1.0) + np.arange(10) * 1e-3
    m = score_set(y, p, margins)
    c = confusion(y, p)
    assert m.acc == pytest.approx(accuracy(c))
    assert m.pre == pytest.approx(precision(c))
    assert m.sen == pytest.approx(sensitivity(c))
    assert m.f1 == pytest.approx(f1_score(c))
    assert m.spe == pytest.approx(specificity(c))
    assert m.auc == pytest.approx(auc(y, margins))
    assert m.as_tuple() == (m.auc, m.acc, m.pre, m.sen, m.f1, m.spe)


def loop_average_ranks(s):
    """Reference tie-averaged 1-based ranks: one stable sort, then a
    walk over each block of equal values."""
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_auc_ranks_match_loop_reference():
    """On heavily tied vectors scipy's rankdata must give exactly the
    loop's ranks, and auc exactly the AUC of those ranks."""
    from scipy.stats import rankdata

    rng = np.random.default_rng(29)
    for _ in range(500):
        n = int(rng.integers(2, 80))
        s = rng.integers(0, int(rng.integers(1, 8)), size=n) / 3.0
        ranks = loop_average_ranks(s)
        assert np.array_equal(rankdata(s, method="average"), ranks)
        y = rng.integers(0, 2, size=n)
        y[0], y[1] = 0, 1
        n_pos = int(y.sum())
        u = float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0
        assert auc(y, s) == u / (n_pos * (n - n_pos))


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
def test_auc_equals_rankdata_formula_bytes(tied):
    """auc ranks in numpy; its AUC must equal the rank-sum formula over
    scipy's average ranks bit for bit."""
    from scipy.stats import rankdata

    rng = np.random.default_rng(31 if tied else 32)
    for _ in range(400):
        n = int(rng.integers(2, 300))
        if tied:  # rounded values, some of them infinite
            s = np.round(rng.standard_normal(n), int(rng.integers(0, 2)))
            s[rng.random(n) < 0.05] = np.inf
        else:
            s = rng.standard_normal(n) * rng.choice([1e-300, 1.0, 1e300])
        y = rng.integers(0, 2, size=n)
        y[0], y[1] = 0, 1
        n_pos = int(y.sum())
        u = float(rankdata(s, method="average")[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0
        assert auc(y, s).hex() == (u / (n_pos * (n - n_pos))).hex()


def test_auc_rejects_nan_scores():
    with pytest.raises(DataError, match="NaN"):
        auc([0, 1, 1], [0.2, np.nan, 0.4])


def test_confusion_takes_bool_and_float_labels():
    t, p = np.array([1, 1, 0, 0, 1]), np.array([1, 0, 1, 0, 1])
    want = confusion(t, p)
    assert want == ConfusionCounts(tp=2, tn=1, fp=1, fn=1)
    assert confusion(t.astype(bool), p.astype(bool)) == want
    assert confusion(t.astype(float), p.astype(np.uint8)) == want
