"""Dataset plumbing: CSV round trips with row-accurate errors, synthetic
generation and stratified splitting."""

import numpy as np
import pytest

from sparksel.data import (
    Dataset,
    SynthSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    stratified_split,
)
from sparksel.errors import DataError


def small_dataset(n=12, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = np.zeros(n, dtype=np.int64)
    y[: n // 3] = 1
    rng.shuffle(y)
    if y.sum() in (0, n):
        y[0] = 1 - y[0]
    names = tuple("c%d" % j for j in range(d))
    return Dataset(features=X, labels=y, feature_names=names)


class TestDatasetValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            Dataset(
                features=np.zeros((3, 2)),
                labels=np.array([0, 1]),
                feature_names=("a", "b"),
            )

    def test_name_count_mismatch(self):
        with pytest.raises(DataError):
            Dataset(
                features=np.zeros((3, 2)),
                labels=np.array([0, 1, 0]),
                feature_names=("a",),
            )

    def test_non_binary_labels(self):
        with pytest.raises(DataError):
            Dataset(
                features=np.zeros((3, 1)),
                labels=np.array([0, 1, 2]),
                feature_names=("a",),
            )

    def test_non_finite_features(self):
        X = np.zeros((3, 1))
        X[1, 0] = np.nan
        with pytest.raises(DataError):
            Dataset(features=X, labels=np.array([0, 1, 0]), feature_names=("a",))


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        ds = small_dataset(seed=5)
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.feature_names == ds.feature_names
        assert np.array_equal(back.labels, ds.labels)
        # 17 significant digits reproduce float64 bit patterns
        assert np.array_equal(back.features, ds.features)

    @pytest.mark.parametrize("text", ["label,a,b\n0,1.5,2\n1,3,4\n",
                                      "a,label,b\n1.5,0,2\n3,1,4\n"],
                             ids=["label_first", "feature_first"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        """Spreadsheet "CSV UTF-8" exports start with a byte-order mark."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        want, got = load_csv(plain), load_csv(marked)
        assert got.feature_names == want.feature_names
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)

    def test_missing_field_names_data_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n5,1\n6,7,0\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert "row 3" in str(err.value)

    def test_unparseable_value_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0\n3,oops,1\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert "row 2" in str(err.value)
        assert "b" in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("", "file is empty"),
        ("a,label\n", "no data rows"),
        ("a,b,label\n1,2,0\n3,nan,1\n", "row 2, column 'b': non-finite value"),
    ], ids=["empty", "header_only", "nan_cell"])
    def test_file_without_usable_rows_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            load_csv(path)

    def test_label_column_required_exactly_once(self, tmp_path):
        p1 = tmp_path / "none.csv"
        p1.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            load_csv(p1)
        p2 = tmp_path / "twice.csv"
        p2.write_text("label,a,label\n0,1,0\n")
        with pytest.raises(DataError):
            load_csv(p2)

    def test_non_binary_label_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label\n1,0\n2,0.5\n")
        with pytest.raises(DataError):
            load_csv(path)


class TestSynthetic:
    def test_shapes_and_metadata(self):
        spec = SynthSpec(n_samples=50, d_informative=4, d_noise=6,
                         class_imbalance=0.3, noise_sigma=1.0, seed=1)
        ds = generate_synthetic(spec)
        assert ds.n == 50
        assert ds.d == 10
        assert ds.informative == tuple(range(4))
        assert ds.feature_names[:4] == ("inf_0", "inf_1", "inf_2", "inf_3")
        assert ds.feature_names[4] == "noise_0"

    def test_positive_count_is_rounded_fraction(self):
        ds = generate_synthetic(SynthSpec(n_samples=200, d_informative=2, d_noise=2,
                                          class_imbalance=0.17, noise_sigma=1.0,
                                          seed=3))
        assert int(ds.labels.sum()) == 34  # floor(200*0.17 + 0.5)

    def test_extreme_imbalance_keeps_both_classes(self):
        ds = generate_synthetic(SynthSpec(n_samples=30, d_informative=1, d_noise=1,
                                          class_imbalance=0.001, noise_sigma=1.0,
                                          seed=0))
        assert 1 <= int(ds.labels.sum()) <= 29

    def test_same_seed_same_data(self):
        spec = SynthSpec(n_samples=40, d_informative=3, d_noise=5,
                         class_imbalance=0.4, noise_sigma=1.0, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_informative_columns_separate_classes(self):
        """Class-conditional means differ on informative columns and
        stay near zero on noise columns."""
        ds = generate_synthetic(SynthSpec(n_samples=4000, d_informative=3, d_noise=3,
                                          class_imbalance=0.5, noise_sigma=1.0,
                                          seed=2))
        pos = ds.features[ds.labels == 1]
        neg = ds.features[ds.labels == 0]
        gap = pos.mean(axis=0) - neg.mean(axis=0)
        assert np.all(gap[:3] > 0.7)
        assert np.all(np.abs(gap[3:]) < 0.2)

    def test_spec_validation(self):
        with pytest.raises(DataError):
            SynthSpec(n_samples=3, d_informative=1, d_noise=1,
                      class_imbalance=0.5, noise_sigma=1.0, seed=0)
        with pytest.raises(DataError):
            SynthSpec(n_samples=10, d_informative=0, d_noise=1,
                      class_imbalance=0.5, noise_sigma=1.0, seed=0)
        with pytest.raises(DataError):
            SynthSpec(n_samples=10, d_informative=1, d_noise=1,
                      class_imbalance=1.0, noise_sigma=1.0, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_sigma_rejected(self, sigma):
        with pytest.raises(DataError, match="noise_sigma"):
            SynthSpec(noise_sigma=sigma)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed"):
            generate_synthetic(SynthSpec(seed=-1))


class TestStratifiedSplit:
    def test_per_class_test_counts(self):
        """17 positives at fraction 0.3 put floor(17*0.3+0.5)=5 in test."""
        X = np.arange(40, dtype=np.float64)[:, None]
        y = np.zeros(40, dtype=np.int64)
        y[:17] = 1
        ds = Dataset(features=X, labels=y, feature_names=("a",))
        split = stratified_split(ds, test_fraction=0.3, seed=0)
        assert int(split.test.labels.sum()) == 5
        assert int((split.test.labels == 0).sum()) == 7  # floor(23*0.3+0.5)
        assert split.train.n + split.test.n == 40

    def test_both_classes_everywhere(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(6, 60))
            n_pos = int(rng.integers(2, n - 1))
            y = np.zeros(n, dtype=np.int64)
            y[:n_pos] = 1
            ds = Dataset(features=rng.standard_normal((n, 2)),
                         labels=y, feature_names=("a", "b"))
            split = stratified_split(ds, test_fraction=0.3, seed=trial)
            for side in (split.train, split.test):
                assert 0 < int(side.labels.sum()) < side.n

    def test_partition_is_exact(self):
        ds = small_dataset(n=20, seed=4)
        split = stratified_split(ds, test_fraction=0.25, seed=1)
        merged = np.vstack([split.train.features, split.test.features])
        src = ds.features[np.lexsort(ds.features.T)]
        assert np.array_equal(merged[np.lexsort(merged.T)], src)

    def test_source_order_preserved_within_sides(self):
        X = np.arange(10, dtype=np.float64)[:, None]
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        ds = Dataset(features=X, labels=y, feature_names=("a",))
        split = stratified_split(ds, test_fraction=0.4, seed=7)
        assert np.all(np.diff(split.train.features[:, 0]) > 0)
        assert np.all(np.diff(split.test.features[:, 0]) > 0)

    def test_seed_changes_membership(self):
        ds = small_dataset(n=30, seed=8)
        a = stratified_split(ds, test_fraction=0.3, seed=0)
        b = stratified_split(ds, test_fraction=0.3, seed=1)
        assert not np.array_equal(a.test.features, b.test.features)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed"):
            stratified_split(small_dataset(), 0.3, -1)

    def test_too_few_per_class_rejected(self):
        # one sample in a class cannot land on both sides of the split
        lonely = Dataset(features=np.zeros((4, 1)),
                         labels=np.array([1, 1, 1, 0]),
                         feature_names=("a",))
        with pytest.raises(DataError):
            stratified_split(lonely, test_fraction=0.5, seed=0)
        all_one = Dataset(features=np.zeros((4, 1)),
                          labels=np.array([1, 1, 1, 1]),
                          feature_names=("a",))
        with pytest.raises(DataError):
            stratified_split(all_one, test_fraction=0.5, seed=0)

