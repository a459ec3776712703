import math

import numpy as np
import pytest

from rpopt.data import (
    Dataset,
    generate_equal_margin,
    generate_separable,
    load_csv,
    load_idx,
    read_table,
    save_csv,
    split,
    write_idx,
    write_table,
)
from rpopt.errors import DataFormatError


class TestDatasetInvariants:
    def test_rejects_row_norm_above_one(self):
        with pytest.raises(ValueError, match="norm"):
            Dataset(features=np.array([[2.0, 0.0]]), labels=np.array([1]))

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(ValueError, match="one entry per feature row"):
            Dataset(features=np.eye(2) * 0.5, labels=np.array([1]))

    def test_rejects_mixed_label_conventions(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(features=np.eye(2) * 0.5, labels=np.array([-1, 2]))

    def test_rejects_unachieved_margin(self):
        with pytest.raises(ValueError, match="not achieved"):
            Dataset(
                features=np.array([[0.1, 0.0], [-0.1, 0.0]]),
                labels=np.array([1, -1]),
                separator=np.array([1.0, 0.0]),
                margin=0.5,
            )

    def test_margin_requires_separator(self):
        with pytest.raises(ValueError, match="separator"):
            Dataset(features=np.eye(2) * 0.5, labels=np.array([1, -1]), margin=0.1)

    def test_arrays_are_frozen(self, small_binary):
        with pytest.raises(ValueError):
            small_binary.features[0, 0] = 7.0

    def test_class_counting(self):
        ds = Dataset(features=np.eye(3) * 0.5, labels=np.array([0, 2, 1]))
        assert not ds.is_binary
        assert ds.num_classes == 3
        binary = Dataset(features=np.eye(2) * 0.5, labels=np.array([1, -1]))
        assert binary.is_binary and binary.num_classes is None

    def test_label_kind_is_fixed_at_construction(self):
        ones = Dataset(features=np.eye(2) * 0.5, labels=np.array([1, 1]), num_classes=2)
        assert not ones.is_binary and ones.num_classes == 2
        with pytest.raises(ValueError, match="multi-class labels"):
            Dataset(features=np.eye(2) * 0.5, labels=np.array([1, -1]), num_classes=2)

    def test_explicit_class_count(self):
        ds = Dataset(features=np.eye(2) * 0.5, labels=np.array([0, 1]), num_classes=5)
        assert ds.num_classes == 5
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            Dataset(features=np.eye(2) * 0.5, labels=np.array([0, 2]), num_classes=2)


class TestGenerateSeparable:
    def test_margin_is_achieved_and_recorded(self):
        ds = generate_separable(d=5, n=60, gamma=0.4, seed=3)
        assert ds.n == 60 and ds.dim == 5
        assert abs(np.linalg.norm(ds.separator) - 1.0) < 1e-12
        margins = ds.labels * (ds.features @ ds.separator)
        assert margins.min() >= 0.4
        assert ds.margin == pytest.approx(margins.min(), abs=0.0)

    def test_points_stay_in_unit_ball(self):
        ds = generate_separable(d=4, n=50, gamma=0.2, seed=7)
        assert np.linalg.norm(ds.features, axis=1).max() <= 1.0 + 1e-12

    def test_both_labels_present(self):
        ds = generate_separable(d=3, n=2, gamma=0.5, seed=0)
        assert set(ds.labels.tolist()) == {-1, 1}

    def test_deterministic_per_seed(self):
        a = generate_separable(d=4, n=30, gamma=0.3, seed=5)
        b = generate_separable(d=4, n=30, gamma=0.3, seed=5)
        c = generate_separable(d=4, n=30, gamma=0.3, seed=6)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_degenerate_margin_one(self):
        ds = generate_separable(d=3, n=10, gamma=1.0, seed=2)
        np.testing.assert_allclose(
            ds.features, ds.labels[:, None] * ds.separator[None, :]
        )
        assert ds.margin == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, n=10, gamma=0.5, seed=0),
            dict(d=2, n=1, gamma=0.5, seed=0),
            dict(d=2, n=10, gamma=0.0, seed=0),
            dict(d=2, n=10, gamma=1.5, seed=0),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            generate_separable(**kwargs)


class TestGenerateEqualMargin:
    def test_every_example_sits_at_the_margin(self):
        ds = generate_equal_margin(d=6, n=40, margin=0.25, jitter=0.3, seed=4)
        margins = ds.labels * (ds.features @ ds.separator)
        np.testing.assert_allclose(margins, 0.25, rtol=0, atol=1e-12)

    def test_jitter_cancels_in_the_label_weighted_mean(self):
        ds = generate_equal_margin(d=6, n=40, margin=0.25, jitter=0.3, seed=4)
        mean = (ds.labels[:, None] * ds.features).mean(axis=0)
        np.testing.assert_allclose(mean, 0.25 * ds.separator, atol=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=1, n=4, margin=0.2, jitter=0.1, seed=0),
            dict(d=3, n=5, margin=0.2, jitter=0.1, seed=0),  # odd n
            dict(d=3, n=4, margin=0.0, jitter=0.1, seed=0),
            dict(d=3, n=4, margin=0.9, jitter=0.6, seed=0),  # leaves unit ball
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            generate_equal_margin(**kwargs)


class TestSplit:
    def test_partition(self, small_binary):
        train, test = split(small_binary, test_fraction=0.25, seed=0)
        assert train.n + test.n == small_binary.n
        assert test.n == round(small_binary.n * 0.25)
        merged = np.vstack([train.features, test.features])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, small_binary.features))

    def test_deterministic(self, small_binary):
        a = split(small_binary, 0.25, seed=9)[1]
        b = split(small_binary, 0.25, seed=9)[1]
        np.testing.assert_array_equal(a.features, b.features)

    def test_margin_recomputed_per_part(self, small_binary):
        train, test = split(small_binary, 0.25, seed=0)
        for part in (train, test):
            assert part.margin == np.min(part.labels * (part.features @ part.separator))

    def test_parts_keep_the_label_kind(self):
        # put every class-1 example in the test part, whose labels are then all 1
        perm = np.random.default_rng(3).permutation(9)
        labels = np.zeros(9, dtype=np.int64)
        labels[perm[:3]] = 1
        labels[perm[3:]] = [0, 2, 0, 2, 0, 2]
        dataset = Dataset(features=np.eye(9) * 0.5, labels=labels)
        train, test = split(dataset, test_fraction=3 / 9, seed=3)
        assert set(test.labels) == {1}
        assert not test.is_binary and not train.is_binary

    def test_parts_keep_the_class_count(self):
        labels = np.array([0, 1, 0, 1, 0, 1, 2, 2])
        dataset = Dataset(features=np.eye(8) * 0.5, labels=labels)
        train, test = split(dataset, test_fraction=0.25, seed=3)
        assert set(test.labels) == {2} and set(train.labels) == {0, 1}
        assert train.num_classes == test.num_classes == 3

    def test_rejects_degenerate_fractions(self, small_binary):
        for bad in (0.0, 1.0, 0.001):
            with pytest.raises(ValueError):
                split(small_binary, bad, seed=0)


class TestCsvRoundTrip:
    def test_roundtrip(self, small_binary, tmp_path):
        path = str(tmp_path / "ds.csv")
        save_csv(small_binary, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.labels, small_binary.labels)
        np.testing.assert_allclose(back.features, small_binary.features, rtol=0, atol=0)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError, match="label"):
            load_csv(str(path))

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n1,0.1,0.2\n-1,0.3\n")
        with pytest.raises(DataFormatError, match="ragged.csv:3"):
            load_csv(str(path))

    def test_non_numeric_feature_reports_line_number(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("label,f0\n1,zebra\n")
        with pytest.raises(DataFormatError, match="nan.csv:2"):
            load_csv(str(path))

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("label,f0\n1.5,0.2\n")
        with pytest.raises(DataFormatError, match="integer"):
            load_csv(str(path))

    def test_oversized_rows_are_rescaled(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("label,f0,f1\n1,3,4\n-1,0,1\n")
        ds = load_csv(str(path))
        assert np.linalg.norm(ds.features, axis=1).max() == pytest.approx(1.0)
        np.testing.assert_allclose(ds.features[0], [0.6, 0.8])

    def test_limit_keeps_the_first_rows_before_the_rescale(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("label,f0,f1\n1,0.3,0.4\n-1,0,2\n1,3,4\n")
        ds = load_csv(str(path), limit=2)
        np.testing.assert_array_equal(ds.labels, [1, -1])
        np.testing.assert_array_equal(ds.features, [[0.15, 0.2], [0.0, 1.0]])
        assert load_csv(str(path), limit=0).n == load_csv(str(path), limit=5).n == 3
        with pytest.raises(DataFormatError, match="limit"):
            load_csv(str(path), limit=-1)


class TestTableFormat:
    def test_roundtrip_is_exact(self, tmp_path):
        floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0, 1e308]
        ints = [0, -7, 2**53, 3, 12, 1, 99]
        path = str(tmp_path / "table.csv")
        write_table(path, ["i", "x"], zip(ints, floats))
        table = read_table(path)
        assert list(table) == ["i", "x"]
        np.testing.assert_array_equal(table["i"], np.asarray(ints, dtype=np.float64))
        np.testing.assert_array_equal(
            table["x"].view(np.int64), np.asarray(floats).view(np.int64)
        )

    def test_format(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(str(path), ("t", "value"), [(np.int64(1), np.float64(0.1)), (2, -0.0)])
        assert path.read_bytes() == b"t,value\r\n1,0.10000000000000001\r\n2,-0\r\n"


class TestIdxRoundTrip:
    def test_uint8_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 255, size=(7, 3, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx(images, labels, ip, lp)
        ds = load_idx(ip, lp)
        assert ds.n == 7 and ds.dim == 12
        np.testing.assert_array_equal(ds.labels, labels)
        expected = images.reshape(7, 12) / 255.0
        norms = np.linalg.norm(expected, axis=1)
        expected[norms > 1] /= norms[norms > 1, None]
        np.testing.assert_allclose(ds.features, expected)
        assert ds.box == (0.0, 1.0)

    def test_float_images_scale_to_bytes(self, tmp_path):
        images = np.full((2, 2, 2), 0.5)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx(images, np.array([0, 1]), ip, lp)
        ds = load_idx(ip, lp)
        # 0.5 -> byte 128 -> 128/255, then the row norm (>1) renormalizes
        row = np.full(4, 128 / 255.0)
        np.testing.assert_allclose(ds.features[0], row / np.linalg.norm(row))

    def test_limit(self, tmp_path):
        images = np.zeros((5, 2, 2), dtype=np.uint8)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx(images, np.arange(5), ip, lp)
        assert load_idx(ip, lp, limit=3).n == 3
        assert load_idx(ip, lp, limit=0).n == load_idx(ip, lp).n == 5
        with pytest.raises(DataFormatError, match="limit"):
            load_idx(ip, lp, limit=-1)

    def test_limited_subset_stays_multiclass(self, tmp_path):
        images = np.zeros((5, 2, 2), dtype=np.uint8)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx(images, np.array([1, 1, 1, 0, 2]), ip, lp)
        subset = load_idx(ip, lp, limit=3)
        assert set(subset.labels) == {1}
        assert not subset.is_binary and subset.num_classes == 3

    def test_write_rejects_out_of_range(self, tmp_path):
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            write_idx(np.full((1, 2, 2), 1.5), np.array([0]), ip, lp)
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            write_idx(np.full((1, 2, 2), 300, dtype=np.int64), np.array([0]), ip, lp)
        with pytest.raises(ValueError, match="labels"):
            write_idx(np.zeros((1, 2, 2), dtype=np.uint8), np.array([-2]), ip, lp)

    def test_bad_magic_rejected(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx(images, np.array([0, 1]), ip, lp)
        blob = bytearray(open(ip, "rb").read())
        blob[3] = 0x99
        open(ip, "wb").write(bytes(blob))
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(ip, lp)

    def test_truncated_pixels_rejected(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx(images, np.array([0, 1]), ip, lp)
        blob = open(ip, "rb").read()
        open(ip, "wb").write(blob[:-3])
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(ip, lp)

    def test_count_mismatch_rejected(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        lp2 = str(tmp_path / "l2.idx")
        write_idx(images, np.array([0, 1]), ip, lp)
        write_idx(np.zeros((3, 2, 2), dtype=np.uint8), np.array([0, 1, 2]), str(tmp_path / "i2.idx"), lp2)
        with pytest.raises(DataFormatError, match="count"):
            load_idx(ip, lp2)

    def test_digits_fixture_is_well_formed(self, digits_idx):
        ds = load_idx(*digits_idx)
        assert ds.n == 1797 and ds.dim == 64
        assert ds.num_classes == 10
        assert np.linalg.norm(ds.features, axis=1).max() <= 1.0 + 1e-12
