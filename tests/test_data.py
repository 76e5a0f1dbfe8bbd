import re
import struct

import numpy as np
import pytest

from padfl import data as pd
from padfl.errors import ConfigurationError, FormatError


def nearest_centroid_accuracy(train, test):
    (xtr, ytr), (xte, yte) = train, test
    classes = int(max(ytr.max(), yte.max())) + 1
    cents = np.stack([xtr[ytr == c].reshape(np.sum(ytr == c), -1).mean(axis=0)
                      for c in range(classes)])
    flat = xte.reshape(len(yte), -1)
    d = ((flat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return float((d.argmin(axis=1) == yte).mean())


class TestSynthGaussian:
    def test_deterministic(self):
        a = pd.synth_gaussian(3, 20, shape=(1, 4, 4), separation=3.0, seed=5)
        b = pd.synth_gaussian(3, 20, shape=(1, 4, 4), separation=3.0, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_huge_separation_perfectly_separable(self):
        ds = pd.synth_gaussian(4, 250, shape=(1, 4, 4), separation=1e3, seed=6)
        half = len(ds.labels) // 2
        acc = nearest_centroid_accuracy(
            (ds.features[:half], ds.labels[:half]),
            (ds.features[half:], ds.labels[half:]))
        assert acc == 1.0

    def test_zero_separation_chance_level(self):
        ds = pd.synth_gaussian(4, 2500, shape=(1, 4, 4), separation=0.0, seed=7)
        half = len(ds.labels) // 2
        acc = nearest_centroid_accuracy(
            (ds.features[:half], ds.labels[:half]),
            (ds.features[half:], ds.labels[half:]))
        assert abs(acc - 0.25) <= 0.05

    def test_one_draw_equals_per_class_draws(self):
        # synth_gaussian draws all classes' noise at once; the stream, and
        # the generator state after it, must equal one draw per class
        one, per_class = np.random.default_rng(3), np.random.default_rng(3)
        a = one.standard_normal((3, 5, 7))
        b = np.stack([per_class.standard_normal((5, 7)) for _ in range(3)])
        assert a.tobytes() == b.tobytes()
        assert one.permutation(10).tolist() == per_class.permutation(10).tolist()


def write_idx_pair(tmp_path, images, labels):
    """Handcraft IDX files byte-by-byte per the container format."""
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    n, rows, cols = images.shape
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(labels))
    return img_path, lbl_path


class TestLoadIdx:
    def test_single_image_roundtrip(self, tmp_path):
        img = np.arange(6, dtype=np.uint8).reshape(1, 2, 3) * 40
        img_path, lbl_path = write_idx_pair(tmp_path, img, [1])
        ds = pd.load_idx(img_path, lbl_path)
        assert ds.features.shape == (1, 1, 2, 3)
        assert np.allclose(ds.features[0, 0], img[0] / 255.0)
        assert ds.labels.tolist() == [1]

    def test_count_mismatch(self, tmp_path):
        img = np.zeros((2, 2, 2), dtype=np.uint8)
        img_path, _ = write_idx_pair(tmp_path, img, [0, 1])
        lbl_path = tmp_path / "short.idx"
        with open(lbl_path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 1))
            fh.write(bytes([0]))
        with pytest.raises(FormatError, match="2 images.*1 labels"):
            pd.load_idx(img_path, lbl_path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1))
            fh.write(bytes(1))
        _, lbl_path = write_idx_pair(tmp_path, np.zeros((1, 1, 1), dtype=np.uint8), [0])
        with pytest.raises(FormatError, match="bad magic.*offset 0"):
            pd.load_idx(path, lbl_path)

    def test_truncation_names_offset(self, tmp_path):
        path = tmp_path / "trunc.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            fh.write(bytes(3))  # needs 8
        _, lbl_path = write_idx_pair(tmp_path, np.zeros((1, 1, 1), dtype=np.uint8), [0])
        with pytest.raises(FormatError, match="byte offset 19"):
            pd.load_idx(path, lbl_path)

    def test_label_file_wrong_magic_names_it(self, tmp_path):
        img_path, lbl_path = write_idx_pair(tmp_path, np.zeros((1, 1, 1), dtype=np.uint8), [0])
        with open(lbl_path, "r+b") as fh:
            fh.write(struct.pack(">I", 0x00000803))  # an image file's magic
        message = f"{lbl_path}: bad magic 0x00000803 at byte offset 0 (expected 0x00000801)"
        with pytest.raises(FormatError, match=re.escape(message)):
            pd.load_idx(img_path, lbl_path)

    @pytest.mark.parametrize("keep", [2, 6, 9])  # inside the magic, the count, the labels
    def test_truncated_label_file_names_it_and_the_offset(self, tmp_path, keep):
        img_path, lbl_path = write_idx_pair(tmp_path, np.zeros((2, 1, 1), dtype=np.uint8),
                                            [0, 1])
        with open(lbl_path, "r+b") as fh:
            fh.truncate(keep)
        message = f"{lbl_path}: truncated at byte offset {keep}"
        with pytest.raises(FormatError, match=re.escape(message)):
            pd.load_idx(img_path, lbl_path)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (1, 0, 2), (1, 2, 0)])
    def test_empty_image_file_names_it(self, tmp_path, shape):
        img_path, lbl_path = write_idx_pair(tmp_path, np.zeros(shape, dtype=np.uint8),
                                            [0] * shape[0])
        message = f"{img_path}: holds {shape[0]} images of {shape[1]}x{shape[2]} pixels"
        with pytest.raises(FormatError, match=re.escape(message)):
            pd.load_idx(img_path, lbl_path)


def assert_partition_sane(part, n_total):
    seen = np.concatenate([np.concatenate([c.train_idx, c.val_idx, c.test_idx])
                           for c in part.clients])
    assert len(seen) == n_total
    assert len(np.unique(seen)) == n_total
    for c in part.clients:
        assert len(c.train_idx) >= 1 and len(c.val_idx) >= 1 and len(c.test_idx) >= 1


class TestDirichlet:
    def test_single_client_owns_everything(self):
        ds = pd.synth_gaussian(3, 30, shape=(1, 2, 2), separation=3.0, seed=8)
        part = pd.partition_dirichlet(ds, 1, alpha=1.0, seed=0)
        assert_partition_sane(part, len(ds.labels))

    def test_disjoint_exhaustive_and_deterministic(self):
        ds = pd.synth_gaussian(4, 100, shape=(1, 2, 2), separation=3.0, seed=9)
        a = pd.partition_dirichlet(ds, 10, alpha=1.0, seed=3)
        b = pd.partition_dirichlet(ds, 10, alpha=1.0, seed=3)
        assert_partition_sane(a, 400)
        for ca, cb in zip(a.clients, b.clients):
            assert np.array_equal(ca.train_idx, cb.train_idx)
            assert np.array_equal(ca.val_idx, cb.val_idx)
            assert np.array_equal(ca.test_idx, cb.test_idx)

    def test_split_ratios_within_one_sample(self):
        ds = pd.synth_gaussian(4, 250, shape=(1, 2, 2), separation=3.0, seed=10)
        part = pd.partition_dirichlet(ds, 10, alpha=1.0, seed=4)
        for c in part.clients:
            n = len(c.train_idx) + len(c.val_idx) + len(c.test_idx)
            assert abs(len(c.val_idx) - 0.1 * n) <= 1
            assert abs(len(c.test_idx) - 0.1 * n) <= 1
            assert abs(len(c.train_idx) - 0.8 * n) <= 2

    def test_large_alpha_matches_global_distribution(self):
        ds = pd.synth_gaussian(5, 2000, shape=(1, 3, 3), separation=3.0, seed=11)
        part = pd.partition_dirichlet(ds, 10, alpha=1e4, seed=5)
        global_dist = np.bincount(ds.labels, minlength=5) / len(ds.labels)
        for c in part.clients:
            own = np.concatenate([c.train_idx, c.val_idx, c.test_idx])
            hist = np.bincount(ds.labels[own], minlength=5) / len(own)
            tv = 0.5 * np.abs(hist - global_dist).sum()
            assert tv <= 0.05

    def test_infeasible_rejected(self):
        ds = pd.synth_gaussian(2, 2, shape=(1, 2, 2), separation=3.0, seed=12)
        with pytest.raises(ConfigurationError):
            pd.partition_dirichlet(ds, 4, alpha=1.0, seed=0)


class TestKofK:
    def test_full_class_coverage(self):
        ds = pd.synth_gaussian(5, 100, shape=(1, 3, 3), separation=3.0, seed=13)
        part = pd.partition_k_of_k(ds, 8, 5, seed=1)
        assert_partition_sane(part, 500)
        for c in part.clients:
            own = np.concatenate([c.train_idx, c.val_idx, c.test_idx])
            assert len(np.unique(ds.labels[own])) == 5

    def test_one_class_per_client(self):
        ds = pd.synth_gaussian(4, 100, shape=(1, 2, 2), separation=3.0, seed=14)
        part = pd.partition_k_of_k(ds, 4, 1, seed=2)
        assert_partition_sane(part, 400)
        for c in part.clients:
            own = np.concatenate([c.train_idx, c.val_idx, c.test_idx])
            assert len(np.unique(ds.labels[own])) == 1

    def test_every_sample_assigned_exactly_once(self):
        ds = pd.synth_gaussian(6, 77, shape=(1, 3, 3), separation=3.0, seed=15)
        part = pd.partition_k_of_k(ds, 5, 3, seed=3)
        assert_partition_sane(part, 6 * 77)

    def test_k_out_of_range(self):
        ds = pd.synth_gaussian(3, 30, shape=(1, 2, 2), separation=3.0, seed=16)
        with pytest.raises(ConfigurationError):
            pd.partition_k_of_k(ds, 4, 9, seed=0)
