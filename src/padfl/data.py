"""Datasets, IDX ingestion, and non-IID partitioning.

Partitions are index-based: every client owns disjoint index lists into
one shared dataset, pre-split into train/val/test so leakage checks can
audit raw indices.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError


@dataclass
class Dataset:
    # (n, C, h, w), float32 from the loaders; its dtype is the compute dtype
    # of every model a method trains and evaluates on it
    features: np.ndarray
    labels: np.ndarray    # (n,) int64 in [0, classes)
    classes: int

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0] or self.features.shape[0] == 0:
            raise ConfigurationError("features/labels length mismatch or empty dataset")
        if self.labels.min() < 0 or self.labels.max() >= self.classes:
            raise ConfigurationError("labels outside [0, classes)")


@dataclass
class ClientData:
    dataset: Dataset
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def val_xy(self):
        return self.dataset.features[self.val_idx], self.dataset.labels[self.val_idx]

    def test_xy(self):
        return self.dataset.features[self.test_idx], self.dataset.labels[self.test_idx]


VAL_SHARE = TEST_SHARE = 0.1  # of each client's samples; the rest trains


@dataclass
class Partition:
    clients: list  # ClientData per client


def synth_gaussian(classes, per_class, shape=(1, 28, 28), separation=3.0, seed=0) -> Dataset:
    """Class-conditional Gaussian blobs with means on a scaled simplex.

    Means are `separation` times orthonormal directions (pairwise
    distance sqrt(2)*separation) with unit-variance noise, deterministic
    per seed. On image-shaped features the directions are drawn from a
    low-frequency (4x4-block) subspace so the class evidence is spatially
    coherent and learnable by a small convolutional stack; the simplex
    geometry is unchanged. Drawn in float64 and returned in float32.
    """
    rng = np.random.default_rng(seed)
    dim = int(np.prod(shape))
    if classes > dim:
        raise ConfigurationError(f"{classes} classes exceed feature dim {dim}")
    c, h, w = shape if len(shape) == 3 else (1, 1, int(np.prod(shape)))
    gh, gw = (h + 3) // 4, (w + 3) // 4
    if c * gh * gw >= classes and (gh, gw) != (h, w):
        cols = []
        for _ in range(classes):
            img = np.concatenate([
                np.kron(rng.standard_normal((gh, gw)), np.ones((4, 4)))[:h, :w]
                for _ in range(c)])
            cols.append(img.ravel())
        base = np.stack(cols, axis=1)
    else:
        base = rng.standard_normal((dim, classes))
    q, _ = np.linalg.qr(base)
    means = separation * q.T  # (classes, dim)
    # one draw gives the same stream as one draw per class, without the
    # per-class temporaries
    x = rng.standard_normal((classes, per_class, dim))
    x += means[:, None, :]
    # cast before the permuted gather, so no float64 copy of it is made
    x = x.astype(np.float32)
    y = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    perm = rng.permutation(len(y))
    return Dataset(x.reshape(-1, *shape)[perm], y[perm], classes)


# ---------------------------------------------------------------------------
# IDX binary container (big-endian, magic-prefixed)

_IDX_IMAGES = 0x00000803
_IDX_LABELS = 0x00000801


def _read_exact(fh, n, path, offset):
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"{path}: truncated at byte offset {offset + len(buf)}")
    return buf


def load_idx(images_path, labels_path) -> Dataset:
    """Read an image/label pair of IDX files; float32 pixels scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        magic = struct.unpack(">I", _read_exact(fh, 4, images_path, 0))[0]
        if magic != _IDX_IMAGES:
            raise FormatError(
                f"{images_path}: bad magic 0x{magic:08x} at byte offset 0 "
                f"(expected 0x{_IDX_IMAGES:08x})")
        n, rows, cols = struct.unpack(">III", _read_exact(fh, 12, images_path, 4))
        if not n * rows * cols:
            raise FormatError(
                f"{images_path}: holds {n} images of {rows}x{cols} pixels; "
                "every count must be positive")
        raw = _read_exact(fh, n * rows * cols, images_path, 16)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, rows, cols)
    with open(labels_path, "rb") as fh:
        magic = struct.unpack(">I", _read_exact(fh, 4, labels_path, 0))[0]
        if magic != _IDX_LABELS:
            raise FormatError(
                f"{labels_path}: bad magic 0x{magic:08x} at byte offset 0 "
                f"(expected 0x{_IDX_LABELS:08x})")
        n_labels = struct.unpack(">I", _read_exact(fh, 4, labels_path, 4))[0]
        raw = _read_exact(fh, n_labels, labels_path, 8)
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if n != n_labels:
        raise FormatError(
            f"{images_path} holds {n} images but {labels_path} holds {n_labels} labels")
    return Dataset(images.astype(np.float32) / 255.0, labels, int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# partitioners

def _even_sizes(total, parts):
    """Even split; remainder samples go to the lowest client ids."""
    base = total // parts
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[: total - base * parts] += 1
    return sizes


def _finish(dataset, per_client, rng):
    """Shuffle each client's indices and cut them into train, validation
    (VAL_SHARE) and test (TEST_SHARE) splits of at least one sample each."""
    clients = []
    for indices in per_client:
        idx = np.asarray(indices, dtype=np.int64)
        rng.shuffle(idx)
        n = len(idx)
        n_val, n_test = max(1, round(VAL_SHARE * n)), max(1, round(TEST_SHARE * n))
        n_train = n - n_val - n_test
        if n_train < 1:
            raise ConfigurationError(f"client with {n} samples cannot fill all three splits")
        clients.append(ClientData(dataset, idx[:n_train], idx[n_train:n_train + n_val],
                                  idx[n_train + n_val:]))
    return Partition(clients)


def partition_dirichlet(dataset, num_clients, alpha=1.0, seed=0) -> Partition:
    """Label-skewed split: client label mixes drawn from Dirichlet(alpha *
    global label distribution), samples dealt without replacement, even
    client sizes (remainder to the lowest ids)."""
    n = len(dataset.labels)
    if n < 3 * num_clients:
        raise ConfigurationError(f"{n} samples cannot give {num_clients} clients 3 splits")
    global_dist = np.bincount(dataset.labels, minlength=dataset.classes) / n
    sizes = _even_sizes(n, num_clients)
    rng = np.random.default_rng(seed)
    for _attempt in range(20):
        pools = [list(rng.permutation(np.flatnonzero(dataset.labels == c)))
                 for c in range(dataset.classes)]
        mixes = rng.dirichlet(alpha * global_dist, size=num_clients)
        per_client = []
        feasible = True
        for i in range(num_clients):
            if i == num_clients - 1:
                take = [idx for pool in pools for idx in pool]
                pools = [[] for _ in pools]
            else:
                want = _largest_remainder(mixes[i] * sizes[i], sizes[i])
                take = []
                for c in range(dataset.classes):
                    grab = min(want[c], len(pools[c]))
                    take.extend(pools[c][:grab])
                    del pools[c][:grab]
                deficit = sizes[i] - len(take)
                while deficit > 0:
                    c = max(range(dataset.classes), key=lambda cc: len(pools[cc]))
                    if not pools[c]:
                        feasible = False
                        break
                    grab = min(deficit, len(pools[c]))
                    take.extend(pools[c][:grab])
                    del pools[c][:grab]
                    deficit -= grab
            if not feasible or len(take) < 3:
                feasible = False
                break
            per_client.append(take)
        if feasible:
            return _finish(dataset, per_client, rng)
    raise ConfigurationError("could not build a feasible Dirichlet partition")


def _largest_remainder(raw, total):
    floor = np.floor(raw).astype(np.int64)
    short = int(total - floor.sum())
    if short > 0:
        order = np.argsort(-(raw - floor), kind="stable")
        floor[order[:short]] += 1
    return floor


def partition_k_of_k(dataset, num_clients, classes_per_client, seed=0) -> Partition:
    """Each client owns a uniform random subset of classes; every class's
    samples are dealt evenly among its owners (remainder to the lowest
    owner id)."""
    k, kk = classes_per_client, dataset.classes
    if not 1 <= k <= kk:
        raise ConfigurationError(f"classes_per_client {k} outside [1, {kk}]")
    rng = np.random.default_rng(seed)
    for _attempt in range(100):
        owned = [np.sort(rng.choice(kk, size=k, replace=False)) for _ in range(num_clients)]
        owners = {c: [i for i in range(num_clients) if c in owned[i]] for c in range(kk)}
        if all(owners[c] for c in range(kk)):
            break
    else:
        raise ConfigurationError("some class found no owner after bounded retries")
    per_client = [[] for _ in range(num_clients)]
    for c in range(kk):
        pool = rng.permutation(np.flatnonzero(dataset.labels == c))
        share = _even_sizes(len(pool), len(owners[c]))
        start = 0
        for slot, i in enumerate(owners[c]):
            per_client[i].extend(pool[start:start + share[slot]])
            start += share[slot]
    for i, lst in enumerate(per_client):
        if len(lst) < 3:
            raise ConfigurationError(f"client {i} received {len(lst)} samples (<3)")
    return _finish(dataset, per_client, rng)
