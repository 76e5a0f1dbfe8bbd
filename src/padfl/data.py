"""Datasets, IDX ingestion, and non-IID partitioning.

Partitions are index-based: every client owns disjoint index lists into
one shared dataset, pre-split into train/val/test so leakage checks can
audit raw indices.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError


@dataclass
class Dataset:
    """Built by `load_idx` and `synth_gaussian` from checked input (the
    IDX counts, a validated config); it does not re-check it."""
    # (n, C, h, w), float32 from the loaders; its dtype is the compute dtype
    # of every model a method trains and evaluates on it
    features: np.ndarray
    labels: np.ndarray    # (n,) int64 in [0, classes)
    classes: int


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


def synth_gaussian(classes, per_class, shape, separation, seed) -> Dataset:
    """Class-conditional Gaussian blobs with means on a scaled simplex.

    Means are `separation` times orthonormal directions (pairwise
    distance sqrt(2)*separation) with unit-variance noise, deterministic
    per seed, on features of `shape` (C, H, W). Where a low-frequency
    (4x4-block) subspace holds `classes` directions and is smaller than
    the image, the directions are drawn from it, so the class evidence is
    spatially coherent and learnable by a small convolutional stack; the
    simplex geometry is unchanged. Drawn in float64 and returned in float32.
    """
    rng = np.random.default_rng(seed)
    c, h, w = shape
    dim = c * h * w
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


def _read_idx(path, magic, dims):
    """The `dims` big-endian counts after `magic` in an IDX file, and the
    count-product payload bytes after them as uint8."""
    with open(path, "rb") as fh:
        found = struct.unpack(">I", _read_exact(fh, 4, path, 0))[0]
        if found != magic:
            raise FormatError(
                f"{path}: bad magic 0x{found:08x} at byte offset 0 (expected 0x{magic:08x})")
        counts = struct.unpack(f">{dims}I", _read_exact(fh, 4 * dims, path, 4))
        raw = _read_exact(fh, math.prod(counts), path, 4 + 4 * dims)
    return counts, np.frombuffer(raw, dtype=np.uint8)


def load_idx(images_path, labels_path) -> Dataset:
    """Read an image/label pair of IDX files; float32 pixels scaled to [0, 1]."""
    (n, rows, cols), images = _read_idx(images_path, _IDX_IMAGES, 3)
    if not n * rows * cols:
        raise FormatError(
            f"{images_path}: holds {n} images of {rows}x{cols} pixels; "
            "every count must be positive")
    (n_labels,), labels = _read_idx(labels_path, _IDX_LABELS, 1)
    if n != n_labels:
        raise FormatError(
            f"{images_path} holds {n} images but {labels_path} holds {n_labels} labels")
    images = images.reshape(n, 1, rows, cols).astype(np.float32) / 255.0
    return Dataset(images, labels.astype(np.int64), int(labels.max()) + 1)


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
    (VAL_SHARE) and test (TEST_SHARE) splits of at least one sample each,
    as n - 2 * max(1, round(0.1 * n)) >= 1 for the n >= 3 every client has."""
    clients = []
    for indices in per_client:
        idx = np.asarray(indices, dtype=np.int64)
        rng.shuffle(idx)
        n = len(idx)
        n_val, n_test = max(1, round(VAL_SHARE * n)), max(1, round(TEST_SHARE * n))
        n_train = n - n_val - n_test
        clients.append(ClientData(dataset, idx[:n_train], idx[n_train:n_train + n_val],
                                  idx[n_train + n_val:]))
    return Partition(clients)


def partition_dirichlet(dataset, num_clients, alpha, seed) -> Partition:
    """Label-skewed split: client label mixes drawn from Dirichlet(alpha *
    global label distribution), samples dealt without replacement, even
    client sizes (remainder to the lowest ids). One pass, never short: a
    client takes at most its size by its mix, then tops up from pools that
    still hold sizes[i:].sum() samples; the last takes the rest."""
    n = len(dataset.labels)
    if n < 3 * num_clients:
        raise ConfigurationError(f"{n} samples cannot give {num_clients} clients 3 splits")
    global_dist = np.bincount(dataset.labels, minlength=dataset.classes) / n
    sizes = _even_sizes(n, num_clients)
    rng = np.random.default_rng(seed)
    pools = [list(rng.permutation(np.flatnonzero(dataset.labels == c)))
             for c in range(dataset.classes)]
    mixes = rng.dirichlet(alpha * global_dist, size=num_clients)
    per_client = []
    for i in range(num_clients - 1):
        want = _largest_remainder(mixes[i] * sizes[i], sizes[i])
        take = []
        for c in range(dataset.classes):
            take.extend(pools[c][:want[c]])
            del pools[c][:want[c]]
        deficit = sizes[i] - len(take)
        while deficit > 0:
            c = max(range(dataset.classes), key=lambda cc: len(pools[cc]))
            grab = min(deficit, len(pools[c]))
            take.extend(pools[c][:grab])
            del pools[c][:grab]
            deficit -= grab
        per_client.append(take)
    per_client.append([idx for pool in pools for idx in pool])
    return _finish(dataset, per_client, rng)


def _largest_remainder(raw, total):
    floor = np.floor(raw).astype(np.int64)
    short = int(total - floor.sum())
    if short > 0:
        order = np.argsort(-(raw - floor), kind="stable")
        floor[order[:short]] += 1
    return floor


def partition_k_of_k(dataset, num_clients, classes_per_client, seed) -> Partition:
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
