"""Comparison methods run under the identical round loop: a single
shared model at the lowest common width, nested width slicing with
coverage-count averaging, and purely local training."""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import autodiff as ad
from .model import CnnArch, PlainModel, init_plain, plain_accuracy, plain_logits_t
from .protocol import (
    TAG_INIT,
    ClientRow,
    FederatedMethod,
    LocalResult,
    mean_arrays,
)


def plain_sgd(model: PlainModel, arch: CnnArch, client_data, *, epochs, batch, lr, rng):
    """Minibatch SGD with plain cross-entropy on a dense model."""
    x_all = client_data.dataset.features
    y_all = client_data.dataset.labels
    train_idx = client_data.train_idx
    arrays = [a.copy() for a in model.arrays()]
    for arr in arrays:
        if not np.isfinite(arr).all():
            return None, float("nan")
    losses = []
    n_conv, n_fc = len(model.conv_w), len(model.fc_w)
    for _ in range(epochs):
        order = rng.permutation(len(train_idx))
        for start in range(0, len(order), batch):
            sel = train_idx[order[start:start + batch]]
            leaves = [ad.leaf(a) for a in arrays]
            nodes = (leaves[:n_conv], leaves[n_conv:2 * n_conv],
                     leaves[2 * n_conv:2 * n_conv + n_fc],
                     leaves[2 * n_conv + n_fc:2 * n_conv + 2 * n_fc],
                     leaves[-2], leaves[-1])
            loss = ad.cross_entropy(plain_logits_t(arch, nodes, ad.const(x_all[sel])),
                                    y_all[sel])
            val = float(loss.data)
            if not np.isfinite(val):
                return None, float("nan")
            losses.append(val)
            ad.backward(loss)
            for arr, node in zip(arrays, leaves):
                if node.grad is not None:
                    arr -= lr * node.grad
    out = PlainModel.from_arrays(model, arrays)
    return out, float(np.mean(losses)) if losses else float("nan")


class DenseMethod(FederatedMethod):
    """Methods that train a dense model: client i starts from, and is
    evaluated with, `client_view(i)`."""

    def client_view(self, i) -> PlainModel:
        raise NotImplementedError

    def train_client(self, t, i, eta):
        model, loss = plain_sgd(
            self.client_view(i), self.layout.arch, self.profiles[i].data,
            epochs=self.cfg.epochs, batch=self.cfg.batch, lr=eta,
            rng=self.client_rng(t, i))
        if model is None:
            return LocalResult(i, ok=False)
        return LocalResult(i, ok=True, train_loss=loss, model=model)

    def evaluate_client(self, profile, result):
        model = self.client_view(profile.id)
        xv, yv = profile.data.val_xy()
        xt, yt = profile.data.test_xy()
        return ClientRow(profile.id, profile.capacity, model.width,
                         result is not None,
                         result.train_loss if result else float("nan"),
                         plain_accuracy(self.layout.arch, model, xv, yv),
                         plain_accuracy(self.layout.arch, model, xt, yt),
                         float("nan"))


class FedAvgMinWidth(DenseMethod):
    """One shared dense model sized for the lowest-capacity client;
    position-wise mean aggregation, no personalization."""

    def __init__(self, profiles, layout, cfg, seed):
        super().__init__(profiles, layout, cfg, seed)
        self.width = min(p.width for p in profiles)
        rng = np.random.default_rng(np.random.SeedSequence((seed, TAG_INIT)))
        self.model = init_plain(layout.arch, self.width, rng)

    def client_view(self, i):
        return self.model

    def aggregate(self, t, ok, results):
        mixed = mean_arrays([results[i].model.arrays() for i in sorted(ok)])
        self.model = PlainModel.from_arrays(self.model, mixed)

    def round_payload(self, selected):
        size = sum(a.size for a in self.model.arrays())
        return size * len(selected)


def nested_keys(arch: CnnArch, p) -> list:
    """Slice tuple per tensor (arrays() order) selecting the leading
    p-share of every width axis; the raw input and the class axis stay."""
    from .model import build_layout

    p = Fraction(p)
    conv_w, conv_b, fc_w, fc_b = [], [], [], []
    prev = None  # None = unsliced input channels
    for cb in arch.convs:
        t = int(cb.channels * p)
        conv_w.append((slice(0, t), slice(None) if prev is None else slice(0, prev)))
        conv_b.append((slice(0, t),))
        prev = t
    keys = conv_w + conv_b
    # dense feature count at width p for the first fc / head input
    layout = build_layout(arch, Fraction(1))
    feat_full = layout.head_in_full
    if arch.convs:
        hw = layout.conv_out_hw[-1]
        feat_p = int(arch.convs[-1].channels * p) * hw[0] * hw[1]
    else:
        feat_p = feat_full
    fin = feat_p
    for width in arch.hidden:
        t = int(width * p)
        fc_w.append((slice(0, t), slice(0, fin)))
        fc_b.append((slice(0, t),))
        fin = t
    keys += fc_w + fc_b
    keys.append((slice(None), slice(0, fin)))  # head weight
    keys.append((slice(None),))                # head bias
    return keys


class PWidthNested(DenseMethod):
    """Nested width slicing of one shared dense model: client i trains
    the leading p_i share of every layer; aggregation averages each
    entry over the clients whose slice covers it."""

    def __init__(self, profiles, layout, cfg, seed):
        super().__init__(profiles, layout, cfg, seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, TAG_INIT)))
        self.model = init_plain(layout.arch, Fraction(1), rng)
        self.keys = {p.id: nested_keys(layout.arch, p.width) for p in profiles}

    def client_view(self, i) -> PlainModel:
        sliced = [np.ascontiguousarray(a[k])
                  for a, k in zip(self.model.arrays(), self.keys[i])]
        view = PlainModel.from_arrays(self.model, sliced)
        view.width = self.profiles[i].width
        return view

    def aggregate(self, t, ok, results):
        new_arrays = []
        for idx, full in enumerate(self.model.arrays()):
            acc = np.zeros_like(full)
            count = np.zeros_like(full)
            for i in sorted(ok):
                key = self.keys[i][idx]
                acc[key] += results[i].model.arrays()[idx]
                count[key] += 1.0
            covered = count > 0
            merged = full.copy()
            merged[covered] = acc[covered] / count[covered]
            new_arrays.append(merged)
        self.model = PlainModel.from_arrays(self.model, new_arrays)

    def round_payload(self, selected):
        total = 0
        for i in selected:
            total += sum(a.size for a in self.client_view(i).arrays())
        return total


class LocalOnly(DenseMethod):
    """No federation: every client trains its own width-matched dense
    model whenever it is sampled."""

    def __init__(self, profiles, layout, cfg, seed):
        super().__init__(profiles, layout, cfg, seed)
        self.models = {}
        for p in profiles:
            rng = np.random.default_rng(np.random.SeedSequence((seed, TAG_INIT, p.id)))
            self.models[p.id] = init_plain(layout.arch, p.width, rng)

    def client_view(self, i):
        return self.models[i]

    def aggregate(self, t, ok, results):
        for i in ok:
            self.models[i] = results[i].model

    def round_payload(self, selected):
        return 0
