"""Comparison methods run under the identical round loop: nested width
slicing with coverage-count averaging, its special case of a single
shared model at the lowest common width, and purely local training."""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import autodiff as ad
from .model import Layout, PlainModel, init_plain, plain_accuracy, plain_logits_t
from .protocol import (
    TAG_INIT,
    ClientRow,
    FederatedMethod,
    sgd,
)


def plain_sgd(model: PlainModel, layout: Layout, client_data, *, epochs, batch, lr, rng):
    """Minibatch SGD with plain cross-entropy on a dense model; returns
    (trained model or None, mean loss)."""
    return sgd(model, client_data,
               lambda m, x, y: ad.cross_entropy(plain_logits_t(layout, m, x), y),
               epochs=epochs, batch=batch, lr=lr, rng=rng)


class DenseMethod(FederatedMethod):
    """Methods that train a dense model: client i starts from, and is
    evaluated with, `client_view(i)`."""

    def client_view(self, i) -> PlainModel:
        raise NotImplementedError

    def init_model(self, width, rng) -> PlainModel:
        """A fresh dense width-p model (`init_plain`) in the data's dtype."""
        model = init_plain(self.layout, width, rng)
        return PlainModel.from_arrays([a.astype(self.dtype) for a in model.arrays()], width)

    def train_client(self, t, i, eta):
        return plain_sgd(self.client_view(i), self.layout, self.profiles[i].data,
                         epochs=self.cfg.epochs, batch=self.cfg.batch, lr=eta,
                         rng=self.client_rng(t, i))

    def evaluate_client(self, profile, train_loss):
        model = self.client_view(profile.id)
        xv, yv = profile.data.val_xy()
        xt, yt = profile.data.test_xy()
        return ClientRow(profile.id, profile.capacity, model.width, train_loss,
                         plain_accuracy(self.layout, model, xv, yv),
                         plain_accuracy(self.layout, model, xt, yt),
                         float("nan"))

    def round_payload(self, selected):
        return sum(a.size for i in selected for a in self.client_view(i).arrays())


def nested_keys(layout: Layout, p) -> list:
    """Slice tuple per tensor (arrays() order) selecting the leading
    p-share of every width axis; the raw input and the class axis stay."""
    kept = [spec.kept(p) for spec in layout.specs]
    return ([(slice(0, o), slice(0, i)) for o, i in kept] + [(slice(0, o),) for o, _ in kept]
            + [(slice(None), slice(0, layout.head_in(p))), (slice(None),)])


class PWidthNested(DenseMethod):
    """Nested width slicing of one shared dense model of width `width`:
    client i trains the leading min(p_i, width) share of every layer;
    aggregation averages each entry over the clients whose slice covers it."""

    def __init__(self, profiles, layout, cfg, seed, width=Fraction(1)):
        super().__init__(profiles, layout, cfg, seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, TAG_INIT)))
        self.model = self.init_model(width, rng)
        self.widths = {p.id: min(p.width, width) for p in profiles}
        self.keys = {i: nested_keys(layout, w) for i, w in self.widths.items()}

    def client_view(self, i) -> PlainModel:
        sliced = [np.ascontiguousarray(a[k])
                  for a, k in zip(self.model.arrays(), self.keys[i])]
        return PlainModel.from_arrays(sliced, self.widths[i])

    def aggregate(self, models):
        new_arrays = []
        for idx, full in enumerate(self.model.arrays()):
            acc = np.zeros_like(full)
            count = np.zeros_like(full)
            for i, m in models.items():
                key = self.keys[i][idx]
                acc[key] += m.arrays()[idx]
                count[key] += 1.0
            covered = count > 0
            merged = full.copy()
            merged[covered] = acc[covered] / count[covered]
            new_arrays.append(merged)
        self.model = PlainModel.from_arrays(new_arrays, self.model.width)


class LocalOnly(DenseMethod):
    """No federation: every client trains its own width-matched dense
    model whenever it is sampled."""

    def __init__(self, profiles, layout, cfg, seed):
        super().__init__(profiles, layout, cfg, seed)
        self.models = {}
        for p in profiles:
            rng = np.random.default_rng(np.random.SeedSequence((seed, TAG_INIT, p.id)))
            self.models[p.id] = self.init_model(p.width, rng)

    def client_view(self, i):
        return self.models[i]

    def aggregate(self, models):
        self.models.update(models)

    def round_payload(self, selected):
        return 0
