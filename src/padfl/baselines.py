"""Comparison methods run under the identical round loop: nested width
slicing with coverage-count averaging (`protocol.coverage_mean`), its
special case of a single shared model at the lowest common width, and
purely local training."""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import autodiff as ad
from .model import Layout, PlainModel, init_plain, plain_accuracy, plain_logits_t
from .protocol import (
    TAG_INIT,
    FederatedMethod,
    coverage_mean,
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
    evaluated with, the `PlainModel` `sent(i)`."""

    def init_model(self, width, rng) -> PlainModel:
        """A fresh dense width-p model (`init_plain`) in the data's dtype."""
        model = init_plain(self.layout, width, rng)
        return PlainModel.from_arrays([a.astype(self.dtype) for a in model.arrays()], width)

    def train_client(self, t, i, model):
        return plain_sgd(model, self.layout, self.profiles[i].data,
                         epochs=self.cfg.epochs, batch=self.cfg.batch, lr=self.eta(t),
                         rng=self.client_rng(t, i))

    def evaluate_client(self, i, model, local):
        data = self.profiles[i].data
        return (plain_accuracy(self.layout, model, *data.val_xy()),
                plain_accuracy(self.layout, model, *data.test_xy()), float("nan"))


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

    def __init__(self, profiles, layout, cfg, width=Fraction(1)):
        super().__init__(profiles, layout, cfg)
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, TAG_INIT)))
        self.model = self.init_model(width, rng)
        self.widths = {p.id: min(p.width, width) for p in profiles}
        self.keys = {i: nested_keys(layout, w) for i, w in self.widths.items()}

    def sent(self, i) -> PlainModel:
        sliced = [np.ascontiguousarray(a[k])
                  for a, k in zip(self.model.arrays(), self.keys[i])]
        return PlainModel.from_arrays(sliced, self.widths[i])

    def aggregate(self, models):
        merged = coverage_mean(self.model.arrays(),
                               [(self.keys[i], m.arrays()) for i, m in models.items()])
        self.model = PlainModel.from_arrays(merged, self.model.width)


class LocalOnly(DenseMethod):
    """No federation: every client trains its own width-matched dense
    model, kept in `local`, whenever it is sampled; `sent(i)` is that
    model itself, so no float travels."""

    def __init__(self, profiles, layout, cfg):
        super().__init__(profiles, layout, cfg)
        for p in profiles:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, TAG_INIT, p.id)))
            self.local[p.id] = self.init_model(p.width, rng)

    def sent(self, i):
        return self.local[i]
