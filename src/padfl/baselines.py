"""Comparison methods run under the identical round loop: a single
shared model at the lowest common width, nested width slicing with
coverage-count averaging, and purely local training."""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import autodiff as ad
from .model import CnnArch, Layout, PlainModel, init_plain, plain_accuracy, plain_logits_t
from .protocol import (
    TAG_INIT,
    ClientRow,
    FederatedMethod,
    mean_arrays,
    sgd,
)


def plain_sgd(model: PlainModel, arch: CnnArch, client_data, *, epochs, batch, lr, rng):
    """Minibatch SGD with plain cross-entropy on a dense model; returns
    (trained model or None, mean loss)."""
    return sgd(model, client_data, lambda m, x, y: ad.cross_entropy(plain_logits_t(arch, m, x), y),
               epochs=epochs, batch=batch, lr=lr, rng=rng)


class DenseMethod(FederatedMethod):
    """Methods that train a dense model: client i starts from, and is
    evaluated with, `client_view(i)`."""

    def client_view(self, i) -> PlainModel:
        raise NotImplementedError

    def train_client(self, t, i, eta):
        return plain_sgd(self.client_view(i), self.layout.arch, self.profiles[i].data,
                         epochs=self.cfg.epochs, batch=self.cfg.batch, lr=eta,
                         rng=self.client_rng(t, i))

    def evaluate_client(self, profile, train_loss):
        model = self.client_view(profile.id)
        xv, yv = profile.data.val_xy()
        xt, yt = profile.data.test_xy()
        return ClientRow(profile.id, profile.capacity, model.width, train_loss,
                         plain_accuracy(self.layout.arch, model, xv, yv),
                         plain_accuracy(self.layout.arch, model, xt, yt),
                         float("nan"))

    def round_payload(self, selected):
        return sum(a.size for i in selected for a in self.client_view(i).arrays())


class FedAvgMinWidth(DenseMethod):
    """One shared dense model sized for the lowest-capacity client;
    position-wise mean aggregation, no personalization."""

    def __init__(self, profiles, layout, cfg, seed):
        super().__init__(profiles, layout, cfg, seed)
        self.width = min(p.width for p in profiles)
        rng = np.random.default_rng(np.random.SeedSequence((seed, TAG_INIT)))
        self.model = init_plain(layout, self.width, rng)

    def client_view(self, i):
        return self.model

    def aggregate(self, models):
        mixed = mean_arrays([m.arrays() for m in models.values()])
        self.model = PlainModel.from_arrays(mixed, self.width)


def nested_keys(layout: Layout, p) -> list:
    """Slice tuple per tensor (arrays() order) selecting the leading
    p-share of every width axis; the raw input and the class axis stay."""
    p = Fraction(p)
    outs = [slice(0, layout.kept_outputs(idx, p)) for idx in range(len(layout.specs))]
    ins = [slice(0, layout.kept_inputs(idx, p)) for idx in range(len(layout.specs))]
    return ([(o, i) for o, i in zip(outs, ins)] + [(o,) for o in outs]
            + [(slice(None), slice(0, layout.head_in(p))), (slice(None),)])


class PWidthNested(DenseMethod):
    """Nested width slicing of one shared dense model: client i trains
    the leading p_i share of every layer; aggregation averages each
    entry over the clients whose slice covers it."""

    def __init__(self, profiles, layout, cfg, seed):
        super().__init__(profiles, layout, cfg, seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, TAG_INIT)))
        self.model = init_plain(layout, Fraction(1), rng)
        self.keys = {p.id: nested_keys(layout, p.width) for p in profiles}

    def client_view(self, i) -> PlainModel:
        sliced = [np.ascontiguousarray(a[k])
                  for a, k in zip(self.model.arrays(), self.keys[i])]
        return PlainModel.from_arrays(sliced, self.profiles[i].width)

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
            self.models[p.id] = init_plain(layout, p.width, rng)

    def client_view(self, i):
        return self.models[i]

    def aggregate(self, models):
        self.models.update(models)

    def round_payload(self, selected):
        return 0
