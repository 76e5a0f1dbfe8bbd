"""Small CNN/MLP models in decomposed and dense form.

The network is a stack of conv blocks, a flatten, optional hidden
linear layers, and a classification head. Every conv block is the same:
a stride-1 k x k conv (k odd) padded by k // 2 to keep the map size,
then a bias, a 2x2 max pool and a ReLU. Every layer but the head is
decomposable; the head is dense and comes in two flavors per client:
the frozen shared head and a personal one.

Width-p submodels keep the leading p*T output channels of every layer,
so the flatten stays contiguous and the head only needs its leading
input columns.

Both families share one graph forward (`features_t`, for training) and
one plain-array forward (`stacked_forward`, for evaluation) per
architecture. A decomposed model first recovers its dense weights from
its factors: `decomp.recover_padfl_t` in the graph, `decomp.recover_padfl`
for a stack of M models. `accuracy` and `plain_accuracy` run one model
as the M = 1 case.

One container per family, `ClientModel` (decomposed) and `PlainModel`
(dense), is what the server sends, the client trains and returns, and
the server keeps. Both flatten with `arrays()` and rebuild with
`from_arrays(arrays, width)`; training wraps the arrays as graph nodes
in the same container, which is what the graph forwards take.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import autodiff as ad
from . import decomp
from .errors import ConfigurationError


@dataclass(frozen=True)
class CnnArch:
    in_channels: int
    height: int
    width: int
    convs: tuple = ()   # output channels of each conv block
    kernel: int = 3     # every conv's (odd) kernel size
    hidden: tuple = ()  # linear widths between flatten and head
    classes: int = 2


@dataclass(frozen=True)
class Layout:
    """Layer geometry, computed only by `build_layout`: one
    `decomp.LayerSpec` per decomposed layer, which both model families,
    the hyper-network and accounting read, and the head's input size.
    `recovery` is the decomposed model's factor layout, "padfl"
    (channel-aware) or "flanc" (input slabs); only `decomp` branches on it."""

    arch: CnnArch
    specs: tuple          # decomposed LayerSpec per layer (convs then hidden)
    head_in_full: int     # dense feature count entering the head at width 1
    recovery: str = "padfl"

    @property
    def classes(self):
        return self.arch.classes

    def head_in(self, p) -> int:
        """Head input features at width p (leading channels kept)."""
        return int(Fraction(self.head_in_full) * Fraction(p))

    def client_param_count(self, p) -> int:
        """Floats a width-p client holds of the decomposed model: the full
        general factors, its personal factors and biases, the head slice."""
        n = sum(decomp.param_count(spec, *spec.kept(p)) for spec in self.specs)
        return n + self.classes * self.head_in(p) + self.classes


def build_layout(arch: CnnArch, min_width, recovery="padfl") -> Layout:
    """The one place layer records are made. base_count = T * min_width,
    so every width on the grid keeps a whole number of personal blocks;
    rank = max(min(S, T), k^2) for conv keeps the general blocks
    expressive without inflating the linear case, where rank = base_count.
    Only the first layer reads the raw input."""
    mw, specs = Fraction(min_width), []

    def add(kind, t, s, k=1, hw=(1, 1)):
        r1 = Fraction(t) * mw
        if r1.denominator != 1:  # T <= 0 is left to LayerSpec's dimension check
            raise ConfigurationError(
                f"out_channels {t} * min_width {mw} is not a positive integer")
        rank = max(min(s, t), k ** 2) if kind == "conv" else int(r1)
        specs.append(decomp.LayerSpec(kind, t, s, k, int(r1), rank, hw, raw_input=not specs))

    h, w, prev_c = arch.height, arch.width, arch.in_channels
    for ch in arch.convs:
        add("conv", ch, prev_c, arch.kernel, (h, w))
        if h % 2 or w % 2:
            raise ConfigurationError(f"pooling needs even feature maps, got {h}x{w}")
        h, w, prev_c = h // 2, w // 2, ch
    feat = prev_c * h * w
    for width in arch.hidden:
        add("linear", width, feat)
        feat = width
    return Layout(arch, tuple(specs), feat, recovery)


# ---------------------------------------------------------------------------
# parameter containers

@dataclass
class LinearMap:
    """One (w, b) pair: a dense head, or a hyper-network layer."""

    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)

    def sliced(self, n_in):
        return LinearMap(np.ascontiguousarray(self.w[:, :n_in]), self.b)


@dataclass
class ClientModel:
    """One client's complete trainable model at its width: the full-size
    general factors shared by every client, its personal factors and
    biases, and the head it infers with (its personal head, or the sliced
    shared head of the received model that evaluation mixes). The
    hyper-network generates the personal part alone, with `general == []`.
    `combine` makes stacked models, whose every array carries a leading
    axis of mixes."""

    general: list   # np arrays, one per decomposed layer
    factors: list
    biases: list
    head_w: np.ndarray
    head_b: np.ndarray
    width: Fraction

    def arrays(self):
        return [*self.general, *self.factors, *self.biases, self.head_w, self.head_b]

    @classmethod
    def from_arrays(cls, arrays, width):
        """Inverse of arrays(): n general factors, n personal factors, n
        biases, then the head (w, b)."""
        n = (len(arrays) - 2) // 3
        return cls(arrays[:n], arrays[n:2 * n], arrays[2 * n:3 * n], arrays[-2], arrays[-1],
                   width)

    def at(self, j):
        """Mix j of a stacked model."""
        return ClientModel.from_arrays([a[j] for a in self.arrays()], self.width)


def combine(model_a: ClientModel, model_b: ClientModel, alphas) -> ClientModel:
    """Every mix (1-alpha)*a + alpha*b at once, as one stacked model whose
    arrays gain a leading axis with one entry per alpha; shapes must match.
    Each slice is the same IEEE arithmetic as the scalar mix."""
    alphas = np.asarray(alphas, dtype=np.float64)
    mixed = []
    for x, y in zip(model_a.arrays(), model_b.arrays()):
        a = alphas.reshape((-1,) + (1,) * x.ndim)
        mixed.append((1.0 - a) * x + a * y)
    return ClientModel.from_arrays(mixed, model_a.width)


def init_decomposed(layout: Layout, rng) -> ClientModel:
    """Fresh full-width model: factors and biases per layer, the dense head."""
    layers = [decomp.init_layer(spec, rng) for spec in layout.specs]
    general, personal, biases = ([layer[j] for layer in layers] for j in range(3))
    bound = 1.0 / np.sqrt(layout.head_in_full)
    head_w = rng.uniform(-bound, bound, size=(layout.classes, layout.head_in_full))
    head_b = rng.uniform(-bound, bound, size=layout.classes)
    return ClientModel(general, personal, biases, head_w, head_b, Fraction(1))


# ---------------------------------------------------------------------------
# dense models: the baselines' model, and the decomposed model once recovered

@dataclass
class PlainModel:
    """Dense width-p model: one weight and one bias per layer (conv weights
    (T, S, k, k), then linear weights (T, S)), then the head. A stacked
    model gives every array a leading axis with one entry per model."""

    weights: list
    biases: list
    head_w: np.ndarray
    head_b: np.ndarray
    width: Fraction

    def arrays(self):
        return [*self.weights, *self.biases, self.head_w, self.head_b]

    @classmethod
    def from_arrays(cls, arrays, width):
        """Inverse of arrays(): n weights, n biases, then the head (w, b)."""
        n = (len(arrays) - 2) // 2
        return cls(arrays[:n], arrays[n:2 * n], arrays[-2], arrays[-1], width)


def init_plain(layout: Layout, p, rng) -> PlainModel:
    """Fresh dense width-p model, every array uniform in +-1/sqrt(fan-in)."""
    p = Fraction(p)
    weights, biases = [], []
    for spec in layout.specs:
        t, s = spec.kept(p)
        bound = 1.0 / np.sqrt(s * spec.kernel ** 2)
        shape = (t, s, spec.kernel, spec.kernel) if spec.kind == "conv" else (t, s)
        weights.append(rng.uniform(-bound, bound, size=shape))
        biases.append(rng.uniform(-bound, bound, size=t))
    feat = layout.head_in(p)
    bound = 1.0 / np.sqrt(feat)
    head_w = rng.uniform(-bound, bound, size=(layout.classes, feat))
    head_b = rng.uniform(-bound, bound, size=layout.classes)
    return PlainModel(weights, biases, head_w, head_b, p)


# ---------------------------------------------------------------------------
# forward passes: one graph forward and one plain-array forward

def features_t(arch: CnnArch, weights, biases, x_node):
    """Graph forward up to (but not including) the head, over one weight
    and one bias node per layer (conv weights (T, S, k, k), linear weights
    (T, S)); takes (B, C, H, W) and returns the (B, features) node. The
    conv blocks run channel-first, (C, B, H, W): one transpose in (free
    for one input channel), one before the flatten."""
    h, n_conv = ad.transpose(x_node, (1, 0, 2, 3)), len(arch.convs)
    for w, b in zip(weights[:n_conv], biases):
        h = ad.relu(ad.maxpool2x2(ad.conv2d(h, w, pad=arch.kernel // 2, bias=b)))
    h = ad.reshape(ad.transpose(h, (1, 0, 2, 3)), (x_node.data.shape[0], -1))
    for w, b in zip(weights[n_conv:], biases[n_conv:]):
        h = ad.relu(ad.add(ad.matmul(h, ad.transpose(w, (1, 0))), b))
    return h


def head_logits_t(x_node, head_w, head_b):
    return ad.add(ad.matmul(x_node, ad.transpose(head_w, (1, 0))), head_b)


def representation_t(layout, model: ClientModel, x_node):
    """Graph forward of a decomposed model of nodes up to the head: recover
    every weight at the model's width from its factors, then `features_t`."""
    weights = []
    for spec, general, factor in zip(layout.specs, model.general, model.factors):
        out_kept, in_kept = spec.kept(model.width)
        w = decomp.recover_padfl_t(general, factor, spec, out_kept, in_kept, layout.recovery)
        weights.append(w if spec.kind == "conv" else ad.reshape(w, (out_kept, in_kept)))
    return features_t(layout.arch, weights, model.biases, x_node)


def plain_logits_t(arch, model: PlainModel, x_node):
    """Graph forward of a dense model of nodes."""
    return head_logits_t(features_t(arch, model.weights, model.biases, x_node),
                         model.head_w, model.head_b)


def stacked_forward(arch: CnnArch, model: PlainModel, x):
    """Plain-array forward (no graph, for evaluation) of a stacked dense
    model holding M models, on one shared batch x (B, C, H, W).

    Returns (M, B, classes) logits; slice j is bit-identical to model j's
    own forward. The conv blocks run channel-first, (M, C, B, H, W), with
    one transpose in (free for one input channel) and one before the
    flatten. The first conv shares one im2col of x among the models, and
    every product is the per-model 2-D matmul. The working set is M times
    one model's.
    """
    h, n_conv = x.transpose(1, 0, 2, 3)[None], len(arch.convs)  # shared by all M models
    for w, b in zip(model.weights[:n_conv], model.biases):
        h = ad.conv2d_infer(h, w, pad=arch.kernel // 2) + b[:, :, None, None, None]
        h = ad.relu_infer(ad.maxpool2x2_infer(h))
    h = h.transpose(0, 2, 1, 3, 4).reshape(h.shape[0], h.shape[2], -1)
    for w, b in zip(model.weights[n_conv:], model.biases[n_conv:]):
        h = ad.relu_infer(np.matmul(h, w.transpose(0, 2, 1)) + b[:, None, :])
    return np.matmul(h, model.head_w.transpose(0, 2, 1)) + model.head_b[:, None, :]


def plain_accuracy(arch, model: PlainModel, x, y) -> float:
    """Accuracy of one dense model: the stacked forward at M = 1."""
    one = PlainModel.from_arrays([a[None] for a in model.arrays()], model.width)
    return float((stacked_forward(arch, one, x)[0].argmax(axis=1) == y).mean())


def stacked_logits(layout, model: ClientModel, x):
    """(M, B, classes) logits of a stacked decomposed model (see `combine`):
    every layer recovers all M weights at once, then `stacked_forward`."""
    weights = []
    for spec, general, factor in zip(layout.specs, model.general, model.factors):
        w = decomp.recover_padfl(general, factor, spec, *spec.kept(model.width), layout.recovery)
        weights.append(w if spec.kind == "conv" else w.reshape(w.shape[:3]))
    dense = PlainModel(weights, model.biases, model.head_w, model.head_b, model.width)
    return stacked_forward(layout.arch, dense, x)


def accuracy(layout, model: ClientModel, x, y) -> float:
    """Accuracy of one client model: the stacked forward at M = 1."""
    one = ClientModel.from_arrays([a[None] for a in model.arrays()], model.width)
    return float((stacked_logits(layout, one, x)[0].argmax(axis=1) == y).mean())
