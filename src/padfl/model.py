"""Small CNN/MLP models in decomposed and dense form.

The network is a stack of conv blocks, a flatten, optional hidden
linear layers, and a classification head. Every conv block is the same:
a stride-1 k x k conv (k odd) padded by k // 2 to keep the map size,
then a bias, a 2x2 max pool and a ReLU. Every layer but the head is
decomposable; the head is dense. `Layout`, made only by `build_layout`,
is the one description of the network that the forwards, initializers,
hyper-network and methods read.

Width-p submodels keep the leading p*T output channels of every layer,
so the flatten stays contiguous and the head only needs its leading
input columns.

Both families share one graph forward (`representation_t`, for
training, over dense weight nodes) and one plain-array forward
(`stacked_forward`, for evaluation). A decomposed model first recovers
its dense weights from its factors at its width, `(spec, p)`:
`decomp.recover_padfl_t` in the graph (`protocol.local_update`),
`decomp.recover_padfl` for a stack of M models (`stacked_dense`).
`accuracy` and `plain_accuracy` run one model as the M = 1 case. Both
take and return batch-first arrays and carry the conv activations
batch-last, (C, H, W, B), in between.

One container per family, `ClientModel` (decomposed) and `PlainModel`
(dense), is what the server sends, the client trains and returns, and
the server keeps. Both flatten with `arrays()` and rebuild with
`from_arrays(arrays, width)`; training wraps the arrays as graph nodes
in the same container, which is what the training losses take.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from . import autodiff as ad
from . import decomp
from .errors import ConfigurationError


@dataclass(frozen=True)
class Layout:
    """The network, computed only by `build_layout`, which both model
    families, the hyper-network and accounting read. Each `LayerSpec`
    carries the decomposed model's factor layout; only `decomp` reads it."""

    specs: tuple          # decomposed LayerSpec per layer (convs then hidden)
    head_in_full: int     # dense feature count entering the head at width 1
    classes: int

    @cache
    def head_in(self, p) -> int:
        """Head input features at width p (leading channels kept)."""
        return int(Fraction(self.head_in_full) * Fraction(p))

    def client_param_count(self, p) -> int:
        """Floats a width-p client holds of the decomposed model: the full
        general factors, its personal factors and biases, the head slice."""
        n = sum(decomp.param_count(spec, p) for spec in self.specs)
        return n + self.classes * self.head_in(p) + self.classes


def build_layout(in_shape, classes, min_width, convs=(), kernel=3, hidden=()) -> Layout:
    """The one place layer records are made, for (C, H, W) inputs: a k x k
    conv block per entry of `convs` (its output channels), then a linear
    layer per entry of `hidden`.
    `validate` has checked that n divides every T at min_width = 1/n, so
    base_count = T / n and every width m/n keeps m whole personal blocks;
    rank = max(min(S, T), k^2) for conv keeps the general blocks
    expressive without inflating the linear case, where rank = base_count.
    Only the first layer reads the raw input."""
    n, specs = Fraction(min_width).denominator, []

    def add(kind, t, s, k=1, hw=(1, 1)):
        rank = max(min(s, t), k ** 2) if kind == "conv" else t // n
        specs.append(decomp.LayerSpec(kind, t, s, k, t // n, rank, hw, not specs))

    prev_c, h, w = in_shape
    for ch in convs:
        add("conv", ch, prev_c, kernel, (h, w))
        if h % 2 or w % 2:
            raise ConfigurationError(f"pooling needs even feature maps, got {h}x{w}")
        h, w, prev_c = h // 2, w // 2, ch
    feat = prev_c * h * w
    for width in hidden:
        add("linear", width, feat)
        feat = width
    return Layout(tuple(specs), feat, classes)


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


def combine(model_a: ClientModel, model_b: ClientModel, alphas) -> ClientModel:
    """Every mix (1-alpha)*a + alpha*b at once, as one stacked model whose
    arrays gain a leading axis with one entry per alpha; shapes must match.
    The alphas are taken in the models' dtype, so the mixes keep it. Each
    slice is the same IEEE arithmetic as the scalar mix."""
    alphas = np.asarray(alphas, dtype=model_a.head_w.dtype)
    mixed = []
    for x, y in zip(model_a.arrays(), model_b.arrays()):
        a = alphas.reshape((-1,) + (1,) * x.ndim)
        mixed.append((1.0 - a) * x + a * y)
    return ClientModel.from_arrays(mixed, model_a.width)


def init_head(layout: Layout, p, rng) -> LinearMap:
    """Fresh dense head of a width-p model, uniform in +-1/sqrt(fan-in)."""
    feat = layout.head_in(p)
    bound = 1.0 / np.sqrt(feat)
    return LinearMap(rng.uniform(-bound, bound, size=(layout.classes, feat)),
                     rng.uniform(-bound, bound, size=layout.classes))


# ---------------------------------------------------------------------------
# dense models: the baselines' model, and the decomposed model once recovered

@dataclass
class PlainModel:
    """Dense width-p model: one weight and one bias per layer (each weight
    shaped `LayerSpec.weight_shape(p)`: conv layers first, then linear),
    then the head. A stacked model gives every array a leading axis with
    one entry per model."""

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
        weights.append(rng.uniform(-bound, bound, size=spec.weight_shape(p)))
        biases.append(rng.uniform(-bound, bound, size=t))
    head = init_head(layout, p, rng)
    return PlainModel(weights, biases, head.w, head.b, p)


# ---------------------------------------------------------------------------
# forward passes: one graph forward and one plain-array forward

def representation_t(layout: Layout, weights, biases, x_node):
    """Graph forward up to (but not including) the head, over one weight
    and one bias node per layer of `layout.specs` (conv weights
    (T, S, k, k), linear weights (T, S)); takes (B, C, H, W) and returns
    the (B, features) node. The conv blocks run batch-last, (C, H, W, B):
    one transpose in and one before the flatten."""
    h = ad.transpose(x_node, (1, 2, 3, 0))
    convs = [s for s in layout.specs if s.kind == "conv"]
    for spec, w, b in zip(convs, weights, biases):
        h = ad.relu(ad.maxpool2x2(ad.conv2d(h, w, pad=spec.kernel // 2, bias=b)))
    h = ad.reshape(ad.transpose(h, (3, 0, 1, 2)), (x_node.data.shape[0], -1))
    for w, b in zip(weights[len(convs):], biases[len(convs):]):
        h = ad.relu(ad.add(ad.matmul(h, ad.transpose(w, (1, 0))), b))
    return h


def head_logits_t(x_node, head_w, head_b):
    return ad.add(ad.matmul(x_node, ad.transpose(head_w, (1, 0))), head_b)


def plain_logits_t(layout, model: PlainModel, x_node):
    """Graph forward of a dense model of nodes."""
    return head_logits_t(representation_t(layout, model.weights, model.biases, x_node),
                         model.head_w, model.head_b)


def stacked_forward(layout: Layout, model: PlainModel, x):
    """Plain-array forward (no graph, for evaluation) of a stacked dense
    model holding M models, on one shared batch x (B, C, H, W).

    Returns (M, B, classes) logits; slice j is bit-identical to model j's
    own forward. The conv blocks run batch-last, (M, C, H, W, B), with
    one transpose in and one contiguous copy before the flatten: on a
    strided view np.matmul leaves BLAS and the logits drift from the graph
    forward's. The first conv shares one im2col of x among the models,
    and every product is the per-model 2-D matmul. The working set is M
    times one model's.
    """
    h = x.transpose(1, 2, 3, 0)[None]  # shared by all M models
    convs = [s for s in layout.specs if s.kind == "conv"]
    for spec, w, b in zip(convs, model.weights, model.biases):
        h = ad.conv2d_infer(h, w, pad=spec.kernel // 2) + b[:, :, None, None, None]
        h = ad.relu_infer(ad.maxpool2x2_infer(h))
    h = np.ascontiguousarray(h.transpose(0, 4, 1, 2, 3)).reshape(h.shape[0], h.shape[-1], -1)
    for w, b in zip(model.weights[len(convs):], model.biases[len(convs):]):
        h = ad.relu_infer(np.matmul(h, w.transpose(0, 2, 1)) + b[:, None, :])
    return np.matmul(h, model.head_w.transpose(0, 2, 1)) + model.head_b[:, None, :]


def plain_accuracy(layout, model: PlainModel, x, y) -> float:
    """Accuracy of one dense model: the stacked forward at M = 1."""
    one = PlainModel.from_arrays([a[None] for a in model.arrays()], model.width)
    return float((stacked_forward(layout, one, x)[0].argmax(axis=1) == y).mean())


def stacked_dense(layout, model: ClientModel) -> PlainModel:
    """The stacked dense model of a stacked decomposed model (see
    `combine`): every layer recovers all M weights at once."""
    weights = [decomp.recover_padfl(general, factor, spec, model.width)
               for spec, general, factor in zip(layout.specs, model.general, model.factors)]
    return PlainModel(weights, model.biases, model.head_w, model.head_b, model.width)


def accuracy(layout, model: ClientModel, x, y) -> float:
    """Accuracy of one client model: recovered, then the stacked forward at M = 1."""
    one = stacked_dense(layout, ClientModel.from_arrays([a[None] for a in model.arrays()],
                                                        model.width))
    return float((stacked_forward(layout, one, x)[0].argmax(axis=1) == y).mean())
