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
its factors; a dense model is the M = 1 case with no recovery.
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
    """Layer geometry, computed only here: both model families, the
    hyper-network and accounting read it. `recovery` is the decomposed
    model's factor layout, "padfl" (channel-aware) or "flanc" (input
    slabs); only `decomp` branches on it."""

    arch: CnnArch
    specs: tuple          # decomposed LayerSpec per layer (convs then hidden)
    coefs: tuple          # Coefficients per layer
    out_hw: tuple         # (h, w) of each layer's output before pooling; (1, 1) if linear
    head_in_full: int     # dense feature count entering the head at width 1
    recovery: str = "padfl"

    @property
    def classes(self):
        return self.arch.classes

    def head_in(self, p) -> int:
        """Head input features at width p (leading channels kept)."""
        return int(Fraction(self.head_in_full) * Fraction(p))

    def kept_inputs(self, layer_idx, p) -> int:
        """Input columns layer `layer_idx` keeps at width p: the raw input
        is never pruned, later layers keep what the previous layer emits."""
        if layer_idx == 0:
            return self.specs[0].in_channels
        return int(Fraction(self.specs[layer_idx].in_channels) * Fraction(p))

    def kept_outputs(self, layer_idx, p) -> int:
        return int(Fraction(self.specs[layer_idx].out_channels) * Fraction(p))

    def client_param_count(self, p) -> int:
        """Floats a width-p client holds of the decomposed model: the full
        general factors, its personal factors and biases, the head slice."""
        n = sum(decomp.param_count(spec, coef, self.kept_outputs(i, p), self.kept_inputs(i, p))
                for i, (spec, coef) in enumerate(zip(self.specs, self.coefs)))
        return n + self.classes * self.head_in(p) + self.classes


def build_layout(arch: CnnArch, min_width, recovery="padfl") -> Layout:
    specs, out_hw = [], []
    h, w = arch.height, arch.width
    prev_c = arch.in_channels
    for ch in arch.convs:
        specs.append(decomp.LayerSpec("conv", ch, prev_c, arch.kernel))
        out_hw.append((h, w))
        if h % 2 or w % 2:
            raise ConfigurationError(f"pooling needs even feature maps, got {h}x{w}")
        h, w = h // 2, w // 2
        prev_c = ch
    feat = prev_c * h * w
    for width in arch.hidden:
        specs.append(decomp.LayerSpec("linear", width, feat))
        out_hw.append((1, 1))
        feat = width
    coefs = tuple(decomp.select_coefficients(s, min_width) for s in specs)
    return Layout(arch, tuple(specs), coefs, tuple(out_hw), feat, recovery)


# ---------------------------------------------------------------------------
# parameter containers

@dataclass
class PersonalParams:
    """Personal factors, biases and the personal head at some width."""

    factors: list
    biases: list
    head_w: np.ndarray
    head_b: np.ndarray

    def arrays(self):
        return list(self.factors) + list(self.biases) + [self.head_w, self.head_b]


@dataclass
class HeadParams:
    w: np.ndarray  # (classes, features)
    b: np.ndarray  # (classes,)

    def sliced(self, n_in):
        return HeadParams(np.ascontiguousarray(self.w[:, :n_in]), self.b)


@dataclass
class ClientModel:
    """One client's complete trainable model at its width: the full-size
    general factors shared by every client, its personal factors and
    biases, and the head it infers with (the sliced shared head of a
    received model, or the personal head of a locally trained one).
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


def init_decomposed(layout: Layout, rng):
    """Fresh full-width factors, biases and the dense head."""
    generals, personals, biases = [], [], []
    for spec, coef in zip(layout.specs, layout.coefs):
        general, personal, bias = decomp.init_layer(spec, coef, rng)
        generals.append(general)
        personals.append(personal)
        biases.append(bias)
    bound = 1.0 / np.sqrt(layout.head_in_full)
    head_w = rng.uniform(-bound, bound, size=(layout.classes, layout.head_in_full))
    head_b = rng.uniform(-bound, bound, size=layout.classes)
    return generals, personals, biases, HeadParams(head_w, head_b)


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
    width: Fraction = Fraction(1)

    def arrays(self):
        return list(self.weights) + list(self.biases) + [self.head_w, self.head_b]

    @classmethod
    def from_arrays(cls, template, arrays):
        n = len(template.weights)
        return cls(arrays[:n], arrays[n:2 * n], arrays[-2], arrays[-1], template.width)


def init_plain(layout: Layout, p, rng) -> PlainModel:
    """Fresh dense width-p model, every array uniform in +-1/sqrt(fan-in)."""
    p = Fraction(p)
    weights, biases = [], []
    for idx, spec in enumerate(layout.specs):
        t, s = layout.kept_outputs(idx, p), layout.kept_inputs(idx, p)
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
    (T, S)); returns the (B, features) node."""
    h, n_conv = x_node, len(arch.convs)
    for w, b in zip(weights[:n_conv], biases):
        h = ad.relu(ad.maxpool2x2(ad.conv2d(h, w, pad=arch.kernel // 2, bias=b)))
    h = ad.reshape(h, (x_node.data.shape[0], int(np.prod(h.data.shape[1:]))))
    for w, b in zip(weights[n_conv:], biases[n_conv:]):
        h = ad.relu(ad.add(ad.matmul(h, ad.transpose(w, (1, 0))), b))
    return h


def head_logits_t(x_node, head_w, head_b):
    return ad.add(ad.matmul(x_node, ad.transpose(head_w, (1, 0))), head_b)


def representation_t(layout, u_nodes, v_nodes, b_nodes, x_node, p):
    """Graph forward of the decomposed model up to the head: recover every
    width-p weight from its factors, then `features_t`."""
    weights = []
    for idx, (spec, coef) in enumerate(zip(layout.specs, layout.coefs)):
        out_kept, in_kept = layout.kept_outputs(idx, p), layout.kept_inputs(idx, p)
        w = decomp.recover_padfl_t(u_nodes[idx], v_nodes[idx], spec, coef,
                                   out_kept, in_kept, layout.recovery)
        weights.append(w if spec.kind == "conv" else ad.reshape(w, (out_kept, in_kept)))
    return features_t(layout.arch, weights, b_nodes, x_node)


def plain_logits_t(arch, nodes, x_node):
    """Graph forward of a dense model given leaf nodes in arrays() order."""
    n = (len(nodes) - 2) // 2
    return head_logits_t(features_t(arch, nodes[:n], nodes[n:2 * n], x_node),
                         nodes[-2], nodes[-1])


def stacked_forward(arch: CnnArch, model: PlainModel, x):
    """Plain-array forward (no graph, for evaluation) of a stacked dense
    model holding M models, on one shared batch x (B, C, H, W).

    Returns (M, B, classes) logits; slice j is bit-identical to model j's
    own forward. The first conv shares one im2col of x among the models,
    later convs fold M into the batch, and every product is the per-model
    2-D matmul. The working set is M times one model's.
    """
    h, n_conv = x[None], len(arch.convs)  # a leading axis of 1 is shared by all M models
    for w, b in zip(model.weights[:n_conv], model.biases):
        h = ad.conv2d_infer(h, w, pad=arch.kernel // 2) + b[:, None, :, None, None]
        h = ad.relu_infer(ad.maxpool2x2_infer(h))
    h = h.reshape(h.shape[0], h.shape[1], -1)
    for w, b in zip(model.weights[n_conv:], model.biases[n_conv:]):
        h = ad.relu_infer(np.matmul(h, w.transpose(0, 2, 1)) + b[:, None, :])
    return np.matmul(h, model.head_w.transpose(0, 2, 1)) + model.head_b[:, None, :]


def plain_accuracy(arch, model: PlainModel, x, y) -> float:
    """Accuracy of one dense model: the stacked forward at M = 1."""
    one = PlainModel.from_arrays(model, [a[None] for a in model.arrays()])
    return float((stacked_forward(arch, one, x)[0].argmax(axis=1) == y).mean())


def stacked_logits(layout, model: ClientModel, x):
    """(M, B, classes) logits of a stacked decomposed model (see `combine`):
    every layer recovers all M weights at once, then `stacked_forward`."""
    p = model.width
    weights = []
    for idx, spec in enumerate(layout.specs):
        w = decomp.recover_stacked(model.general[idx], model.factors[idx], layout, idx, p)
        weights.append(w if spec.kind == "conv" else w.reshape(w.shape[:3]))
    dense = PlainModel(weights, model.biases, model.head_w, model.head_b, p)
    return stacked_forward(layout.arch, dense, x)


def infer_logits(layout, model: ClientModel, x):
    """Logits of one client model: the stacked forward at M = 1."""
    one = ClientModel.from_arrays([a[None] for a in model.arrays()], model.width)
    return stacked_logits(layout, one, x)[0]


def accuracy(layout, model: ClientModel, x, y) -> float:
    logits = infer_logits(layout, model, x)
    return float((logits.argmax(axis=1) == y).mean())
