"""Small CNN/MLP models in decomposed and dense form.

The network is a stack of conv blocks (conv -> bias -> pool -> relu),
a flatten, optional hidden linear layers, and a classification head.
Every layer but the head is decomposable; the head is dense and comes
in two flavors per client: the frozen shared head and a personal one.

Width-p submodels keep the leading p*T output channels of every layer,
so the flatten stays contiguous and the head only needs its leading
input columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import autodiff as ad
from . import decomp
from .errors import ConfigurationError


@dataclass(frozen=True)
class ConvBlock:
    channels: int
    kernel: int = 5
    stride: int = 1
    pad: int = 2
    pool: bool = True


@dataclass(frozen=True)
class CnnArch:
    in_channels: int
    height: int
    width: int
    convs: tuple = ()
    hidden: tuple = ()  # linear widths between flatten and head
    classes: int = 2


@dataclass(frozen=True)
class Layout:
    """Geometry shared by the protocol, the hyper-network and accounting."""

    arch: CnnArch
    specs: tuple          # decomposed LayerSpec per layer (convs then hidden)
    coefs: tuple          # Coefficients per layer
    conv_out_hw: tuple    # (h, w) after each conv block
    head_in_full: int     # dense feature count entering the head at width 1
    min_width: Fraction

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


def build_layout(arch: CnnArch, min_width) -> Layout:
    mw = Fraction(min_width)
    specs = []
    hw = (arch.height, arch.width)
    conv_hw = []
    prev_c = arch.in_channels
    for cb in arch.convs:
        specs.append(decomp.LayerSpec("conv", cb.channels, prev_c, cb.kernel, cb.stride, cb.pad))
        h = (hw[0] + 2 * cb.pad - cb.kernel) // cb.stride + 1
        w = (hw[1] + 2 * cb.pad - cb.kernel) // cb.stride + 1
        if cb.pool:
            if h % 2 or w % 2:
                raise ConfigurationError(f"pooling needs even feature maps, got {h}x{w}")
            h, w = h // 2, w // 2
        hw = (h, w)
        conv_hw.append(hw)
        prev_c = cb.channels
    feat = prev_c * hw[0] * hw[1] if arch.convs else arch.in_channels * arch.height * arch.width
    for width in arch.hidden:
        specs.append(decomp.LayerSpec("linear", width, feat))
        feat = width
    coefs = tuple(decomp.select_coefficients(s, mw) for s in specs)
    return Layout(arch, tuple(specs), coefs, tuple(conv_hw), feat, mw)


# ---------------------------------------------------------------------------
# parameter containers

@dataclass
class GeneralParams:
    """Full-size general factors, identical shape for every client."""

    factors: list  # np arrays, one per decomposed layer

    def copy(self):
        return GeneralParams([f.copy() for f in self.factors])

    def arrays(self):
        return list(self.factors)


@dataclass
class PersonalParams:
    """Personal factors, biases and the personal head at some width."""

    factors: list
    biases: list
    head_w: np.ndarray
    head_b: np.ndarray

    def copy(self):
        return PersonalParams([f.copy() for f in self.factors],
                              [b.copy() for b in self.biases],
                              self.head_w.copy(), self.head_b.copy())

    def arrays(self):
        return list(self.factors) + list(self.biases) + [self.head_w, self.head_b]


@dataclass
class HeadParams:
    w: np.ndarray  # (classes, features)
    b: np.ndarray  # (classes,)

    def copy(self):
        return HeadParams(self.w.copy(), self.b.copy())

    def sliced(self, n_in):
        return HeadParams(np.ascontiguousarray(self.w[:, :n_in]), self.b)


@dataclass
class ClientModel:
    """One client's complete trainable model at its width. `combine` makes
    stacked models, whose every array carries a leading axis of mixes."""

    general: GeneralParams
    personal: PersonalParams
    head: HeadParams  # the head used for inference (global or personal)
    width: Fraction

    def arrays(self):
        return self.general.arrays() + self.personal.arrays() + [self.head.w, self.head.b]

    @classmethod
    def from_arrays(cls, arrays, width):
        """Inverse of arrays(): n general factors, n personal factors, n
        biases, then the personal and the inference head (w, b each)."""
        n = (len(arrays) - 4) // 3
        return cls(GeneralParams(arrays[:n]),
                   PersonalParams(arrays[n:2 * n], arrays[2 * n:3 * n],
                                  arrays[3 * n], arrays[3 * n + 1]),
                   HeadParams(arrays[-2], arrays[-1]), width)

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
        layer = decomp.init_layer(spec, coef, rng)
        generals.append(layer.general)
        personals.append(layer.personal)
        biases.append(layer.bias)
    bound = 1.0 / np.sqrt(layout.head_in_full)
    head_w = rng.uniform(-bound, bound, size=(layout.classes, layout.head_in_full))
    head_b = rng.uniform(-bound, bound, size=layout.classes)
    return GeneralParams(generals), personals, biases, HeadParams(head_w, head_b)


# ---------------------------------------------------------------------------
# forward passes (graph and plain-array)

def _recover_nodes(layout, u_nodes, v_nodes, p, recovery):
    weights = []
    for idx, (spec, coef) in enumerate(zip(layout.specs, layout.coefs)):
        out_kept = layout.kept_outputs(idx, p)
        in_kept = layout.kept_inputs(idx, p)
        if recovery == "padfl":
            w = decomp.recover_padfl_t(u_nodes[idx], v_nodes[idx], spec, coef,
                                       out_kept=out_kept, in_kept=in_kept)
        else:
            w = decomp.recover_flanc_t(u_nodes[idx], v_nodes[idx], spec,
                                       out_kept=out_kept, in_kept=in_kept)
        weights.append(w)
    return weights


def representation_t(layout, u_nodes, v_nodes, b_nodes, x_node, p, recovery="padfl"):
    """Graph forward up to (but not including) the head: (B, feat) node."""
    arch = layout.arch
    weights = _recover_nodes(layout, u_nodes, v_nodes, p, recovery)
    h = x_node
    idx = 0
    for cb in arch.convs:
        h = ad.conv2d(h, weights[idx], stride=cb.stride, pad=cb.pad, bias=b_nodes[idx])
        if cb.pool:
            h = ad.maxpool2x2(h)
        h = ad.relu(h)
        idx += 1
    bsz = x_node.data.shape[0]
    h = ad.reshape(h, (bsz, int(np.prod(h.data.shape[1:]))))
    for _ in arch.hidden:
        w2 = ad.reshape(weights[idx], weights[idx].data.shape[:2])
        h = ad.relu(ad.add(ad.matmul(h, ad.transpose(w2, (1, 0))), b_nodes[idx]))
        idx += 1
    return h


def head_logits_t(x_node, head_w, head_b):
    return ad.add(ad.matmul(x_node, ad.transpose(head_w, (1, 0))), head_b)


def stacked_logits(layout, model: ClientModel, x, recovery="padfl"):
    """Plain-array forward (no graph, for evaluation) of a stacked model
    (see `combine`) holding M mixes, on one shared batch x (B, C, H, W).

    Returns (M, B, classes) logits; slice j is bit-identical to mix j's
    own forward. Every layer recovers all M weights at once; the first
    conv shares one im2col of x among the mixes, later convs fold M into
    the batch, and every product is the per-mix 2-D matmul. The working
    set is M times one model's.
    """
    p = model.width
    h = x[None]  # a leading axis of 1 is shared by all M mixes
    for idx, spec in enumerate(layout.specs):
        w = decomp.recover_stacked(model.general.factors[idx], model.personal.factors[idx],
                                   spec, layout.kept_outputs(idx, p),
                                   layout.kept_inputs(idx, p), recovery)
        b = model.personal.biases[idx]
        if spec.kind == "conv":
            cb = layout.arch.convs[idx]
            h = ad.conv2d_infer(h, w, stride=cb.stride, pad=cb.pad) + b[:, None, :, None, None]
            if cb.pool:
                h = ad.maxpool2x2_infer(h)
        else:
            h = np.matmul(h.reshape(h.shape[0], h.shape[1], -1),
                          w[:, :, :, 0, 0].transpose(0, 2, 1)) + b[:, None, :]
        h = ad.relu_infer(h)
    h = h.reshape(h.shape[0], h.shape[1], -1)
    return np.matmul(h, model.head.w.transpose(0, 2, 1)) + model.head.b[:, None, :]


def infer_logits(layout, model: ClientModel, x, recovery="padfl"):
    """Logits of one client model: the stacked forward at M = 1."""
    one = ClientModel.from_arrays([a[None] for a in model.arrays()], model.width)
    return stacked_logits(layout, one, x, recovery)[0]


def accuracy(layout, model: ClientModel, x, y, recovery="padfl") -> float:
    logits = infer_logits(layout, model, x, recovery)
    return float((logits.argmax(axis=1) == y).mean())


# ---------------------------------------------------------------------------
# dense (non-decomposed) models for the baselines

@dataclass
class PlainModel:
    """Dense width-p model: conv (w, b) pairs, hidden pairs, head pair."""

    conv_w: list
    conv_b: list
    fc_w: list
    fc_b: list
    head_w: np.ndarray
    head_b: np.ndarray
    width: Fraction = Fraction(1)

    def arrays(self):
        return (list(self.conv_w) + list(self.conv_b) + list(self.fc_w)
                + list(self.fc_b) + [self.head_w, self.head_b])

    def copy(self):
        return PlainModel([w.copy() for w in self.conv_w], [b.copy() for b in self.conv_b],
                          [w.copy() for w in self.fc_w], [b.copy() for b in self.fc_b],
                          self.head_w.copy(), self.head_b.copy(), self.width)

    @classmethod
    def from_arrays(cls, template, arrays):
        n, m = len(template.conv_w), len(template.fc_w)
        return cls(arrays[:n], arrays[n:2 * n], arrays[2 * n:2 * n + m],
                   arrays[2 * n + m:2 * n + 2 * m], arrays[-2], arrays[-1], template.width)


def init_plain(arch: CnnArch, p, rng) -> PlainModel:
    p = Fraction(p)
    conv_w, conv_b = [], []
    prev_c = arch.in_channels
    hw = (arch.height, arch.width)
    for i, cb in enumerate(arch.convs):
        t = int(cb.channels * p)
        s = prev_c
        bound = 1.0 / np.sqrt(s * cb.kernel ** 2)
        conv_w.append(rng.uniform(-bound, bound, size=(t, s, cb.kernel, cb.kernel)))
        conv_b.append(rng.uniform(-bound, bound, size=t))
        h = (hw[0] + 2 * cb.pad - cb.kernel) // cb.stride + 1
        w = (hw[1] + 2 * cb.pad - cb.kernel) // cb.stride + 1
        if cb.pool:
            h, w = h // 2, w // 2
        hw = (h, w)
        prev_c = t
    feat = prev_c * hw[0] * hw[1] if arch.convs else arch.in_channels * arch.height * arch.width
    fc_w, fc_b = [], []
    for width in arch.hidden:
        t = int(width * p)
        bound = 1.0 / np.sqrt(feat)
        fc_w.append(rng.uniform(-bound, bound, size=(t, feat)))
        fc_b.append(rng.uniform(-bound, bound, size=t))
        feat = t
    bound = 1.0 / np.sqrt(feat)
    head_w = rng.uniform(-bound, bound, size=(arch.classes, feat))
    head_b = rng.uniform(-bound, bound, size=arch.classes)
    return PlainModel(conv_w, conv_b, fc_w, fc_b, head_w, head_b, p)


def plain_logits_t(arch, model_nodes, x_node):
    """Graph forward of a dense model given leaf nodes in arrays() order."""
    conv_w, conv_b, fc_w, fc_b, head_w, head_b = model_nodes
    h = x_node
    for i, cb in enumerate(arch.convs):
        h = ad.conv2d(h, conv_w[i], stride=cb.stride, pad=cb.pad, bias=conv_b[i])
        if cb.pool:
            h = ad.maxpool2x2(h)
        h = ad.relu(h)
    bsz = x_node.data.shape[0]
    h = ad.reshape(h, (bsz, int(np.prod(h.data.shape[1:]))))
    for i in range(len(fc_w)):
        h = ad.relu(ad.add(ad.matmul(h, ad.transpose(fc_w[i], (1, 0))), fc_b[i]))
    return ad.add(ad.matmul(h, ad.transpose(head_w, (1, 0))), head_b)


def plain_infer(arch, model: PlainModel, x):
    h = x
    for i, cb in enumerate(arch.convs):
        h = ad.conv2d_infer(h, model.conv_w[i], stride=cb.stride, pad=cb.pad)
        h = h + model.conv_b[i].reshape(1, -1, 1, 1)
        if cb.pool:
            h = ad.maxpool2x2_infer(h)
        h = ad.relu_infer(h)
    h = h.reshape(h.shape[0], -1)
    for i in range(len(model.fc_w)):
        h = ad.relu_infer(h @ model.fc_w[i].T + model.fc_b[i])
    return h @ model.head_w.T + model.head_b


def plain_accuracy(arch, model: PlainModel, x, y) -> float:
    return float((plain_infer(arch, model, x).argmax(axis=1) == y).mean())
