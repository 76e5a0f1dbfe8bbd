"""Server-side hyper-network.

Learnable per-client embeddings are encoded by a shared MLP and mixed by
self-attention; a per-layer linear decoder maps each client's mixture to
that layer's flat personal parameters (factor + channel bias; the last
decoder emits the personal head). In matrix form, with E the (d, n)
encoded embeddings and S = E^T E, decoder l (each decomposed layer, then
the head) computes

    A_l = softmax(S * exp(-log_temp_l))    row-wise, (n, n)
    F_l = D_l (E A_l^T) + b_l              (out_dim_l, n), column i = client i

in one batched pass over all n clients. A width-p client is sent the
positions of F_l that `kept_index` names. The server step regresses F_l
onto the returned parameters: T_l holds each returned client's values at
its kept positions, the 0/1 mask K_l marks them, and the loss is
0.5/|R| * sum_l ||K_l * (F_l - T_l)||^2.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import decomp
from .errors import ConfigurationError, DimensionError, NumericError
from .model import Layout, PersonalParams


@dataclass
class LinearMap:
    w: np.ndarray
    b: np.ndarray


@dataclass
class HyperNetState:
    """The server's trainable state. Decoder l < len(layout.specs) emits
    layer l's flat personal factor and biases; the last decoder emits the
    personal head. `kept_index(layout, l, p)` reads decoder l's output."""

    embeddings: np.ndarray   # (embed_dim, num_clients), one column per client
    encoder: list            # LinearMap stack; empty list = identity encoder
    decoders: list           # LinearMap per decomposed layer, then the head's
    log_temp: np.ndarray     # one log-temperature per decoder


@lru_cache(maxsize=None)
def kept_index(layout: Layout, l, p):
    """(weight, bias) positions in decoder l's flat output that a width-p
    client keeps, each shaped like the array it is sent as.

    Decoder l < len(layout.specs) emits a (rank, a, b) personal factor on
    the full-width grid of `decomp.factor_grid` for `layout.recovery`,
    then the channel biases; a width-p client keeps the leading corner of
    that grid. The last decoder emits the head's (classes, features)
    weight, then its biases. The arrays are cached and read-only.
    """
    p = Fraction(p)
    if l == len(layout.specs):
        n_w = layout.classes * layout.head_in_full
        weight = np.arange(n_w).reshape(layout.classes, -1)[:, :layout.head_in(p)]
        bias = n_w + np.arange(layout.classes)
    else:
        spec, coef = layout.specs[l], layout.coefs[l]
        t_kept, kind, r1 = layout.kept_outputs(l, p), layout.recovery, coef.base_count
        try:
            keep = decomp.factor_grid(kind, r1, t_kept, layout.kept_inputs(l, p))
            full = decomp.factor_grid(kind, r1, spec.out_channels, spec.in_channels)
        except ConfigurationError as exc:
            raise ConfigurationError(f"layer {l} ({spec.kind}, {spec.in_channels} input "
                                     f"channels) at width {p}: {exc}") from None
        n_v = coef.rank * full[0] * full[1]
        weight = np.arange(n_v).reshape(coef.rank, *full)[:, :keep[0], :keep[1]]
        weight = weight.reshape(coef.rank, -1)
        bias = n_v + np.arange(t_kept)
    weight = np.ascontiguousarray(weight)
    weight.flags.writeable = bias.flags.writeable = False
    return weight, bias


def init_hypernet(layout: Layout, num_clients, embed_dim, hidden_dim, depth, rng) -> HyperNetState:
    """Fresh state: embeddings uniform in +-1/sqrt(d); decoder biases are
    seeded with a decomposition-style init so round-0 generated weights
    start at a sensible operating point, with the learned part adding
    per-client variation on top."""
    bound = 1.0 / np.sqrt(embed_dim)
    embeddings = rng.uniform(-bound, bound, size=(embed_dim, num_clients))
    encoder = []
    prev = embed_dim
    for _ in range(depth):
        b = 1.0 / np.sqrt(prev)
        encoder.append(LinearMap(rng.uniform(-b, b, size=(hidden_dim, prev)),
                                 rng.uniform(-b, b, size=hidden_dim)))
        prev = hidden_dim
    decoders = []
    for l in range(len(layout.specs) + 1):
        if l < len(layout.specs):
            spec = layout.specs[l]
            _, personal, _ = decomp.init_layer(spec, layout.coefs[l], rng)
            bias = np.concatenate([personal.ravel(), np.zeros(spec.out_channels)])
        else:  # the head: a fan-in init of its weight, zero biases
            hb = 1.0 / np.sqrt(layout.head_in_full)
            bias = np.concatenate([rng.uniform(-hb, hb, size=layout.classes * layout.head_in_full),
                                   np.zeros(layout.classes)])
        # fan-out bound keeps every decoder column near unit norm, so the
        # regression is well conditioned whatever the output size
        wb = np.sqrt(3.0 / bias.size)
        decoders.append(LinearMap(rng.uniform(-wb, wb, size=(bias.size, prev)), bias))
    return HyperNetState(embeddings, encoder, decoders, np.zeros(len(decoders)))


# ---------------------------------------------------------------------------
# generation

def state_nodes(state: HyperNetState, trainable: bool):
    """Wrap every state array as a graph node; ordered dict of leaves."""
    wrap = ad.leaf if trainable else ad.const
    nodes = {"embeddings": wrap(state.embeddings)}
    for i, lm in enumerate(state.encoder):
        nodes[f"enc_w{i}"] = wrap(lm.w)
        nodes[f"enc_b{i}"] = wrap(lm.b)
    for i, lm in enumerate(state.decoders):
        nodes[f"dec_w{i}"] = wrap(lm.w)
        nodes[f"dec_b{i}"] = wrap(lm.b)
    nodes["log_temp"] = wrap(state.log_temp)
    return nodes


def _encode_t(nodes, depth):
    h = nodes["embeddings"]
    for i in range(depth):
        h = ad.add(ad.matmul(nodes[f"enc_w{i}"], h),
                   ad.reshape(nodes[f"enc_b{i}"], (-1, 1)))
        if i < depth - 1:
            h = ad.relu(h)
    return h


def generation_graph(state: HyperNetState, trainable=False):
    """Every client's full-width decoder outputs, in one batched pass.

    Returns (leaf nodes, [F_l]): one (out_dim_l, num_clients) node per
    decomposed layer, then the head's. The arithmetic does not depend on
    `trainable`, so every call on the same state gives the same bits.
    """
    nodes = state_nodes(state, trainable)
    enc = _encode_t(nodes, len(state.encoder))
    sims = ad.matmul(ad.transpose(enc, (1, 0)), enc)
    inv_temps = ad.exp(ad.neg(nodes["log_temp"]))
    outputs = []
    for l in range(len(state.decoders)):
        attn = ad.softmax(ad.mul_scalar(sims, ad.slice_t(inv_temps, (l,))))
        mixed = ad.matmul(enc, ad.transpose(attn, (1, 0)))
        outputs.append(ad.add(ad.matmul(nodes[f"dec_w{l}"], mixed),
                              ad.reshape(nodes[f"dec_b{l}"], (-1, 1))))
    return nodes, outputs


def personal_params(outputs, client, layout: Layout, width) -> PersonalParams:
    """Cut one client's pruned personal parameters out of the decoder
    output arrays of `generation_graph`."""
    parts = [[out[ix, client] for ix in kept_index(layout, l, width)]
             for l, out in enumerate(outputs)]
    *layers, (head_w, head_b) = parts
    return PersonalParams([w for w, _ in layers], [b for _, b in layers], head_w, head_b)


def generate_personal(state: HyperNetState, client, layout: Layout, width) -> PersonalParams:
    """Decode one client's personal parameters, pruned to its width."""
    _, outputs = generation_graph(state)
    return personal_params([f.data for f in outputs], client, layout, width)


# ---------------------------------------------------------------------------
# training step

def regression_loss(state: HyperNetState, returned, widths, layout: Layout):
    """(trainable leaf nodes, loss node) of the regression of generated
    onto returned personal parameters (pruned shapes, client id -> params):
    0.5/|R| * sum_l ||K_l * (F_l - T_l)||^2, only kept entries counting."""
    nodes, outputs = generation_graph(state, trainable=True)
    targets = [np.zeros(f.data.shape) for f in outputs]
    masks = [np.zeros(f.data.shape) for f in outputs]
    for i, params in returned.items():
        pairs = list(zip(params.factors, params.biases)) + [(params.head_w, params.head_b)]
        if len(pairs) != len(outputs):
            raise DimensionError("returned/generated component count mismatch")
        for l, pair in enumerate(pairs):
            for ix, arr in zip(kept_index(layout, l, widths[i]), pair):
                if arr.shape != ix.shape:
                    raise DimensionError(f"returned shape {arr.shape} vs generated {ix.shape}")
                targets[l][ix, i] = arr
                masks[l][ix, i] = 1.0
    terms = [ad.frobenius_sq(ad.mul(ad.add(f, ad.const(-t)), ad.const(k)))
             for f, t, k in zip(outputs, targets, masks)]
    return nodes, ad.scale(ad.add_n(terms), 0.5 / len(returned))


def hn_step(state: HyperNetState, returned, widths, layout: Layout, lr) -> tuple:
    """One SGD step of the hyper-network on the regression loss.

    `returned` maps client id -> locally trained PersonalParams (pruned
    shapes). Returns (new state, loss value). A zero loss leaves the
    state bit-identical.
    """
    if not returned:
        return state, 0.0
    nodes, loss = regression_loss(state, returned, widths, layout)
    val = float(loss.data)
    if not np.isfinite(val):
        raise NumericError("non-finite hyper-network loss")
    ad.backward(loss)

    def step(arr, node):
        return arr if node.grad is None else arr - lr * node.grad

    new = HyperNetState(
        step(state.embeddings, nodes["embeddings"]),
        [LinearMap(step(m.w, nodes[f"enc_w{i}"]), step(m.b, nodes[f"enc_b{i}"]))
         for i, m in enumerate(state.encoder)],
        [LinearMap(step(m.w, nodes[f"dec_w{i}"]), step(m.b, nodes[f"dec_b{i}"]))
         for i, m in enumerate(state.decoders)],
        step(state.log_temp, nodes["log_temp"]),
    )
    return new, val
