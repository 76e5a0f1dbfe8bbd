"""Server-side hyper-network.

Learnable per-client embeddings are encoded by a shared MLP and mixed by
self-attention; a per-layer linear decoder maps each client's mixture to
that layer's flat personal parameters (factor + channel bias; the last
decoder emits the personal head). In matrix form, with E the (d, n)
encoded embeddings and S = E^T E, decoder l (each decomposed layer, then
the head) computes

    A_l = softmax(S * exp(-log_temp_l))    row-wise, (n, n)
    F_l = D_l (E A_l^T) + b_l              (out_dim_l, n), column i = client i

in one batched pass over all n clients (`generation_graph`). A width-p
client is sent the positions of F_l that `kept_index` names, which
`generate_personal` cuts out of the arrays. The server step regresses F_l
onto the returned parameters: T_l holds each returned client's values at
its kept positions, the 0/1 mask K_l marks them, and the loss is
0.5/|R| * sum_l ||K_l * (F_l - T_l)||^2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import decomp
from .errors import DimensionError, NumericError
from .model import ClientModel, Layout, LinearMap


@dataclass
class HyperNetState:
    """The server's trainable state, of arrays or of graph nodes. Decoder
    l < len(layout.specs) emits layer l's flat personal factor and biases;
    the last decoder emits the personal head. `kept_index(layout, l, p)`
    reads decoder l's output."""

    embeddings: np.ndarray   # (embed_dim, num_clients), one column per client
    encoder: list            # LinearMap stack; empty list = identity encoder
    decoders: list           # LinearMap per decomposed layer, then the head's
    log_temp: np.ndarray     # one log-temperature per decoder

    def arrays(self):
        maps = [a for m in self.encoder + self.decoders for a in (m.w, m.b)]
        return [self.embeddings, *maps, self.log_temp]

    @classmethod
    def from_arrays(cls, arrays, depth):
        """Inverse of arrays() for an encoder of `depth` layers."""
        maps = [LinearMap(w, b) for w, b in zip(arrays[1:-1:2], arrays[2:-1:2])]
        return cls(arrays[0], maps[:depth], maps[depth:], arrays[-1])


@lru_cache(maxsize=None)
def kept_index(layout: Layout, l, p):
    """(weight, bias) positions in decoder l's flat output that a width-p
    client keeps, each shaped like the array it is sent as.

    Decoder l < len(layout.specs) emits a (rank, a, b) personal factor on
    the full-width grid `spec.grid(1)`, then the channel biases; a width-p
    client keeps the leading `spec.grid(p)` corner, which raises where the
    recovery cannot prune to p. The last decoder emits the head's
    (classes, features) weight, then its biases. The arrays are cached and
    read-only.
    """
    if l == len(layout.specs):
        n_w = layout.classes * layout.head_in_full
        weight = np.arange(n_w).reshape(layout.classes, -1)[:, :layout.head_in(p)]
        bias = n_w + np.arange(layout.classes)
    else:
        spec = layout.specs[l]
        (a, b), full = spec.grid(p), spec.grid(1)
        n_v = spec.rank * full[0] * full[1]
        weight = np.arange(n_v).reshape(spec.rank, *full)[:, :a, :b].reshape(spec.rank, -1)
        bias = n_v + np.arange(spec.kept(p)[0])
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
    for spec in (*layout.specs, None):
        if spec is not None:
            personal = decomp.init_personal(spec, rng)
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

def _encode_t(nodes: HyperNetState):
    h = nodes.embeddings
    for i, lm in enumerate(nodes.encoder):
        h = ad.add(ad.matmul(lm.w, h), ad.reshape(lm.b, (-1, 1)))
        if i < len(nodes.encoder) - 1:
            h = ad.relu(h)
    return h


def generation_graph(state: HyperNetState):
    """Every client's full-width decoder outputs, in one batched pass.

    Returns (the state as a HyperNetState of trainable leaf nodes, [F_l]):
    one (out_dim_l, num_clients) node per decomposed layer, then the
    head's. Every call on the same state gives the same bits.
    """
    nodes = HyperNetState.from_arrays([ad.leaf(a) for a in state.arrays()], len(state.encoder))
    enc = _encode_t(nodes)
    sims = ad.matmul(ad.transpose(enc, (1, 0)), enc)
    inv_temps = ad.exp(ad.scale(nodes.log_temp, -1.0))
    outputs = []
    for l, dec in enumerate(nodes.decoders):
        attn = ad.softmax(ad.mul_scalar(sims, ad.slice_t(inv_temps, (l,))))
        mixed = ad.matmul(enc, ad.transpose(attn, (1, 0)))
        outputs.append(ad.add(ad.matmul(dec.w, mixed), ad.reshape(dec.b, (-1, 1))))
    return nodes, outputs


def generate_personal(outputs, client, layout: Layout, width) -> ClientModel:
    """Cut one client's personal parameters, pruned to its width, out of
    the decoder output arrays of `generation_graph`, as a model with no
    general factors."""
    parts = [[out[ix, client] for ix in kept_index(layout, l, width)]
             for l, out in enumerate(outputs)]
    *layers, (head_w, head_b) = parts
    return ClientModel([], [w for w, _ in layers], [b for _, b in layers], head_w, head_b,
                       width)


# ---------------------------------------------------------------------------
# training step

def regression_loss(state: HyperNetState, returned, layout: Layout):
    """(state of trainable leaf nodes, loss node) of the regression of
    generated onto returned personal parameters (client id -> model at
    its width): 0.5/|R| * sum_l ||K_l * (F_l - T_l)||^2, only kept entries
    counting."""
    nodes, outputs = generation_graph(state)
    targets = [np.zeros(f.data.shape) for f in outputs]
    masks = [np.zeros(f.data.shape) for f in outputs]
    for i, model in returned.items():
        pairs = list(zip(model.factors, model.biases)) + [(model.head_w, model.head_b)]
        if len(pairs) != len(outputs):
            raise DimensionError("returned/generated component count mismatch")
        for l, pair in enumerate(pairs):
            for ix, arr in zip(kept_index(layout, l, model.width), pair):
                if arr.shape != ix.shape:
                    raise DimensionError(f"returned shape {arr.shape} vs generated {ix.shape}")
                targets[l][ix, i] = arr
                masks[l][ix, i] = 1.0
    terms = [ad.frobenius_sq(ad.mul(ad.add(f, ad.const(-t)), ad.const(k)))
             for f, t, k in zip(outputs, targets, masks)]
    return nodes, ad.scale(ad.add_n(terms), 0.5 / len(returned))


def hn_step(state: HyperNetState, returned, layout: Layout, lr) -> tuple:
    """One SGD step of the hyper-network on the regression loss.

    `returned` maps client id -> locally trained ClientModel (its general
    factors are not read) and is never empty: `run_round` raises before
    `aggregate` when every client failed. Returns (new state, loss
    value). A zero loss leaves the state bit-identical.
    """
    nodes, loss = regression_loss(state, returned, layout)
    val = float(loss.data)
    if not np.isfinite(val):
        raise NumericError("non-finite hyper-network loss")
    ad.backward(loss)
    new = [a if n.grad is None else a - lr * n.grad
           for a, n in zip(state.arrays(), nodes.arrays())]
    return HyperNetState.from_arrays(new, len(state.encoder)), val
