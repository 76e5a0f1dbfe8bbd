"""Shared test oracles, independent of the library's compute paths:
central finite differences, nested-loop convolution and conv-block
references, an einsum recovery, per-model decomposed and dense forwards, and a
per-client loop form of the hyper-network's generation and loss. Also
the single-layer record, recovery, generation, pruning, accounting and
copying helpers that only tests use."""
from fractions import Fraction

import numpy as np

from padfl import autodiff as ad
from padfl.decomp import factor_grid, param_count, recover_padfl_t
from padfl.errors import ConfigurationError
from padfl.hypernet import generate_personal, generation_graph
from padfl.model import ClientModel, CnnArch, PlainModel, build_layout
from padfl.protocol import orthogonal_reg_t


def finite_diff(f, arrays, eps=1e-5):
    """Central-difference gradient of scalar f(list-of-arrays) per array."""
    grads = []
    for ai, base in enumerate(arrays):
        g = np.zeros(base.shape)  # C order, so reshape(-1) is a view of g
        flat = g.reshape(-1)
        for j in range(base.size):
            bumped = [a.copy() for a in arrays]
            bumped[ai].reshape(-1)[j] += eps
            hi = f(bumped)
            bumped[ai].reshape(-1)[j] -= 2 * eps
            lo = f(bumped)
            flat[j] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def rel_err(got, ref):
    got = np.asarray(got, dtype=float).reshape(-1)
    ref = np.asarray(ref, dtype=float).reshape(-1)
    denom = max(np.linalg.norm(ref), 1e-12)
    return np.linalg.norm(got - ref) / denom


def conv2d_loops(x, w, pad=0):
    """Direct nested-loop stride-1 cross-correlation over output coordinates."""
    bsz, ch, h, wd = x.shape
    t, s, k, _ = w.shape
    assert s == ch
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = h + 2 * pad - k + 1, wd + 2 * pad - k + 1
    out = np.zeros((bsz, t, ho, wo))
    for b in range(bsz):
        for c in range(t):
            for i in range(ho):
                for j in range(wo):
                    patch = x[b, :, i:i + k, j:j + k]
                    out[b, c, i, j] = np.sum(patch * w[c])
    return out


def conv_block_loops(x, w, b, pad, g):
    """Conv, bias, 2x2 max pool and ReLU of batch-first x by direct loops;
    returns the output and, for the output gradient g, (gx, gw, gb), where
    every exact tie of a pool window receives the window's gradient."""
    y = conv2d_loops(x, w, pad) + b[None, :, None, None]
    ho, wo, k = y.shape[2], y.shape[3], w.shape[2]
    pooled = np.zeros(y.shape[:2] + (ho // 2, wo // 2))
    for i in range(ho // 2):
        for j in range(wo // 2):
            pooled[:, :, i, j] = y[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max(axis=(2, 3))
    gp = np.where(pooled > 0, g, 0.0)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp, gw, gy = np.zeros_like(xp), np.zeros_like(w), np.zeros_like(y)
    for i in range(ho):
        for j in range(wo):
            gy[:, :, i, j] = np.where(y[:, :, i, j] == pooled[:, :, i // 2, j // 2],
                                      gp[:, :, i // 2, j // 2], 0.0)
            gw += np.einsum("bt,bsyx->tsyx", gy[:, :, i, j], xp[:, :, i:i + k, j:j + k])
            gxp[:, :, i:i + k, j:j + k] += np.einsum("bt,tsyx->bsyx", gy[:, :, i, j], w)
    gx = gxp[:, :, pad:pad + x.shape[2], pad:pad + x.shape[3]]
    return np.where(pooled > 0, pooled, 0.0), (gx, gw, gy.sum(axis=(0, 2, 3)))


def encode(state):
    """Encoded embeddings E' = Encoder(E), applied column-wise."""
    h = state.embeddings
    for i, lm in enumerate(state.encoder):
        h = lm.w @ h + lm.b[:, None]
        if i < len(state.encoder) - 1:
            h = np.where(h > 0, h, 0.0)
    return h


def aggregate_embedding(encoded, client, tau):
    """Similarity-softmax mixture of encoded embeddings for one client."""
    s = encoded.T @ encoded[:, client] / tau
    w = np.exp(s - s.max())
    return encoded @ (w / w.sum())


def reference_personal(state, client, layout, width):
    """One client's generated personal parameters, decoder by decoder:
    mix, decoder mat-vec, then numpy slicing of the flat output in
    `layout.recovery`'s layout."""
    enc = encode(state)
    p = Fraction(width)
    taus = np.exp(state.log_temp)
    factors, biases = [], []
    for l, spec in enumerate(layout.specs):
        dec = state.decoders[l]
        flat = dec.w @ aggregate_embedding(enc, client, taus[l]) + dec.b
        (t_kept, ik), r1 = spec.kept(p), spec.base_count
        blocks = spec.out_channels // r1
        n_v = spec.rank * blocks * spec.in_channels
        if layout.recovery == "padfl":
            v = flat[:n_v].reshape(spec.rank, blocks, spec.in_channels)[:, :t_kept // r1, :ik]
        else:
            v = flat[:n_v].reshape(spec.rank, spec.out_channels, spec.in_channels // r1)
            v = v[:, :t_kept, :ik // r1]
        factors.append(v.reshape(spec.rank, -1))
        biases.append(flat[n_v:n_v + t_kept])
    head = state.decoders[-1]
    flat = head.w @ aggregate_embedding(enc, client, taus[-1]) + head.b
    n_w = layout.classes * layout.head_in_full
    head_w = flat[:n_w].reshape(layout.classes, -1)[:, :layout.head_in(p)]
    return ClientModel([], factors, biases, head_w, flat[n_w:], p)


def hn_loss(state, returned, layout):
    """Regression loss (1/n) sum_i 0.5 ||returned_i - generated_i||^2 over
    the returned clients' personal parameters (client id -> model at its
    width), from the per-client reference generator."""
    total = 0.0
    for i in sorted(returned):
        got = returned[i]
        gen = reference_personal(state, i, layout, got.width)
        for a, b in zip(gen.arrays(), [*got.factors, *got.biases, got.head_w, got.head_b]):
            total += 0.5 * float(((a - b) ** 2).sum())
    return total / len(returned)


def reference_weight(general, personal, spec, out_kept, in_kept, recovery="padfl"):
    """Recovered (out_kept, in_kept, k, k) weight by einsum over the rank.

    padfl: channel j*base_count + i is u_i v_j; flanc: input s = c*base_count + i
    of output o is u_i v_(o, c)."""
    k2 = spec.kernel ** 2
    r1 = general.shape[0] // k2
    u = general.reshape(r1, k2, -1)
    if recovery == "padfl":
        v = personal.reshape(-1, out_kept // r1, in_kept)
        w = np.einsum("ikr,rjs->jisk", u, v)
    else:
        v = personal.reshape(-1, out_kept, in_kept // r1)
        w = np.einsum("ikr,roc->ocik", u, v)
    return w.reshape(out_kept, in_kept, spec.kernel, spec.kernel)


def reference_plain_logits(arch, model, x):
    """One dense model's logits from first principles: nested-loop
    convolution, explicit 2x2 max pooling and ReLU, and plain `@`."""
    n_conv, h = len(arch.convs), x
    for idx, (w, b) in enumerate(zip(model.weights, model.biases)):
        if idx < n_conv:
            h = conv2d_loops(h, w, arch.kernel // 2) + b[None, :, None, None]
            bsz, ch, hh, ww = h.shape
            h = h.reshape(bsz, ch, hh // 2, 2, ww // 2, 2).max(axis=(3, 5))
        else:
            h = h.reshape(len(h), -1) @ w.T + b
        h = np.where(h > 0, h, 0.0)
    return h.reshape(len(h), -1) @ model.head_w.T + model.head_b


def reference_logits(layout, model, x):
    """One client model's logits from first principles: einsum recovery in
    `layout.recovery`'s layout, then `reference_plain_logits` on the
    recovered dense model."""
    p, weights = model.width, []
    for idx, spec in enumerate(layout.specs):
        w = reference_weight(model.general[idx], model.factors[idx], spec, *spec.kept(p),
                             layout.recovery)
        weights.append(w if spec.kind == "conv" else w[:, :, 0, 0])
    dense = PlainModel(weights, model.biases, model.head_w, model.head_b, p)
    return reference_plain_logits(layout.arch, dense, x)


def plain_copy(model):
    """A dense model whose arrays are copies of model's."""
    return PlainModel.from_arrays([a.copy() for a in model.arrays()], model.width)


def built_spec(kind, t, s, k=1, min_width=1, hw=(2, 2)):
    """The record `build_layout` makes for a lone layer with s inputs and
    t outputs: a k x k conv on an hw map, or a linear layer."""
    if kind == "conv":
        return build_layout(CnnArch(s, *hw, convs=(t,), kernel=k), min_width).specs[0]
    return build_layout(CnnArch(s, 1, 1, hidden=(t,)), min_width).specs[0]


def recover_graph(general, personal, spec, out_kept=None, in_kept=None, kind="padfl"):
    """The weight recovered from one 2-D factor pair by the graph recovery
    on constants, at full width unless the kept counts are given."""
    out_kept = spec.out_channels if out_kept is None else out_kept
    in_kept = spec.in_channels if in_kept is None else in_kept
    return recover_padfl_t(ad.const(general), ad.const(personal), spec, out_kept, in_kept,
                           kind).data


def recover_flanc(general, personal, spec, out_kept=None, in_kept=None) -> np.ndarray:
    """The input-slab recovered weight, through the graph recovery."""
    return recover_graph(general, personal, spec, out_kept, in_kept, "flanc")


def generate_one(state, client, layout, width):
    """One client's personal parameters, pruned to its width: a batched
    generation from the state, then that client's cut."""
    _, outputs = generation_graph(state)
    return generate_personal([f.data for f in outputs], client, layout, width)


def prune_personal(personal, bias, spec, p, in_kept=None, kind="padfl"):
    """(factor, bias) of a full-width layer pruned to width p: keep the
    first p*T output channels and the first `in_kept` input columns, by
    cutting the leading corner of the factor's `factor_grid`."""
    p = Fraction(p)
    out_kept = Fraction(spec.out_channels) * p
    if not 0 < p <= 1 or out_kept.denominator != 1 or out_kept % spec.base_count:
        raise ConfigurationError(f"width {p} keeps no whole personal blocks")
    out_kept = int(out_kept)
    in_kept = spec.in_channels if in_kept is None else in_kept
    full = factor_grid(kind, spec.base_count, spec.out_channels, spec.in_channels)
    a, b = factor_grid(kind, spec.base_count, out_kept, in_kept)
    kept = personal.reshape(spec.rank, *full)[:, :a, :b]
    return np.ascontiguousarray(kept).reshape(spec.rank, a * b), bias[:out_kept].copy()


def reduction_ratio(spec, p) -> Fraction:
    """Stored floats of the width-p factorization (no bias) over the dense
    weight."""
    t, s = Fraction(spec.out_channels) * p, Fraction(spec.in_channels) * p
    dense = spec.out_channels * spec.in_channels * spec.kernel ** 2
    return Fraction(param_count(spec, int(t), int(s)) - int(t), dense)


def orthogonal_reg(general_factors, specs) -> float:
    """Value of the library's orthogonality penalty on plain arrays."""
    node = orthogonal_reg_t([ad.const(u) for u in general_factors], specs)
    return 0.0 if node is None else float(node.data)
