"""Shared test oracles, independent of the library's compute paths:
central finite differences, a nested-loop convolution reference, an
einsum recovery, per-model decomposed and dense forwards, and a
per-client loop form of the hyper-network's generation and loss. Also
the single-layer recovery, pruning, accounting and copying helpers that
only tests use."""
from dataclasses import replace
from fractions import Fraction

import numpy as np

from padfl import autodiff as ad
from padfl.decomp import DecomposedLayer, param_count, recover_flanc_t
from padfl.errors import ConfigurationError
from padfl.model import PersonalParams, PlainModel
from padfl.protocol import orthogonal_reg_t


def finite_diff(f, arrays, eps=1e-5):
    """Central-difference gradient of scalar f(list-of-arrays) per array."""
    grads = []
    for ai, base in enumerate(arrays):
        g = np.zeros_like(base)
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


def conv2d_loops(x, w, stride=1, pad=0):
    """Direct nested-loop cross-correlation over output coordinates."""
    bsz, ch, h, wd = x.shape
    t, s, k, _ = w.shape
    assert s == ch
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((bsz, t, ho, wo))
    for b in range(bsz):
        for c in range(t):
            for i in range(ho):
                for j in range(wo):
                    patch = x[b, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[b, c, i, j] = np.sum(patch * w[c])
    return out


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


def reference_personal(state, client, layout, width, prune_kind="padfl"):
    """One client's generated personal parameters, decoder by decoder:
    mix, decoder mat-vec, then numpy slicing of the flat output."""
    enc = encode(state)
    p = Fraction(width)
    taus = np.exp(state.log_temp)
    factors, biases = [], []
    for l, (spec, coef) in enumerate(zip(layout.specs, layout.coefs)):
        dec = state.decoders[l]
        flat = dec.w @ aggregate_embedding(enc, client, taus[l]) + dec.b
        r1, t_kept, ik = coef.base_count, layout.kept_outputs(l, p), layout.kept_inputs(l, p)
        blocks = spec.out_channels // r1
        n_v = coef.rank * blocks * spec.in_channels
        if prune_kind == "padfl":
            v = flat[:n_v].reshape(coef.rank, blocks, spec.in_channels)[:, :t_kept // r1, :ik]
        else:
            v = flat[:n_v].reshape(coef.rank, spec.out_channels, spec.in_channels // r1)
            v = v[:, :t_kept, :ik // r1]
        factors.append(v.reshape(coef.rank, -1))
        biases.append(flat[n_v:n_v + t_kept])
    head = state.head_decoder
    flat = head.w @ aggregate_embedding(enc, client, taus[-1]) + head.b
    n_w = layout.classes * layout.head_in_full
    head_w = flat[:n_w].reshape(layout.classes, -1)[:, :layout.head_in(p)]
    return PersonalParams(factors, biases, head_w, flat[n_w:])


def hn_loss(state, returned, widths, layout, prune_kind="padfl"):
    """Regression loss (1/n) sum_i 0.5 ||returned_i - generated_i||^2 over
    the returned clients, from the per-client reference generator."""
    total = 0.0
    for i in sorted(returned):
        gen = reference_personal(state, i, layout, widths[i], prune_kind)
        for a, b in zip(gen.arrays(), returned[i].arrays()):
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
            cb = arch.convs[idx]
            h = conv2d_loops(h, w, cb.stride, cb.pad) + b[None, :, None, None]
            if cb.pool:
                bsz, ch, hh, ww = h.shape
                h = h.reshape(bsz, ch, hh // 2, 2, ww // 2, 2).max(axis=(3, 5))
        else:
            h = h.reshape(len(h), -1) @ w.T + b
        h = np.where(h > 0, h, 0.0)
    return h.reshape(len(h), -1) @ model.head_w.T + model.head_b


def reference_logits(layout, model, x, recovery="padfl"):
    """One client model's logits from first principles: einsum recovery,
    then `reference_plain_logits` on the recovered dense model."""
    p, weights = model.width, []
    for idx, spec in enumerate(layout.specs):
        w = reference_weight(model.general.factors[idx], model.personal.factors[idx], spec,
                             layout.kept_outputs(idx, p), layout.kept_inputs(idx, p), recovery)
        weights.append(w if spec.kind == "conv" else w[:, :, 0, 0])
    dense = PlainModel(weights, model.personal.biases, model.head.w, model.head.b, p)
    return reference_plain_logits(layout.arch, dense, x)


def plain_copy(model):
    """A dense model whose arrays are copies of model's."""
    return PlainModel.from_arrays(model, [a.copy() for a in model.arrays()])


def recover_flanc(general, personal, spec, out_kept=None, in_kept=None) -> np.ndarray:
    """The input-slab recovered weight, through the graph recovery."""
    return recover_flanc_t(ad.const(general), ad.const(personal), spec,
                           out_kept=out_kept, in_kept=in_kept).data


def prune_personal(layer: DecomposedLayer, p, in_kept=None) -> DecomposedLayer:
    """Keep the first p*T output channels (whole v blocks) and the first
    `in_kept` input columns of each block; the general factor and removal
    order (highest indices first) are untouched by construction."""
    p, mw = Fraction(p), layer.coef.min_width
    if not (0 < p <= 1) or (p / mw).denominator != 1:
        raise ConfigurationError(f"width {p} is not a multiple of min_width {mw} in (0, 1]")
    if p > layer.width:
        raise ConfigurationError(f"cannot grow width {layer.width} -> {p}")
    in_kept = layer.in_kept if in_kept is None else in_kept
    if not (0 < in_kept <= layer.in_kept):
        raise ConfigurationError(f"in_kept {in_kept} outside (0, {layer.in_kept}]")
    r2 = layer.coef.rank
    blocks_new = int(Fraction(layer.spec.out_channels) * p) // layer.coef.base_count
    v3 = layer.personal.reshape(r2, layer.blocks_kept, layer.in_kept)
    personal = np.ascontiguousarray(v3[:, :blocks_new, :in_kept]).reshape(r2, blocks_new * in_kept)
    out_new = int(Fraction(layer.spec.out_channels) * p)
    return replace(layer, personal=personal, bias=layer.bias[:out_new].copy(),
                   width=p, in_kept=in_kept)


def prune_flanc(personal, spec, base_count, p, in_kept=None):
    """Prune a FLANC personal factor: keep the first p*T channel slabs and
    the first in_kept/base_count columns inside each slab."""
    p = Fraction(p)
    in_kept = spec.in_channels if in_kept is None else in_kept
    if spec.in_channels % base_count or in_kept % base_count:
        raise ConfigurationError(
            f"in_channels {spec.in_channels}/{in_kept} not divisible by base_count {base_count}")
    out_new = Fraction(spec.out_channels) * p
    if out_new.denominator != 1:
        raise ConfigurationError(f"width {p} does not keep whole channels of {spec.out_channels}")
    out_new = int(out_new)
    r2 = personal.shape[0]
    slab = spec.in_channels // base_count
    v3 = personal.reshape(r2, spec.out_channels, slab)
    kept = np.ascontiguousarray(v3[:, :out_new, :in_kept // base_count])
    return kept.reshape(r2, out_new * (in_kept // base_count))


def reduction_ratio(spec, coef, p) -> Fraction:
    """Stored floats of the width-p factorization over the dense weight."""
    dense = spec.out_channels * spec.in_channels * spec.kernel ** 2
    return Fraction(param_count(spec, coef, p, include_bias=False), dense)


def orthogonal_reg(general_factors, specs) -> float:
    """Value of the library's orthogonality penalty on plain arrays."""
    node = orthogonal_reg_t([ad.const(u) for u in general_factors], specs)
    return 0.0 if node is None else float(node.data)
