"""Shared test oracles, independent of the library's compute paths:
central finite differences, a nested-loop convolution reference, and a
per-client loop form of the hyper-network's generation and loss."""
from fractions import Fraction

import numpy as np

from padfl.model import PersonalParams


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
