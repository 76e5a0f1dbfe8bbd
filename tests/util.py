"""Shared test oracles, independent of the library's compute paths:
central finite differences, nested-loop convolution and conv-block
references, an einsum recovery, per-model decomposed and dense forwards, and a
per-client loop form of the hyper-network's generation and loss. Also
the single-layer record, full decomposed-model init, recovery,
generation, pruning, accounting and copying helpers that only tests use.
The personal factor's grid and the stored-float count are computed here
by their own formulas, not read from `decomp`; the width grid and a
search over it are the oracle of `protocol.width_for_capacity`."""
from fractions import Fraction

import numpy as np

from padfl import autodiff as ad
from padfl.decomp import init_general, init_personal, recover_padfl_t
from padfl.errors import ConfigurationError
from padfl.hypernet import generate_personal, generation_graph
from padfl.model import ClientModel, PlainModel, build_layout, init_head
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
    mix, decoder mat-vec, then numpy slicing of the flat output's leading
    personal blocks and input columns."""
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
        v = flat[:n_v].reshape(spec.rank, blocks, spec.in_channels)[:, :t_kept // r1, :ik]
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


def personal_grid(base_count, out_kept, in_kept):
    """(a, b) of an out_kept x in_kept personal factor, (rank, a * b):
    out_kept / base_count blocks of in_kept columns."""
    return out_kept // base_count, in_kept


def stored_floats(spec, out_kept, in_kept) -> int:
    """Floats a layer pruned to out_kept x in_kept stores: the whole
    (k^2 * base_count, rank) general factor, the pruned personal factor
    and the kept biases."""
    a, b = personal_grid(spec.base_count, out_kept, in_kept)
    return spec.kernel ** 2 * spec.base_count * spec.rank + spec.rank * a * b + out_kept


def reference_weight(general, personal, spec, out_kept, in_kept):
    """Recovered (out_kept, in_kept, k, k) weight by einsum over the rank:
    channel j*base_count + i is u_i v_j."""
    k2 = spec.kernel ** 2
    r1 = general.shape[0] // k2
    u = general.reshape(r1, k2, -1)
    v = personal.reshape(-1, out_kept // r1, in_kept)
    w = np.einsum("ikr,rjs->jisk", u, v)
    return w.reshape(out_kept, in_kept, spec.kernel, spec.kernel)


def reference_plain_logits(layout, model, x):
    """One dense model's logits from first principles, with the layer kinds
    and kernels of `layout.specs`: nested-loop convolution, explicit 2x2
    max pooling and ReLU, and plain `@`."""
    h = x
    for spec, w, b in zip(layout.specs, model.weights, model.biases):
        if spec.kind == "conv":
            h = conv2d_loops(h, w, spec.kernel // 2) + b[None, :, None, None]
            bsz, ch, hh, ww = h.shape
            h = h.reshape(bsz, ch, hh // 2, 2, ww // 2, 2).max(axis=(3, 5))
        else:
            h = h.reshape(len(h), -1) @ w.T + b
        h = np.where(h > 0, h, 0.0)
    return h.reshape(len(h), -1) @ model.head_w.T + model.head_b


def reference_logits(layout, model, x):
    """One client model's logits from first principles: einsum recovery of
    each layer, then `reference_plain_logits` on the
    recovered dense model."""
    p, weights = model.width, []
    for idx, spec in enumerate(layout.specs):
        w = reference_weight(model.general[idx], model.factors[idx], spec, *spec.kept(p))
        weights.append(w if spec.kind == "conv" else w[:, :, 0, 0])
    dense = PlainModel(weights, model.biases, model.head_w, model.head_b, p)
    return reference_plain_logits(layout, dense, x)


def init_decomposed(layout, rng) -> ClientModel:
    """Fresh full-width float64 model: per layer its general and personal
    factors and biases uniform in +-1/sqrt(S*k^2), then the dense head."""
    general, personal, biases = [], [], []
    for spec in layout.specs:
        general.append(init_general(spec, rng))
        personal.append(init_personal(spec, rng))
        bound = 1.0 / np.sqrt(spec.in_channels * spec.kernel ** 2)
        biases.append(rng.uniform(-bound, bound, size=spec.out_channels))
    head = init_head(layout, 1, rng)
    return ClientModel(general, personal, biases, head.w, head.b, Fraction(1))


def plain_copy(model):
    """A dense model whose arrays are copies of model's."""
    return PlainModel.from_arrays([a.copy() for a in model.arrays()], model.width)


def built_spec(kind, t, s, k=1, min_width=1, hw=(2, 2)):
    """The record `build_layout` makes for a lone layer with s inputs and
    t outputs: a k x k conv on an hw map, or a linear layer."""
    if kind == "conv":
        return build_layout((s, *hw), 2, min_width, convs=(t,), kernel=k).specs[0]
    return build_layout((s, 1, 1), 2, min_width, hidden=(t,)).specs[0]


def recover_graph(general, personal, spec, p=1):
    """The width-p weight recovered from one 2-D factor pair by the graph
    recovery on constants."""
    return recover_padfl_t(ad.const(general), ad.const(personal), spec, p).data


def generate_one(state, client, layout, width):
    """One client's personal parameters, pruned to its width: a batched
    generation from the state, then that client's cut."""
    _, outputs = generation_graph(state)
    return generate_personal([f.data for f in outputs], client, layout, width)


def prune_personal(personal, bias, spec, p, in_kept=None):
    """(factor, bias) of a full-width layer pruned to width p: keep the
    first p*T output channels and the first `in_kept` input columns, by
    cutting the leading corner of the factor's `personal_grid`."""
    p = Fraction(p)
    out_kept = Fraction(spec.out_channels) * p
    if not 0 < p <= 1 or out_kept.denominator != 1 or out_kept % spec.base_count:
        raise ConfigurationError(f"width {p} keeps no whole personal blocks")
    out_kept = int(out_kept)
    in_kept = spec.in_channels if in_kept is None else in_kept
    full = personal_grid(spec.base_count, spec.out_channels, spec.in_channels)
    a, b = personal_grid(spec.base_count, out_kept, in_kept)
    kept = personal.reshape(spec.rank, *full)[:, :a, :b]
    return np.ascontiguousarray(kept).reshape(spec.rank, a * b), bias[:out_kept].copy()


def reduction_ratio(spec, p) -> Fraction:
    """Stored floats of the width-p factorization (no bias) over the dense
    weight."""
    t, s = Fraction(spec.out_channels) * p, Fraction(spec.in_channels) * p
    dense = spec.out_channels * spec.in_channels * spec.kernel ** 2
    return Fraction(stored_floats(spec, int(t), int(s)) - int(t), dense)


def orthogonal_reg(general_factors, specs) -> float:
    """Value of the library's orthogonality penalty on plain arrays."""
    node = orthogonal_reg_t([ad.const(u) for u in general_factors], specs)
    return 0.0 if node is None else float(node.data)


def supported_widths(min_width) -> tuple:
    """The width grid: all multiples of min_width up to 1."""
    mw = Fraction(min_width)
    return tuple(m * mw for m in range(1, int(1 / mw) + 1))


def grid_width_for_capacity(r, grid) -> Fraction:
    """Largest width of `grid` whose quadratic cost fits the capacity r,
    by search with exact comparisons; below the smallest width, that one."""
    num, den = Fraction(r).as_integer_ratio()
    best = grid[0]
    for p in grid:
        if p.numerator ** 2 * den <= num * p.denominator ** 2:
            best = p
    return best
