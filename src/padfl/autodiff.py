"""Minimal dense-tensor engine with reverse-mode differentiation.

Values are numpy arrays frozen at construction, float32 or float64 as
given (anything else becomes float64). Every operation computes in its
operands' dtype and every gradient takes its node's, so the arrays a
caller passes pick the precision: clients train and evaluate in the
dataset's float32, while the hyper-network and the tests' oracles run in
float64. An operation returns a fresh Tensor whose backward closure
scatters the incoming gradient to its parents. Graphs are implicit
(parent pointers) and single-owner: build, call :func:`backward` on a
scalar, read ``.grad`` off the leaves. There is no broadcasting beyond
the explicit bias-add patterns accepted by :func:`add`; everything else
must match shapes exactly so silent shape bugs cannot survive.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


def _dtype(data):
    """float32 and float64 stay as given; anything else computes in float64."""
    dtype = getattr(data, "dtype", None)
    return dtype if dtype in _FLOATS else np.dtype(np.float64)


class Tensor:
    """Immutable float32 or float64 array plus autodiff bookkeeping."""

    __slots__ = ("data", "parents", "backward_fn", "requires_grad", "grad")

    def __init__(self, data, parents=(), backward_fn=None, requires_grad=False, _own=False):
        if _own:
            arr = np.asarray(data, dtype=_dtype(data))
            if not arr.flags.c_contiguous:
                arr = np.ascontiguousarray(arr)
        else:
            arr = np.array(data, dtype=_dtype(data), order="C")
        arr.flags.writeable = False
        self.data = arr
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def leaf(data):
    """Trainable leaf; gradients accumulate here."""
    return Tensor(data, requires_grad=True)


def const(data):
    """Non-trainable value (inputs, labels, frozen weights)."""
    return Tensor(data)


def _out(data, parents, backward_fn):
    return Tensor(data, parents=parents, backward_fn=backward_fn, _own=True)


def _acc(t, g, own=False):
    """Add g into t.grad, in t's dtype. With own=True, g is a fresh array
    no one else holds (a conv, pool or ReLU gradient) and becomes t.grad
    without a copy if its dtype is t's; a pass-through gradient, which
    `add` hands to both parents, is copied."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = g if own and g.dtype == t.data.dtype else np.array(g, dtype=t.data.dtype)
        else:
            t.grad += g


def backward(root):
    """Reverse-mode sweep from a scalar root.

    Visits every reachable node exactly once in reverse topological
    order; forward values are never touched.
    """
    if root.data.size != 1:
        raise DimensionError(f"backward root must be scalar, got shape {root.data.shape}")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)


# ---------------------------------------------------------------------------
# matrix products

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def bw(g):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    return _out(out_data, (a, b), bw)


def ordered_product(a, b):
    """Plain-array product over the last two axes (leading axes broadcast),
    summed rank by rank in a fixed order: each element is independent of
    the other columns of ``b`` and of the leading axes, so pruned and
    stacked factor recoveries are bit-exact slices of full, single ones."""
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]),
                   dtype=np.result_type(a, b))
    for r in range(a.shape[-1]):
        out += a[..., :, r, None] * b[..., None, r, :]
    return out


def ordered_matmul(a, b):
    """`ordered_product` of two 2-D nodes, as a graph op."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("ordered_matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"ordered_matmul inner dims {a.data.shape} x {b.data.shape}")
    out_data = ordered_product(a.data, b.data)

    def bw(g):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    return _out(out_data, (a, b), bw)


# ---------------------------------------------------------------------------
# convolution (im2col + one matrix product)
#
# Conv activations are batch-last, (C, H, W, B): the product maps
# (T, S*k*k) x (S*k*k, ho*wo*B) straight onto (T, ho, wo, B), so neither
# im2col, col2im nor the product's result needs a transpose, and every
# kernel-offset copy or add moves runs of wo*B contiguous floats.

def _im2col(x, k, pad):
    """Stride-1 columns of a batch-last (C, H, W, B) input, zero-padded by
    `pad`, in (channel, ky, kx) x (out_h, out_w, batch) order.

    Assembled with one well-strided copy per kernel offset, which is far
    cheaper than a single 6-axis gather.
    """
    ch, h, w, bsz = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    if pad:
        padded = np.zeros((ch, hp, wp, bsz), dtype=x.dtype)
        padded[:, pad:pad + h, pad:pad + w] = x
        x = padded
    ho, wo = hp - k + 1, wp - k + 1
    cols = np.empty((ch, k, k, ho, wo, bsz), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            cols[:, ky, kx] = x[:, ky:ky + ho, kx:kx + wo]
    return cols.reshape(ch * k * k, ho * wo * bsz), ho, wo


def _col2im(gcols, xshape, k, pad, ho, wo):
    """Adjoint of `_im2col`: scatter-add columns back onto (C, H, W, B)."""
    ch, h, w, bsz = xshape
    gx = np.zeros((ch, h + 2 * pad, w + 2 * pad, bsz), dtype=gcols.dtype)
    g6 = gcols.reshape(ch, k, k, ho, wo, bsz)
    for ky in range(k):
        for kx in range(k):
            gx[:, ky:ky + ho, kx:kx + wo] += g6[:, ky, kx]
    if pad:
        gx = gx[:, pad:-pad, pad:-pad]
    return gx


def conv2d(x, w, pad=0, bias=None):
    """Stride-1 cross-correlation of a batch-last (S, H, W, B) input,
    zero-padded by `pad` on every side, with a (T, S, k, k) weight; returns
    (T, ho, wo, B).

    Maps onto exactly one matrix product of B*q^2*k^2*S*T multiply-adds;
    an optional (T,) bias is fused so its gradient is one contiguous
    reduction.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError("conv2d expects 4-D input and weight")
    ch, h, wdt, bsz = x.data.shape
    t, s, k, k2 = w.data.shape
    if k != k2:
        raise DimensionError("conv2d kernel must be square")
    if s != ch:
        raise DimensionError(f"conv2d channels: input {ch}, weight {s}")
    if k > h + 2 * pad or k > wdt + 2 * pad:
        raise DimensionError(f"kernel {k} exceeds padded input {h + 2 * pad}x{wdt + 2 * pad}")
    if bias is not None and bias.data.shape != (t,):
        raise DimensionError(f"conv2d bias shape {bias.data.shape}, expected ({t},)")
    cols, ho, wo = _im2col(x.data, k, pad)
    w2 = w.data.transpose(1, 2, 3, 0).reshape(s * k * k, t)  # rows follow cols order
    out2 = w2.T @ cols                                       # (T, ho*wo*B)
    if bias is not None:
        out2 += bias.data[:, None]
    parents = (x, w) if bias is None else (x, w, bias)

    def bw(g):
        g2 = g.reshape(t, ho * wo * bsz)
        if w.requires_grad:
            _acc(w, (g2 @ cols.T).reshape(t, s, k, k), own=True)
        if bias is not None and bias.requires_grad:
            _acc(bias, g2.sum(axis=1), own=True)
        if x.requires_grad:
            _acc(x, _col2im(w2 @ g2, x.data.shape, k, pad, ho, wo), own=True)

    return _out(out2.reshape(t, ho, wo, bsz), parents, bw)


def conv2d_infer(x, w, pad=0):
    """Plain-array convolution of M stacked weights (M, T, S, k, k) via the
    same im2col and 2-D product as `conv2d` (no graph): batch-last
    (M, S, H, W, B) in, (M, T, ho, wo, B) out.

    x may be (1, S, H, W, B) to share one input, and one im2col, among all
    M. Every slice is bit-identical to convolving that weight alone; one
    weight is the M = 1 case: w[None] on x[None].
    """
    m, t, s, k, _ = w.shape
    cols, ho, wo = _im2col(x[0], k, pad)
    out = np.empty((m, t, ho, wo, x.shape[-1]), dtype=np.result_type(x, w))
    w2 = w.transpose(0, 2, 3, 4, 1).reshape(m, s * k * k, t)
    for j in range(m):
        if j and x.shape[0] > 1:
            cols = _im2col(x[j], k, pad)[0]
        np.matmul(w2[j].T, cols, out=out[j].reshape(t, -1))
    return out


# ---------------------------------------------------------------------------
# elementwise / structural primitives

def relu(x):
    out_data = relu_infer(x.data)

    def bw(g):
        _acc(x, g * (out_data > 0), own=True)

    return _out(out_data, (x,), bw)


def relu_infer(x):
    # np.maximum (unlike where) propagates NaN, so poisoned values reach
    # the loss instead of being silently clipped to zero
    return np.maximum(x, 0.0)


def maxpool2x2(x):
    """2x2/stride-2 max pooling over the H and W axes of a batch-last
    (C, H, W, B) tensor; exact ties share the incoming gradient. The tie
    mask is built in the forward: x as (C, H/2, 2, W/2, 2, B) windows
    against the output broadcast over both window slots, so the innermost
    runs are the batch's B contiguous floats."""
    if x.data.ndim != 4:
        raise DimensionError("maxpool2x2 expects a 4-D tensor")
    ch, h, w, b = x.data.shape
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    out_data = maxpool2x2_infer(x.data)
    mask = x.data.reshape(ch, h // 2, 2, w // 2, 2, b) == out_data[:, :, None, :, None]

    def bw(g):
        _acc(x, (mask * g[:, :, None, :, None]).reshape(x.data.shape), own=True)

    return _out(out_data, (x,), bw)


def maxpool2x2_infer(x):
    """2x2/stride-2 max pooling over the H and W axes of (..., H, W, B)."""
    *lead, h, w, b = x.shape
    # elementwise maxima over window slots beat strided axis reductions:
    # row pairs are runs of W*B floats, column pairs runs of B
    rows = x.reshape(*lead, h // 2, 2, w * b)
    row_max = np.maximum(rows[..., 0, :], rows[..., 1, :])
    pairs = row_max.reshape(*lead, h // 2, w // 2, 2, b)
    return np.maximum(pairs[..., 0, :], pairs[..., 1, :])


def _softmax_np(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x):
    """Softmax over the last axis of a 1-D or 2-D tensor."""
    if x.data.ndim not in (1, 2) or x.data.shape[-1] == 0:
        raise DimensionError(f"softmax on shape {x.data.shape}")
    y = _softmax_np(x.data)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _acc(x, (g - dot) * y)

    return _out(y, (x,), bw)


def cross_entropy(logits, labels):
    """Mean cross-entropy of integer labels against (n,K) logits."""
    if logits.data.ndim != 2 or logits.data.shape[0] == 0 or logits.data.shape[1] == 0:
        raise DimensionError(f"cross_entropy on logits shape {logits.data.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (logits.data.shape[0],):
        raise DimensionError("cross_entropy labels must be one id per row")
    n = labels.shape[0]
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    out_data = np.array((lse - z[np.arange(n), labels]).mean())

    def bw(g):
        p = _softmax_np(z)
        p[np.arange(n), labels] -= 1.0
        _acc(logits, (g.item() / n) * p)

    return _out(out_data, (logits,), bw)


def add(a, b):
    """Elementwise add; the only broadcasts accepted are bias patterns.

    Allowed: same shape, (n,m)+(m,), (n,m)+(n,1). A conv's bias is fused
    into `conv2d`.
    """
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        reduce_b = lambda g: g
    elif len(sa) == 2 and sb == (sa[1],):
        reduce_b = lambda g: g.sum(axis=0)
    elif len(sa) == 2 and sb == (sa[0], 1):
        reduce_b = lambda g: g.sum(axis=1, keepdims=True)
    else:
        raise DimensionError(f"add shapes {sa} + {sb}")

    def bw(g):
        _acc(a, g)
        _acc(b, reduce_b(g))

    return _out(a.data + b.data, (a, b), bw)


def scale(x, c):
    c = float(c)

    def bw(g):
        _acc(x, g * c)

    return _out(x.data * c, (x,), bw)


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul shapes {a.data.shape} * {b.data.shape}")

    def bw(g):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    return _out(a.data * b.data, (a, b), bw)


def mul_scalar(x, s):
    """Multiply by a 0-D tensor (e.g. a learnable inverse temperature)."""
    if s.data.shape != ():
        raise DimensionError(f"mul_scalar needs a 0-D tensor, got {s.data.shape}")
    sval = float(s.data)

    def bw(g):
        _acc(x, g * sval)
        _acc(s, np.array((g * x.data).sum()))

    return _out(x.data * sval, (x, s), bw)


def exp(x):
    y = np.exp(x.data)

    def bw(g):
        _acc(x, g * y)

    return _out(y, (x,), bw)


def detach(x):
    """Value copy with no gradient path back to its input."""
    return Tensor(x.data, _own=True)


def frobenius_sq(x):
    out_data = np.array((x.data * x.data).sum())

    def bw(g):
        _acc(x, (2.0 * g.item()) * x.data)

    return _out(out_data, (x,), bw)


def reshape(x, shape):
    shape = tuple(shape)
    out_data = x.data.reshape(shape)

    def bw(g):
        _acc(x, g.reshape(x.data.shape))

    return _out(out_data, (x,), bw)


def transpose(x, axes):
    inv = np.argsort(axes)

    def bw(g):
        _acc(x, np.ascontiguousarray(g.transpose(inv)))

    return _out(np.ascontiguousarray(x.data.transpose(axes)), (x,), bw)


def slice_t(x, key):
    """Basic slicing; the gradient scatters back into a zero tensor."""
    key = key if isinstance(key, tuple) else (key,)
    out_data = np.asarray(x.data[key])
    if not out_data.flags.c_contiguous:
        out_data = np.ascontiguousarray(out_data)

    def bw(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[key] = g
            _acc(x, full)

    return _out(out_data, (x,), bw)


def add_n(terms):
    """Sum a non-empty list of same-shape tensors."""
    acc = terms[0]
    for t in terms[1:]:
        acc = add(acc, t)
    return acc
