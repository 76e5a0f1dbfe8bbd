"""Channel-aware layer decomposition.

A conv/linear weight (T output channels, S input channels, kernel k) is
stored as two factors: a *general* factor shared by every client at full
size, and a *personal* factor that shrinks with the client's width ratio
p. Output channel c(i,j) = j*R1 + i is the product of general block u_i
and personal block v_j, so pruning trailing v blocks removes exactly the
trailing output channels while the general factor is untouched.

`LayerSpec` is the one record of a layer and of what a width-p client
holds of it (`kept(p)`, `grid(p)`, `weight_shape(p)`, cached per width).
The init, recovery and accounting functions take the record (and the
width) alone.

`LayerSpec.grid` and `PERMUTATION` are the one pruning rule, which the
graph recovery for training (`recover_padfl_t`), the stacked recovery
for evaluation (`recover_padfl`) and `hypernet.share` apply. Both
recoveries sum with `autodiff.ordered_product`, so they give the same
bits. Also exact parameter/FLOP accounting for width-reduced layers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from . import autodiff as ad


# How the (base_count, k^2, a, b) product of general @ personal maps to an
# (out, in, k^2) weight: output channel j*base_count + i is u_i v_j.
PERMUTATION = (2, 0, 3, 1)


@dataclass(frozen=True)
class LayerSpec:
    """Everything about one decomposable layer, made only by
    `model.build_layout`: its kind, channels and kernel (1 if linear);
    the factor sizes, base_count general blocks of inner rank `rank`; the
    output map before pooling ((1, 1) if linear); and whether it reads
    the raw input, which no width prunes. It is built from a validated
    config and does not re-check it."""

    kind: str  # "conv" | "linear"
    out_channels: int
    in_channels: int
    kernel: int
    base_count: int
    rank: int
    out_hw: tuple = (1, 1)
    raw_input: bool = False

    @cache
    def kept(self, p):
        """(out_kept, in_kept): the leading channels a width-p client keeps."""
        p = Fraction(p)
        in_kept = self.in_channels if self.raw_input else int(self.in_channels * p)
        return int(self.out_channels * p), in_kept

    @cache
    def weight_shape(self, p):
        """The dense width-p weight's shape: (T, S, k, k) of `kept(p)` for
        conv, (T, S) for linear."""
        kept = self.kept(p)
        return (*kept, self.kernel, self.kernel) if self.kind == "conv" else kept

    @cache
    def grid(self, p):
        """(a, b): the width-p personal factor is (rank, a * b), one group
        of b = in_kept columns per whole block of base_count output
        channels (a = out_kept / base_count)."""
        out_kept, in_kept = self.kept(p)
        return out_kept // self.base_count, in_kept


def init_general(spec: LayerSpec, rng):
    """Full-size general factor, entries uniform in +-1/sqrt(S*k^2): with
    `init_personal`'s unit-gain columns, the recovered weight matches a
    fan-in-scaled uniform init."""
    bound = 1.0 / np.sqrt(spec.in_channels * spec.kernel ** 2)
    return rng.uniform(-bound, bound, size=(spec.kernel ** 2 * spec.base_count, spec.rank))


def init_personal(spec: LayerSpec, rng):
    """Full-width personal factor: its blocks orthogonalized and
    column-normalized to unit gain."""
    vs = []
    for _ in range(spec.out_channels // spec.base_count):
        g = rng.standard_normal((spec.rank, spec.in_channels))
        if spec.in_channels >= spec.rank:
            q, _ = np.linalg.qr(g.T)
            v = q.T
        else:
            q, _ = np.linalg.qr(g)
            v = q
        vs.append(v / np.linalg.norm(v, axis=0, keepdims=True))
    return np.concatenate(vs, axis=1)


# ---------------------------------------------------------------------------
# recovery: one rule for training and evaluation

def recover_padfl_t(general, personal, spec: LayerSpec, p):
    """Graph-op recovery of the `spec.weight_shape(p)` weight tensor node
    from its factors, in the layout of `spec.grid(p)`, for training."""
    k, r1 = spec.kernel, spec.base_count
    a, b = spec.grid(p)
    prod = ad.ordered_matmul(general, personal)          # (k^2*r1, a*b)
    prod = ad.transpose(ad.reshape(prod, (r1, k * k, a, b)), PERMUTATION)
    return ad.reshape(prod, spec.weight_shape(p))


def recover_padfl(general, personal, spec: LayerSpec, p):
    """(M, *spec.weight_shape(p)) weights of one layer at width p from M
    stacked factor pairs, general (M, k^2*base_count, rank) and personal
    (M, rank, .), for evaluation. Each slice is bit-identical to the graph
    recovery of that pair."""
    m, k, r1 = general.shape[0], spec.kernel, spec.base_count
    a, b = spec.grid(p)
    prod = ad.ordered_product(general, personal).reshape(m, r1, k * k, a, b)
    prod = prod.transpose(0, *(d + 1 for d in PERMUTATION))
    # contiguous like the graph recovery, so the products see the same layout
    return np.ascontiguousarray(prod).reshape(m, *spec.weight_shape(p))


# ---------------------------------------------------------------------------
# analytic accounting

def param_count(spec: LayerSpec, p) -> int:
    """Exact stored-float count of a layer at width p: the full general
    factor, the pruned personal factor and channel bias."""
    out_kept, in_kept = spec.kept(p)
    n = spec.kernel ** 2 * spec.base_count * spec.rank
    return n + spec.rank * (out_kept * in_kept // spec.base_count) + out_kept


def flops_account(spec: LayerSpec, batch, p):
    """(forward multiply-adds, recovery-overhead ratio) of a layer at width
    p, on its output map (h, w) = spec.out_hw.

    Recovery costs rank*k^2*(pS)*(pT) multiply-adds against a batch
    forward of B*h*w*k^2*(pS)*(pT): the ratio is rank/(B*h*w).
    """
    h, w = spec.out_hw
    out_kept, in_kept = spec.kept(p)
    forward = batch * h * w * spec.kernel ** 2 * in_kept * out_kept
    return forward, Fraction(spec.rank, batch * h * w)
