"""Channel-aware layer decomposition.

A conv/linear weight (T output channels, S input channels, kernel k) is
stored as two factors: a *general* factor shared by every client at full
size, and a *personal* factor that shrinks with the client's width ratio
p. Output channel c(i,j) = j*R1 + i is the product of general block u_i
and personal block v_j, so pruning trailing v blocks removes exactly the
trailing output channels while the general factor is untouched.

`LayerSpec` is the one record of a layer: its shape, its factor sizes,
its output map and `kept(p)`, the channels a width-p client keeps. The
init, recovery and accounting functions take the record alone.

The FLANC ablation recovers the same factors with personal blocks that
span input slabs instead of output channels. The recovery kind is
`model.Layout.recovery`; `factor_grid` and `PERMUTATION` are its one
rule, which the graph recovery for training (`recover_padfl_t`), the
stacked recovery for evaluation (`recover_padfl`) and
`hypernet.kept_index` apply. Both recoveries sum with
`autodiff.ordered_product`, so they give the same bits. Also exact
parameter/FLOP accounting for width-reduced layers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DimensionError


@dataclass(frozen=True)
class LayerSpec:
    """Everything about one decomposable layer, made only by
    `model.build_layout`: its kind, channels and kernel (1 if linear);
    the factor sizes, base_count general blocks of inner rank `rank`; the
    output map before pooling ((1, 1) if linear); and whether it reads the
    raw input, which no width prunes."""

    kind: str  # "conv" | "linear"
    out_channels: int
    in_channels: int
    kernel: int
    base_count: int
    rank: int
    out_hw: tuple = (1, 1)
    raw_input: bool = False

    def __post_init__(self):
        if self.kind not in ("conv", "linear"):
            raise ConfigurationError(f"unknown layer kind {self.kind!r}")
        if self.out_channels <= 0 or self.in_channels <= 0 or self.kernel <= 0:
            raise ConfigurationError("layer dimensions must be positive")
        if self.kind == "linear" and self.kernel != 1:
            raise ConfigurationError("linear layers must have kernel 1")
        if self.base_count <= 0 or self.rank <= 0:
            raise ConfigurationError("coefficients must be positive")

    def kept(self, p):
        """(out_kept, in_kept): the leading channels a width-p client keeps."""
        p = Fraction(p)
        in_kept = self.in_channels if self.raw_input else int(self.in_channels * p)
        return int(self.out_channels * p), in_kept


def supported_widths(min_width) -> tuple[Fraction, ...]:
    """The width grid: all multiples of min_width up to 1."""
    mw = Fraction(min_width)
    if not (0 < mw <= 1):
        raise ConfigurationError(f"min_width {mw} outside (0, 1]")
    n = int(Fraction(1) / mw)  # floor
    widths = tuple(m * mw for m in range(1, n + 1))
    if not widths:
        raise ConfigurationError("empty width grid")
    return widths


def init_layer(spec: LayerSpec, rng):
    """Full-width (general, personal, bias) whose recovered weight matches
    a fan-in-scaled uniform init: general entries uniform in
    +-1/sqrt(S*k^2), personal blocks orthogonalized and column-normalized
    to unit gain."""
    k2 = spec.kernel ** 2
    bound = 1.0 / np.sqrt(spec.in_channels * k2)
    general = rng.uniform(-bound, bound, size=(k2 * spec.base_count, spec.rank))
    blocks = spec.out_channels // spec.base_count
    vs = []
    for _ in range(blocks):
        g = rng.standard_normal((spec.rank, spec.in_channels))
        if spec.in_channels >= spec.rank:
            q, _ = np.linalg.qr(g.T)
            v = q.T
        else:
            q, _ = np.linalg.qr(g)
            v = q
        v = v / np.linalg.norm(v, axis=0, keepdims=True)
        vs.append(v)
    personal = np.concatenate(vs, axis=1)
    bias = rng.uniform(-bound, bound, size=spec.out_channels)
    return general, personal, bias


# ---------------------------------------------------------------------------
# recovery: one rule for both kinds

# How the (base_count, k^2, a, b) product of general @ personal maps to an
# (out, in, k^2) weight. padfl: output channel j*base_count + i is u_i v_j;
# flanc: input s = c*base_count + i of output o is u_i v_(o, c).
PERMUTATION = {"padfl": (2, 0, 3, 1), "flanc": (2, 3, 0, 1)}


def factor_grid(kind, base_count, out_kept, in_kept):
    """(a, b): the personal factor of an out_kept x in_kept weight is
    (rank, a * b), b columns to each of its a groups. "padfl" groups whole
    blocks of base_count output channels (a = out_kept / base_count,
    b = in_kept); "flanc" gives each output channel base_count-strided
    input slabs (a = out_kept, b = in_kept / base_count)."""
    if kind == "padfl":
        return out_kept // base_count, in_kept
    if in_kept % base_count:
        raise ConfigurationError(f"FLANC recovery needs its {in_kept} kept input channels "
                                 f"divisible by base_count {base_count}")
    return out_kept, in_kept // base_count


def recover_padfl_t(general, personal, spec, out_kept, in_kept, kind):
    """Graph-op recovery of an (out_kept, in_kept, k, k) weight tensor node
    from its factors, in `kind`'s layout (see `factor_grid`), for training."""
    k = spec.kernel
    r1, r2 = spec.base_count, spec.rank
    a, b = factor_grid(kind, r1, out_kept, in_kept)
    if general.data.shape != (k * k * r1, r2):
        raise DimensionError(f"general factor shape {general.data.shape}")
    if personal.data.shape != (r2, a * b):
        raise DimensionError(f"personal factor shape {personal.data.shape}")
    prod = ad.ordered_matmul(general, personal)          # (k^2*r1, a*b)
    prod = ad.transpose(ad.reshape(prod, (r1, k * k, a, b)), PERMUTATION[kind])
    return ad.reshape(prod, (out_kept, in_kept, k, k))


def recover_padfl(general, personal, spec, out_kept, in_kept, kind):
    """(M, out_kept, in_kept, k, k) weights of one layer from M stacked
    factor pairs, general (M, k^2*base_count, rank) and personal (M, rank,
    .), in `kind`'s layout, for evaluation. Each slice is bit-identical to
    the graph recovery of that pair."""
    m, k, r1 = general.shape[0], spec.kernel, spec.base_count
    a, b = factor_grid(kind, r1, out_kept, in_kept)
    prod = ad.ordered_product(general, personal).reshape(m, r1, k * k, a, b)
    prod = prod.transpose(0, *(d + 1 for d in PERMUTATION[kind]))
    # contiguous like the graph recovery, so the products see the same layout
    return np.ascontiguousarray(prod).reshape(m, out_kept, in_kept, k, k)


# ---------------------------------------------------------------------------
# analytic accounting

def param_count(spec: LayerSpec, out_kept, in_kept) -> int:
    """Exact stored-float count of a layer pruned to out_kept x in_kept: the
    full general factor, the pruned personal factor and channel bias."""
    n = spec.kernel ** 2 * spec.base_count * spec.rank
    return n + spec.rank * (out_kept // spec.base_count) * in_kept + out_kept


def flops_account(spec: LayerSpec, batch, out_kept, in_kept):
    """(forward multiply-adds, recovery-overhead ratio) of a layer pruned
    to out_kept x in_kept, on its output map (h, w) = spec.out_hw.

    Recovery costs rank*k^2*(pS)*(pT) multiply-adds against a batch
    forward of B*h*w*k^2*(pS)*(pT): the ratio is rank/(B*h*w).
    """
    h, w = spec.out_hw
    if batch < 1 or h < 1 or w < 1:
        raise ConfigurationError("batch and feature size must be >= 1")
    forward = batch * h * w * spec.kernel ** 2 * in_kept * out_kept
    return forward, Fraction(spec.rank, batch * h * w)
