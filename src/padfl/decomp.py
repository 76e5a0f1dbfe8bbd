"""Channel-aware layer decomposition.

A conv/linear weight (T output channels, S input channels, kernel k) is
stored as two factors: a *general* factor shared by every client at full
size, and a *personal* factor that shrinks with the client's width ratio
p. Output channel c(i,j) = j*R1 + i is the product of general block u_i
and personal block v_j, so pruning trailing v blocks removes exactly the
trailing output channels while the general factor is untouched.

`LayerSpec` is the one record of a layer and of what a width-p client
holds of it (`kept(p)`, `grid(p)`, `weight_shape(p)`). The init,
recovery and accounting functions take the record (and the width) alone.

The FLANC ablation (`recovery` "flanc") recovers the same factors with
personal blocks that span input slabs instead of output channels.
`LayerSpec.grid` and `PERMUTATION` are the one rule per kind, which the
graph recovery for training (`recover_padfl_t`), the stacked recovery
for evaluation (`recover_padfl`) and `hypernet.kept_index` apply. Both
recoveries sum with `autodiff.ordered_product`, so they give the same
bits. Also exact parameter/FLOP accounting for width-reduced layers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DimensionError


# How the (base_count, k^2, a, b) product of general @ personal maps to an
# (out, in, k^2) weight. padfl: output channel j*base_count + i is u_i v_j;
# flanc: input s = c*base_count + i of output o is u_i v_(o, c).
PERMUTATION = {"padfl": (2, 0, 3, 1), "flanc": (2, 3, 0, 1)}


@dataclass(frozen=True)
class LayerSpec:
    """Everything about one decomposable layer, made only by
    `model.build_layout`: its kind, channels and kernel (1 if linear);
    the factor sizes, base_count general blocks of inner rank `rank`; the
    output map before pooling ((1, 1) if linear); whether it reads the
    raw input, which no width prunes; and its `PERMUTATION` recovery kind."""

    kind: str  # "conv" | "linear"
    out_channels: int
    in_channels: int
    kernel: int
    base_count: int
    rank: int
    out_hw: tuple = (1, 1)
    raw_input: bool = False
    recovery: str = "padfl"

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

    def weight_shape(self, p):
        """The dense width-p weight's shape: (T, S, k, k) of `kept(p)` for
        conv, (T, S) for linear."""
        kept = self.kept(p)
        return (*kept, self.kernel, self.kernel) if self.kind == "conv" else kept

    def grid(self, p):
        """(a, b): the width-p personal factor is (rank, a * b), b columns
        to each of its a groups. "padfl" groups whole blocks of base_count
        output channels (a = out_kept / base_count, b = in_kept); "flanc"
        gives each output channel base_count-strided input slabs
        (a = out_kept, b = in_kept / base_count)."""
        out_kept, in_kept = self.kept(p)
        if self.recovery == "padfl":
            return out_kept // self.base_count, in_kept
        if in_kept % self.base_count:
            raise ConfigurationError(f"FLANC recovery needs its {in_kept} kept input channels "
                                     f"divisible by base_count {self.base_count}")
        return out_kept, in_kept // self.base_count


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
# recovery: one rule for both kinds

def recover_padfl_t(general, personal, spec: LayerSpec, p):
    """Graph-op recovery of the `spec.weight_shape(p)` weight tensor node
    from its factors, in the layout of `spec.grid(p)`, for training."""
    k, r1, r2 = spec.kernel, spec.base_count, spec.rank
    a, b = spec.grid(p)
    if general.data.shape != (k * k * r1, r2):
        raise DimensionError(f"general factor shape {general.data.shape}")
    if personal.data.shape != (r2, a * b):
        raise DimensionError(f"personal factor shape {personal.data.shape}")
    prod = ad.ordered_matmul(general, personal)          # (k^2*r1, a*b)
    prod = ad.transpose(ad.reshape(prod, (r1, k * k, a, b)), PERMUTATION[spec.recovery])
    return ad.reshape(prod, spec.weight_shape(p))


def recover_padfl(general, personal, spec: LayerSpec, p):
    """(M, *spec.weight_shape(p)) weights of one layer at width p from M
    stacked factor pairs, general (M, k^2*base_count, rank) and personal
    (M, rank, .), for evaluation. Each slice is bit-identical to the graph
    recovery of that pair."""
    m, k, r1 = general.shape[0], spec.kernel, spec.base_count
    a, b = spec.grid(p)
    prod = ad.ordered_product(general, personal).reshape(m, r1, k * k, a, b)
    prod = prod.transpose(0, *(d + 1 for d in PERMUTATION[spec.recovery]))
    # contiguous like the graph recovery, so the products see the same layout
    return np.ascontiguousarray(prod).reshape(m, *spec.weight_shape(p))


# ---------------------------------------------------------------------------
# analytic accounting

def param_count(spec: LayerSpec, p) -> int:
    """Exact stored-float count of a layer at width p: the full general
    factor, the pruned personal factor and channel bias. Either grid has
    a * b = out_kept * in_kept / base_count, so no width raises here."""
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
    if batch < 1 or h < 1 or w < 1:
        raise ConfigurationError("batch and feature size must be >= 1")
    out_kept, in_kept = spec.kept(p)
    forward = batch * h * w * spec.kernel ** 2 * in_kept * out_kept
    return forward, Fraction(spec.rank, batch * h * w)
