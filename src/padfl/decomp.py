"""Channel-aware layer decomposition.

A conv/linear weight (T output channels, S input channels, kernel k) is
stored as two factors: a *general* factor shared by every client at full
size, and a *personal* factor that shrinks with the client's width ratio
p. Output channel c(i,j) = j*R1 + i is the product of general block u_i
and personal block v_j, so pruning trailing v blocks removes exactly the
trailing output channels while the general factor is untouched.

Also provides the FLANC-style recovery (personal blocks span input
slabs instead of output channels) used as an ablation, plus exact
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
    """Geometry of one decomposable layer (linear layers have kernel 1)."""

    kind: str  # "conv" | "linear"
    out_channels: int
    in_channels: int
    kernel: int = 1
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.kind not in ("conv", "linear"):
            raise ConfigurationError(f"unknown layer kind {self.kind!r}")
        if self.out_channels <= 0 or self.in_channels <= 0 or self.kernel <= 0:
            raise ConfigurationError("layer dimensions must be positive")
        if self.kind == "linear" and self.kernel != 1:
            raise ConfigurationError("linear layers must have kernel 1")

    @property
    def weight_size(self):
        return self.out_channels * self.in_channels * self.kernel ** 2


@dataclass(frozen=True)
class Coefficients:
    """Factorization sizes: base_count general blocks of inner rank `rank`."""

    base_count: int  # number of general blocks; out_channels * min_width
    rank: int        # inner dimension of the factorization
    min_width: Fraction

    def __post_init__(self):
        if self.base_count <= 0 or self.rank <= 0:
            raise ConfigurationError("coefficients must be positive")
        if not (0 < self.min_width <= 1):
            raise ConfigurationError(f"min_width {self.min_width} outside (0, 1]")


def select_coefficients(spec: LayerSpec, min_width) -> Coefficients:
    """Pick factor sizes for a layer given the smallest supported width.

    base_count = T * min_width so every width on the grid keeps a whole
    number of personal blocks; rank = max(min(S, T), k^2) for conv keeps
    the general blocks expressive without inflating the linear case,
    where rank = base_count.
    """
    mw = Fraction(min_width)
    r1 = Fraction(spec.out_channels) * mw
    if r1.denominator != 1 or r1 <= 0:
        raise ConfigurationError(
            f"out_channels {spec.out_channels} * min_width {mw} is not a positive integer"
        )
    r1 = int(r1)
    if spec.kind == "conv":
        r2 = max(min(spec.in_channels, spec.out_channels), spec.kernel ** 2)
    else:
        r2 = r1
    return Coefficients(base_count=r1, rank=r2, min_width=mw)


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


@dataclass
class DecomposedLayer:
    """One layer's factors, possibly already pruned to (width, in_kept)."""

    general: np.ndarray   # (k^2 * base_count, rank), stacked u blocks
    personal: np.ndarray  # (rank, blocks_kept * in_kept), v blocks side by side
    bias: np.ndarray      # (out_kept,)
    spec: LayerSpec
    coef: Coefficients
    width: Fraction = Fraction(1)
    in_kept: int = -1  # -1 means the full in_channels

    def __post_init__(self):
        if self.in_kept < 0:
            self.in_kept = self.spec.in_channels
        k2 = self.spec.kernel ** 2
        if self.general.shape != (k2 * self.coef.base_count, self.coef.rank):
            raise DimensionError(f"general factor shape {self.general.shape}")
        if self.personal.shape != (self.coef.rank, self.blocks_kept * self.in_kept):
            raise DimensionError(f"personal factor shape {self.personal.shape}")
        if self.bias.shape != (self.out_kept,):
            raise DimensionError(f"bias shape {self.bias.shape}")

    @property
    def out_kept(self) -> int:
        v = Fraction(self.spec.out_channels) * self.width
        return int(v)

    @property
    def blocks_kept(self) -> int:
        return self.out_kept // self.coef.base_count


def init_layer(spec: LayerSpec, coef: Coefficients, rng) -> DecomposedLayer:
    """Full-width factors whose recovered weight matches a fan-in-scaled
    uniform init: general entries uniform in +-1/sqrt(S*k^2), personal
    blocks orthogonalized and column-normalized to unit gain."""
    k2 = spec.kernel ** 2
    bound = 1.0 / np.sqrt(spec.in_channels * k2)
    general = rng.uniform(-bound, bound, size=(k2 * coef.base_count, coef.rank))
    blocks = spec.out_channels // coef.base_count
    vs = []
    for _ in range(blocks):
        g = rng.standard_normal((coef.rank, spec.in_channels))
        if spec.in_channels >= coef.rank:
            q, _ = np.linalg.qr(g.T)
            v = q.T
        else:
            q, _ = np.linalg.qr(g)
            v = q
        v = v / np.linalg.norm(v, axis=0, keepdims=True)
        vs.append(v)
    personal = np.concatenate(vs, axis=1)
    bias = rng.uniform(-bound, bound, size=spec.out_channels)
    return DecomposedLayer(general, personal, bias, spec, coef)


# ---------------------------------------------------------------------------
# recovery

def recover_padfl_t(general, personal, spec, coef, out_kept=None, in_kept=None):
    """Graph-op recovery: channel c(i,j)=j*base_count+i is u_i @ v_j.

    Returns a (out_kept, in_kept, k, k) weight tensor node.
    """
    k = spec.kernel
    r1, r2 = coef.base_count, coef.rank
    out_kept = spec.out_channels if out_kept is None else out_kept
    in_kept = spec.in_channels if in_kept is None else in_kept
    blocks = out_kept // r1
    if general.data.shape != (k * k * r1, r2):
        raise DimensionError(f"general factor shape {general.data.shape}")
    if personal.data.shape != (r2, blocks * in_kept):
        raise DimensionError(f"personal factor shape {personal.data.shape}")
    prod = ad.ordered_matmul(general, personal)          # (k^2*r1, blocks*in)
    prod = ad.reshape(prod, (r1, k * k, blocks, in_kept))
    prod = ad.transpose(prod, (2, 0, 3, 1))              # (j, i, s, k^2)
    return ad.reshape(prod, (blocks * r1, in_kept, k, k))


def recover_padfl(layer: DecomposedLayer) -> np.ndarray:
    return recover_padfl_t(
        ad.const(layer.general), ad.const(layer.personal), layer.spec, layer.coef,
        out_kept=layer.out_kept, in_kept=layer.in_kept,
    ).data


def recover_flanc_t(general, personal, spec, out_kept=None, in_kept=None):
    """FLANC-style recovery: channel o_i spans an input-slab of columns.

    base_count is inferred from the factor shapes; requires the kept
    input count to be divisible by it.
    """
    k = spec.kernel
    out_kept = spec.out_channels if out_kept is None else out_kept
    in_kept = spec.in_channels if in_kept is None else in_kept
    rows, r2 = general.data.shape
    if rows % (k * k):
        raise DimensionError(f"general factor rows {rows} not a multiple of k^2")
    r1 = rows // (k * k)
    if in_kept % r1:
        raise ConfigurationError(f"in_channels {in_kept} not divisible by base_count {r1}")
    slab = in_kept // r1
    if personal.data.shape != (r2, out_kept * slab):
        raise DimensionError(f"personal factor shape {personal.data.shape}")
    prod = ad.ordered_matmul(general, personal)          # (k^2*r1, T*slab)
    prod = ad.reshape(prod, (r1, k * k, out_kept, slab))
    prod = ad.transpose(prod, (2, 3, 0, 1))              # (i, c, r, k^2); s = c*r1 + r
    return ad.reshape(prod, (out_kept, in_kept, k, k))


def recover_stacked(general, personal, spec, out_kept, in_kept, kind="padfl"):
    """(M, out_kept, in_kept, k, k) weights of M stacked factor pairs, for
    evaluation: general (M, k^2*base_count, rank), personal (M, rank, .).

    The products are summed rank by rank, as `ordered_matmul` does, so each
    slice is bit-identical to the graph recovery of that pair; `kind`
    picks the channel-aware ("padfl") or input-slab ("flanc") layout.
    """
    m, rows, rank = general.shape
    k = spec.kernel
    r1 = rows // (k * k)
    prod = np.zeros((m, rows, personal.shape[2]))
    for r in range(rank):
        prod += general[:, :, r, None] * personal[:, None, r, :]
    if kind == "padfl":
        prod = prod.reshape(m, r1, k * k, out_kept // r1, in_kept).transpose(0, 3, 1, 4, 2)
    else:
        prod = prod.reshape(m, r1, k * k, out_kept, in_kept // r1).transpose(0, 3, 4, 1, 2)
    # contiguous like the graph recovery, so the products see the same layout
    return np.ascontiguousarray(prod).reshape(m, out_kept, in_kept, k, k)


# ---------------------------------------------------------------------------
# analytic accounting

def param_count(spec: LayerSpec, coef: Coefficients, p, in_kept=None, include_bias=True) -> int:
    """Exact stored-float count of a width-p layer: full general factor
    plus pruned personal factor (and the pruned per-channel bias)."""
    p = Fraction(p)
    out_kept = Fraction(spec.out_channels) * p
    if out_kept.denominator != 1 or int(out_kept) % coef.base_count:
        raise ConfigurationError(f"width {p} incompatible with {spec.out_channels} channels")
    out_kept = int(out_kept)
    if in_kept is None:
        ik = Fraction(spec.in_channels) * p
        if ik.denominator != 1:
            raise ConfigurationError(f"width {p} does not keep whole input channels")
        in_kept = int(ik)
    k2 = spec.kernel ** 2
    n = k2 * coef.base_count * coef.rank
    n += coef.rank * (out_kept // coef.base_count) * in_kept
    if include_bias:
        n += out_kept
    return n


def flops_account(spec: LayerSpec, coef: Coefficients, p, batch, q, in_kept=None):
    """(forward multiply-adds, recovery-overhead ratio) for a width-p layer.

    q is the spatial size of the layer's output feature map (1 for
    linear). Recovery costs rank*k^2*(pS)*(pT) multiply-adds against a
    batch forward of B*q^2*k^2*(pS)*(pT): the ratio is rank/(B*q^2).
    """
    if batch < 1 or q < 1:
        raise ConfigurationError("batch and feature size must be >= 1")
    p = Fraction(p)
    t_kept = Fraction(spec.out_channels) * p
    if t_kept.denominator != 1:
        raise ConfigurationError(f"width {p} does not keep whole channels")
    if in_kept is None:
        s_kept = Fraction(spec.in_channels) * p
        if s_kept.denominator != 1:
            raise ConfigurationError(f"width {p} does not keep whole input channels")
        in_kept = int(s_kept)
    forward = batch * q * q * spec.kernel ** 2 * in_kept * int(t_kept)
    return forward, Fraction(coef.rank, batch * q * q)
