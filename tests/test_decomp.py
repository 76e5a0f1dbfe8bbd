from fractions import Fraction

import numpy as np
import pytest

from padfl import autodiff as ad
from padfl import decomp
from padfl.decomp import (
    Coefficients,
    DecomposedLayer,
    LayerSpec,
    flops_account,
    init_layer,
    param_count,
    recover_padfl,
    select_coefficients,
    supported_widths,
)
from padfl.errors import ConfigurationError

from util import (
    conv2d_loops,
    prune_flanc,
    prune_personal,
    recover_flanc,
    reduction_ratio,
)


def random_layer(spec, coef, seed):
    rng = np.random.default_rng(seed)
    k2 = spec.kernel ** 2
    general = rng.normal(size=(k2 * coef.base_count, coef.rank))
    blocks = spec.out_channels // coef.base_count
    personal = rng.normal(size=(coef.rank, blocks * spec.in_channels))
    bias = rng.normal(size=spec.out_channels)
    return DecomposedLayer(general, personal, bias, spec, coef)


class TestSelectCoefficients:
    def test_conv_64_64_5(self):
        c = select_coefficients(LayerSpec("conv", 64, 64, 5), Fraction(1, 16))
        assert (c.base_count, c.rank) == (4, 64)

    def test_linear_384_1600(self):
        c = select_coefficients(LayerSpec("linear", 384, 1600), Fraction(1, 16))
        assert (c.base_count, c.rank) == (24, 24)

    def test_small_conv_kernel_dominates(self):
        c = select_coefficients(LayerSpec("conv", 8, 8, 3), Fraction(1))
        assert (c.base_count, c.rank) == (8, 9)

    def test_non_integral_product_rejected(self):
        with pytest.raises(ConfigurationError):
            select_coefficients(LayerSpec("conv", 10, 10, 3), Fraction(1, 16))

    def test_width_grid(self):
        ws = supported_widths(Fraction(1, 4))
        assert ws == (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


class TestRecoverPadfl:
    def test_degenerate_single_block_column(self):
        # base_count == T: one personal block, recovery is a plain reshape
        spec = LayerSpec("conv", 4, 3, 2)
        coef = Coefficients(base_count=4, rank=5, min_width=Fraction(1))
        layer = random_layer(spec, coef, 0)
        w = recover_padfl(layer)
        prod = layer.general @ layer.personal  # (k^2*4, 3)
        expect = prod.reshape(4, 4, 3).transpose(0, 2, 1).reshape(4, 3, 2, 2)
        assert np.allclose(w, expect, atol=1e-12)

    def test_hand_blocks_t4_s2_k1(self):
        spec = LayerSpec("linear", 4, 2)
        coef = Coefficients(base_count=2, rank=2, min_width=Fraction(1, 2))
        u1 = np.array([[1.0, 2.0]])
        u2 = np.array([[3.0, -1.0]])
        v1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        v2 = np.array([[2.0, 1.0], [1.0, -1.0]])
        layer = DecomposedLayer(
            np.vstack([u1, u2]), np.hstack([v1, v2]), np.zeros(4), spec, coef
        )
        w = recover_padfl(layer)[:, :, 0, 0]
        # channel c(i,j) = (j-1)*2 + i, 1-indexed
        assert np.allclose(w[0], u1 @ v1)
        assert np.allclose(w[1], u2 @ v1)
        assert np.allclose(w[2], u1 @ v2)
        assert np.allclose(w[3], u2 @ v2)

    def test_forward_equals_factored_path(self):
        # conv with the recovered weight vs im2col x personal-path x general-path
        spec = LayerSpec("conv", 8, 3, 3, stride=1, pad=1)
        coef = select_coefficients(spec, Fraction(1, 4))
        layer = random_layer(spec, coef, 1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 6, 6))
        w = recover_padfl(layer)
        direct = ad.conv2d_infer(x, w, stride=1, pad=1)

        cols, ho, wo = ad._im2col(x, spec.kernel, 1, 1)
        n = cols.shape[1]
        k2 = spec.kernel ** 2
        # cols rows are (s, ky, kx); regroup and contract with v then u
        cols3 = cols.reshape(spec.in_channels, k2, n).transpose(2, 0, 1)
        blocks = spec.out_channels // coef.base_count
        v3 = layer.personal.reshape(coef.rank, blocks, spec.in_channels)
        mid = np.einsum("nsk,rjs->njkr", cols3, v3)
        u3 = layer.general.reshape(coef.base_count, k2, coef.rank)
        out = np.einsum("njkr,ikr->nji", mid, u3)  # (n, j, i)
        factored = out.reshape(n, blocks * coef.base_count)
        factored = factored.reshape(2, ho, wo, -1).transpose(0, 3, 1, 2)
        assert np.abs(direct - factored).max() <= 1e-9

    def test_conv_with_recovered_weight_matches_loop_oracle(self):
        spec = LayerSpec("conv", 6, 2, 3)
        coef = select_coefficients(spec, Fraction(1, 2))
        layer = random_layer(spec, coef, 3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 5, 5))
        w = recover_padfl(layer)
        got = ad.conv2d_infer(x, w)
        assert np.abs(got - conv2d_loops(x, w)).max() <= 1e-9


class TestRecoverFlanc:
    def test_degenerate_base_count_one(self):
        spec = LayerSpec("conv", 3, 2, 2)
        rng = np.random.default_rng(5)
        u = rng.normal(size=(4, 5))  # k^2 * 1 rows -> base_count 1
        v = rng.normal(size=(5, 2 * 3))
        w = recover_flanc(u, v, spec)
        prod = u @ v
        for i in range(3):
            slab = prod[:, 2 * i:2 * (i + 1)]  # (k^2, S)
            assert np.allclose(w[i], slab.T.reshape(2, 2, 2))

    def test_hand_t2_s2_k1(self):
        spec = LayerSpec("linear", 2, 2)
        u = np.array([[1.0, 0.0], [2.0, 1.0]])  # rows (r, kappa=()) of 2 blocks
        v = np.array([[1.0, 3.0], [0.0, 1.0]])
        w = recover_flanc(u, v, spec)[:, :, 0, 0]
        prod = u @ v
        # channel i takes column i; s = c*R1 + r with one column per slab
        assert np.allclose(w[0], prod[:, 0])
        assert np.allclose(w[1], prod[:, 1])

    def test_recovered_count_and_shape_match_padfl(self):
        # same-shaped factors give same-shaped weights when S == T
        spec = LayerSpec("conv", 8, 8, 3)
        coef = select_coefficients(spec, Fraction(1, 4))
        layer = random_layer(spec, coef, 6)
        wp = recover_padfl(layer)
        wf = recover_flanc(layer.general, layer.personal, spec)
        assert wp.shape == wf.shape == (8, 8, 3, 3)
        assert wf.size == spec.weight_size

    def test_indivisible_input_rejected(self):
        spec = LayerSpec("conv", 4, 3, 1)
        u = np.ones((2, 2))
        v = np.ones((2, 6))
        with pytest.raises(ConfigurationError):
            recover_flanc(u, v, spec)


class TestRecoverStacked:
    @pytest.mark.parametrize("kind", ["padfl", "flanc"])
    def test_slices_bitwise_equal_graph_recovery(self, kind):
        spec = LayerSpec("conv", 8, 4, 3)
        coef = Coefficients(base_count=2, rank=6, min_width=Fraction(1, 4))
        rng = np.random.default_rng(12)
        out_kept, in_kept = 4, 2  # a pruned width
        cols = out_kept // 2 * in_kept if kind == "padfl" else out_kept * (in_kept // 2)
        u = rng.normal(size=(3, 9 * 2, 6))
        v = rng.normal(size=(3, 6, cols))
        got = decomp.recover_stacked(u, v, spec, out_kept, in_kept, kind)
        assert got.shape == (3, out_kept, in_kept, 3, 3) and got.flags.c_contiguous
        for j in range(3):
            if kind == "padfl":
                ref = decomp.recover_padfl_t(ad.const(u[j]), ad.const(v[j]), spec, coef,
                                             out_kept=out_kept, in_kept=in_kept).data
            else:
                ref = recover_flanc(u[j], v[j], spec, out_kept=out_kept, in_kept=in_kept)
            assert np.array_equal(got[j], ref)


class TestPrune:
    def make(self, seed=7):
        spec = LayerSpec("conv", 8, 4, 3)
        coef = Coefficients(base_count=2, rank=6, min_width=Fraction(1, 4))
        return random_layer(spec, coef, seed)

    def test_identity_prune(self):
        layer = self.make()
        same = prune_personal(layer, Fraction(1), 4)
        assert np.array_equal(same.personal, layer.personal)
        assert np.array_equal(same.bias, layer.bias)

    def test_hand_counts(self):
        layer = self.make()
        pruned = prune_personal(layer, Fraction(1, 2), 2)
        # keeps 2 of 4 blocks, 2 of 4 columns each
        assert pruned.personal.shape == (6, 4)
        assert pruned.bias.shape == (4,)
        assert layer.personal.shape == (6, 16)

    def test_slice_equivalence_bitwise(self):
        layer = self.make()
        full = recover_padfl(layer)
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            for in_kept in (1, 2, 4):
                pruned = prune_personal(layer, p, in_kept)
                w = recover_padfl(pruned)
                t_kept = int(8 * p)
                assert np.array_equal(w, full[:t_kept, :in_kept, :, :])

    def test_general_factor_untouched(self):
        layer = self.make()
        pruned = prune_personal(layer, Fraction(1, 4), 2)
        assert pruned.general is layer.general

    def test_unsupported_width_rejected(self):
        layer = self.make()
        with pytest.raises(ConfigurationError):
            prune_personal(layer, Fraction(1, 3), 4)

    def test_flanc_prune_slice_equivalence(self):
        spec = LayerSpec("conv", 8, 4, 3)
        rng = np.random.default_rng(8)
        r1, r2 = 2, 6
        u = rng.normal(size=(9 * r1, r2))
        v = rng.normal(size=(r2, 8 * (4 // r1)))
        full = recover_flanc(u, v, spec)
        for p in (Fraction(1, 2), Fraction(1)):
            for in_kept in (2, 4):
                vk = prune_flanc(v, spec, r1, p, in_kept)
                w = recover_flanc(u, vk, spec, out_kept=int(8 * p), in_kept=in_kept)
                assert np.array_equal(w, full[:int(8 * p), :in_kept, :, :])


class TestAccounting:
    def test_conv_64_count(self):
        spec = LayerSpec("conv", 64, 64, 5)
        coef = select_coefficients(spec, Fraction(1, 16))
        n = param_count(spec, coef, 1, include_bias=False)
        assert n == 64 * (1024 + 100) == 71936
        assert spec.weight_size == 102400

    def test_count_monotone_in_width(self):
        spec = LayerSpec("conv", 32, 16, 3)
        coef = select_coefficients(spec, Fraction(1, 8))
        counts = [param_count(spec, coef, p) for p in supported_widths(Fraction(1, 8))]
        assert counts == sorted(counts)
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_count_equals_stored_floats(self):
        spec = LayerSpec("conv", 8, 4, 3)
        coef = Coefficients(2, 6, Fraction(1, 4))
        layer = random_layer(spec, coef, 9)
        for p in supported_widths(Fraction(1, 4)):
            in_kept = int(4 * p)
            pruned = prune_personal(layer, p, in_kept)
            stored = pruned.personal.size + pruned.general.size + pruned.bias.size
            assert param_count(spec, coef, p, in_kept=in_kept) == stored

    def test_appendix_formula_identity(self):
        for spec, mw in [
            (LayerSpec("conv", 64, 64, 5), Fraction(1, 16)),
            (LayerSpec("conv", 16, 8, 3), Fraction(1, 4)),
            (LayerSpec("linear", 24, 36), Fraction(1, 12)),
        ]:
            coef = select_coefficients(spec, mw)
            for p in supported_widths(mw):
                if (Fraction(spec.in_channels) * p).denominator != 1:
                    continue
                t, s, k = spec.out_channels, spec.in_channels, spec.kernel
                expect = coef.rank * (
                    (p * p * s * t) / coef.base_count + coef.base_count * k * k
                )
                assert expect.denominator == 1
                assert param_count(spec, coef, p, include_bias=False) == int(expect)
                ratio = reduction_ratio(spec, coef, p)
                formula = float(p) * coef.rank * (
                    float(p / coef.min_width) * s + float(coef.min_width / p) * t * k * k
                ) / (s * t * k * k)
                assert abs(float(ratio) - formula) <= 1e-12

    def test_overhead_ratio(self):
        spec = LayerSpec("conv", 64, 64, 5)
        coef = select_coefficients(spec, Fraction(1, 16))
        _, ratio = flops_account(spec, coef, 1, batch=128, q=8)
        assert ratio == Fraction(1, 128)

    def test_forward_flops_quadratic_in_width(self):
        spec = LayerSpec("conv", 16, 16, 3)
        coef = select_coefficients(spec, Fraction(1, 4))
        f1, _ = flops_account(spec, coef, 1, batch=10, q=8)
        f2, _ = flops_account(spec, coef, Fraction(1, 2), batch=10, q=8)
        assert f1 == 4 * f2

    def test_overhead_vanishes_with_batch(self):
        spec = LayerSpec("conv", 16, 16, 3)
        coef = select_coefficients(spec, Fraction(1, 4))
        _, r_small = flops_account(spec, coef, 1, batch=10, q=8)
        _, r_big = flops_account(spec, coef, 1, batch=10_000_000, q=8)
        assert r_big < r_small and float(r_big) < 1e-4


class TestInit:
    def test_recovered_init_scale(self):
        spec = LayerSpec("conv", 16, 8, 3)
        coef = select_coefficients(spec, Fraction(1, 4))
        layer = init_layer(spec, coef, np.random.default_rng(10))
        w = recover_padfl(layer)
        bound = 1.0 / np.sqrt(8 * 9)
        target_std = bound / np.sqrt(3.0)  # std of U(-bound, bound)
        assert 0.5 * target_std < w.std() < 2.0 * target_std

    def test_personal_columns_unit_gain(self):
        spec = LayerSpec("conv", 8, 16, 3)
        coef = select_coefficients(spec, Fraction(1, 2))
        layer = init_layer(spec, coef, np.random.default_rng(11))
        norms = np.linalg.norm(layer.personal, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-9)
