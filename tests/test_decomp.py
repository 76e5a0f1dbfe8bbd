from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padfl import autodiff as ad
from padfl import decomp
from padfl.config import RunConfig
from padfl.decomp import (
    LayerSpec,
    flops_account,
    init_general,
    init_personal,
    param_count,
)
from padfl.errors import ConfigurationError
from padfl.hypernet import share
from padfl.model import Layout, build_layout, init_plain

from util import (
    built_spec,
    conv2d_loops,
    personal_grid,
    prune_personal,
    recover_flanc,
    recover_graph,
    reduction_ratio,
    reference_weight,
    rel_err,
    stored_floats,
    supported_widths,
)


def random_layer(spec, seed):
    """Full-width (general, personal, bias) with normal entries."""
    rng = np.random.default_rng(seed)
    k2 = spec.kernel ** 2
    general = rng.normal(size=(k2 * spec.base_count, spec.rank))
    blocks = spec.out_channels // spec.base_count
    personal = rng.normal(size=(spec.rank, blocks * spec.in_channels))
    bias = rng.normal(size=spec.out_channels)
    return general, personal, bias


class TestSelectCoefficients:
    def test_conv_64_64_5(self):
        c = built_spec("conv", 64, 64, 5, Fraction(1, 16))
        assert (c.base_count, c.rank) == (4, 64)

    def test_linear_384_1600(self):
        c = built_spec("linear", 384, 1600, min_width=Fraction(1, 16))
        assert (c.base_count, c.rank) == (24, 24)

    def test_small_conv_kernel_dominates(self):
        c = built_spec("conv", 8, 8, 3, Fraction(1))
        assert (c.base_count, c.rank) == (8, 9)

    def test_non_integral_product_rejected(self):
        # 10 * 1/16 channels: `validate` rejects it, before any layout is built
        with pytest.raises(ConfigurationError, match="conv_channels must hold multiples of 16"):
            RunConfig(conv_channels=(10, 10), min_width=Fraction(1, 16)).finalize()

    def test_flanc_with_every_base_count_one_refused(self):
        build_layout((1, 8, 8), 2, Fraction(1, 4), (4, 8), recovery="flanc")
        with pytest.raises(ConfigurationError, match="would repeat Pa3dFL"):
            build_layout((1, 8, 8), 2, Fraction(1, 4), (4, 4), recovery="flanc")

    def test_width_grid(self):
        ws = supported_widths(Fraction(1, 4))
        assert ws == (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


class TestRecoverPadfl:
    def test_degenerate_single_block_column(self):
        # base_count == T: one personal block, recovery is a plain reshape
        spec = LayerSpec("conv", 4, 3, 2, base_count=4, rank=5)
        general, personal, _ = random_layer(spec, 0)
        w = recover_graph(general, personal, spec)
        prod = general @ personal  # (k^2*4, 3)
        expect = prod.reshape(4, 4, 3).transpose(0, 2, 1).reshape(4, 3, 2, 2)
        assert np.allclose(w, expect, atol=1e-12)

    def test_hand_blocks_t4_s2_k1(self):
        spec = LayerSpec("linear", 4, 2, 1, base_count=2, rank=2)
        u1 = np.array([[1.0, 2.0]])
        u2 = np.array([[3.0, -1.0]])
        v1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        v2 = np.array([[2.0, 1.0], [1.0, -1.0]])
        w = recover_graph(np.vstack([u1, u2]), np.hstack([v1, v2]), spec)
        assert w.shape == (4, 2)
        # channel c(i,j) = (j-1)*2 + i, 1-indexed
        assert np.allclose(w[0], u1 @ v1)
        assert np.allclose(w[1], u2 @ v1)
        assert np.allclose(w[2], u1 @ v2)
        assert np.allclose(w[3], u2 @ v2)

    def test_forward_equals_factored_path(self):
        # conv with the recovered weight vs im2col x personal-path x general-path
        spec = built_spec("conv", 8, 3, 3, Fraction(1, 4))
        general, personal, _ = random_layer(spec, 1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 6, 6))
        w = recover_graph(general, personal, spec)
        direct = ad.conv2d_infer(x.transpose(1, 2, 3, 0)[None], w[None], pad=1)[0]

        cols, ho, wo = ad._im2col(x.transpose(1, 2, 3, 0), spec.kernel, 1)
        n = cols.shape[1]
        k2 = spec.kernel ** 2
        # cols rows are (s, ky, kx); regroup and contract with v then u
        cols3 = cols.reshape(spec.in_channels, k2, n).transpose(2, 0, 1)
        blocks = spec.out_channels // spec.base_count
        v3 = personal.reshape(spec.rank, blocks, spec.in_channels)
        mid = np.einsum("nsk,rjs->njkr", cols3, v3)
        u3 = general.reshape(spec.base_count, k2, spec.rank)
        out = np.einsum("njkr,ikr->nji", mid, u3)  # (n, j, i)
        factored = out.reshape(n, blocks * spec.base_count)
        factored = factored.reshape(ho, wo, 2, -1).transpose(3, 0, 1, 2)  # batch-last
        assert np.abs(direct - factored).max() <= 1e-9

    def test_conv_with_recovered_weight_matches_loop_oracle(self):
        spec = built_spec("conv", 6, 2, 3, Fraction(1, 2))
        general, personal, _ = random_layer(spec, 3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 5, 5))
        w = recover_graph(general, personal, spec)
        got = ad.conv2d_infer(x.transpose(1, 2, 3, 0)[None], w[None], pad=0)[0]
        assert np.abs(got.transpose(3, 0, 1, 2) - conv2d_loops(x, w)).max() <= 1e-9


class TestRecoverFlanc:
    def test_degenerate_base_count_one(self):
        spec = LayerSpec("conv", 3, 2, 2, base_count=1, rank=5)
        rng = np.random.default_rng(5)
        u = rng.normal(size=(4, 5))  # k^2 * 1 rows -> base_count 1
        v = rng.normal(size=(5, 2 * 3))
        w = recover_flanc(u, v, spec)
        prod = u @ v
        for i in range(3):
            slab = prod[:, 2 * i:2 * (i + 1)]  # (k^2, S)
            assert np.allclose(w[i], slab.T.reshape(2, 2, 2))

    def test_hand_t2_s2_k1(self):
        spec = LayerSpec("linear", 2, 2, 1, base_count=2, rank=2)
        u = np.array([[1.0, 0.0], [2.0, 1.0]])  # rows (r, kappa=()) of 2 blocks
        v = np.array([[1.0, 3.0], [0.0, 1.0]])
        w = recover_flanc(u, v, spec)
        assert w.shape == (2, 2)
        prod = u @ v
        # channel i takes column i; s = c*R1 + r with one column per slab
        assert np.allclose(w[0], prod[:, 0])
        assert np.allclose(w[1], prod[:, 1])

    def test_recovered_count_and_shape_match_padfl(self):
        # same-shaped factors give same-shaped weights when S == T
        spec = built_spec("conv", 8, 8, 3, Fraction(1, 4))
        general, personal, _ = random_layer(spec, 6)
        wp = recover_graph(general, personal, spec)
        wf = recover_flanc(general, personal, spec)
        assert wp.shape == wf.shape == (8, 8, 3, 3)
        assert wf.size == spec.out_channels * spec.in_channels * spec.kernel ** 2

    def test_indivisible_input_rejected(self):
        spec = LayerSpec("conv", 4, 3, 1, base_count=2, rank=2)
        u = np.ones((2, 2))
        v = np.ones((2, 6))
        with pytest.raises(ConfigurationError):
            recover_flanc(u, v, spec)


def second_layer_layout(spec):
    """A layout whose layer 1 is `spec`; layer 0 and the head are
    placeholders."""
    first = LayerSpec("linear", spec.in_channels, 1, 1, base_count=1, rank=1, raw_input=True)
    return Layout((first, spec), 1, 2)


class TestGrid:
    @pytest.mark.parametrize("kind", ["padfl", "flanc"])
    def test_matches_oracle_at_every_width(self, kind):
        spec = LayerSpec("conv", 8, 4, 3, base_count=2, rank=6, recovery=kind)
        for raw in (False, True):
            spec = replace(spec, raw_input=raw)
            for p in supported_widths(Fraction(1, 4)):
                out_kept, in_kept = spec.kept(p)
                if kind == "flanc" and in_kept % 2:
                    with pytest.raises(ConfigurationError, match="divisible by base_count 2"):
                        spec.grid(p)
                else:
                    assert spec.grid(p) == personal_grid(kind, 2, out_kept, in_kept)


class TestWeightShape:
    @pytest.mark.parametrize("recovery", ["padfl", "flanc"])
    def test_recoveries_and_init_plain_share_it(self, recovery):
        # conv 4,8 and a hidden layer; FLANC cannot prune to 1/4 or 3/4,
        # where the second conv keeps an odd number of inputs
        layout = build_layout((1, 8, 8), 3, Fraction(1, 4), (4, 8), 3, hidden=(8,),
                              recovery=recovery)
        rng = np.random.default_rng(40)
        widths = supported_widths(Fraction(1, 4))
        if recovery == "flanc":
            widths = [Fraction(1, 2), Fraction(1)]
        for p in widths:
            plain = init_plain(layout, p, rng)
            for spec, dense in zip(layout.specs, plain.weights):
                shape = spec.weight_shape(p)
                assert len(shape) == (4 if spec.kind == "conv" else 2)
                a, b = spec.grid(p)
                u = rng.normal(size=(spec.kernel ** 2 * spec.base_count, spec.rank))
                v = rng.normal(size=(spec.rank, a * b))
                graph = decomp.recover_padfl_t(ad.const(u), ad.const(v), spec, p).data
                stacked = decomp.recover_padfl(u[None], v[None], spec, p)
                assert graph.shape == stacked.shape[1:] == dense.shape == shape


class TestRecoverStacked:
    @pytest.mark.parametrize("kind,dtype", [("padfl", np.float64), ("flanc", np.float64),
                                            ("padfl", np.float32), ("flanc", np.float32)],
                             ids=["padfl", "flanc", "padfl-float32", "flanc-float32"])
    def test_slices_bitwise_equal_graph_recovery(self, kind, dtype):
        spec = LayerSpec("conv", 8, 4, 3, base_count=2, rank=6, recovery=kind)
        rng = np.random.default_rng(12)
        p, out_kept, in_kept = Fraction(1, 2), 4, 2  # a pruned width
        cols = out_kept // 2 * in_kept if kind == "padfl" else out_kept * (in_kept // 2)
        u = rng.normal(size=(3, 9 * 2, 6)).astype(dtype)
        v = rng.normal(size=(3, 6, cols)).astype(dtype)
        got = decomp.recover_padfl(u, v, spec, p)
        assert got.shape == (3, out_kept, in_kept, 3, 3) and got.flags.c_contiguous
        assert got.dtype == dtype
        for j in range(3):
            assert np.array_equal(got[j], recover_graph(u[j], v[j], spec, p))


class TestOneRule:
    """Both recovery kinds through the one rule: the graph recovery, the
    stacked recovery and the hyper-network's `share` agree with the
    einsum oracle and with each other, and reject the same infeasible
    FLANC widths."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(kind=st.sampled_from(["padfl", "flanc"]), r1=st.integers(1, 3),
           n=st.integers(1, 3), s1=st.integers(1, 3), k=st.integers(1, 3),
           rank=st.integers(1, 4), m=st.integers(1, 3), data=st.data())
    def test_paths_agree(self, kind, r1, n, s1, k, rank, m, data):
        # min_width 1/n: T = r1*n output channels in n blocks, S = s1*n
        # inputs, so width j/n keeps r1*j outputs and s1*j inputs
        j = data.draw(st.integers(1, n), label="j")
        t, s, p = r1 * n, s1 * n, Fraction(j, n)
        out_kept, in_kept = r1 * j, s1 * j
        spec = LayerSpec("conv", t, s, k, base_count=r1, rank=rank, recovery=kind)
        layout = second_layer_layout(spec)
        rng = np.random.default_rng([r1, n, s1, k, rank, m, j])
        u = rng.normal(size=(m, k * k * r1, rank))
        if kind == "flanc" and (in_kept % r1 or s % r1):
            # the kept inputs, or else the full-width ones, do not split
            bad = p if in_kept % r1 else Fraction(1)
            v = np.ones((m, rank, 1))
            with pytest.raises(ConfigurationError):
                decomp.recover_padfl_t(ad.const(u[0]), ad.const(v[0]), spec, bad)
            with pytest.raises(ConfigurationError):
                decomp.recover_padfl(u, v, spec, bad)
            with pytest.raises(ConfigurationError, match="divisible by base_count"):
                share(layout, 1, np.empty(0), bad)  # raises before reading the column
            return
        full = personal_grid(kind, r1, t, s)
        v_full = rng.normal(size=(m, rank, full[0] * full[1]))
        bias = rng.normal(size=t)
        shares = [share(layout, 1, np.concatenate([v.ravel(), bias]), p)[0].reshape(rank, -1)
                  for v in v_full]
        stacked = decomp.recover_padfl(u, np.stack(shares), spec, p)
        for uj, vj, v_share, got in zip(u, v_full, shares, stacked):
            v_kept, _ = prune_personal(vj, bias, spec, p, in_kept)
            assert np.array_equal(v_kept, v_share)
            graph = decomp.recover_padfl_t(ad.const(uj), ad.const(v_kept), spec, p).data
            assert np.array_equal(got, graph)
            ref = reference_weight(uj, v_kept, spec, out_kept, in_kept)
            assert rel_err(got, ref) <= 1e-12 and rel_err(graph, ref) <= 1e-12
            whole = decomp.recover_padfl_t(ad.const(uj), ad.const(vj), spec, 1).data
            assert np.array_equal(graph, whole[:out_kept, :in_kept])


class TestPrune:
    SPEC = LayerSpec("conv", 8, 4, 3, base_count=2, rank=6)

    def make(self, seed=7):
        _, personal, bias = random_layer(self.SPEC, seed)
        return personal, bias

    def test_identity_prune(self):
        personal, bias = self.make()
        same_v, same_b = prune_personal(personal, bias, self.SPEC, Fraction(1), 4)
        assert np.array_equal(same_v, personal)
        assert np.array_equal(same_b, bias)

    def test_hand_counts(self):
        personal, bias = self.make()
        pruned_v, pruned_b = prune_personal(personal, bias, self.SPEC, Fraction(1, 2), 2)
        # keeps 2 of 4 blocks, 2 of 4 columns each
        assert pruned_v.shape == (6, 4)
        assert pruned_b.shape == (4,)
        assert personal.shape == (6, 16)

    def test_slice_equivalence_bitwise(self):
        general, personal, bias = random_layer(self.SPEC, 7)
        full = recover_graph(general, personal, self.SPEC)
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            for raw in (False, True):  # the kept inputs: 4 * p, or all 4
                spec = replace(self.SPEC, raw_input=raw)
                t_kept, in_kept = int(8 * p), 4 if raw else int(4 * p)
                pruned, _ = prune_personal(personal, bias, spec, p, in_kept)
                w = recover_graph(general, pruned, spec, p)
                assert np.array_equal(w, full[:t_kept, :in_kept, :, :])

    def test_unsupported_width_rejected(self):
        personal, bias = self.make()
        with pytest.raises(ConfigurationError):
            prune_personal(personal, bias, self.SPEC, Fraction(1, 3), 4)

    def test_flanc_prune_slice_equivalence(self):
        r1, r2 = 2, 6
        spec = LayerSpec("conv", 8, 4, 3, base_count=r1, rank=r2, recovery="flanc")
        rng = np.random.default_rng(8)
        u = rng.normal(size=(9 * r1, r2))
        v = rng.normal(size=(r2, 8 * (4 // r1)))
        full = recover_graph(u, v, spec)
        for p in (Fraction(1, 2), Fraction(1)):
            for raw in (False, True):  # the kept inputs: 4 * p, or all 4
                spec = replace(spec, raw_input=raw)
                in_kept = 4 if raw else int(4 * p)
                vk, _ = prune_personal(v, np.zeros(8), spec, p, in_kept)
                w = recover_graph(u, vk, spec, p)
                assert np.array_equal(w, full[:int(8 * p), :in_kept, :, :])


class TestAccounting:
    def test_conv_64_count(self):
        spec = built_spec("conv", 64, 64, 5, Fraction(1, 16))
        n = param_count(spec, 1) - spec.out_channels  # without the bias
        assert n == 64 * (1024 + 100) == 71936
        assert spec.out_channels * spec.in_channels * spec.kernel ** 2 == 102400

    def test_count_monotone_in_width(self):
        spec = replace(built_spec("conv", 32, 16, 3, Fraction(1, 8)), raw_input=False)
        counts = [param_count(spec, p) for p in supported_widths(Fraction(1, 8))]
        assert counts == sorted(counts)
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_count_equals_stored_floats(self):
        spec = LayerSpec("conv", 8, 4, 3, base_count=2, rank=6)
        general, personal, bias = random_layer(spec, 9)
        for p in supported_widths(Fraction(1, 4)):
            in_kept = int(4 * p)
            pruned_v, pruned_b = prune_personal(personal, bias, spec, p, in_kept)
            stored = pruned_v.size + general.size + pruned_b.size
            assert param_count(spec, p) == stored == stored_floats(spec, int(8 * p), in_kept)

    def test_flanc_count_equals_stored_floats(self):
        # the widths whose 4 * p kept inputs split into base_count 2 slabs
        spec = LayerSpec("conv", 8, 4, 3, base_count=2, rank=6, recovery="flanc")
        general, personal, bias = random_layer(spec, 9)
        for p in (Fraction(1, 2), Fraction(1)):
            pruned_v, pruned_b = prune_personal(personal, bias, spec, p, int(4 * p))
            assert param_count(spec, p) == pruned_v.size + general.size + pruned_b.size

    def test_appendix_formula_identity(self):
        for layer, mw in [
            (("conv", 64, 64, 5), Fraction(1, 16)),
            (("conv", 16, 8, 3), Fraction(1, 4)),
            (("linear", 24, 36), Fraction(1, 12)),
        ]:
            spec = replace(built_spec(*layer, min_width=mw), raw_input=False)
            for p in supported_widths(mw):
                if (Fraction(spec.in_channels) * p).denominator != 1:
                    continue
                t, s, k = spec.out_channels, spec.in_channels, spec.kernel
                expect = spec.rank * (
                    (p * p * s * t) / spec.base_count + spec.base_count * k * k
                )
                assert expect.denominator == 1
                t_kept, s_kept = int(t * p), int(s * p)
                assert (t_kept, s_kept) == spec.kept(p)
                assert param_count(spec, p) - t_kept == int(expect)
                ratio = reduction_ratio(spec, p)
                formula = float(p) * spec.rank * (
                    float(p / mw) * s + float(mw / p) * t * k * k
                ) / (s * t * k * k)
                assert abs(float(ratio) - formula) <= 1e-12

    def test_overhead_ratio(self):
        spec = built_spec("conv", 64, 64, 5, Fraction(1, 16), hw=(8, 8))
        _, ratio = flops_account(spec, 128, 1)
        assert ratio == Fraction(1, 128)

    def test_forward_flops_quadratic_in_width(self):
        spec = replace(built_spec("conv", 16, 16, 3, Fraction(1, 4), hw=(8, 8)), raw_input=False)
        f1, _ = flops_account(spec, 10, 1)
        f2, _ = flops_account(spec, 10, Fraction(1, 2))
        assert f1 == 4 * f2

    def test_overhead_vanishes_with_batch(self):
        spec = built_spec("conv", 16, 16, 3, Fraction(1, 4), hw=(8, 8))
        _, r_small = flops_account(spec, 10, 1)
        _, r_big = flops_account(spec, 10_000_000, 1)
        assert r_big < r_small and float(r_big) < 1e-4


class TestInit:
    def test_recovered_init_scale(self):
        spec = built_spec("conv", 16, 8, 3, Fraction(1, 4))
        rng = np.random.default_rng(10)
        general, personal = init_general(spec, rng), init_personal(spec, rng)
        w = recover_graph(general, personal, spec)
        bound = 1.0 / np.sqrt(8 * 9)
        target_std = bound / np.sqrt(3.0)  # std of U(-bound, bound)
        assert 0.5 * target_std < w.std() < 2.0 * target_std

    def test_personal_columns_unit_gain(self):
        spec = built_spec("conv", 8, 16, 3, Fraction(1, 2))
        personal = init_personal(spec, np.random.default_rng(11))
        norms = np.linalg.norm(personal, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-9)
