import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padfl import autodiff as ad
from padfl.errors import DimensionError

from util import conv2d_loops, conv_block_loops, finite_diff, graph_nodes, rel_err


def scalarize(t):
    return ad.frobenius_sq(t)


def cf(x):
    """(B, C, H, W) -> batch-last (C, H, W, B), the conv layout."""
    return x.transpose(1, 2, 3, 0)


def bf(x):
    """Batch-last (C, H, W, B) -> (B, C, H, W), the inverse of `cf`."""
    return x.transpose(3, 0, 1, 2)


def no_bias(w):
    """A zero (T,) bias for a (T, S, k, k) conv weight, in its dtype."""
    return ad.const(np.zeros(w.shape[0], dtype=w.dtype))


class TestMatmul:
    def test_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        out = ad.matmul(ad.const(np.eye(3)), ad.const(a))
        assert np.array_equal(out.data, a)

    def test_hand_product(self):
        a = ad.const([[1.0, 2.0], [3.0, 4.0]])
        b = ad.const([[1.0], [1.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        la, lb = ad.leaf(a), ad.leaf(b)
        out = ad.matmul(la, lb)
        # sum(A@B) via frobenius against ones
        s = ad.frobenius_sq(ad.add(out, ad.const(np.zeros_like(out.data))))
        ad.backward(s)
        # analytic for sum-of-squares: 2*(A@B)@B^T; check vs finite differences
        fd = finite_diff(lambda xs: float(((xs[0] @ xs[1]) ** 2).sum()), [a, b])
        assert rel_err(la.grad, fd[0]) <= 1e-6
        assert rel_err(lb.grad, fd[1]) <= 1e-6

    def test_plain_sum_grad_matches_ones_bt(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        la, lb = ad.leaf(a), ad.leaf(b)
        out = ad.matmul(la, lb)
        # seed gradient of ones == gradient of sum()
        flat = ad.reshape(out, (1, out.data.size))
        total = ad.matmul(flat, ad.const(np.ones((out.data.size, 1))))
        ad.backward(total)
        assert rel_err(la.grad, np.ones((3, 2)) @ b.T) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(ad.const(np.ones((2, 3))), ad.const(np.ones((2, 3))))

    def test_fused_bias_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        w, x, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=3)
        lw, lx, lb = ad.leaf(w), ad.leaf(x), ad.leaf(b)
        out = ad.matmul(lw, lx, bias=lb)
        assert np.array_equal(out.data, w @ x + b[:, None])
        ad.backward(ad.frobenius_sq(out))
        fd = finite_diff(lambda xs: float(((xs[0] @ xs[1] + xs[2][:, None]) ** 2).sum()),
                         [w, x, b])
        for got, ref in zip((lw.grad, lx.grad, lb.grad), fd):
            assert rel_err(got, ref) <= 1e-6


class TestConv2d:
    def test_one_by_one_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 5, 5))
        w = np.eye(3).reshape(3, 3, 1, 1)
        out = ad.conv2d(ad.const(cf(x)), ad.const(w), 0, no_bias(w))
        assert np.allclose(bf(out.data), x)

    def test_all_ones_3x3(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out = ad.conv2d(ad.const(cf(x)), ad.const(w), 0, no_bias(w))
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 9.0

    @pytest.mark.parametrize("pad", [0, 1])
    def test_matches_nested_loops(self, pad):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        out = ad.conv2d(ad.const(cf(x)), ad.const(w), pad, no_bias(w))
        ref = conv2d_loops(x, w, pad=pad)
        assert np.abs(bf(out.data) - ref).max() <= 1e-12

    def test_gradient_fd(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        lx, lw = ad.leaf(cf(x)), ad.leaf(w)
        loss = ad.frobenius_sq(ad.conv2d(lx, lw, 1, no_bias(w)))
        ad.backward(loss)
        fd = finite_diff(
            lambda arrs: float((conv2d_loops(arrs[0], arrs[1], pad=1) ** 2).sum()), [x, w]
        )
        assert rel_err(bf(lx.grad), fd[0]) <= 1e-5
        assert rel_err(lw.grad, fd[1]) <= 1e-5

    def test_geometry_error(self):
        w = np.ones((1, 1, 5, 5))
        with pytest.raises(DimensionError):
            ad.conv2d(ad.const(cf(np.ones((1, 1, 2, 2)))), ad.const(w), 0, no_bias(w))

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("bsz,dtype", [(1, np.float64), (3, np.float64), (3, np.float32)],
                             ids=["1", "3", "3-float32"])
    def test_stacked_infer_slices_equal_single_conv(self, shared, bsz, dtype):
        # M weights on one shared input, or each on its own input (folded
        # into one im2col): slice j is bitwise the graph conv of weight j,
        # in either dtype
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 5, 3, 6, 6)).astype(dtype)
        x = rng.normal(size=(1 if shared else 4, bsz, 3, 7, 7)).astype(dtype)
        out = ad.conv2d_infer(x.transpose(0, 2, 3, 4, 1), w, pad=2)
        assert out.shape == (4, 5, 6, 6, bsz) and out.dtype == dtype
        for j in range(4):
            xj = x[0 if shared else j]
            single = ad.conv2d(ad.const(cf(xj)), ad.const(w[j]), 2, no_bias(w[j])).data
            assert np.array_equal(out[j], single) and single.dtype == dtype
            loops = conv2d_loops(xj.astype(np.float64), w[j].astype(np.float64), pad=2)
            assert np.abs(bf(out[j]) - loops).max() <= (1e-12 if dtype == np.float64 else 1e-4)


class TestIm2col:
    """`_im2col` against its index formula, and `_col2im` as its adjoint,
    on batch-last inputs with non-square maps."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(data=st.data(), c=st.integers(1, 3), bsz=st.integers(1, 3),
           k=st.sampled_from([1, 3, 5]), seed=st.integers(0, 2 ** 16))
    def test_entries_and_adjoint(self, data, c, bsz, k, seed):
        pad = data.draw(st.integers(0, k // 2))
        low = max(1, k - 2 * pad)
        h = data.draw(st.integers(low, low + 5))
        w = data.draw(st.integers(low, low + 5).filter(lambda v: v != h))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c, h, w, bsz))
        cols, ho, wo = ad._im2col(x, k, pad)
        assert (ho, wo) == (h + 2 * pad - k + 1, w + 2 * pad - k + 1)
        assert cols.shape == (c * k * k, ho * wo * bsz)
        # row (ch, ky, kx), column (y, x, b) holds x[ch, y+ky-pad, x+kx-pad, b]
        for ch in range(c):
            for ky in range(k):
                for kx in range(k):
                    for y in range(ho):
                        for xx in range(wo):
                            for b in range(bsz):
                                iy, ix = y + ky - pad, xx + kx - pad
                                inside = 0 <= iy < h and 0 <= ix < w
                                want = x[ch, iy, ix, b] if inside else 0.0
                                got = cols[(ch * k + ky) * k + kx, (y * wo + xx) * bsz + b]
                                assert got == want
        g = rng.normal(size=cols.shape)
        lhs = float((cols * g).sum())
        rhs = float((x * ad._col2im(g, x.shape, k, pad, ho, wo)).sum())
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(cols) * np.linalg.norm(g)


class TestConvBlockChain:
    """conv2d -> maxpool2x2 -> relu, the graph's conv block, against the
    loop oracle; forced ties zero the leading input rows, so whole pool
    windows hold the bias alone and tie exactly."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(k=st.sampled_from([1, 3, 5]), hw=st.permutations([2, 4, 6]),
           s=st.integers(1, 4), t=st.integers(1, 4), bsz=st.integers(1, 3),
           ties=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_values_and_gradients(self, k, hw, s, t, bsz, ties, seed):
        h, wd, pad = hw[0], hw[1], k // 2
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(bsz, s, h, wd))
        if ties:
            x[:, :, :pad + 2] = 0.0
        w, b = rng.normal(size=(t, s, k, k)), rng.normal(size=t)

        def block(arrs):
            lx, lw, lb = arrs
            return ad.relu(ad.maxpool2x2(ad.conv2d(lx, lw, pad=pad, bias=lb)))

        leaves = [ad.leaf(cf(x)), ad.leaf(w), ad.leaf(b)]
        out = block(leaves)
        ad.backward(ad.frobenius_sq(out))
        ref, grads = conv_block_loops(x, w, b, pad, 2 * bf(out.data))
        assert np.abs(bf(out.data) - ref).max() <= 1e-12
        got = [bf(leaves[0].grad), leaves[1].grad, leaves[2].grad]
        for g, r in zip(got, grads):
            assert rel_err(g, r) <= 1e-12
        if not ties:  # a tie is a kink, where differences do not converge
            fd = finite_diff(lambda arrs: float(
                (block([ad.const(a) for a in arrs]).data ** 2).sum()), [cf(x), w, b])
            for g, r in zip([leaf.grad for leaf in leaves], fd):
                assert rel_err(g, r) <= 1e-5


class TestPrimitives:
    def test_relu_values(self):
        out = ad.relu(ad.const([-1.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 2.0])

    def test_cross_entropy_uniform(self):
        logits = np.zeros((4, 10))
        for label in (0, 7):
            loss = ad.cross_entropy(ad.const(logits), np.full(4, label))
            assert abs(float(loss.data) - np.log(10)) <= 1e-12

    def test_cross_entropy_empty_axis(self):
        with pytest.raises(DimensionError):
            ad.cross_entropy(ad.const(np.zeros((0, 3))), np.zeros(0, dtype=int))
        with pytest.raises(DimensionError):
            ad.softmax(ad.const(np.zeros((3, 0))))

    def test_detach_blocks_gradient(self):
        x = ad.leaf(np.array([1.0, -2.0, 3.0]))
        d = ad.detach(ad.mul_scalar(x, ad.const(2.0)))
        loss = ad.frobenius_sq(d)
        ad.backward(loss)
        assert x.grad is None

    def test_maxpool_values_and_grad(self):
        x = np.array([[[[1.0, 2.0, 5.0, 0.0],
                        [3.0, 4.0, 1.0, 1.0],
                        [0.0, 0.0, 2.0, 2.0],
                        [9.0, 0.0, 2.0, 2.0]]]])
        lx = ad.leaf(cf(x))
        out = ad.maxpool2x2(lx)
        assert np.array_equal(bf(out.data), [[[[4.0, 5.0], [9.0, 2.0]]]])
        ad.backward(ad.frobenius_sq(out))
        # gradient lands on window maxima; exact ties all share it
        expected = np.zeros_like(x)
        expected[0, 0, 1, 1] = 2 * 4.0
        expected[0, 0, 0, 2] = 2 * 5.0
        expected[0, 0, 3, 0] = 2 * 9.0
        expected[0, 0, 2, 2:] = 2 * 2.0
        expected[0, 0, 3, 2:] = 2 * 2.0
        assert np.array_equal(bf(lx.grad), expected)

    def test_maxpool_odd_dims(self):
        with pytest.raises(DimensionError):
            ad.maxpool2x2(ad.const(cf(np.zeros((1, 1, 3, 4)))))

    def test_add_bias_patterns(self):
        a = ad.const(np.ones((2, 3)))
        assert ad.add(a, ad.const(np.array([1.0, 2.0, 3.0]))).data[1, 2] == 4.0
        with pytest.raises(DimensionError):  # matmul fuses a column bias
            ad.add(a, ad.const(np.array([[1.0], [2.0]])))
        with pytest.raises(DimensionError):
            ad.add(a, ad.const(np.ones((3, 2))))
        img = ad.const(np.zeros((2, 3, 4, 4)))
        with pytest.raises(DimensionError):  # conv2d fuses its own bias
            ad.add(img, ad.const(np.array([1.0, 2.0, 3.0])))

    def test_mul_scalar_and_exp(self):
        s = ad.leaf(np.array(np.log(2.0)))
        x = ad.leaf(np.array([1.0, 2.0]))
        out = ad.mul_scalar(x, ad.exp(s))
        assert np.allclose(out.data, [2.0, 4.0])
        ad.backward(ad.frobenius_sq(out))
        fd = finite_diff(
            lambda arrs: float(((arrs[1] * np.exp(arrs[0])) ** 2).sum()),
            [np.array(np.log(2.0)), np.array([1.0, 2.0])],
        )
        assert rel_err(s.grad, fd[0]) <= 1e-6
        assert rel_err(x.grad, fd[1]) <= 1e-6


GRAD_CASES = {
    "relu": (lambda t: ad.relu(t), lambda a: np.where(a > 0, a, 0.0), (3, 4)),
    "softmax": (lambda t: ad.softmax(t), lambda a: (np.exp(a - a.max(-1, keepdims=True))
                                                    / np.exp(a - a.max(-1, keepdims=True)).sum(-1, keepdims=True)), (3, 5)),
    "scale": (lambda t: ad.mul_scalar(t, ad.const(-1.7)), lambda a: -1.7 * a, (4, 2)),
    "exp": (lambda t: ad.exp(t), np.exp, (3, 3)),
    "reshape": (lambda t: ad.reshape(t, (2, 6)), lambda a: a.reshape(2, 6), (3, 4)),
    "transpose": (lambda t: ad.transpose(t, (1, 0)), lambda a: a.T, (3, 4)),
    "slice": (lambda t: ad.slice_t(t, (slice(0, 2), slice(1, 3))), lambda a: a[0:2, 1:3], (3, 4)),
}


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_unary_gradients_match_fd(name):
    build, ref, shape = GRAD_CASES[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    a = rng.normal(size=shape) + 0.1  # keep relu inputs off the kink
    lx = ad.leaf(a)
    ad.backward(ad.frobenius_sq(build(lx)))
    fd = finite_diff(lambda arrs: float((ref(arrs[0]) ** 2).sum()), [a])
    assert rel_err(lx.grad, fd[0]) <= 1e-4


def test_binary_gradients_match_fd():
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    la, lb = ad.leaf(a), ad.leaf(b)
    ad.backward(ad.frobenius_sq(ad.add(la, lb)))
    fd = finite_diff(lambda arrs: float(((arrs[0] + arrs[1]) ** 2).sum()), [a, b])
    assert rel_err(la.grad, fd[0]) <= 1e-4
    assert rel_err(lb.grad, fd[1]) <= 1e-4


def test_cross_entropy_gradient_fd():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    lz = ad.leaf(z)
    ad.backward(ad.cross_entropy(lz, labels))

    def f(arrs):
        zz = arrs[0]
        m = zz.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(zz - m).sum(axis=1))
        return float((lse - zz[np.arange(5), labels]).mean())

    fd = finite_diff(f, [z])
    assert rel_err(lz.grad, fd[0]) <= 1e-4


def _ones(*shape):
    return ad.const(np.ones(shape))


# one call per DimensionError guard, and the words its message must hold
GUARD_CASES = {
    "matmul_2d": (lambda: ad.matmul(_ones(3), _ones(3, 2)), "expects 2-D operands"),
    "matmul_bias": (lambda: ad.matmul(_ones(2, 3), _ones(3, 4), bias=_ones(4)),
                    r"bias shape \(4,\), expected \(2,\)"),
    "residual_shape": (lambda: ad.residual(_ones(2, 3), np.ones((3, 2))),
                       r"residual shape \(3, 2\), expected \(2, 3\)"),
    "conv2d_4d": (lambda: ad.conv2d(_ones(1, 4, 4), _ones(1, 1, 3, 3), 0, _ones(1)),
                  "expects 4-D input and weight"),
    "conv2d_square": (lambda: ad.conv2d(_ones(1, 4, 4, 1), _ones(1, 1, 3, 1), 0, _ones(1)),
                      "kernel must be square"),
    "conv2d_channels": (lambda: ad.conv2d(_ones(2, 4, 4, 1), _ones(1, 1, 3, 3), 0, _ones(1)),
                        "channels: input 2, weight 1"),
    "conv2d_bias": (lambda: ad.conv2d(_ones(1, 4, 4, 1), _ones(1, 1, 3, 3), 0, _ones(2)),
                    r"bias shape \(2,\), expected \(1,\)"),
    "maxpool2x2_4d": (lambda: ad.maxpool2x2(_ones(2, 2, 2)), "expects a 4-D tensor"),
    "cross_entropy_labels": (lambda: ad.cross_entropy(_ones(3, 2), np.zeros(2, dtype=int)),
                             "one id per row"),
    "mul_scalar_0d": (lambda: ad.mul_scalar(_ones(2), _ones(1)), "needs a 0-D tensor"),
}


@pytest.mark.parametrize("name", sorted(GUARD_CASES))
def test_shape_guards_raise_dimension_error(name):
    call, message = GUARD_CASES[name]
    with pytest.raises(DimensionError, match=message):
        call()


class TestGraphDiscipline:
    def test_backward_never_mutates_forward_values(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 3))
        lx = ad.leaf(x)
        mid = ad.relu(ad.matmul(lx, lx))
        snap = mid.data.copy()
        ad.backward(ad.frobenius_sq(mid))
        assert np.array_equal(mid.data, snap)
        assert np.array_equal(lx.data, x)

    def test_tensor_values_are_frozen(self):
        t = ad.const(np.ones(3))
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_leaf_wraps_its_array_and_const_copies(self):
        a, c = np.ones(3), np.ones(3)
        assert ad.leaf(a).data is a and not a.flags.writeable
        assert not np.shares_memory(ad.const(c).data, c) and c.flags.writeable

    def test_backward_keeps_leaf_gradients_only(self):
        # a conv block, an add with a constant and a frobenius_sq: every
        # interior gradient is released once passed on, and the leaves'
        # still match finite differences
        rng = np.random.default_rng(16)
        x, w, b = rng.normal(size=(2, 2, 4, 4)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
        shift = rng.normal(size=(3, 2, 2, 2))

        def loss_of(arrs, wrap):
            lx, lw, lb = (wrap(a) for a in arrs)
            block = ad.relu(ad.maxpool2x2(ad.conv2d(lx, lw, pad=1, bias=lb)))
            return ad.frobenius_sq(ad.add(block, ad.const(shift)))

        leaves = [ad.leaf(cf(x)), ad.leaf(w), ad.leaf(b)]
        root = loss_of(leaves, lambda node: node)
        ad.backward(root)
        interior = [node for node in graph_nodes([root]) if node.backward_fn is not None]
        assert len(interior) == 5
        assert all(node.grad is None for node in interior)
        fd = finite_diff(lambda arrs: float(loss_of(arrs, ad.const).data), [cf(x), w, b])
        for leaf, ref in zip(leaves, fd):
            assert rel_err(leaf.grad, ref) <= 1e-5

    def test_repeated_backward_bit_identical(self):
        def once():
            rng = np.random.default_rng(14)
            x = ad.leaf(rng.normal(size=(4, 4)))
            w = ad.leaf(rng.normal(size=(4, 4)))
            loss = ad.cross_entropy(ad.matmul(ad.relu(ad.matmul(x, w)), w), np.arange(4))
            ad.backward(loss)
            return x.grad.copy(), w.grad.copy()

        g1, g2 = once(), once()
        assert np.array_equal(g1[0], g2[0])
        assert np.array_equal(g1[1], g2[1])

    def test_diamond_graph_accumulates_once_per_node(self):
        x = ad.leaf(np.array([[2.0]]))
        y = ad.add(x, x)  # 2x
        loss = ad.frobenius_sq(y)  # 4x^2 -> d/dx = 8x = 16
        ad.backward(loss)
        assert x.grad.item() == 16.0

    def test_backward_needs_scalar_root(self):
        with pytest.raises(DimensionError):
            ad.backward(ad.leaf(np.ones(3)))

    def test_gradient_shared_through_add_is_not_aliased(self):
        # add hands one gradient array to both parents, and `a` also takes
        # relu's freshly owned gradient: b's gradient must stay 2R and a's
        # must be 2R (1 + [a > 0]), R = a + b + relu(a)
        rng = np.random.default_rng(15)
        av, bv = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        a, b = ad.leaf(av), ad.leaf(bv)
        ad.backward(ad.frobenius_sq(ad.add(ad.add(a, b), ad.relu(a))))
        r2 = 2 * (av + bv + np.maximum(av, 0.0))
        assert not np.shares_memory(a.grad, b.grad)
        assert rel_err(b.grad, r2) <= 1e-12
        assert rel_err(a.grad, r2 * (1 + (av > 0))) <= 1e-12
