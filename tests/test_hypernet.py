import copy
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from padfl import autodiff as ad
from padfl import hypernet as hn
from padfl.errors import ConfigurationError
from padfl.model import ClientModel, Layout, build_layout

from util import (
    aggregate_embedding,
    encode,
    finite_diff,
    generate_one,
    hn_loss,
    prune_personal,
    reference_personal,
    rel_err,
)


def tiny_layout():
    # one decomposable linear layer (2 -> 4) plus a 2-class head
    return build_layout((1, 1, 2), 2, Fraction(1, 2), hidden=(4,))


def make_state(layout, n_clients=3, embed=4, hidden=6, depth=2, seed=0):
    return hn.init_hypernet(layout, n_clients, embed, hidden, depth,
                            np.random.default_rng(seed))


class TestEncode:
    def test_identity_when_depth_zero(self):
        layout = tiny_layout()
        state = make_state(layout, depth=0)
        assert np.array_equal(encode(state), state.embeddings)

    def test_identical_columns_encode_identically(self):
        layout = tiny_layout()
        state = make_state(layout, n_clients=4, depth=3, seed=1)
        emb = state.embeddings.copy()
        emb[:, 2] = emb[:, 0]
        state.embeddings = emb
        enc = encode(state)
        assert np.array_equal(enc[:, 2], enc[:, 0])

    def test_encoder_gradient_matches_fd(self):
        layout = tiny_layout()
        state = make_state(layout, n_clients=3, embed=3, hidden=4, depth=2, seed=2)

        def f(arrays):
            s = copy.deepcopy(state)
            s.embeddings = arrays[0]
            return float(encode(s).sum())

        nodes = hn.HyperNetState.from_arrays([ad.leaf(a) for a in state.arrays()],
                                             len(state.encoder))
        enc = hn._encode_t(nodes)
        total = ad.matmul(ad.matmul(ad.const(np.ones((1, enc.data.shape[0]))), enc),
                          ad.const(np.ones((enc.data.shape[1], 1))))
        ad.backward(ad.reshape(total, (1, 1)))
        fd = finite_diff(f, [state.embeddings], eps=1e-5)
        assert rel_err(nodes.embeddings.grad, fd[0]) <= 1e-4


class TestAggregate:
    def test_single_client_returns_own_embedding(self):
        enc = np.random.default_rng(3).normal(size=(5, 1))
        for tau in (0.1, 1.0, 100.0):
            out = aggregate_embedding(enc, 0, tau)
            assert np.allclose(out, enc[:, 0])

    def test_large_temperature_gives_row_mean(self):
        rng = np.random.default_rng(4)
        enc = rng.uniform(-1, 1, size=(4, 6)) / 2.0
        out = aggregate_embedding(enc, 2, 1e6)
        assert np.abs(out - enc.mean(axis=1)).max() <= 1e-6

    def test_small_temperature_selects_argmax(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            enc = rng.normal(size=(4, 7))
            i = int(rng.integers(0, 7))
            sims = enc.T @ enc[:, i]
            out = aggregate_embedding(enc, i, 1e-6)
            assert np.allclose(out, enc[:, sims.argmax()], atol=1e-9)

    def test_softmax_weights_partition_unity(self):
        rng = np.random.default_rng(6)
        enc = rng.normal(size=(3, 5))
        s = enc.T @ enc[:, 1]
        for tau in (0.5, 1.0, 7.0):
            w = ad._softmax_np(s / tau)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all((w > 0) & (w < 1))


class TestGenerate:
    def test_full_width_shapes(self):
        layout = tiny_layout()
        state = make_state(layout)
        gen = generate_one(state, 0, layout, Fraction(1))
        spec = layout.specs[0]
        blocks = spec.out_channels // spec.base_count
        assert gen.factors[0].shape == (spec.rank, blocks * spec.in_channels)
        assert gen.biases[0].shape == (spec.out_channels,)
        assert gen.head_w.shape == (2, layout.head_in_full)
        assert gen.head_b.shape == (2,)

    def test_identical_embeddings_same_width_same_output(self):
        layout = tiny_layout()
        state = make_state(layout, n_clients=4, seed=7)
        emb = state.embeddings.copy()
        emb[:, 3] = emb[:, 1]
        state.embeddings = emb
        a = generate_one(state, 1, layout, Fraction(1, 2))
        b = generate_one(state, 3, layout, Fraction(1, 2))
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_generation_deterministic(self):
        layout = tiny_layout()
        state = make_state(layout, seed=8)
        a = generate_one(state, 2, layout, Fraction(1, 2))
        b = generate_one(state, 2, layout, Fraction(1, 2))
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_prune_commutes_with_generation(self):
        layout = tiny_layout()
        state = make_state(layout, seed=9)
        full = generate_one(state, 0, layout, Fraction(1))
        half = generate_one(state, 0, layout, Fraction(1, 2))
        spec = layout.specs[0]
        pruned_v, pruned_b = prune_personal(full.factors[0], full.biases[0], spec,
                                            Fraction(1, 2), spec.kept(Fraction(1, 2))[1])
        assert np.array_equal(half.factors[0], pruned_v)
        assert np.array_equal(half.biases[0], pruned_b)
        assert np.array_equal(half.head_w, full.head_w[:, :layout.head_in(Fraction(1, 2))])


def conv_layout(convs=(4, 4), in_channels=2, side=4, min_width=Fraction(1, 2),
                recovery="padfl"):
    # two conv blocks plus a hidden linear layer; the defaults keep every
    # kept input count divisible by base_count, as FLANC slabs need
    return build_layout((in_channels, side, side), 3, min_width, convs, kernel=3, hidden=(4,),
                        recovery=recovery)


MIXED = [Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(1, 2)]
QUARTERS = [Fraction(k, 4) for k in (1, 2, 3, 4, 1, 3)]


class TestBatchedGeneration:
    @pytest.mark.parametrize("depth", [0, 3])
    @pytest.mark.parametrize("kind,widths", [("padfl", MIXED), ("flanc", MIXED),
                                             ("padfl", QUARTERS)],
                             ids=["padfl-halves", "flanc-halves", "padfl-quarters"])
    def test_matches_per_client_reference(self, kind, widths, depth):
        layout = conv_layout(recovery=kind) if widths is MIXED else \
            conv_layout(convs=(4, 8), in_channels=1, side=8, min_width=Fraction(1, 4),
                        recovery=kind)
        state = make_state(layout, n_clients=len(widths), embed=4, hidden=6, depth=depth,
                           seed=20 + depth)
        state.log_temp = np.random.default_rng(21).normal(size=state.log_temp.shape)
        _, outputs = hn.generation_graph(state)
        flat = [f.data for f in outputs]
        for i, p in enumerate(widths):
            got = hn.generate_personal(flat, i, layout, p)
            ref = reference_personal(state, i, layout, p)
            single = generate_one(state, i, layout, p)
            for a, b, c in zip(got.arrays(), ref.arrays(), single.arrays()):
                assert a.shape == b.shape
                assert rel_err(a, b) <= 1e-12
                assert a.tobytes() == c.tobytes()


class TestKeptIndex:
    def test_infeasible_flanc_width_raises(self):
        # at width 1/4 conv 2 keeps 1 of its 4 inputs, which base_count 2 cannot split
        kw = dict(convs=(4, 8), in_channels=1, side=8, min_width=Fraction(1, 4))
        hn.kept_index(conv_layout(**kw), 1, Fraction(1, 4))
        with pytest.raises(ConfigurationError, match="1 kept input channels divisible by"):
            hn.kept_index(conv_layout(**kw, recovery="flanc"), 1, Fraction(1, 4))

    def test_cached_and_read_only(self):
        layout = conv_layout()
        weight, bias = hn.kept_index(layout, 0, Fraction(1, 2))
        assert hn.kept_index(layout, 0, Fraction(1, 2))[0] is weight
        with pytest.raises(ValueError):
            bias[0] = 0


class TestHnStep:
    def returned_equal_to_sent(self, state, layout, clients):
        return {i: generate_one(state, i, layout, Fraction(1)) for i in clients}

    def test_fixed_point_when_returned_equals_sent(self):
        layout = tiny_layout()
        state = make_state(layout, seed=10)
        returned = self.returned_equal_to_sent(state, layout, [0, 1, 2])
        new, loss = hn.hn_step(state, returned, layout, lr=0.5)
        assert loss == 0.0
        assert np.array_equal(new.embeddings, state.embeddings)
        assert np.array_equal(new.log_temp, state.log_temp)
        for a, b in zip(new.decoders, state.decoders):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)

    def test_embedding_gradient_matches_fd(self):
        layout = tiny_layout()
        state = make_state(layout, n_clients=3, embed=3, hidden=4, depth=2, seed=11)
        rng = np.random.default_rng(12)
        returned = {
            i: ClientModel(
                [],
                [g + 0.1 * rng.normal(size=g.shape) for g in gen.factors],
                [b + 0.1 * rng.normal(size=b.shape) for b in gen.biases],
                gen.head_w + 0.1 * rng.normal(size=gen.head_w.shape),
                gen.head_b + 0.1 * rng.normal(size=gen.head_b.shape), Fraction(1))
            for i, gen in ((i, generate_one(state, i, layout, Fraction(1)))
                           for i in range(3))
        }
        nodes, loss = hn.regression_loss(state, returned, layout)
        ad.backward(loss)

        def f_emb(arrays):
            s = copy.deepcopy(state)
            s.embeddings = arrays[0]
            return hn_loss(s, returned, layout)

        fd = finite_diff(f_emb, [state.embeddings])
        assert rel_err(nodes.embeddings.grad, fd[0]) <= 1e-4

        def f_temp(arrays):
            s = copy.deepcopy(state)
            s.log_temp = arrays[0]
            return hn_loss(s, returned, layout)

        fd_t = finite_diff(f_temp, [state.log_temp])
        assert rel_err(nodes.log_temp.grad, fd_t[0]) <= 1e-4

        def f_dec(arrays):
            s = copy.deepcopy(state)
            s.decoders[0].w = arrays[0]
            return hn_loss(s, returned, layout)

        fd_d = finite_diff(f_dec, [state.decoders[0].w])
        assert rel_err(nodes.decoders[0].w.grad, fd_d[0]) <= 1e-4

        def f_enc(arrays):
            s = copy.deepcopy(state)
            s.encoder[0].w = arrays[0]
            return hn_loss(s, returned, layout)

        fd_e = finite_diff(f_enc, [state.encoder[0].w])
        assert rel_err(nodes.encoder[0].w.grad, fd_e[0]) <= 1e-4

    @pytest.mark.parametrize("kind", ["padfl", "flanc"])
    def test_mixed_width_gradient_matches_fd(self, kind):
        # pruned positions and clients that returned nothing must not count
        layout = conv_layout(recovery=kind)
        state = make_state(layout, n_clients=len(MIXED), embed=3, hidden=4, depth=2, seed=23)
        rng = np.random.default_rng(24)
        widths = dict(enumerate(MIXED))
        returned = {}
        for i in (0, 1, 4):
            gen = reference_personal(state, i, layout, widths[i])
            noisy = [a + 0.1 * rng.normal(size=a.shape) for a in gen.arrays()]
            f = len(gen.factors)
            returned[i] = ClientModel([], noisy[:f], noisy[f:2 * f], noisy[-2], noisy[-1],
                                      widths[i])
        nodes, loss = hn.regression_loss(state, returned, layout)
        assert abs(float(loss.data) - hn_loss(state, returned, layout)) <= \
            1e-12 * float(loss.data)
        ad.backward(loss)

        def fd_of(setter, arr):
            def f(arrays):
                s = copy.deepcopy(state)
                setter(s, arrays[0])
                return hn_loss(s, returned, layout)
            return finite_diff(f, [arr])[0]

        assert rel_err(nodes.embeddings.grad,
                       fd_of(lambda s, a: setattr(s, "embeddings", a), state.embeddings)) <= 1e-4
        assert rel_err(nodes.log_temp.grad,
                       fd_of(lambda s, a: setattr(s, "log_temp", a), state.log_temp)) <= 1e-4
        assert rel_err(nodes.decoders[1].w.grad,
                       fd_of(lambda s, a: setattr(s.decoders[1], "w", a),
                             state.decoders[1].w)) <= 1e-4

    def test_one_local_step_identity_single_client(self):
        # with theta^+ = theta - eta * dF/dtheta, dL/dphi == eta * dF/dphi
        self._identity_check(n_clients=1, seed=13, rel_tol=1e-6)

    def test_one_local_step_identity_three_clients(self):
        self._identity_check(n_clients=3, seed=14, rel_tol=1e-6)

    def _identity_check(self, n_clients, seed, rel_tol):
        layout = tiny_layout()
        state = make_state(layout, n_clients=n_clients, embed=2, hidden=3, depth=0, seed=seed)
        rng = np.random.default_rng(seed + 100)
        eta = 0.05
        # quadratic local objective per client over all personal components
        targets = {}
        for i in range(n_clients):
            gen = generate_one(state, i, layout, Fraction(1))
            targets[i] = [rng.normal(size=a.shape) for a in gen.arrays()]

        def local_grads(params: ClientModel, i):
            return [a - t for a, t in zip(params.arrays(), targets[i])]

        returned = {}
        for i in range(n_clients):
            gen = generate_one(state, i, layout, Fraction(1))
            stepped = [a - eta * g for a, g in zip(gen.arrays(), local_grads(gen, i))]
            f = len(gen.factors)
            returned[i] = ClientModel([], stepped[:f], stepped[f:2 * f],
                                      stepped[-2], stepped[-1], Fraction(1))

        # left side: HN regression loss gradient
        nodes_l, loss_l = hn.regression_loss(state, returned, layout)
        ad.backward(loss_l)

        # right side: direct gradient of F = (1/n) sum_i f_i(generated_i); at
        # full width client i is sent column i of each decoder output whole
        nodes_r, outputs = hn.generation_graph(state)
        n_dec = len(outputs) - 1
        terms = []
        for i in sorted(returned):
            t = targets[i]
            flat_t = [np.concatenate([t[l].ravel(), t[n_dec + l]]) for l in range(n_dec)]
            flat_t.append(np.concatenate([t[-2].ravel(), t[-1]]))
            for out, ft in zip(outputs, flat_t):
                column = ad.slice_t(out, (slice(None), i))
                terms.append(ad.frobenius_sq(ad.add(column, ad.const(-ft))))
        f_node = ad.scale(ad.add_n(terms), 0.5 / n_clients)
        ad.backward(f_node)

        for key, (left, right) in enumerate(zip(nodes_l.arrays(), nodes_r.arrays())):
            gl = left.grad
            gr = right.grad
            if gl is None and gr is None:
                continue
            gl = np.zeros_like(state.log_temp) if gl is None else gl
            assert rel_err(gl, eta * gr) <= rel_tol, key

    def test_nan_loss_raises(self):
        layout = tiny_layout()
        state = make_state(layout, seed=15)
        gen = generate_one(state, 0, layout, Fraction(1))
        bad = replace(gen, factors=[f * np.nan for f in gen.factors])
        with pytest.raises(Exception):
            hn.hn_step(state, {0: bad}, layout, lr=0.1)
