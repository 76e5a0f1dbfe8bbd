from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from padfl import autodiff as ad
from padfl import data as pdata
from padfl import hypernet, protocol, runner
from padfl.config import METHODS, RunConfig
from padfl.decomp import LayerSpec, supported_widths
from padfl.model import (
    ClientModel,
    LinearMap,
    PlainModel,
    accuracy,
    build_layout,
    combine,
    init_plain,
    stacked_dense,
    stacked_forward,
)

from test_hypernet import conv_layout, make_state
from util import (
    finite_diff,
    generate_one,
    init_decomposed,
    orthogonal_reg,
    reference_logits,
    rel_err,
)


GRID16 = supported_widths(Fraction(1, 16))


class TestCapacities:
    def test_ideal_everyone_full(self):
        rng = np.random.default_rng(0)
        profiles = protocol.assign_capacities(7, "ideal", rng, GRID16)
        assert all(p.width == 1 for p in profiles)

    def test_quarter_capacity_gives_half_width(self):
        assert protocol.width_for_capacity(0.25, GRID16) == Fraction(1, 2)

    def test_width_comparison_is_exact(self):
        # float(4/5) ** 2 == 0.6400000000000001 would exceed the capacity
        grid = supported_widths(Fraction(1, 5))
        assert protocol.width_for_capacity(0.64, grid) == Fraction(4, 5)

    def test_lowest_capacity_clamps_to_min(self):
        assert protocol.width_for_capacity(0.01, GRID16) == Fraction(1, 16)
        assert float(Fraction(1, 16)) ** 2 <= 0.01

    def test_hetero_within_bounds(self):
        rng = np.random.default_rng(1)
        profiles = protocol.assign_capacities(50, "hetero", rng, GRID16)
        for p in profiles:
            assert 0.01 <= p.capacity <= 1.0
            assert p.width in GRID16
            # the next width up would not fit (or we are clamped at the bottom)
            bigger = [w for w in GRID16 if w > p.width]
            if bigger and float(p.width) ** 2 <= p.capacity:
                assert float(bigger[0]) ** 2 > p.capacity


class TestEarlyStop:
    def test_strictly_improving_never_stops(self):
        assert not protocol.early_stop([0.1, 0.2, 0.3, 0.4], patience=1)
        assert not protocol.early_stop([0.1, 0.2, 0.3, 0.4], patience=3)

    def test_flat_history_patience_plus_one(self):
        assert protocol.early_stop([0.5] * 4, patience=3)

    def test_hand_trace(self):
        hist = [0.5, 0.6, 0.6, 0.6]
        assert not protocol.early_stop(hist[:3], patience=3)
        assert protocol.early_stop(hist, patience=3)


class TestOrthogonalReg:
    def test_orthogonal_columns_zero(self):
        u = np.eye(4)[:, :3]
        spec = LayerSpec("conv", 3, 3, 2, base_count=1, rank=3)
        assert orthogonal_reg([u], [spec]) == 0.0

    def test_hand_value(self):
        u = np.array([[1.0, 1.0], [0.0, 0.0]])
        spec = LayerSpec("conv", 2, 2, 1, base_count=2, rank=2)
        assert orthogonal_reg([u], [spec]) == 2.0

    def test_linear_layers_excluded(self):
        u = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert orthogonal_reg([u], [LayerSpec("linear", 2, 2, 1, base_count=2, rank=2)]) == 0.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(6, 4))
        spec = LayerSpec("conv", 4, 3, 2, base_count=1, rank=4)
        node = ad.leaf(u)
        ad.backward(protocol.orthogonal_reg_t([node], [spec]))

        def f(arrs):
            g = arrs[0].T @ arrs[0]
            off = g - np.diag(np.diag(g))
            return float((off ** 2).sum())

        fd = finite_diff(f, [u])
        assert rel_err(node.grad, fd[0]) <= 1e-5


def small_setup(seed=0, clients=4, capacity="ideal"):
    """A small config, layout and partitioned profiles on a float64 dataset,
    so methods built on it compute in float64 and the oracles stay exact."""
    cfg = RunConfig(
        clients=clients, per_round=2, rounds=3, batch=8, epochs=1, lr=0.05,
        synth_classes=2, synth_per_class=40, synth_shape=(1, 8, 8),
        conv_channels=(4, 4), conv_kernel=3, min_width=Fraction(1, 4),
        hn_embed=6, hn_hidden=6, hn_depth=2, capacity=capacity, seed=seed,
    ).finalize()
    layout = build_layout((1, 8, 8), 2, cfg.min_width, cfg.conv_channels, cfg.conv_kernel)
    ds = pdata.synth_gaussian(2, 40, shape=(1, 8, 8), separation=3.0, seed=seed)
    ds = pdata.Dataset(ds.features.astype(np.float64), ds.labels, ds.classes)
    part = pdata.partition_dirichlet(ds, clients, alpha=1.0, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, protocol.TAG_CAPACITY)))
    profiles = protocol.assign_capacities(clients, capacity, rng,
                                          supported_widths(cfg.min_width))
    for prof, cd in zip(profiles, part.clients):
        prof.data = cd
    return cfg, layout, profiles


class TestLocalUpdate:
    def test_global_head_never_changes(self):
        cfg, layout, profiles = small_setup()
        rng = np.random.default_rng(3)
        init = init_decomposed(layout, rng)
        head = LinearMap(init.head_w, init.head_b)
        model = replace(init, head_w=head.w.copy() * 0.5, head_b=head.b.copy() * 0.5)
        before_w, before_b = head.w.copy(), head.b.copy()
        trained, _ = protocol.local_update(model, head, profiles[0], layout,
                                           epochs=2, batch=8, lr=0.1, reg_coef=0.001,
                                           rng=np.random.default_rng(4))
        assert trained is not None
        assert np.array_equal(head.w, before_w) and np.array_equal(head.b, before_b)
        # training must have moved something
        assert any(not np.array_equal(a, b)
                   for a, b in zip(trained.general, model.general))

    def test_detached_head_loss_gives_zero_encoder_grad(self):
        cfg, layout, profiles = small_setup()
        rng = np.random.default_rng(5)
        init = init_decomposed(layout, rng)
        data = profiles[0].data
        x, y = data.dataset.features[data.train_idx], data.dataset.labels[data.train_idx]
        nodes = ClientModel.from_arrays([ad.leaf(a) for a in init.arrays()], Fraction(1))
        from padfl.model import head_logits_t, representation_t
        rep = representation_t(layout, nodes, ad.const(x[:8]))
        hw, hb = nodes.head_w, nodes.head_b
        local_loss = ad.cross_entropy(head_logits_t(ad.detach(rep), hw, hb), y[:8])
        ad.backward(local_loss)
        for node in nodes.general + nodes.factors + nodes.biases:
            assert node.grad is None
        assert hw.grad is not None and np.abs(hw.grad).max() > 0

    def test_zero_gradient_batch_leaves_parameters_unchanged(self):
        # all-zero inputs, zero biases, class-balanced labels: every gradient
        # vanishes exactly, so one epoch must be a bitwise no-op
        cfg, layout, profiles = small_setup()
        rng = np.random.default_rng(6)
        init = init_decomposed(layout, rng)
        model = replace(init, biases=[np.zeros_like(b) for b in init.biases],
                        head_w=init.head_w.copy(), head_b=np.zeros_like(init.head_b))
        prof = profiles[0]
        n = 8
        ds = pdata.Dataset(np.zeros((n, 1, 8, 8)),
                           np.array([0, 1] * (n // 2)), 2)
        prof = protocol.ClientProfile(0, 1.0, Fraction(1),
                                      pdata.ClientData(ds, np.arange(n),
                                                       np.arange(1), np.arange(1)))
        trained, _ = protocol.local_update(model,
                                           LinearMap(init.head_w, np.zeros_like(init.head_b)),
                                           prof, layout, epochs=1, batch=8, lr=0.5,
                                           reg_coef=0.0, rng=np.random.default_rng(7))
        assert trained is not None
        for a, b in zip(trained.general, model.general):
            assert np.array_equal(a, b)
        for a, b in zip(trained.factors, model.factors):
            assert np.array_equal(a, b)
        assert np.array_equal(trained.head_w, model.head_w)

    def test_nan_reported_as_failure(self):
        cfg, layout, profiles = small_setup()
        rng = np.random.default_rng(8)
        init = init_decomposed(layout, rng)
        init.factors[0] = init.factors[0] * np.inf
        trained, _ = protocol.local_update(init, LinearMap(init.head_w, init.head_b),
                                           profiles[0], layout, epochs=1, batch=8, lr=0.1,
                                           reg_coef=0.0, rng=np.random.default_rng(9))
        assert trained is None


def linear_client_model(w, layout):
    # conv-free architecture: the model is just a head on raw features
    return ClientModel([], [], [], w[0], w[1], Fraction(1))


class TestSelectTestModel:
    def setup_method(self):
        self.layout = build_layout((1, 1, 2), 2, Fraction(1))

    def eval_data(self, w_true, n=32, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 1, 1, 2))
        y = (x.reshape(n, 2) @ w_true > 0).astype(np.int64)
        return x, y

    def test_equal_models_tie_break_alpha_zero(self):
        w = (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2))
        a = linear_client_model(w, self.layout)
        b = linear_client_model(w, self.layout)
        x, y = self.eval_data(np.array([1.0, 0.0]))
        alpha, _, _ = protocol.select_test_model(a, b, (x, y), (x, y), self.layout)
        assert alpha == 0.0

    def test_missing_local_model_uses_received(self):
        w = (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2))
        a = linear_client_model(w, self.layout)
        x, y = self.eval_data(np.array([1.0, 0.0]))
        xt, yt = self.eval_data(np.array([1.0, 1.0]), seed=1)
        alpha, acc, test_acc = protocol.select_test_model(a, None, (x, y), (xt, yt), self.layout)
        assert np.isnan(alpha) and acc == accuracy(self.layout, a, x, y)
        assert test_acc == accuracy(self.layout, a, xt, yt)

    def test_grid_two_picks_better_endpoint(self):
        w_true = np.array([1.0, 1.0])
        good = (np.vstack([-w_true, w_true]), np.zeros(2))
        bad = (np.vstack([w_true, -w_true]), np.zeros(2))
        x, y = self.eval_data(w_true)
        xt, yt = self.eval_data(w_true, n=9, seed=1)
        alpha, acc, test_acc = protocol.select_test_model(
            linear_client_model(bad, self.layout),
            linear_client_model(good, self.layout), (x, y), (xt, yt), self.layout, grid_size=2)
        assert alpha == 1.0 and acc == test_acc == 1.0

    def test_interior_alpha_beats_both_endpoints(self):
        # heads err in opposite directions; the midpoint classifies perfectly
        x = np.array([[1.0, 0.2], [1.0, -0.2], [-1.0, 0.2], [-1.0, -0.2],
                      [0.1, 1.0], [0.1, -1.0], [-0.1, 1.0], [-0.1, -1.0]])
        y = (x[:, 0] > 0).astype(np.int64)
        xin = x.reshape(-1, 1, 1, 2)
        w0 = (np.vstack([[-1.0, 4.0], [1.0, -4.0]]), np.zeros(2))
        w1 = (np.vstack([[-1.0, -4.0], [1.0, 4.0]]), np.zeros(2))
        m0 = linear_client_model(w0, self.layout)
        m1 = linear_client_model(w1, self.layout)
        acc0 = accuracy(self.layout, m0, xin, y)
        acc1 = accuracy(self.layout, m1, xin, y)
        alpha, acc, test_acc = protocol.select_test_model(m0, m1, (xin, y), (xin, y),
                                                          self.layout)
        assert 0.0 < alpha < 1.0
        assert test_acc == acc > max(acc0, acc1)


def random_conv_model(layout, p, rng, biases=True):
    """A width-p decomposed model with random factors in each layer's
    recovery layout."""
    gen, fac, bias = [], [], []
    for spec in layout.specs:
        out_kept, in_kept = spec.kept(p)
        cols = out_kept * in_kept // spec.base_count  # a * b in either layout
        gen.append(rng.normal(size=(spec.kernel ** 2 * spec.base_count, spec.rank)))
        fac.append(rng.normal(size=(spec.rank, cols)))
        bias.append(rng.normal(size=out_kept) * biases)
    hw = rng.normal(size=(layout.classes, layout.head_in(p)))
    hb = rng.normal(size=layout.classes) * biases
    return ClientModel(gen, fac, bias, hw, hb, p)


def scalar_mix(a, b, alpha):
    return ClientModel.from_arrays(
        [(1.0 - alpha) * x + alpha * y for x, y in zip(a.arrays(), b.arrays())], a.width)


class TestSelectTestModelConv:
    """The stacked line search on a conv layout (two conv blocks and a hidden
    layer) at a pruned width, against a per-alpha first-principles forward."""

    P = Fraction(1, 2)

    def setup_method(self):
        self.layouts = {kind: conv_layout(side=8, recovery=kind) for kind in ("padfl", "flanc")}
        rng = np.random.default_rng(12)
        self.x = rng.normal(size=(12, 2, 8, 8))
        self.y = rng.integers(0, self.layouts["padfl"].classes, size=12)
        self.xt = rng.normal(size=(7, 2, 8, 8))
        self.yt = rng.integers(0, self.layouts["padfl"].classes, size=7)

    def xy(self):
        return (self.x, self.y), (self.xt, self.yt)

    @pytest.mark.parametrize("recovery", ["padfl", "flanc"])
    def test_matches_per_alpha_reference(self, recovery):
        layout = self.layouts[recovery]
        rng = np.random.default_rng(11)
        received = random_conv_model(layout, self.P, rng)
        local = random_conv_model(layout, self.P, rng)
        alphas = np.linspace(0.0, 1.0, 11)
        refs = [reference_logits(layout, scalar_mix(received, local, float(a)), self.x)
                for a in alphas]
        got = stacked_forward(layout, stacked_dense(layout, combine(received, local, alphas)),
                              self.x)
        for g, r in zip(got, refs):
            assert rel_err(g, r) <= 1e-12
        accs = [float((r.argmax(axis=1) == self.y).mean()) for r in refs]
        assert len(set(accs)) > 1
        alpha, acc, test_acc = protocol.select_test_model(received, local, *self.xy(), layout)
        best = int(np.argmax(accs))
        assert alpha == alphas[best] and acc == accs[best]
        test_ref = reference_logits(layout, scalar_mix(received, local, alpha), self.xt)
        assert test_acc == float((test_ref.argmax(axis=1) == self.yt).mean())

    @pytest.mark.parametrize("recovery", ["padfl", "flanc"])
    def test_ties_resolve_to_smallest_alpha(self, recovery):
        # no biases and local = 2 * received: every mix rescales the same
        # network by a positive factor, so every alpha scores the same
        layout = self.layouts[recovery]
        rng = np.random.default_rng(13)
        received = random_conv_model(layout, self.P, rng, biases=False)
        local = ClientModel.from_arrays([2.0 * a for a in received.arrays()], self.P)
        accs = {float((reference_logits(layout, scalar_mix(received, local, a),
                                        self.x).argmax(axis=1) == self.y).mean())
                for a in np.linspace(0.0, 1.0, 11)}
        alpha, acc, test_acc = protocol.select_test_model(received, local, *self.xy(), layout)
        assert accs == {acc} and alpha == 0.0
        test_ref = reference_logits(layout, received, self.xt)
        assert test_acc == float((test_ref.argmax(axis=1) == self.yt).mean())


class TestPayload:
    """A round's params_exchanged counts exactly the floats sent to its
    selected clients: the general factors, the generated personal factors
    and biases, and the sliced shared head."""

    @pytest.mark.parametrize("recovery", ["padfl", "flanc"])
    def test_params_exchanged_equals_sent_sizes(self, recovery):
        cfg, _, profiles = small_setup(seed=5)
        cfg.per_round = 3  # of 4 clients, two at each width: both widths are sent
        # conv 4,8 at min_width 1/4: the second conv has base_count 2, whose
        # FLANC slabs split the kept inputs at widths 1/2 and 1
        layout = build_layout((1, 8, 8), 2, cfg.min_width, (4, 8), cfg.conv_kernel,
                              recovery=recovery)
        for prof in profiles:
            prof.width = Fraction(1, 1 + prof.id % 2)
        method = protocol.DecomposedFL(profiles, layout, cfg)
        sizes = []
        for prof in profiles:
            sent = method.sent(prof.id)
            head = method.global_head.sliced(layout.head_in(prof.width))
            sizes.append(sum(a.size for a in [*sent.general, *sent.factors, *sent.biases,
                                              head.w, head.b]))
        assert len(set(sizes)) == 2
        metrics = method.run_round(0)
        assert metrics.params_exchanged == sum(sizes[i] for i in metrics.selected)


    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_counts_what_sent_gives(self, method):
        # LocalOnly sends nothing; every other method sends its clients sent(i)
        profiles, built = conv48_method(method, 5, per_round=3)
        sizes = [sum(a.size for a in built.sent(prof.id).arrays()) for prof in profiles]
        metrics = built.run_round(0)
        expect = 0 if method == "LocalOnly" else sum(sizes[i] for i in metrics.selected)
        assert metrics.params_exchanged == expect


def conv48_method(method, data_seed, profiles=None, **overrides):
    """(profiles, method built by the runner) on `small_setup(data_seed)`'s
    float64 clients at widths 1 and 1/2, with conv 4,8: the second conv has
    base_count 2, whose FLANC slabs split the kept inputs at both widths,
    so every method in METHODS trains. `profiles` reuses a client list;
    `overrides` replace config fields."""
    cfg, _, fresh = small_setup(seed=data_seed)
    cfg = replace(cfg, method=method, conv_channels=(4, 8), **overrides)
    if profiles is None:
        profiles = fresh
        for prof in profiles:
            prof.width = Fraction(1, 1 + prof.id % 2)
    layout = runner.configured_layout(cfg, profiles[0].data.dataset)
    return profiles, runner.build_method(cfg, profiles, layout)


def round_record(m):
    """A round's outcome without its timings: nan-safe, comparable with ==."""
    rows = [tuple(map(repr, (r.client_id, r.width_p, r.train_loss, r.val_acc, r.test_acc,
                             r.alpha_selected))) for r in m.rows]
    return m.selected, m.failed, m.params_exchanged, repr(m.hn_loss), rows


class TestMethodState:
    @pytest.mark.parametrize("method", METHODS)
    def test_methods_on_one_profile_list_run_independently(self, method):
        # two seeds select different clients, so state that one method left
        # in the shared profiles would reach clients the other never trained
        profiles, first = conv48_method(method, 19)
        _, second = conv48_method(method, 19, profiles, seed=20)
        first.run_round(0)
        _, fresh = conv48_method(method, 19, seed=20)
        assert round_record(second.run_round(0)) == round_record(fresh.run_round(0))


class TestDecomposedRounds:
    def test_unchanged_clients_leave_general_unchanged(self):
        cfg, layout, profiles = small_setup(seed=1)
        method = protocol.DecomposedFL(profiles, layout, cfg)
        before = [f.copy() for f in method.general]
        models = {
            i: replace(generate_one(method.hn, i, layout, profiles[i].width),
                       general=[f.copy() for f in before])
            for i in (0, 1)
        }
        method.aggregate(models)
        for a, b in zip(method.general, before):
            assert np.array_equal(a, b)

    def test_two_client_aggregate_is_exact_mean(self):
        cfg, layout, profiles = small_setup(seed=2)
        method = protocol.DecomposedFL(profiles, layout, cfg)
        rng = np.random.default_rng(10)
        ga = [rng.normal(size=f.shape) for f in method.general]
        gb = [rng.normal(size=f.shape) for f in method.general]
        mk = lambda i, g: replace(
            generate_one(method.hn, i, layout, profiles[i].width), general=g)
        method.aggregate({0: mk(0, ga), 1: mk(1, gb)})
        for m, a, b in zip(method.general, ga, gb):
            assert np.array_equal(m, (a + b) / 2)

    def test_round_runs_and_eta_decays(self):
        cfg, layout, profiles = small_setup(seed=3)
        method = protocol.DecomposedFL(profiles, layout, cfg)
        m0 = method.run_round(0)
        m1 = method.run_round(1)
        assert m0.eta == cfg.lr
        assert m1.eta == cfg.lr * cfg.lr_decay
        assert len(m0.rows) == len(profiles)
        assert all(0.0 <= r.test_acc <= 1.0 for r in m0.rows)
        assert m0.params_exchanged > 0

    def test_rounds_deterministic_and_parallel_identical(self):
        def trace(workers):
            cfg, layout, profiles = small_setup(seed=4)
            cfg.workers = workers
            method = protocol.DecomposedFL(profiles, layout, cfg)
            out = []
            for t in range(3):
                m = method.run_round(t)
                out.append((m.mean_test, m.mean_val,
                            tuple(repr(r.train_loss) for r in m.rows),
                            tuple(f.tobytes() for f in method.general)))
            return out

        a, b, c = trace(1), trace(1), trace(3)
        assert a == b
        assert a == c


class TestContainers:
    """Every model container shares one arrays() / from_arrays(arrays, size)
    convention, and `sgd` returns the container it was given."""

    @staticmethod
    def assert_same_objects(rebuilt, arrays):
        assert len(rebuilt) == len(arrays)
        assert all(a is b for a, b in zip(rebuilt, arrays))

    @pytest.mark.parametrize("width", [Fraction(1), Fraction(1, 2)])
    def test_model_round_trip(self, width):
        layout = conv_layout()  # two conv blocks and a hidden layer
        rng = np.random.default_rng(30)
        client = random_conv_model(layout, width, rng)
        self.assert_same_objects(ClientModel.from_arrays(client.arrays(), width).arrays(),
                                 client.arrays())
        plain = init_plain(layout, width, rng)
        rebuilt = PlainModel.from_arrays(plain.arrays(), width)
        self.assert_same_objects(rebuilt.arrays(), plain.arrays())
        assert len(rebuilt.weights) == len(layout.specs) and rebuilt.width == width

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_hypernet_round_trip(self, depth):
        state = make_state(conv_layout(), depth=depth)
        rebuilt = hypernet.HyperNetState.from_arrays(state.arrays(), depth)
        self.assert_same_objects(rebuilt.arrays(), state.arrays())
        assert len(rebuilt.encoder) == depth
        assert len(rebuilt.decoders) == len(state.decoders)

    @pytest.mark.parametrize("dense", [False, True])
    def test_sgd_returns_its_input_container(self, dense):
        cfg, layout, profiles = small_setup()
        p, rng = Fraction(1, 2), np.random.default_rng(31)
        model = init_plain(layout, p, rng) if dense else random_conv_model(layout, p, rng)

        def loss_fn(m, x, y):
            assert type(m) is type(model) and m.width == p
            return ad.add_n([ad.frobenius_sq(a) for a in m.arrays()])

        kw = dict(epochs=1, batch=8, lr=0.01, rng=np.random.default_rng(32))
        trained, loss = protocol.sgd(model, profiles[0].data, loss_fn, **kw)
        assert type(trained) is type(model) and trained.width == p and np.isfinite(loss)
        assert [a.shape for a in trained.arrays()] == [a.shape for a in model.arrays()]
        model.head_b[0] = np.nan
        trained, loss = protocol.sgd(model, profiles[0].data, loss_fn, **kw)
        assert trained is None and np.isnan(loss)
