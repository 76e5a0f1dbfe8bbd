from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from padfl import autodiff as ad
from padfl import baselines, protocol, runner
from padfl.config import parse_config
from padfl.model import (
    PlainModel,
    build_layout,
    init_plain,
    plain_logits_t,
    representation_t,
    stacked_forward,
)

from test_protocol import small_setup
from util import plain_copy, reference_plain_logits, rel_err, supported_widths


class TestFedAvgMinWidth:
    def test_ideal_capacities_full_width(self):
        cfg, layout, profiles = small_setup(seed=5, capacity="ideal")
        method = runner.build_method(replace(cfg, method="FedAvgMinWidth"), profiles, layout)
        assert method.model.width == 1

    def test_single_client_is_local_sgd(self):
        cfg, layout, profiles = small_setup(seed=6, clients=4)
        cfg.per_round = 1
        method = runner.build_method(replace(cfg, method="FedAvgMinWidth"), profiles, layout)
        start = plain_copy(method.model)
        selected = method.sample_clients(1)
        i = selected[0]
        trained, _ = method.train_client(0, i, method.sent(i))
        method.aggregate({i: trained})
        # aggregate of one client is exactly that client's model
        for a, b in zip(method.model.arrays(), trained.arrays()):
            assert np.array_equal(a, b)
        ref, _ = baselines.plain_sgd(start, layout, profiles[i].data,
                                     epochs=cfg.epochs, batch=cfg.batch,
                                     lr=cfg.lr, rng=method.client_rng(0, i))
        for a, b in zip(method.model.arrays(), ref.arrays()):
            assert np.array_equal(a, b)

    def test_aggregate_of_equal_models_is_identity(self):
        cfg, layout, profiles = small_setup(seed=7)
        method = runner.build_method(replace(cfg, method="FedAvgMinWidth"), profiles, layout)
        snap = [a.copy() for a in method.model.arrays()]
        method.aggregate({0: plain_copy(method.model), 1: plain_copy(method.model)})
        for a, b in zip(method.model.arrays(), snap):
            assert np.array_equal(a, b)

    def test_round_produces_metrics(self):
        cfg, layout, profiles = small_setup(seed=8)
        method = runner.build_method(replace(cfg, method="FedAvgMinWidth"), profiles, layout)
        m = method.run_round(0)
        assert len(m.rows) == len(profiles)
        assert all(np.isnan(r.alpha_selected) for r in m.rows)


class TestPWidthNested:
    def test_uniform_widths_equal_plain_mean(self):
        cfg, layout, profiles = small_setup(seed=9, capacity="ideal")
        method = baselines.PWidthNested(profiles, layout, cfg)
        rng = np.random.default_rng(0)
        models = [PlainModel.from_arrays([rng.normal(size=a.shape)
                                          for a in method.model.arrays()], method.model.width)
                  for _ in range(2)]
        method.aggregate(dict(enumerate(models)))
        for got, a, b in zip(method.model.arrays(), models[0].arrays(),
                             models[1].arrays()):
            assert np.array_equal(got, (a + b) / 2)

    def test_singleton_coverage_takes_client_value(self):
        cfg, layout, profiles = small_setup(seed=10, capacity="ideal")
        profiles[0] = replace(profiles[0], width=Fraction(1, 2))
        method = baselines.PWidthNested(profiles, layout, cfg)
        view = method.sent(0)
        new = PlainModel.from_arrays([np.full_like(a, 7.0) for a in view.arrays()], view.width)
        before = [a.copy() for a in method.model.arrays()]
        method.aggregate({0: new})
        for idx, (got, old) in enumerate(zip(method.model.arrays(), before)):
            key = method.keys[0][idx]
            assert np.all(got[key] == 7.0)
            untouched = old.copy()
            untouched[key] = 7.0
            assert np.array_equal(got, untouched)

    def test_two_widths_against_coverage_oracle(self):
        cfg, layout, profiles = small_setup(seed=11, capacity="ideal", clients=4)
        profiles[0] = replace(profiles[0], width=Fraction(1, 2))
        profiles[1] = replace(profiles[1], width=Fraction(1))
        method = baselines.PWidthNested(profiles, layout, cfg)
        rng = np.random.default_rng(1)
        m0 = PlainModel.from_arrays([rng.normal(size=a.shape)
                                     for a in method.sent(0).arrays()], profiles[0].width)
        m1 = PlainModel.from_arrays([rng.normal(size=a.shape)
                                     for a in method.sent(1).arrays()], profiles[1].width)
        base = [a.copy() for a in method.model.arrays()]
        method.aggregate({0: m0, 1: m1})
        # brute-force oracle: scatter every entry, then average by coverage
        for idx, got in enumerate(method.model.arrays()):
            acc = np.zeros_like(base[idx])
            cnt = np.zeros_like(base[idx])
            for cid, mm in ((0, m0), (1, m1)):
                key = method.keys[cid][idx]
                acc[key] += mm.arrays()[idx]
                cnt[key] += 1
            expect = base[idx].copy()
            expect[cnt > 0] = acc[cnt > 0] / cnt[cnt > 0]
            assert np.array_equal(got, expect)

    def test_round_runs(self):
        cfg, layout, profiles = small_setup(seed=12, capacity="hetero")
        method = baselines.PWidthNested(profiles, layout, cfg)
        m = method.run_round(0)
        assert len(m.rows) == len(profiles)


class TestLocalOnly:
    def test_no_communication(self):
        cfg, layout, profiles = small_setup(seed=13)
        method = baselines.LocalOnly(profiles, layout, cfg)
        m = method.run_round(0)
        assert m.params_exchanged == 0

    def test_unselected_models_untouched(self):
        cfg, layout, profiles = small_setup(seed=14)
        method = baselines.LocalOnly(profiles, layout, cfg)
        snaps = {i: [a.copy() for a in method.local[i].arrays()]
                 for i in method.local}
        m = method.run_round(0)
        for i in range(len(profiles)):
            same = all(np.array_equal(a, b) for a, b in
                       zip(method.local[i].arrays(), snaps[i]))
            assert same == (i not in m.selected)


class TestAblationWiring:
    def test_no_hn_agg_first_round_matches_default_up_to_hn(self):
        cfg, layout, profiles_a = small_setup(seed=15)
        _, _, profiles_b = small_setup(seed=15)
        full = protocol.DecomposedFL(profiles_a, layout, cfg,
                                     hn_aggregation=True)
        ablated = protocol.DecomposedFL(profiles_b, layout, cfg,
                                        hn_aggregation=False)
        ma = full.run_round(0)
        mb = ablated.run_round(0)
        assert ma.selected == mb.selected
        for a, b in zip(full.general, ablated.general):
            assert np.array_equal(a, b)
        # trained personal params identical client by client
        for i in ma.selected:
            pa = full.local[i]
            pb = ablated.local[i]
            for x, y in zip(pa.arrays(), pb.arrays()):
                assert np.array_equal(x, y)
        assert np.isnan(mb.hn_loss)
        assert not np.isnan(ma.hn_loss)
        graph, generated = ablated.generation
        assert generated is not None and graph is None  # no step to feed

    def test_no_hn_agg_keeps_personal_local(self):
        cfg, layout, profiles = small_setup(seed=16)
        method = protocol.DecomposedFL(profiles, layout, cfg,
                                       hn_aggregation=False)
        method.run_round(0)
        trained = dict(method.local)
        assert trained
        for i, personal in trained.items():
            sent = method.sent(i)
            assert sent.general is method.general
            for a, b in zip(sent.arrays()[len(sent.general):],
                            personal.arrays()[len(personal.general):]):
                assert np.array_equal(a, b)


class TestDenseForward:
    @pytest.mark.parametrize("convs,hidden", [((4, 8), ()), ((4, 8), (32,)), ((), (32, 16))])
    @pytest.mark.parametrize("width", [Fraction(1), Fraction(1, 2)])
    def test_stacked_forward_matches_reference(self, convs, hidden, width):
        layout = build_layout((1, 8, 8), 3, Fraction(1, 4), convs, kernel=3, hidden=hidden)
        rng = np.random.default_rng(19)
        shapes = init_plain(layout, width, rng)
        model = PlainModel.from_arrays([rng.normal(size=a.shape) for a in shapes.arrays()],
                                       width)
        x = rng.normal(size=(5, 1, 8, 8))
        one = PlainModel.from_arrays([a[None] for a in model.arrays()], width)
        got = stacked_forward(layout, one, x)
        assert got.shape == (1, 5, 3)
        assert rel_err(got[0], reference_plain_logits(layout, model, x)) <= 1e-12

    @pytest.mark.parametrize("hidden,bound,dtype", [((), 0.0, np.float64),
                                                    ((32,), 1e-15, np.float64),
                                                    ((), 0.0, np.float32)],
                             ids=["hidden0-0.0", "hidden1-1e-15", "float32"])
    @pytest.mark.parametrize("width", [Fraction(1), Fraction(1, 2), Fraction(3, 16)])
    def test_training_forward_equals_eval_forward(self, hidden, bound, dtype, width):
        # the graph forward (training) and the stacked forward (evaluation)
        # share one im2col and one 2-D product per conv, so conv-only
        # logits are bitwise equal, in either dtype. A hidden layer is a
        # batched np.matmul in the stacked forward against the graph's 2-D
        # product, which may round differently (6e-17 here at width 1).
        # The zero leading rows make whole pool windows tie.
        layout = build_layout((1, 8, 8), 3, Fraction(1, 16), (16, 16), kernel=3, hidden=hidden)
        rng = np.random.default_rng(21)
        model = PlainModel.from_arrays([a.astype(dtype) for a in
                                        init_plain(layout, width, rng).arrays()], width)
        x = rng.normal(size=(5, 1, 8, 8)).astype(dtype)
        x[:, :, :3] = 0.0
        one = PlainModel.from_arrays([a[None] for a in model.arrays()], width)
        nodes = PlainModel.from_arrays([ad.const(a) for a in model.arrays()], width)
        got = plain_logits_t(layout, nodes, ad.const(x)).data
        assert got.dtype == dtype
        assert np.abs(got - stacked_forward(layout, one, x)[0]).max() <= bound


class TestGeometry:
    """A non-square input with a hidden layer: every width's shapes and
    payloads come from the one Layout."""

    CONFIG = "synth_shape = 1,12,16\nfc_dims = 32\nclients = 6\nper_round = 6\n"

    def build(self, method):
        cfg = parse_config(self.CONFIG + f"method = {method}\n").finalize()
        dataset = runner.build_dataset(cfg)
        layout = runner.configured_layout(cfg, dataset)
        profiles = runner.build_profiles(cfg, runner.build_partition(cfg, dataset))
        return cfg, layout, runner.build_method(cfg, profiles, layout)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_fixed_block_maps_match_layout(self, kernel):
        # every conv is stride 1 padded by k // 2, so it keeps its input's
        # map: the graph forward's shapes are the ones Layout computes
        layout = build_layout((1, 12, 16), 3, Fraction(1, 4), (4, 8), kernel, hidden=(32,))
        assert tuple(s.out_hw for s in layout.specs) == ((12, 16), (6, 8), (1, 1))
        rng = np.random.default_rng(20)
        model = init_plain(layout, 1, rng)
        x = ad.const(rng.normal(size=(2, 1, 12, 16)))
        h = ad.transpose(x, (1, 2, 3, 0))  # convs run batch-last
        for i, (w, b) in enumerate(zip(model.weights[:2], model.biases)):
            h = ad.conv2d(h, ad.const(w), pad=kernel // 2, bias=ad.const(b))
            assert h.data.shape[1:3] == layout.specs[i].out_hw
            h = ad.relu(ad.maxpool2x2(h))
        feats = representation_t(layout, [ad.const(w) for w in model.weights],
                                 [ad.const(b) for b in model.biases], x)
        assert feats.data.shape == (2, layout.head_in_full)

    def test_nested_slices_have_init_plain_shapes(self):
        cfg, layout, _ = self.build("PWidthNested")
        full = init_plain(layout, 1, np.random.default_rng(0))
        for p in supported_widths(cfg.min_width):
            own = init_plain(layout, p, np.random.default_rng(0))
            sliced = [a[k] for a, k in zip(full.arrays(), baselines.nested_keys(layout, p))]
            assert [a.shape for a in sliced] == [a.shape for a in own.arrays()]

    @pytest.mark.parametrize("method", ["Pa3dFL", "PWidthNested", "FedAvgMinWidth"])
    def test_payload_is_what_each_client_is_sent(self, method):
        cfg, _, fl = self.build(method)
        assert len({p.width for p in fl.profiles}) > 1
        for i in range(cfg.clients):
            assert fl.round_payload([i], [fl.sent(i)]) == sum(a.size for a in fl.sent(i).arrays())
