import csv
import dataclasses
import json
import os
import struct
import tempfile
import types
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padfl import autodiff as ad
from padfl import protocol, report, runner
from padfl.cli import main as cli_main
from padfl.config import METHODS, RunConfig, load_config, parse_config
from padfl.errors import ConfigurationError, NumericError

from util import reference_plain_logits

SMALL = """
method = Pa3dFL
clients = 4
per_round = 2
rounds = 2
batch = 8
epochs = 1
lr = 0.05
synth_classes = 2
synth_per_class = 40
synth_shape = 1,8,8
conv_channels = 4,4
conv_kernel = 3
min_width = 1/4
hn_embed = 6
hn_hidden = 6
hn_depth = 2
patience_frac = 0
capacity = ideal
seed = 3
"""


def small_cfg(tmp_path, out="run", **kw):
    """SMALL with `kw` set, unvalidated: `runner.run` validates."""
    return dataclasses.replace(parse_config(SMALL), out_dir=str(tmp_path / out), **kw)


class TestConfig:
    def test_defaults_and_parse(self):
        cfg = parse_config("lr = 0.1\nconv_channels = 16,32\n").finalize()
        assert cfg.lr == 0.1
        assert cfg.conv_channels == (16, 32)
        assert cfg.hn_lr == cfg.lr  # gamma defaults to the model rate
        assert cfg.batch == 50 and cfg.epochs == 5 and cfg.lr_decay == 0.998

    def test_unknown_key_rejected(self):
        for text in ("learning_rate = 0.1\n", "reg_lambda = 0.001\n"):
            with pytest.raises(ConfigurationError, match=f"unknown key '{text.split()[0]}'"):
                parse_config(text)

    def test_bad_value_names_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config("lr = 0.1\nrounds = many\n")

    # the messages that do not read "<first key> must"
    MESSAGES = {"synth_classes = 1": "synth dataset needs >= 2 classes",
                "dataset = idx": "idx dataset needs idx_images and idx_labels",
                "conv_channels = ": "model needs at least one conv or fc layer",
                "hn_depth = -1": "hyper-network dims must be positive"}

    @pytest.mark.parametrize("text", [
        "per_round = 30\nclients = 10", "patience_frac = inf", "dirichlet_alpha = inf",
        "hn_lr = inf", "hn_lr = -0.5", "lr = inf", "seed = -1", "capacity = x",
        "alpha_grid = 1", "min_width = 2", "dirichlet_alpha = 0", "per_round = 21",
        "synth_classes = 1", "conv_channels = 0", "fc_dims = 4,0",
        "synth_classes = 65\nsynth_shape = 1,8,8",
        "method = x", "dataset = x", "dataset = idx", "partition = x", "clients = 0",
        "rounds = -1", "epochs = 0", "lr = 0", "patience_frac = -1",
        "workers = 0", "synth_shape = 1,8", "conv_channels = ", "conv_kernel = 2",
        "hn_depth = -1", "min_width = 3/10\nconv_channels = 10,10\ncapacity = ideal",
        "min_width = 0", "conv_channels = 10,16", "fc_dims = 8",
    ], ids=lambda text: text.replace(" ", "").replace("\n", ","))
    def test_out_of_range_rejected(self, tmp_path, text):
        """`runner.run` rejects the config before it creates `out_dir`."""
        key = text.split()[0]
        match = self.MESSAGES.get(text, rf"\b{key} must")
        out_dir = tmp_path / "run"
        with pytest.raises(ConfigurationError, match=match):
            runner.run(dataclasses.replace(parse_config(text), out_dir=str(out_dir)))
        assert not out_dir.exists()

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nlr = 0.2  # trailing\n")
        assert cfg.lr == 0.2

    def test_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(SMALL)
        cfg = load_config(str(path), ["lr=0.5", "seed=9"])
        assert cfg.lr == 0.5 and cfg.seed == 9

    def test_override_values_are_taken_verbatim(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(SMALL)
        assert load_config(str(path), ["out_dir=runs/#3"]).out_dir == "runs/#3"
        for bad in ("", "lr"):
            with pytest.raises(ConfigurationError, match="not key=value"):
                load_config(str(path), [bad])


class TestRun:
    def test_zero_rounds_valid_record(self, tmp_path):
        cfg = small_cfg(tmp_path, rounds=0)
        record = runner.run(cfg)
        assert record.rounds == []
        text = (tmp_path / "run" / "metrics.csv").read_text()
        assert text == runner.CSV_HEADER + "\n"
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["rounds_completed"] == 0
        assert summary["status"] == "ok"
        assert summary["final"]["mean_test_acc"] is None

    def test_direct_config_runs_like_the_cli(self, tmp_path):
        """A RunConfig built in code, with hn_lr left at -1, writes the bytes
        `padfl run` writes from the same text: `runner.run` resolves it."""
        cfg = RunConfig(
            method="Pa3dFL", clients=4, per_round=2, rounds=2, batch=8, epochs=1, lr=0.05,
            synth_classes=2, synth_per_class=40, synth_shape=(1, 8, 8), conv_channels=(4, 4),
            conv_kernel=3, min_width=Fraction(1, 4), hn_embed=6, hn_hidden=6, hn_depth=2,
            patience_frac=0, capacity="ideal", seed=3, out_dir=str(tmp_path / "direct"))
        assert cfg.hn_lr == -1
        runner.run(cfg)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        assert cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'cli'}"]) == 0
        assert (tmp_path / "direct" / "metrics.csv").read_bytes() == \
               (tmp_path / "cli" / "metrics.csv").read_bytes()

    def test_run_rebuilds_from_its_summary(self, tmp_path):
        """summary.json's config block, written back as config text, runs
        to the metrics.csv bytes of the run that wrote it."""
        runner.run(small_cfg(tmp_path, out="a", fc_dims=(8,), partition="k_of_K"))
        config = json.loads((tmp_path / "a" / "summary.json").read_text())["config"]
        cfg_path = tmp_path / "rebuilt.cfg"
        cfg_path.write_text("".join(
            f"{key} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
            for key, v in config.items()))
        assert cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'b'}"]) == 0
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_metrics_deterministic_bytes(self, tmp_path):
        a = runner.run(small_cfg(tmp_path, out="a"))
        b = runner.run(small_cfg(tmp_path, out="b"))
        bytes_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_parallel_workers_identical_bytes(self, tmp_path):
        a = runner.run(small_cfg(tmp_path, out="a"))
        c = runner.run(small_cfg(tmp_path, out="c", workers=3))
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
               (tmp_path / "c" / "metrics.csv").read_bytes()

    def test_csv_schema_and_row_count(self, tmp_path):
        cfg = small_cfg(tmp_path)
        record = runner.run(cfg)
        with open(tmp_path / "run" / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(record.rounds) * cfg.clients
        assert len({r["round"] for r in rows}) == len(record.rounds)

    @pytest.mark.parametrize("method", ["Pa3dFL", "FedAvgMinWidth"])
    def test_rounds_csv_matches_record(self, tmp_path, method):
        record = runner.run(small_cfg(tmp_path, method=method))
        with open(tmp_path / "run" / "rounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert ",".join(rows[0]) == runner.ROUNDS_HEADER
        assert len(rows) == len(record.rounds) > 0
        for row, m in zip(rows, record.rounds):
            assert int(row["round"]) == m.round
            assert float(row["eta"]) == m.eta
            assert np.array_equal(float(row["hn_loss"]), m.hn_loss, equal_nan=True)
            assert int(row["params_exchanged"]) == m.params_exchanged
            assert [int(i) for i in row["failed"].split()] == m.failed
            for phase in ("gen_s", "train_s", "server_s", "eval_s"):
                assert float(row[phase]) == getattr(m, phase)
        assert np.isnan(record.rounds[0].hn_loss) == (method != "Pa3dFL")
        phases = np.array([[float(r[k]) for k in ("gen_s", "train_s", "server_s", "eval_s")]
                           for r in rows])
        assert np.isfinite(phases).all() and (phases >= 0).all()
        assert phases.sum() <= record.wall_time

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_trains_at_the_default_network(self, tmp_path, capsys, method):
        # the default conv 16,16 at min_width 1/16 on 1x28x28 inputs, small elsewhere
        sets = [f"method={method}", "clients=4", "per_round=2", "synth_per_class=40",
                "epochs=1", "rounds=1", "workers=1", f"out_dir={tmp_path / 'r'}"]
        assert cli_main(["run", os.devnull, *(a for kv in sets for a in ("--set", kv))]) == 0
        _, rows = report.read_metrics(str(tmp_path / "r"))
        assert [r["client_id"] for r in rows] == [0, 1, 2, 3]
        assert np.isfinite([[r["val_acc"], r["test_acc"]] for r in rows]).all()
        losses = [r["train_loss"] for r in rows if not np.isnan(r["train_loss"])]
        assert len(losses) == 2 and np.isfinite(losses).all()

    def test_summary_totals_match_csv(self, tmp_path):
        cfg = small_cfg(tmp_path)
        runner.run(cfg)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        _, rows = report.read_metrics(str(tmp_path / "run"))
        last = max(r["round"] for r in rows)
        finals = [r["test_acc"] for r in rows if r["round"] == last]
        assert abs(summary["final"]["mean_test_acc"] - np.mean(finals)) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_writes_partial_flagged(self, tmp_path):
        cfg = small_cfg(tmp_path, lr=1e6, rounds=4)
        with pytest.raises(NumericError):
            runner.run(cfg)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "failed"


class TestComputeDtype:
    """The dataset's dtype is the compute dtype, with no setting to pick it:
    a synth run trains, sends and keeps float32 models, and the same run on
    its dataset cast to float64 keeps every model array float64. The
    hyper-network is float64 either way."""

    @staticmethod
    def model_arrays(method):
        """Every model array a method sends or keeps."""
        arrays = [a for i in range(len(method.profiles)) for a in method.sent(i).arrays()]
        arrays += [a for m in method.local.values() for a in m.arrays()]
        if isinstance(method, protocol.DecomposedFL):
            arrays += [method.global_head.w, method.global_head.b]
        return arrays

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_models_follow_the_dataset_dtype(self, tmp_path, method, dtype):
        cfg = small_cfg(tmp_path, method=method, conv_channels=(4, 8)).finalize()
        dataset = runner.build_dataset(cfg)
        assert dataset.features.dtype == np.float32
        dataset = dataclasses.replace(dataset, features=dataset.features.astype(dtype))
        layout = runner.configured_layout(cfg, dataset)
        profiles = runner.build_profiles(cfg, runner.build_partition(cfg, dataset))
        built = runner.build_method(cfg, profiles, layout)
        for t in range(2):
            metrics = built.run_round(t)
            assert not metrics.failed
            assert {a.dtype for a in self.model_arrays(built)} == {np.dtype(dtype)}
        if isinstance(built, protocol.DecomposedFL):
            assert {a.dtype for a in built.hn.arrays()} == {np.dtype(np.float64)}


class TestFedAvgOracle:
    def test_min_width_on_ideal_matches_straight_line_fedavg(self, tmp_path):
        """Independent-implementation oracle: a dedicated FedAvg loop written
        in this test (own forward from the autodiff ops, own aggregation,
        evaluation by the nested-loop reference forward) must reproduce the
        FedAvgMinWidth run trace on ideal capacities."""
        cfg = small_cfg(tmp_path, method="FedAvgMinWidth", rounds=3)
        record = runner.run(cfg)

        # --- straight-line reimplementation ---
        dataset = runner.build_dataset(cfg)
        layout = runner.configured_layout(cfg, dataset)
        partition = runner.build_partition(cfg, dataset)
        profiles = runner.build_profiles(cfg, partition)
        assert all(p.width == 1 for p in profiles)
        from padfl.model import init_plain

        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, protocol.TAG_INIT)))
        model = init_plain(layout, Fraction(1), rng)
        arrays = model.arrays()
        server_rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, protocol.TAG_SERVER)))

        def forward_t(nodes, x):
            (w1, w2, b1, b2, hw_, hb_), h = nodes, ad.transpose(x, (1, 2, 3, 0))
            for w, b in ((w1, b1), (w2, b2)):  # batch-last (C, H, W, B)
                h = ad.relu(ad.maxpool2x2(ad.conv2d(h, w, pad=cfg.conv_kernel // 2, bias=b)))
            h = ad.reshape(ad.transpose(h, (3, 0, 1, 2)), (x.data.shape[0], -1))
            return ad.add(ad.matmul(h, ad.transpose(hw_, (1, 0))), hb_)

        def forward(arrs, x):
            dense = types.SimpleNamespace(weights=arrs[:2], biases=arrs[2:4],
                                          head_w=arrs[4], head_b=arrs[5])
            return reference_plain_logits(layout, dense, x)

        def train(arrs, prof, t):
            arrs = [a.copy() for a in arrs]
            crng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, protocol.TAG_CLIENT, t, prof.id)))
            idx = prof.data.train_idx
            eta = cfg.lr * cfg.lr_decay ** t
            for _ in range(cfg.epochs):
                order = crng.permutation(len(idx))
                for s in range(0, len(order), cfg.batch):
                    sel = idx[order[s:s + cfg.batch]]
                    leaves = [ad.leaf(a) for a in arrs]
                    loss = ad.cross_entropy(
                        forward_t(leaves, ad.const(dataset.features[sel])),
                        dataset.labels[sel])
                    ad.backward(loss)  # leaves freeze their arrays: step out of place
                    arrs = [a if n.grad is None else a - eta * n.grad
                            for a, n in zip(arrs, leaves)]
            return arrs

        for t in range(len(record.rounds)):
            chosen = sorted(int(i) for i in
                            server_rng.choice(cfg.clients, cfg.per_round, replace=False))
            assert chosen == record.rounds[t].selected
            returned = [train(arrays, profiles[i], t) for i in chosen]
            arrays = [np.mean([r[j] for r in returned], axis=0)
                      for j in range(len(arrays))]
            for prof, row in zip(profiles, record.rounds[t].rows):
                xt, yt = prof.data.test_xy()
                acc = float((forward(arrays, xt).argmax(axis=1) == yt).mean())
                assert abs(acc - row.test_acc) < 1e-12


class TestReport:
    def test_single_run_report(self, tmp_path):
        cfg = small_cfg(tmp_path)
        runner.run(cfg)
        svg, table = report.write_report([str(tmp_path / "run")], str(tmp_path / "out"))
        text = Path(svg).read_text()
        assert text.count("<svg") == 1
        assert text.count("<polyline") == 1
        rows = Path(table).read_text().splitlines()
        assert len(rows) == 1 + 5  # header + five clusters

    def test_two_runs_two_curves(self, tmp_path):
        runner.run(small_cfg(tmp_path, out="a"))
        runner.run(small_cfg(tmp_path, out="b", method="LocalOnly"))
        svg, _ = report.write_report([str(tmp_path / "a"), str(tmp_path / "b")],
                                     str(tmp_path / "out"))
        text = Path(svg).read_text()
        assert text.count("<polyline") == 2
        assert "Pa3dFL" in text and "LocalOnly" in text

    def test_cluster_table_matches_independent_recomputation(self, tmp_path):
        cfg = small_cfg(tmp_path, capacity="hetero", clients=8, per_round=4)
        runner.run(cfg)
        _, rows = report.read_metrics(str(tmp_path / "run"))
        clusters = report.capacity_clusters(rows)
        # independent recomputation straight from the csv
        last_round = max(r["round"] for r in rows)
        per_client = {r["client_id"]: r for r in rows if r["round"] == last_round}
        for c in clusters:
            members = [v["test_acc"] for v in per_client.values()
                       if c["capacity_low"] < v["capacity_r"] <= c["capacity_high"]]
            if members:
                assert abs(c["mean_test_acc"] - np.mean(members)) <= 1e-9
            else:
                assert c["mean_test_acc"] is None

    @pytest.mark.parametrize("method", ["Pa3dFL", "PWidthNested"])
    def test_read_metrics_returns_the_client_rows(self, tmp_path, method):
        assert runner.CSV_HEADER.split(",") == \
            ["round"] + [f.name for f in dataclasses.fields(protocol.ClientRow)]
        record = runner.run(small_cfg(tmp_path, method=method))
        _, got = report.read_metrics(str(tmp_path / "run"))
        want = [{"round": m.round, **dataclasses.asdict(row)}
                for m in record.rounds for row in m.rows]
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert list(g) == list(w)
            for name in w:
                assert g[name] == w[name] or (np.isnan(g[name]) and np.isnan(w[name])), name

    def test_any_run_directory_name_gives_well_formed_files(self, tmp_path):
        # without a summary.json a run's label is its directory's name, raw
        names = ["r&<x", "a,b"]
        for name in names:
            runner.run(small_cfg(tmp_path, out=name, rounds=1))
            (tmp_path / name / "summary.json").unlink()
        svg, table = report.write_report([str(tmp_path / n) for n in names], str(tmp_path / "out"))
        labels = [t.text for t in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert set(names) <= set(labels)
        with open(table, newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(r) for r in rows} == {7}
        assert [r[:2] for r in rows[1:]] == [[n, n] for n in names for _ in range(5)]

    def test_malformed_csv_names_line(self, tmp_path):
        run_dir = tmp_path / "bad"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(
            runner.CSV_HEADER + "\n0,0,0.5,1/2,nan,0.5,bogus,nan\n")
        with pytest.raises(Exception, match="line 2"):
            report.read_metrics(str(run_dir))


class TestAccount:
    def test_synth_account_generates_no_data(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path)
        expect = report.account(cfg)
        monkeypatch.setattr(runner, "build_dataset", None)
        assert report.account(cfg) == expect

    def test_full_capacity_row_is_full_model(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rows = report.account(cfg)
        full = rows[-1]
        assert full["width_p"] == "1"
        from padfl.decomp import param_count

        layout = runner.configured_layout(cfg, runner.build_dataset(cfg))
        expect = sum(param_count(s, 1) for s in layout.specs)
        expect += layout.classes * layout.head_in_full + layout.classes
        assert full["param_count"] == expect

    def test_quarter_capacity_flops_near_quarter(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rows = report.account(cfg)
        by_r = {r["capacity_r"]: r for r in rows}
        ratio = by_r["1/4"]["forward_madds"] / by_r["1"]["forward_madds"]
        # width 1/2 => p^2 = 1/4 exactly, up to the unpruned-raw-input and
        # head terms which scale linearly
        assert 0.2 < ratio < 0.45

    def test_non_square_input_counts_its_whole_map(self, tmp_path, capsys):
        # batch 1, width 1, default model: conv1 8*16*9*1*16 + conv2 4*8*9*16*16
        # + head 128*4 = 92672 multiply-adds for either orientation
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("")
        for shape in ("1,8,16", "1,16,8"):
            assert cli_main(["account", str(cfg_path), "--set", f"synth_shape={shape}",
                             "--set", "batch=1"]) == 0
            full_row = capsys.readouterr().out.splitlines()[-1].split()
            assert full_row[:3] == ["1", "1", "92672"]

    @pytest.mark.parametrize("overrides", [
        ["conv_channels=0"], ["fc_dims=4,0"], ["synth_shape=1,8,8", "synth_classes=65"],
        ["conv_channels=10,10", "capacity=ideal", "min_width=3/10"],
    ], ids=["conv_channels", "fc_dims", "synth_classes", "min_width"])
    def test_out_of_range_exit_2(self, capsys, overrides):
        """`padfl account` rejects what `padfl run` rejects, naming the key."""
        key = overrides[-1].partition("=")[0]
        assert cli_main(["account", os.devnull, *(a for kv in overrides
                                                  for a in ("--set", kv))]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key} must")

    def test_counts_equal_param_count_sums(self, tmp_path):
        cfg = small_cfg(tmp_path)
        rows = report.account(cfg)
        from padfl.decomp import param_count

        layout = runner.configured_layout(cfg, runner.build_dataset(cfg))
        for row in rows:
            p = protocol.width_for_capacity(float(Fraction(row["capacity_r"])), cfg.min_width)
            expect = sum(param_count(s, p) for s in layout.specs)
            expect += layout.classes * layout.head_in(p) + layout.classes
            assert row["param_count"] == expect


class TestCliEntry:
    def test_run_and_report_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        code = cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r1'}"])
        assert code == 0
        assert (tmp_path / "r1" / "metrics.csv").exists()
        code = cli_main(["report", str(tmp_path / "r1"), "-o", str(tmp_path / "rep")])
        assert code == 0
        code = cli_main(["account", str(cfg_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "1/256" in out

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("not_a_key = 1\n")
        assert cli_main(["run", str(cfg_path)]) == 2
        cfg_path.write_text(SMALL)
        assert cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r'}",
                         "--set", "patience_frac=inf"]) == 2
        assert "patience_frac" in capsys.readouterr().err

    def test_huge_patience_frac_runs_as_no_early_stop(self, tmp_path):
        # a patience beyond `rounds` can never fire
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        for frac in ("0", "1e308"):
            assert cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / frac}",
                             "--set", f"patience_frac={frac}"]) == 0
        assert (tmp_path / "1e308" / "metrics.csv").read_bytes() == \
            (tmp_path / "0" / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("fires_at", [3, 1])
    def test_early_stopped_means_rounds_were_cut(self, tmp_path, capsys, monkeypatch,
                                                 fires_at):
        # the stop ends the run after round fires_at - 1 of 3; at the last
        # round it cuts nothing short
        monkeypatch.setattr(protocol, "early_stop",
                            lambda history, stale: len(history) == fires_at)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        assert cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r'}",
                         "--set", "rounds=3", "--set", "patience_frac=0.5"]) == 0
        early = fires_at < 3
        assert ("(early stop)" in capsys.readouterr().out) == early
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["early_stopped"] == early
        assert summary["rounds_completed"] == fires_at

    def test_library_error_exit_2(self, tmp_path, capsys):
        # the Dirichlet partition cannot give 30 clients 3 splits of 80 samples
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        code = cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r3'}",
                         "--set", "clients=30"])
        assert code == 2
        assert "80 samples cannot give 30 clients 3 splits" in capsys.readouterr().err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_bytes(b"method = Pa3dFL\n\xff\xfe")
        out_dir = tmp_path / "run"
        for command in ("run", "account"):
            assert cli_main([command, str(cfg_path), "--set", f"out_dir={out_dir}"]) == 2
            assert capsys.readouterr().err == \
                f"configuration error: {cfg_path}: byte 16: not UTF-8\n"
        assert not out_dir.exists()

    def test_config_path_is_a_directory_exit_2(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_idx_images_is_a_directory_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        images = tmp_path / "images"
        images.mkdir()
        code = cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r5'}",
                         "--set", "dataset=idx", "--set", f"idx_images={images}",
                         "--set", f"idx_labels={tmp_path / 'labels.idx'}"])
        assert code == 2
        assert str(images) in capsys.readouterr().err

    def test_empty_idx_images_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 0, 8, 8))
        labels.write_bytes(struct.pack(">II", 0x00000801, 0))
        code = cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r6'}",
                         "--set", "dataset=idx", "--set", f"idx_images={images}",
                         "--set", f"idx_labels={labels}"])
        assert code == 2
        assert str(images) in capsys.readouterr().err

    def test_out_dir_under_a_file_exit_2_before_any_round(self, tmp_path, capsys,
                                                        monkeypatch):
        def no_round(*args, **kwargs):
            pytest.fail("a round started although out_dir cannot be created")

        monkeypatch.setattr(protocol.FederatedMethod, "run_round", no_round)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "sub"
        assert cli_main(["run", str(cfg_path), "--set", f"out_dir={out_dir}"]) == 2
        assert str(out_dir) in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        (["synth_shape=1,6,6"], "pooling needs even feature maps"),
        (["partition=k_of_K", "classes_per_client=0"], "classes_per_client 0 outside"),
        (["partition=k_of_K", "clients=1", "per_round=1", "classes_per_client=1"],
         "some class found no owner after bounded retries"),
        (["partition=k_of_K", "clients=4", "per_round=2", "synth_per_class=2",
          "classes_per_client=1"], "client 0 received 2 samples (<3)"),
    ], ids=["layout", "partition", "k_of_K-no-owner", "k_of_K-small-client"])
    def test_config_rejected_at_setup_creates_no_out_dir(self, tmp_path, capsys, overrides,
                                                         message):
        out_dir = tmp_path / "run"
        sets = [a for kv in [f"out_dir={out_dir}", *overrides] for a in ("--set", kv)]
        assert cli_main(["run", os.devnull, *sets]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, overrides, prefix", [
        ("lr\n", [], "line 1: "), ("", ["lr"], "override 'lr': "),
    ], ids=["line", "override"])
    def test_malformed_item_exit_2(self, tmp_path, capsys, text, overrides, prefix):
        """A config line and a `--set` item are parsed by one rule: the same
        message after each one's prefix."""
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(text)
        out_dir = tmp_path / "run"
        sets = [a for kv in [f"out_dir={out_dir}", *overrides] for a in ("--set", kv)]
        assert cli_main(["run", str(cfg_path), *sets]) == 2
        assert capsys.readouterr().err == \
            f"configuration error: {prefix}'lr' is not key=value\n"
        assert not out_dir.exists()

    def test_out_dir_is_a_file_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        out_dir = tmp_path / "file"
        out_dir.write_text("")
        assert cli_main(["run", str(cfg_path), "--set", f"out_dir={out_dir}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(out_dir) in err
        assert out_dir.read_text() == "" and not list(tmp_path.rglob("metrics.csv"))

    def test_report_out_is_a_file_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        assert cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r'}"]) == 0
        out = tmp_path / "file"
        out.write_text("")
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path / "r"), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(out) in err
        assert out.read_text() == "" and not list(tmp_path.rglob("*.svg"))

    def test_unwritable_out_dir_exit_2(self, tmp_path, capsys, monkeypatch):
        # root ignores file modes, so the denial is simulated
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(os, "makedirs", denied)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        out_dir = tmp_path / "locked"
        assert cli_main(["run", str(cfg_path), "--set", f"out_dir={out_dir}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(out_dir) in err
        assert not list(tmp_path.rglob("metrics.csv"))

    def test_dead_worker_is_not_a_configuration_error(self, tmp_path, monkeypatch):
        # ChildProcessError is an OSError, but not the user's input at fault
        def dead(*args, **kwargs):
            raise ChildProcessError("worker 1 (exit code -9) sent no readable result")

        monkeypatch.setattr(runner, "run", dead)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        with pytest.raises(ChildProcessError):
            cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r'}"])

    @pytest.mark.parametrize("summary", ["{not json", '{"config": {}}'])
    def test_report_bad_summary_exit_2(self, tmp_path, capsys, summary):
        # malformed JSON, then JSON without config.method
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(runner.CSV_HEADER + "\n")
        (run_dir / "summary.json").write_text(summary)
        assert cli_main(["report", str(run_dir), "-o", str(tmp_path / "rep")]) == 2
        assert str(run_dir / "summary.json") in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("row", ["0,0,0.5,1/2,nan,0.5,0.5", "0,0,0.5,1/2,nan,0.5,0.5,nan,0"],
                             ids=["short", "long"])
    def test_report_row_field_count_exit_2(self, tmp_path, capsys, row):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(runner.CSV_HEADER + "\n" + row + "\n")
        assert cli_main(["report", str(run_dir), "-o", str(tmp_path / "rep")]) == 2
        assert f"{run_dir / 'metrics.csv'}: line 2: " in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("text", [
        runner.CSV_HEADER.rsplit(",", 1)[0] + "\n",
        runner.CSV_HEADER.replace("test_acc", "test_accuracy") + "\n",
        "",
    ], ids=["missing", "renamed", "empty"])
    def test_report_unexpected_columns_exit_2(self, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(text)
        assert cli_main(["report", str(run_dir), "-o", str(tmp_path / "rep")]) == 2
        assert f"{run_dir / 'metrics.csv'}: unexpected columns" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_report_non_utf8_exit_2(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_bytes(runner.CSV_HEADER.encode()
                                              + b"\n0,0,0.5,1/2,nan,0.5,0.5,nan"
                                              + b"\n0,1,0.5,1/2,nan,0.5,0\xff,nan\n")
        assert cli_main(["report", str(run_dir), "-o", str(tmp_path / "rep")]) == 2
        assert f"{run_dir / 'metrics.csv'}: line 3: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("column, value", [("test_acc", "inf"), ("test_acc", "nan"),
                                               ("val_acc", "1.5"), ("val_acc", "-0.25"),
                                               ("capacity_r", "1.5"), ("capacity_r", "0"),
                                               ("capacity_r", "-0.2")])
    def test_report_accuracy_outside_unit_interval_exit_2(self, tmp_path, capsys, column,
                                                          value):
        # every row has capacity_r 0, outside (0, 1] too: an accuracy
        # column's error comes first
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        cells = dict.fromkeys(runner.CSV_HEADER.split(","), "0")
        cells.update(width_p="1/2", train_loss="nan", alpha_selected="nan", val_acc="0.5",
                     test_acc="0.5")
        cells[column] = value
        (run_dir / "metrics.csv").write_text(
            runner.CSV_HEADER + "\n" + ",".join(cells.values()) + "\n")
        assert cli_main(["report", str(run_dir), "-o", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert f"{run_dir / 'metrics.csv'}: line 2: {column}" in err
        assert not (tmp_path / "rep").exists()

    def test_report_negative_round_exit_2(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        rows = ["-5,0,0.5,1/2,nan,0.5,0.5,nan", "3,0,0.5,1/2,nan,0.5,0.5,nan"]
        (run_dir / "metrics.csv").write_text("\n".join([runner.CSV_HEADER] + rows) + "\n")
        assert cli_main(["report", str(run_dir), "-o", str(tmp_path / "rep")]) == 2
        assert f"{run_dir / 'metrics.csv'}: line 2: round -5" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_report_malformed_metrics_is_an_input_error(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(
            runner.CSV_HEADER + "\n0,0,0.5,1/2,nan,0.5,bogus,nan\n")
        assert cli_main(["report", str(run_dir), "-o", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {run_dir / 'metrics.csv'}: line 2: "), err
        assert not (tmp_path / "rep").exists()

    def test_idx_dataset_runs_and_accounts(self, tmp_path, capsys, monkeypatch):
        # 8x8 images of 3 classes, under a synth shape and class count that
        # differ from them: the layout must be read from the images
        n, rng = 90, np.random.default_rng(0)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, n, 8, 8)
                           + rng.integers(0, 256, size=n * 64, dtype=np.uint8).tobytes())
        labels.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(i % 3 for i in range(n)))
        shapes, build = [], runner.build_layout
        monkeypatch.setattr(runner, "build_layout", lambda in_shape, classes, *rest: (
            shapes.append((tuple(in_shape), classes)) or build(in_shape, classes, *rest)))
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        sets = [a for kv in [f"out_dir={tmp_path / 'r'}", "rounds=1", "dataset=idx",
                             f"idx_images={images}", f"idx_labels={labels}",
                             "synth_shape=1,12,12"] for a in ("--set", kv)]
        assert cli_main(["run", str(cfg_path), *sets]) == 0
        with open(tmp_path / "r" / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["round"], r["client_id"]) for r in rows] == [("0", str(i)) for i in range(4)]
        assert cli_main(["account", str(cfg_path), *sets]) == 0
        assert shapes == [((1, 8, 8), 3)] * 2

    def test_truncated_idx_is_an_input_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 200, 8, 8) + bytes(100))
        labels.write_bytes(struct.pack(">II", 0x00000801, 200) + bytes(200))
        code = cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r'}",
                         "--set", "dataset=idx", "--set", f"idx_images={images}",
                         "--set", f"idx_labels={labels}"])
        assert code == 2
        assert capsys.readouterr().err == f"input error: {images}: truncated at byte offset 116\n"
        assert not (tmp_path / "r").exists()

    def test_single_class_idx_labels_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 200, 8, 8) + bytes(200 * 64))
        labels.write_bytes(struct.pack(">II", 0x00000801, 200) + bytes(200))
        code = cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r7'}",
                         "--set", "dataset=idx", "--set", f"idx_images={images}",
                         "--set", f"idx_labels={labels}", "--set", "method=PWidthNested"])
        assert code == 2
        assert f"{labels}: labels need at least 2 distinct values" in capsys.readouterr().err

    def test_one_nonzero_idx_label_exit_2(self, tmp_path, capsys):
        # every label 3: load_idx counts 4 classes, but a constant guess scores 1.0
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 200, 8, 8) + bytes(200 * 64))
        labels.write_bytes(struct.pack(">II", 0x00000801, 200) + bytes([3] * 200))
        code = cli_main(["run", str(cfg_path), "--set", f"out_dir={tmp_path / 'r8'}",
                         "--set", "dataset=idx", "--set", f"idx_images={images}",
                         "--set", f"idx_labels={labels}", "--set", "method=PWidthNested"])
        assert code == 2
        assert f"{labels}: labels need at least 2 distinct values" in capsys.readouterr().err
        assert not (tmp_path / "r8" / "metrics.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exit_3(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        code = cli_main(["run", str(cfg_path),
                         "--set", f"out_dir={tmp_path / 'r2'}",
                         "--set", "lr=1e6", "--set", "rounds=4"])
        assert code == 3

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PADFL_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL + "out_dir = sub\n")
        assert cli_main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "root" / "sub" / "metrics.csv").exists()


def _text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@st.composite
def sweep_configs(draw):
    """A small config; some draws are invalid on purpose (no layer, a
    channel count min_width does not divide, per_round above clients, an
    odd map under a pool)."""
    clients = draw(st.integers(1, 6))
    return {
        "method": draw(st.sampled_from(METHODS)),
        "conv_channels": draw(st.sampled_from([(4, 8), (8,), (16, 16), (2, 4), ()])),
        "fc_dims": draw(st.sampled_from([(), (8,), (16, 4)])),
        "min_width": draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1),
                                           Fraction(1, 8)])),
        "clients": clients,
        "per_round": draw(st.integers(1, clients + 1)),
        "synth_shape": draw(st.sampled_from([(1, 8, 8), (1, 4, 4), (2, 8, 12), (1, 4, 8),
                                             (3, 6, 6)])),
        "synth_classes": draw(st.integers(2, 4)),
        "partition": draw(st.sampled_from(["dirichlet", "k_of_K"])),
        "capacity": draw(st.sampled_from(["hetero", "ideal"])),
        "alpha_grid": draw(st.integers(2, 11)),
        "hn_depth": draw(st.integers(0, 2)),
        "workers": draw(st.integers(1, 2)),
        "rounds": draw(st.integers(1, 2)),
    }


class TestConfigSweep:
    """Every drawn config either runs to accuracies in [0, 1] with a
    byte-identical rerun, or exits 2 before writing metrics.csv."""

    FIXED = {"synth_per_class": 15, "batch": 8, "epochs": 1, "hn_embed": 4, "hn_hidden": 4}

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(config=sweep_configs())
    def test_runs_or_exits_2(self, config):
        sets = [f"{k}={_text(v)}" for k, v in {**self.FIXED, **config}.items()]
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "c.cfg")
            Path(cfg_path).write_text("")
            runs = [os.path.join(tmp, name) for name in ("a", "b")]
            codes = [cli_main(["run", cfg_path, *(a for kv in sets for a in ("--set", kv)),
                               "--set", f"out_dir={out}"]) for out in runs]
            assert codes[0] == codes[1] and codes[0] in (0, 2), (config, codes)
            metrics = [os.path.join(out, "metrics.csv") for out in runs]
            if codes[0] == 2:
                assert not any(os.path.exists(m) for m in metrics)
                return
            a, b = (Path(m).read_bytes() for m in metrics)
            assert a == b
            rows = list(csv.DictReader(a.decode().splitlines()))
            assert rows
            assert all(0.0 <= float(r[k]) <= 1.0 for r in rows for k in ("val_acc", "test_acc"))
