"""End-to-end run orchestration and metrics persistence.

A run is a pure function of (config, seed): datasets, partitions,
capacities, initialization and every per-client batch order derive from
named seed streams, and client results are reduced in client-id order,
so metrics.csv comes out byte-identical for any number of worker
processes, provided BLAS runs one thread per process. metrics.csv holds
the per-client rows (`protocol.ClientRow`), one per client per round;
summary.json holds run-level facts only; its `config` block is
`asdict(RunConfig)`, Fractions written as strings.

`configured_layout` is the one adapter from a config to the `model.Layout`
that the methods read; `report.account` shares it.
"""
from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from . import __version__, baselines, protocol
from .config import RunConfig
from .data import load_idx, partition_dirichlet, partition_k_of_k, synth_gaussian
from .errors import ConfigurationError, NumericError
from .model import Layout, build_layout

CSV_HEADER = ",".join(["round"] + [f.name for f in fields(protocol.ClientRow)])
ROUNDS_HEADER = "round,eta,hn_loss,params_exchanged,gen_s,train_s,server_s,eval_s,failed"


@dataclass
class RunRecord:
    config: RunConfig
    rounds: list          # RoundMetrics per completed round
    status: str           # ok | failed
    early_stopped: bool   # ok, with fewer than config.rounds rounds completed
    wall_time: float


def build_dataset(cfg: RunConfig):
    if cfg.dataset == "synth":
        seed = int(np.random.SeedSequence((cfg.seed, protocol.TAG_DATA)).generate_state(1)[0])
        return synth_gaussian(cfg.synth_classes, cfg.synth_per_class,
                              shape=tuple(cfg.synth_shape),
                              separation=cfg.synth_separation, seed=seed)
    dataset = load_idx(cfg.idx_images, cfg.idx_labels)
    if len(np.unique(dataset.labels)) < 2:  # a constant guess would score 1.0
        raise ConfigurationError(f"{cfg.idx_labels}: labels need at least 2 distinct values")
    return dataset


def build_partition(cfg: RunConfig, dataset):
    seed = int(np.random.SeedSequence((cfg.seed, protocol.TAG_PARTITION)).generate_state(1)[0])
    if cfg.partition == "dirichlet":
        return partition_dirichlet(dataset, cfg.clients, cfg.dirichlet_alpha, seed)
    return partition_k_of_k(dataset, cfg.clients, cfg.classes_per_client, seed)


def configured_layout(cfg: RunConfig, dataset=None) -> Layout:
    """The configured network for dataset's images, or for the synth shape."""
    if dataset is None:
        in_shape, classes = cfg.synth_shape, cfg.synth_classes
    else:
        in_shape, classes = dataset.features.shape[1:], dataset.classes
    return build_layout(in_shape, classes, cfg.min_width, cfg.conv_channels, cfg.conv_kernel,
                        cfg.fc_dims, "flanc" if cfg.method == "Pa3dFL_FlancDecomp" else "padfl")


def build_profiles(cfg: RunConfig, partition):
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, protocol.TAG_CAPACITY)))
    return protocol.assign_capacities(partition.clients, cfg.capacity, rng, cfg.min_width)


def build_method(cfg: RunConfig, profiles, layout):
    if cfg.method in ("Pa3dFL", "Pa3dFL_FlancDecomp"):  # the layout holds the recovery
        return protocol.DecomposedFL(profiles, layout, cfg)
    if cfg.method == "Pa3dFL_NoHNAgg":
        return protocol.DecomposedFL(profiles, layout, cfg, hn_aggregation=False)
    if cfg.method == "FedAvgMinWidth":  # one shared model at the smallest client width
        return baselines.PWidthNested(profiles, layout, cfg, min(p.width for p in profiles))
    if cfg.method == "PWidthNested":
        return baselines.PWidthNested(profiles, layout, cfg)
    return baselines.LocalOnly(profiles, layout, cfg)


def run(cfg: RunConfig) -> RunRecord:
    """Execute one configured run; writes metrics.csv, rounds.csv and
    summary.json.

    Per-client training and evaluation run on one `protocol.ClientPool`
    of min(`cfg.workers`, `cfg.clients`) processes, forked at the first
    round's training phase (so set-up never pays for it) and reaped when
    the run ends, however it ends. With `workers > 1` BLAS must be pinned
    to one thread (OPENBLAS_NUM_THREADS=1 and friends, set before numpy
    loads): otherwise the processes oversubscribe the CPUs.

    The config is validated (`RunConfig.finalize`) and set up (dataset,
    layout, partition, method) before anything is written: a config
    rejected there raises ConfigurationError and creates no `out_dir`.
    A bad `out_dir` fails next, after set-up and before any round. On a
    numeric failure the partial record is flagged `failed` on disk and
    the error re-raised for the caller.
    """
    started = time.monotonic()
    cfg = cfg.finalize()
    dataset = build_dataset(cfg)
    layout = configured_layout(cfg, dataset)
    partition = build_partition(cfg, dataset)
    profiles = build_profiles(cfg, partition)
    method = build_method(cfg, profiles, layout)
    os.makedirs(cfg.out_dir, exist_ok=True)
    stale = None
    if cfg.patience_frac > 0:
        # stop after patience - 1 (at least 1) rounds without a new best; capping
        # patience at rounds + 1 keeps int() finite and makes `stale` never fire
        stale = max(1, int(round(min(cfg.patience_frac * cfg.rounds, cfg.rounds + 1))) - 1)
    rounds = []
    try:
        with protocol.ClientPool(method.serve, min(cfg.workers, cfg.clients)) as pool:
            for t in range(cfg.rounds):
                rounds.append(method.run_round(t, pool))
                if stale and protocol.early_stop([m.mean_val for m in rounds], stale):
                    break
    except NumericError:
        persist(RunRecord(cfg, rounds, "failed", False, time.monotonic() - started))
        raise
    # a stop that fires after the last round cuts nothing short
    record = RunRecord(cfg, rounds, "ok", len(rounds) < cfg.rounds, time.monotonic() - started)
    persist(record)
    return record


# ---------------------------------------------------------------------------
# persistence

def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value):
    if isinstance(value, list):  # client ids
        return " ".join(map(str, value))
    if isinstance(value, (int, Fraction)):
        return str(value)
    return repr(float(value))


def _csv(header, rows):
    return "\n".join([header] + [",".join(map(_cell, row)) for row in rows]) + "\n"


def metrics_csv(record: RunRecord) -> str:
    return _csv(CSV_HEADER, [
        (m.round, r.client_id, r.capacity_r, r.width_p, r.train_loss, r.val_acc, r.test_acc,
         r.alpha_selected)
        for m in record.rounds for r in m.rows])


def rounds_csv(record: RunRecord) -> str:
    """Server state and phase wall seconds per round; `failed` lists client
    ids, space-separated."""
    return _csv(ROUNDS_HEADER, [
        (m.round, m.eta, m.hn_loss, m.params_exchanged, m.gen_s, m.train_s, m.server_s,
         m.eval_s, m.failed)
        for m in record.rounds])


def summary_json(record: RunRecord) -> str:
    """Run-level facts only: status, config, totals and the final round's
    accuracy mean and spread; metrics.csv holds the per-client rows."""
    tests = [r.test_acc for r in record.rounds[-1].rows] if record.rounds else []
    payload = {
        "version": __version__,
        "status": record.status,
        "config": {k: str(v) if isinstance(v, Fraction) else v
                   for k, v in asdict(record.config).items()},
        "rounds_completed": len(record.rounds),
        "early_stopped": record.early_stopped,
        "wall_time_s": record.wall_time,
        "params_exchanged_total": int(sum(m.params_exchanged for m in record.rounds)),
        "final": {
            "mean_test_acc": float(np.mean(tests)) if tests else None,
            "std_test_acc": float(np.std(tests)) if tests else None,
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def persist(record: RunRecord):
    _atomic_write(os.path.join(record.config.out_dir, "metrics.csv"), metrics_csv(record))
    _atomic_write(os.path.join(record.config.out_dir, "rounds.csv"), rounds_csv(record))
    _atomic_write(os.path.join(record.config.out_dir, "summary.json"), summary_json(record))
