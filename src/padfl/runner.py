"""End-to-end run orchestration and metrics persistence.

A run is a pure function of (config, seed): datasets, partitions,
capacities, initialization and every per-client batch order derive from
named seed streams, and client results are reduced in client-id order,
so metrics.csv comes out byte-identical for any number of worker
processes, provided BLAS runs one thread per process.

`configured_layout` is the one adapter from a config to the `model.Layout`
that the methods read; `report.account` shares it.
"""
from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import __version__, baselines, protocol
from .config import RunConfig, snapshot
from .data import load_idx, partition_dirichlet, partition_k_of_k, synth_gaussian
from .decomp import supported_widths
from .errors import ConfigurationError, NumericError
from .model import Layout, build_layout

CSV_HEADER = "round,client_id,capacity_r,width_p,train_loss,val_acc,test_acc,alpha_selected"
ROUNDS_HEADER = "round,eta,hn_loss,params_exchanged,gen_s,train_s,server_s,eval_s,failed"


@dataclass
class RunRecord:
    config: RunConfig
    rounds: list          # RoundMetrics per completed round
    status: str           # ok | failed
    early_stopped: bool
    wall_time: float
    out_dir: str


def build_dataset(cfg: RunConfig):
    if cfg.dataset == "synth":
        seed = int(np.random.SeedSequence((cfg.seed, protocol.TAG_DATA)).generate_state(1)[0])
        return synth_gaussian(cfg.synth_classes, cfg.synth_per_class,
                              shape=tuple(cfg.synth_shape),
                              separation=cfg.synth_separation, seed=seed)
    return load_idx(cfg.idx_images, cfg.idx_labels)


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
                        cfg.fc_dims)


def build_profiles(cfg: RunConfig, partition):
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, protocol.TAG_CAPACITY)))
    profiles = protocol.assign_capacities(
        cfg.clients, cfg.capacity, rng, supported_widths(cfg.min_width))
    for prof, cd in zip(profiles, partition.clients):
        prof.data = cd
    return profiles


def build_method(cfg: RunConfig, profiles, layout):
    if cfg.method == "Pa3dFL":
        return protocol.DecomposedFL(profiles, layout, cfg, cfg.seed)
    if cfg.method == "Pa3dFL_NoHNAgg":
        return protocol.DecomposedFL(profiles, layout, cfg, cfg.seed,
                                     hn_aggregation=False)
    if cfg.method == "Pa3dFL_FlancDecomp":
        return protocol.DecomposedFL(profiles, replace(layout, recovery="flanc"), cfg,
                                     cfg.seed)
    if cfg.method == "FedAvgMinWidth":  # one shared model at the smallest client width
        return baselines.PWidthNested(profiles, layout, cfg, cfg.seed,
                                      min(p.width for p in profiles))
    if cfg.method == "PWidthNested":
        return baselines.PWidthNested(profiles, layout, cfg, cfg.seed)
    if cfg.method == "LocalOnly":
        return baselines.LocalOnly(profiles, layout, cfg, cfg.seed)
    raise ConfigurationError(f"unknown method {cfg.method!r}")


def run(cfg: RunConfig) -> RunRecord:
    """Execute one configured run; writes metrics.csv, rounds.csv and
    summary.json.

    Per-client training and evaluation run on `cfg.workers` forked
    processes. With `workers > 1` BLAS must be pinned to one thread
    (OPENBLAS_NUM_THREADS=1 and friends, set before numpy loads):
    otherwise the processes oversubscribe the CPUs.

    The output directory is created first, so a bad `out_dir` fails before
    any work. On a numeric failure the partial record is flagged `failed`
    on disk and the error re-raised for the caller.
    """
    started = time.monotonic()
    os.makedirs(cfg.out_dir, exist_ok=True)
    dataset = build_dataset(cfg)
    layout = configured_layout(cfg, dataset)
    partition = build_partition(cfg, dataset)
    profiles = build_profiles(cfg, partition)
    method = build_method(cfg, profiles, layout)
    patience = None
    if cfg.patience_frac > 0:
        # a patience above `rounds` never fires; capping it at rounds + 1 keeps int() finite
        patience = max(1, int(round(min(cfg.patience_frac * cfg.rounds, cfg.rounds + 1))))
    rounds = []
    history = []
    early = False
    try:
        for t in range(cfg.rounds):
            metrics = method.run_round(t)
            rounds.append(metrics)
            history.append(metrics.mean_val)
            if patience is not None and protocol.early_stop(history, patience):
                early = True
                break
    except NumericError:
        persist(RunRecord(cfg, rounds, "failed", early, time.monotonic() - started,
                          cfg.out_dir))
        raise
    record = RunRecord(cfg, rounds, "ok", early, time.monotonic() - started, cfg.out_dir)
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


def _fmt(x):
    return repr(float(x))


def metrics_csv(record: RunRecord) -> str:
    lines = [CSV_HEADER]
    for metrics in record.rounds:
        for row in metrics.rows:
            lines.append(",".join([
                str(metrics.round), str(row.client), _fmt(row.capacity),
                str(Fraction(row.width)), _fmt(row.train_loss),
                _fmt(row.val_acc), _fmt(row.test_acc), _fmt(row.alpha),
            ]))
    return "\n".join(lines) + "\n"


def rounds_csv(record: RunRecord) -> str:
    """Server state and phase wall seconds per round; `failed` lists client
    ids, space-separated."""
    lines = [ROUNDS_HEADER]
    for m in record.rounds:
        lines.append(",".join([str(m.round), _fmt(m.eta), _fmt(m.hn_loss),
                               str(m.params_exchanged), _fmt(m.gen_s), _fmt(m.train_s),
                               _fmt(m.server_s), _fmt(m.eval_s), " ".join(map(str, m.failed))]))
    return "\n".join(lines) + "\n"


def summary_json(record: RunRecord) -> str:
    from .report import capacity_clusters

    final_rows = record.rounds[-1].rows if record.rounds else []
    tests = [r.test_acc for r in final_rows]
    clusters = capacity_clusters(
        [{"client_id": r.client, "capacity_r": r.capacity, "test_acc": r.test_acc}
         for r in final_rows]) if final_rows else []
    payload = {
        "version": __version__,
        "status": record.status,
        "config": snapshot(record.config),
        "rounds_completed": len(record.rounds),
        "early_stopped": record.early_stopped,
        "wall_time_s": record.wall_time,
        "params_exchanged_total": int(sum(m.params_exchanged for m in record.rounds)),
        "final": {
            "mean_test_acc": float(np.mean(tests)) if tests else None,
            "std_test_acc": float(np.std(tests)) if tests else None,
            "per_client": [
                {"client": r.client, "capacity": r.capacity, "width": str(Fraction(r.width)),
                 "val_acc": r.val_acc, "test_acc": r.test_acc,
                 "alpha": None if np.isnan(r.alpha) else r.alpha}
                for r in final_rows
            ],
            "capacity_clusters": clusters,
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def persist(record: RunRecord):
    _atomic_write(os.path.join(record.out_dir, "metrics.csv"), metrics_csv(record))
    _atomic_write(os.path.join(record.out_dir, "rounds.csv"), rounds_csv(record))
    _atomic_write(os.path.join(record.out_dir, "summary.json"), summary_json(record))
