"""Workloads, measurement and the output check of the padfl benchmark.

padfl is driven only through its public API: ``config.parse_config``,
``runner.run`` (plus ``runner.build_dataset``/``build_partition`` to learn
each client's train size, outside any timed region), the returned
``RunRecord`` and the ``metrics.csv`` the run writes.

Load shape: a closed loop in one process and one thread (``workers=1``,
BLAS pinned to 1 thread by ``run.py`` before numpy loads).

Seeds: one benchmark run with ``--seed s`` runs ``Workload.seeds_per_run``
configs whose ``seed`` is ``16*s + j``. Accuracy, payload and run time
depend strongly on the data draw at a few rounds, so the seed-determined
metrics are means over those configs. The first config is run twice and
its ``metrics.csv`` must come out byte-identical.

Timed window, a rule per workload (rounds are never picked after seeing
their times): ``round_s`` and ``train_samples_per_s`` use rounds
``timed_from``..R-1.
On pa3dfl-train, round 0 is left out: no client holds a local model yet,
so its evaluation makes 1 ``accuracy`` call per client instead of the line
search's 11. On pa3dfl-server every client trains in round 0, and the dense
evaluation of dense-nested never depends on local models, so both time
every round.
"""
from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass

from padfl import config, runner

from spans import Collected, SetupProbeDone, Tracer

SEED_STRIDE = 16
SETUP_PROBES = 9


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: str          # config text on top of RunConfig defaults
    rounds: int
    seeds_per_run: int
    timed_from: int         # first round of the timed window
    dominant: tuple         # per-layer .s metrics that should make up most of a round
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "pa3dfl-train", "method = Pa3dFL\npatience_frac = 0\n", rounds=2, seeds_per_run=6,
        timed_from=1, dominant=("protocol.local_update.s",),
        why="method=Pa3dFL patience_frac=0 on the defaults (20 clients, 10 per round, E=5, "
            "B=50, conv 16,16); 2 rounds x 6 seeds: local SGD dominates, the hyper-network "
            "is a few %"),
    Workload(
        "pa3dfl-server",
        "method = Pa3dFL\nclients = 100\nper_round = 100\nepochs = 1\n"
        "synth_per_class = 500\npatience_frac = 0\n", rounds=2, seeds_per_run=5,
        timed_from=0, dominant=("protocol.evaluate_client.s", "hypernet.hn_step.s"),
        why="method=Pa3dFL clients=100 per_round=100 epochs=1 patience_frac=0; 2 rounds x 5 "
            "seeds: all clients train from round 0, so line-search evaluation, hn_step and "
            "generation dominate"),
    Workload(
        "dense-nested", "method = PWidthNested\npatience_frac = 0\n", rounds=2, seeds_per_run=8,
        timed_from=0, dominant=("baselines.plain_sgd.s",),
        why="method=PWidthNested patience_frac=0; 2 rounds x 8 seeds: the dense path "
            "(plain_sgd, plain_infer) and coverage-count averaging, on the autodiff kernels and "
            "round loop Pa3dFL uses"),
)}

END_TO_END = (
    ("run_s", "s"), ("setup_s", "s"), ("round_s", "s"),
    ("train_samples_per_s", "samples/s"), ("final_test_acc", "fraction"),
    ("params_per_round", "params"), ("client_ok_frac", "fraction"), ("peak_rss_mb", "MB"),
)


class OutputCheckError(Exception):
    """The program's output failed the benchmark's output check."""


def make_config(workload: Workload, seed: int, out_root: str):
    text = (workload.overrides + f"seed = {seed}\nrounds = {workload.rounds}\n"
            + f"out_dir = {os.path.join(out_root, workload.name, f'seed{seed}')}\n")
    return config.parse_config(text).finalize()


def config_seeds(workload: Workload, seed: int):
    return [SEED_STRIDE * seed + j for j in range(workload.seeds_per_run)]


# ---------------------------------------------------------------------------
# output check

def check_output(record, csv_bytes: bytes, cfg):
    """Raise OutputCheckError unless the run finished and metrics.csv agrees
    with the RunRecord it was written from."""
    if record.status != "ok":
        raise OutputCheckError(f"seed {cfg.seed}: run status {record.status!r}")
    if len(record.rounds) != cfg.rounds:
        raise OutputCheckError(f"seed {cfg.seed}: {len(record.rounds)} of {cfg.rounds} rounds")
    lines = csv_bytes.decode().splitlines()
    header = lines[0].split(",")
    if "test_acc" not in header or "round" not in header:
        raise OutputCheckError(f"seed {cfg.seed}: metrics.csv header {lines[0]!r}")
    col_round, col_test = header.index("round"), header.index("test_acc")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != cfg.rounds * cfg.clients or any(len(r) != len(header) for r in rows):
        raise OutputCheckError(f"seed {cfg.seed}: metrics.csv has {len(rows)} rows, "
                               f"expected {cfg.rounds * cfg.clients}")
    for metrics in record.rounds:
        tests = [float(r[col_test]) for r in rows if int(r[col_round]) == metrics.round]
        if not all(0.0 <= a <= 1.0 for a in tests):
            raise OutputCheckError(f"seed {cfg.seed}: test accuracy outside [0, 1]")
        if not math.isclose(sum(tests) / len(tests), metrics.mean_test,
                            rel_tol=1e-12, abs_tol=1e-12):
            raise OutputCheckError(f"seed {cfg.seed} round {metrics.round}: metrics.csv "
                                   f"mean test accuracy disagrees with the run record")


def _finite(values: dict):
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise OutputCheckError(f"non-finite metrics: {bad}")


# ---------------------------------------------------------------------------
# runs

@dataclass
class RunResult:
    run_s: float
    setup_s: float
    round_s: list
    record: object
    csv_sha256: str
    coverage: list          # clients holding a local model after each round


def one_run(cfg, tracer: Tracer) -> RunResult:
    tracer.reset()
    start = time.perf_counter()
    record = runner.run(cfg)
    run_s = time.perf_counter() - start
    rounds = tracer.rounds()
    with open(os.path.join(cfg.out_dir, "metrics.csv"), "rb") as fh:
        csv_bytes = fh.read()
    check_output(record, csv_bytes, cfg)
    owned, coverage = set(), []
    for m in record.rounds:
        owned.update(i for i in m.selected if i not in m.failed)
        coverage.append(len(owned))
    return RunResult(run_s, rounds[0][0] - start,
                     [end - begin for begin, end in rounds], record,
                     hashlib.sha256(csv_bytes).hexdigest(), coverage)


def setup_probe(cfg, tracer: Tracer) -> float:
    """Time runner.run from its start to its first round, then stop it."""
    tracer.reset()
    tracer.probe = True
    start = time.perf_counter()
    try:
        runner.run(cfg)
    except SetupProbeDone:
        return time.perf_counter() - start
    finally:
        tracer.probe = False
    raise OutputCheckError("set-up probe reached no round")


def train_sizes(cfg):
    partition = runner.build_partition(cfg, runner.build_dataset(cfg))
    return [len(c.train_idx) for c in partition.clients]


def seed_metrics(runs, cfg, sizes, timed_from):
    """Per-seed values; timings are the median over the seed's repeats."""
    records = runs[0].record.rounds
    return {
        "run_s": statistics.median(r.run_s for r in runs),
        "setup_s": statistics.median(r.setup_s for r in runs),
        "timed_s": statistics.median(sum(r.round_s[timed_from:]) for r in runs),
        "timed_samples": sum(cfg.epochs * sizes[i] for m in records[timed_from:]
                             for i in m.selected if i not in m.failed),
        "final_test_acc": records[-1].mean_test,
        "params_per_round": statistics.fmean(m.params_exchanged for m in records),
        "selected": sum(len(m.selected) for m in records),
        "failed": sum(len(m.failed) for m in records),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out_root: str) -> dict:
    """Run one workload; returns the result (raises OutputCheckError)."""
    seeds = config_seeds(workload, seed)
    cfgs = {s: make_config(workload, s, out_root) for s in seeds}
    started = time.perf_counter()
    by_seed = {s: [] for s in seeds}
    with Tracer(layers=False) as clock:
        setups = [setup_probe(cfgs[seeds[0]], clock) for _ in range(SETUP_PROBES)]
        for s in seeds:
            by_seed[s].append(one_run(cfgs[s], clock))
        # the first seed is repeated for the determinism check; more repeats
        # (cycling through the seeds) while the measuring time lasts
        k = 0
        while True:
            by_seed[seeds[k % len(seeds)]].append(one_run(cfgs[seeds[k % len(seeds)]], clock))
            k += 1
            elapsed = time.perf_counter() - started
            if trace or elapsed + elapsed / (len(seeds) + k) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for s, runs in by_seed.items():
        hashes = {r.csv_sha256 for r in runs}
        if len(hashes) != 1:
            raise OutputCheckError(f"seed {s}: metrics.csv differs across repeats: "
                                   f"{sorted(h[:12] for h in hashes)}")
    per_seed = {s: seed_metrics(by_seed[s], cfgs[s], train_sizes(cfgs[s]),
                                workload.timed_from) for s in seeds}
    attempted = sum(per_seed[s]["selected"] * len(by_seed[s]) for s in seeds)
    failed = sum(per_seed[s]["failed"] * len(by_seed[s]) for s in seeds)
    seed_mean = {k: statistics.fmean(m[k] for m in per_seed.values())
                 for k in ("run_s", "final_test_acc", "params_per_round")}
    e2e = {
        "run_s": seed_mean["run_s"],
        "setup_s": statistics.median(setups + [r.setup_s for rs in by_seed.values()
                                               for r in rs]),
        "round_s": statistics.median(t for rs in by_seed.values() for r in rs
                                     for t in r.round_s[workload.timed_from:]),
        "train_samples_per_s": (sum(m["timed_samples"] for m in per_seed.values())
                                / sum(m["timed_s"] for m in per_seed.values())),
        "final_test_acc": seed_mean["final_test_acc"],
        "params_per_round": seed_mean["params_per_round"],
        "client_ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    _finite(e2e)
    result = {
        "workload": workload.name, "seed": seed, "config_seeds": seeds,
        "end_to_end": e2e, "attempted": attempted, "failed": failed,
        "runs": {s: [{"run_s": r.run_s, "setup_s": r.setup_s, "round_s": r.round_s,
                      "coverage": r.coverage} for r in rs] for s, rs in by_seed.items()},
        "metrics_csv_sha256": {s: rs[0].csv_sha256 for s, rs in by_seed.items()},
        "setup_probes_s": setups, "per_seed": per_seed,
        "clients": cfgs[seeds[0]].clients, "timed_from": workload.timed_from,
        "dominant": workload.dominant,
        "measured_s": time.perf_counter() - started,
    }
    if trace:
        result["trace"] = traced_runs(cfgs, by_seed)
    return result


def traced_runs(cfgs, by_seed) -> dict:
    """One traced run per config seed; metrics.csv must match the untraced
    runs byte for byte, so tracing provably left the results alone."""
    collected = Collected()
    overheads, spans = [], {}
    with Tracer(layers=True) as tracer:
        for s, cfg in cfgs.items():
            run = one_run(cfg, tracer)
            if run.csv_sha256 != by_seed[s][0].csv_sha256:
                raise OutputCheckError(f"seed {s}: traced metrics.csv differs from untraced")
            collected.add(tracer, sum(len(m.failed) for m in run.record.rounds))
            overheads.append(run.run_s - statistics.median(r.run_s for r in by_seed[s]))
            spans[s] = tracer.spans
        missing = list(tracer.missing)
    overhead = statistics.median(overheads)
    return {"metrics": collected.metrics(set(missing), overhead), "missing": missing,
            "collected": collected, "spans": spans, "overhead_s": overheads}
