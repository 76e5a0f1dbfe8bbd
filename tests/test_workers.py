"""Forked per-client workers: same bytes for any worker count, errors keep
their type, and the default worker count follows the BLAS thread pin."""
import json
import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import replace

import pytest

import padfl
from padfl import hypernet, protocol
from padfl.config import BLAS_THREAD_VARS
from padfl.errors import DimensionError

from test_cli import SMALL
from test_protocol import small_setup
from util import generate_one

SRC = os.path.dirname(os.path.dirname(os.path.abspath(padfl.__file__)))


def python(args, env_update=(), unset=(), cwd=None):
    """Run a fresh interpreter that imports this padfl; its stdout. A str
    is run as code, a list as the interpreter's arguments."""
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env.update(env_update)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if isinstance(args, str):
        args = ["-c", textwrap.dedent(args)]
    out = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


PINNED = {v: "1" for v in BLAS_THREAD_VARS}


def boom(i):
    if i == 3:
        raise DimensionError(f"client {i}")
    return i


class Unpicklable(DimensionError):
    def __init__(self):
        super().__init__("holds a lambda")
        self.hook = lambda: None


def unpicklable_error(i):
    raise Unpicklable()


class TestMapClients:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_given_order(self, workers):
        ids = [5, 1, 4, 2, 9]
        assert protocol.map_clients(lambda i: (i, i * i), ids, workers) == \
            [(i, i * i) for i in ids]

    def test_every_id_runs_once_with_more_workers_than_cpus(self, tmp_path):
        log = tmp_path / "ran"

        def record(i):
            with open(log, "a") as fh:  # O_APPEND: one whole line per write
                fh.write(f"{i}\n")
            return i

        ids = list(range(200))
        assert protocol.map_clients(record, ids, 6) == ids
        assert sorted(int(x) for x in log.read_text().split()) == ids

    def test_empty(self):
        assert protocol.map_clients(lambda i: i, [], 2) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_keeps_type(self, workers):
        with pytest.raises(DimensionError, match="client 3"):
            protocol.map_clients(boom, range(6), workers)

    @pytest.mark.parametrize("fn", [unpicklable_error, lambda i: lambda: i])
    def test_unpicklable_outcome_is_an_error(self, fn):
        with pytest.raises(RuntimeError, match="Unpicklable|pickle"):
            protocol.map_clients(fn, range(4), 2)

    def test_dead_worker_is_an_error(self):
        with pytest.raises(ChildProcessError, match="exit code -9"):
            protocol.map_clients(lambda i: os.kill(os.getpid(), signal.SIGKILL), range(4), 2)

    def test_worker_state_changes_stay_in_worker(self):
        seen = []
        protocol.map_clients(seen.append, range(4), 2)
        assert seen == []


class TestGenerationCache:
    def test_one_generation_per_hypernet_state(self, monkeypatch):
        cfg, layout, profiles = small_setup(seed=5)
        method = protocol.DecomposedFL(profiles, layout, cfg)
        calls = []
        original = hypernet.generation_graph

        def counting(state):
            calls.append((state, sys._getframe(1).f_code.co_name))
            return original(state)

        monkeypatch.setattr(hypernet, "generation_graph", counting)
        for t in range(3):
            method.run_round(t)
        # the hyper-network step differentiates the graph prepare built
        assert [caller for _, caller in calls] == ["prepare"] * 4
        assert len({id(s) for s, _ in calls}) == 4  # states stay referenced, so ids are unique

    def test_round_steps_the_graph_of_the_previous_state(self):
        cfg, layout, profiles = small_setup(seed=7, capacity="hetero")
        method = protocol.DecomposedFL(profiles, layout, cfg)
        seen = []
        aggregate = method.aggregate

        def recording(models):
            seen.append((method.hn, models))
            aggregate(models)

        method.aggregate = recording
        method.run_round(0)
        (before, models), = seen
        fresh, loss = hypernet.hn_step(hypernet.generation_graph(before), models, layout,
                                       cfg.hn_lr)
        assert loss == method.last_hn_loss
        for a, b in zip(method.hn.arrays(), fresh.arrays()):
            assert a.tobytes() == b.tobytes()

    def test_sent_equals_single_client_generation(self):
        cfg, layout, profiles = small_setup(seed=6, capacity="hetero")
        method = protocol.DecomposedFL(profiles, layout, cfg)
        method.run_round(0)
        for p in profiles:
            single = generate_one(method.hn, p.id, layout, p.width)
            sent = replace(method.sent(p.id), general=[])
            for a, b in zip(sent.arrays(), single.arrays()):
                assert a.tobytes() == b.tobytes()


def test_all_methods_identical_bytes_for_1_2_3_workers(tmp_path):
    out = python(f"""
        import hashlib
        from padfl import config, runner
        for method in config.METHODS:
            digests = set()
            for workers in (1, 2, 3):
                cfg = config.parse_config({SMALL!r})
                cfg.method, cfg.clients, cfg.per_round = method, 5, 3
                cfg.workers, cfg.out_dir = workers, f"{{method}}-{{workers}}"
                if method == "Pa3dFL_FlancDecomp":  # base_count 2 in conv 2
                    cfg.conv_channels = (4, 8)
                runner.run(cfg)
                with open(cfg.out_dir + "/metrics.csv", "rb") as fh:
                    digests.add(hashlib.sha256(fh.read()).hexdigest())
            print(method, len(digests))
    """, PINNED, cwd=tmp_path)
    counts = dict(line.split() for line in out.splitlines())
    assert counts == {m: "1" for m in padfl.config.METHODS}


class TestDefaultWorkers:
    CODE = """
        import os
        from padfl.config import RunConfig
        print(RunConfig().workers, len(os.sched_getaffinity(0)))
    """

    def test_unpinned_runs_serial(self):
        workers, _ = python(self.CODE, unset=BLAS_THREAD_VARS).split()
        assert workers == "1"

    def test_partly_pinned_runs_serial(self):
        env = dict(PINNED, OMP_NUM_THREADS="4")
        workers, _ = python(self.CODE, env).split()
        assert workers == "1"

    def test_pinned_uses_every_usable_cpu(self):
        workers, cpus = python(self.CODE, PINNED).split()
        assert workers == cpus


def test_cli_run_unpinned_matches_pinned(tmp_path):
    """The CLI pins BLAS itself, so both runs use one worker per CPU."""
    (tmp_path / "c.cfg").write_text(SMALL + "per_round = 3\n")
    for out, env in (("a", {}), ("b", {"OPENBLAS_NUM_THREADS": "1"})):
        python(["-m", "padfl.cli", "run", "c.cfg", "--set", f"out_dir={out}"], env,
               unset=BLAS_THREAD_VARS, cwd=tmp_path)
        summary = json.loads((tmp_path / out / "summary.json").read_text())
        assert summary["config"]["workers"] == len(os.sched_getaffinity(0))
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()
