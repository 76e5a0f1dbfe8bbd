"""Forked per-client workers: one pool per run that leaves no process
behind, same bytes for any worker count, errors keep their type, and the
default worker count follows the BLAS thread pin."""
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace

import pytest

import padfl
from padfl import hypernet, protocol, runner
from padfl.config import BLAS_THREAD_VARS
from padfl.errors import DimensionError, NumericError

from test_cli import SMALL, small_cfg
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


class Stop(BaseException):
    """Not an Exception, like KeyboardInterrupt."""


def pool_map(fn, ids, workers, costs=None):
    """fn over ids on a fresh pool of `workers`, closed afterwards; equal
    costs unless given."""
    ids = list(ids)
    with protocol.ClientPool(fn, workers) as pool:
        return pool.map(ids, costs or [0.0] * len(ids))


class TestMapClients:
    """`ClientPool.map` keeps the guarantees of the per-phase fork it replaced."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_given_order(self, workers):
        ids = [5, 1, 4, 2, 9]
        assert pool_map(lambda i: (i, i * i), ids, workers) == [(i, i * i) for i in ids]

    def test_every_id_runs_once_with_more_workers_than_cpus(self, tmp_path):
        log = tmp_path / "ran"

        def record(i):
            with open(log, "a") as fh:  # O_APPEND: one whole line per write
                fh.write(f"{i}\n")
            return i

        ids = list(range(200))
        assert pool_map(record, ids, 6) == ids
        assert sorted(int(x) for x in log.read_text().split()) == ids

    def test_empty(self):
        assert pool_map(lambda i: i, [], 2) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_keeps_type(self, workers):
        with pytest.raises(DimensionError, match="client 3"):
            pool_map(boom, range(6), workers)

    @pytest.mark.parametrize("fn", [unpicklable_error, lambda i: lambda: i])
    def test_unpicklable_outcome_is_an_error(self, fn):
        with pytest.raises(RuntimeError, match="Unpicklable|pickle"):
            pool_map(fn, range(4), 2)

    def test_dead_worker_is_an_error(self):
        with pytest.raises(ChildProcessError, match="exit code -9"):
            pool_map(lambda i: os.kill(os.getpid(), signal.SIGKILL), range(4), 2)
        assert_no_children()

    def test_worker_state_changes_stay_in_worker(self):
        seen = []
        pool_map(seen.append, range(4), 2)
        assert seen == []


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestClientPool:
    def test_workers_serve_every_map_until_closed(self):
        with protocol.ClientPool(lambda i: (boom(i), os.getpid())[1], 2) as pool:
            first = set(pool.map(range(3), [0.0] * 3))
            assert set(pool.map(range(3), [0.0] * 3)) == first  # the same two processes
            assert len(first) == 2 and os.getpid() not in first
            with pytest.raises(DimensionError):
                pool.map([3], [1.0])
            assert set(pool.map(range(3), [0.0] * 3)) == first  # an error keeps the workers
        assert_no_children()

    def test_costliest_tasks_go_out_first(self, tmp_path):
        log = tmp_path / "ran"
        log.write_text("")

        def run(i):
            if i == 2:  # the costliest task holds its worker until the others ran
                deadline = time.monotonic() + 60
                while len(log.read_text().split()) < 5 and time.monotonic() < deadline:
                    time.sleep(0.01)
            with open(log, "a") as fh:
                fh.write(f"{i}\n")
            return i

        costs = [3.0, 1.0, 9.0, 2.0, 8.0, 3.0]
        assert pool_map(run, range(6), 2, costs) == list(range(6))
        # the free worker takes each next task, costliest first, ties in task order
        assert log.read_text().split() == ["4", "0", "5", "3", "1", "2"]


class TestRunReapsWorkers:
    """`runner.run` forks its pool once and leaves no process behind,
    however the run ends."""

    def test_normal_end(self, tmp_path):
        runner.run(small_cfg(tmp_path, workers=2))
        assert_no_children()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_error(self, tmp_path):
        with pytest.raises(NumericError):
            runner.run(small_cfg(tmp_path, workers=2, lr=1e6, rounds=4))
        assert_no_children()

    @pytest.mark.parametrize("owner, hook", [(protocol.FederatedMethod, "run_round"),
                                             (protocol.DecomposedFL, "aggregate")])
    def test_error_raised_in_round_0(self, tmp_path, monkeypatch, owner, hook):
        # run_round raising at once is the benchmark's set-up probe; aggregate
        # raises after the pool has forked for training
        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(owner, hook, stop)
        with pytest.raises(Stop):
            runner.run(small_cfg(tmp_path, workers=2))
        assert_no_children()

    def test_three_rounds_fork_twice(self, tmp_path):
        out = python(f"""
            import os
            from padfl import config, runner
            forks, real_fork = [], os.fork
            os.fork = lambda: forks.append(1) or real_fork()
            cfg = config.parse_config({SMALL!r})
            cfg.rounds, cfg.workers, cfg.out_dir = 3, 2, "run"
            runner.run(cfg)
            print(len(forks))
        """, PINNED, cwd=tmp_path)
        assert out.split() == ["2"]


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
            return aggregate(models)

        method.aggregate = recording
        metrics = method.run_round(0)
        (before, models), = seen
        fresh, loss = hypernet.hn_step(hypernet.generation_graph(before), models, layout,
                                       cfg.hn_lr)
        assert loss == metrics.hn_loss
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
