"""Federated round protocol.

Server loop per round: sample clients, send each one a model of the
shared general factors and its generated width-matched personal
parameters, train it locally, average the returned general factors over
the round's survivors (`coverage_mean`, each survivor covering every
entry), then regress the hyper-network onto the returned personal
parameters. One `ClientModel` is sent, trained, returned and kept.
Evaluation fuses the freshly received model with each client's last
locally trained model by a validation-accuracy line search over an alpha
grid: every mix is recovered and scored in one stacked forward (memory:
grid size times one model's working set), ties go to the smallest
alpha, the received model's side, and only the selected mix is tested.

`FederatedMethod.run_round` owns the round: it builds each phase's
`sent(i)` once and writes every `ClientRow`, and the base `aggregate`
alone writes `local`, each client's own last trained model. Each other
hook owns one client or the server step, and a method keeps its own
per-client state, so `ClientProfile` records are inputs no method writes.

Models are kept, sent, trained and evaluated in the dtype of the
dataset's features (float32 from the loaders); the hyper-network runs in
float64, and `DecomposedFL.prepare` is the one place its output is cast
to the models' dtype, one client's share at a time.

Sampling, each phase's `sent(i)`, aggregation and the hyper-network step
run in the calling process. Per-client training and evaluation are tasks
that can run on a `ClientPool` of worker processes forked once per run:
a task carries client i's `sent(i)` (and, for evaluation, its last
trained model), the workers only read the state they inherited, and
results are reduced in client-id order. Every client's random stream
derives from (seed, round, client), so a round's outcome does not depend
on the number of workers or on which worker ran which client.
"""
from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt
from multiprocessing.connection import Pipe, wait

import numpy as np

from . import autodiff as ad
from . import decomp, hypernet
from .data import ClientData
from .errors import NumericError
from .model import (
    ClientModel,
    Layout,
    LinearMap,
    PlainModel,
    accuracy,
    combine,
    head_logits_t,
    init_head,
    plain_accuracy,
    representation_t,
    stacked_dense,
    stacked_forward,
)

# rng stream tags so every consumer draws from its own deterministic stream
TAG_SERVER = 0x5E1EC7
TAG_CLIENT = 0xC11E47
TAG_INIT = 0x171217
TAG_CAPACITY = 0xCAFACE
TAG_DATA = 0xDA7A
TAG_PARTITION = 0x9A87


@dataclass(frozen=True)
class ClientProfile:
    """One client's inputs; methods read it and never write it."""

    id: int
    capacity: float                 # affordable fraction of the full model cost
    width: Fraction                 # m/n, m >= 1 largest with (m/n)^2 <= capacity
    data: ClientData


def width_for_capacity(r, min_width) -> Fraction:
    """The largest width m/n on the grid of min_width = 1/n whose quadratic
    cost (m/n)^2 fits the capacity r in (0, 1]; clients below 1/n are
    clamped to it. Exact: m^2 <= r*n^2 as integers, unlike float(p) ** 2."""
    num, den = Fraction(r).as_integer_ratio()
    n = Fraction(min_width).denominator
    return Fraction(max(1, isqrt(num * n * n // den)), n)


def assign_capacities(clients, mode, rng, min_width) -> list:
    """A profile per ClientData in `clients`, on the grid of min_width.
    Hetero: capacity uniform in [0.01, 1]; Ideal: everyone full-size."""
    caps = np.ones(len(clients)) if mode == "ideal" else rng.uniform(0.01, 1.0, len(clients))
    return [ClientProfile(i, float(caps[i]), width_for_capacity(float(caps[i]), min_width), cd)
            for i, cd in enumerate(clients)]


def early_stop(history, stale) -> bool:
    """True once `stale` rounds have passed since the best value's round
    without beating it (a tie does not); `history` holds at least one."""
    return len(history) - 1 - int(np.argmax(history)) >= stale


# ---------------------------------------------------------------------------
# local training

def finite(arrays) -> bool:
    """Is every entry of every array finite?"""
    return all(np.isfinite(a).all() for a in arrays)


def sgd(model, data: ClientData, loss_fn, *, epochs, batch, lr, rng):
    """E epochs of minibatch SGD on a copy of `model` (a ClientModel or a
    PlainModel), made in the dtype of data's features, over data's training
    split; loss_fn(nodes, x_node, labels) builds each batch's scalar loss
    from the model as one of leaf nodes.

    Returns (trained model, mean batch loss), or (None, nan) if an input
    array, a batch loss or a stepped array is not finite.
    """
    x_all, y_all = data.dataset.features, data.dataset.labels
    arrays = [a.astype(x_all.dtype) for a in model.arrays()]
    if not finite(arrays):
        return None, float("nan")
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(data.train_idx))
        for start in range(0, len(order), batch):
            sel = data.train_idx[order[start:start + batch]]
            leaves = [ad.leaf(a) for a in arrays]
            loss = loss_fn(type(model).from_arrays(leaves, model.width),
                           ad.const(x_all[sel]), y_all[sel])
            val = float(loss.data)
            if not np.isfinite(val):
                return None, float("nan")
            losses.append(val)
            ad.backward(loss)  # the leaves froze `arrays`: step out of place
            arrays = [a if n.grad is None else a - lr * n.grad for a, n in zip(arrays, leaves)]
    if not finite(arrays):  # the last step overflowed: no batch loss saw it
        return None, float("nan")
    return type(model).from_arrays(arrays, model.width), float(np.mean(losses))


def local_update(model: ClientModel, global_head, client: ClientProfile, layout: Layout,
                 *, epochs, batch, lr, rng):
    """E epochs of minibatch SGD on one client's model.

    Loss = CE on the frozen shared head, which trains the general and
    personal factors and the biases, + CE of the personal head on the
    detached representation, which trains that head alone. Returns
    `sgd`'s (model | None, loss).
    """
    gw, gb = ad.const(global_head.w), ad.const(global_head.b)

    def loss_fn(m, x, y):
        weights = [decomp.recover_padfl_t(general, factor, spec, m.width)
                   for spec, general, factor in zip(layout.specs, m.general, m.factors)]
        rep = representation_t(layout, weights, m.biases, x)
        loss = ad.cross_entropy(head_logits_t(rep, gw, gb), y)
        return ad.add(loss, ad.cross_entropy(head_logits_t(ad.detach(rep), m.head_w, m.head_b), y))

    return sgd(model, client.data, loss_fn, epochs=epochs, batch=batch, lr=lr, rng=rng)


# ---------------------------------------------------------------------------
# test-time model selection

def select_test_model(received: ClientModel, local, val_xy, test_xy, layout: Layout, grid_size):
    """Line-search the received/local interpolation on validation accuracy.

    All `grid_size` mixes are recovered and scored in one stacked forward,
    whose working set is grid_size times one model's; only the selected
    mix is tested. Returns (alpha, val_accuracy, test_accuracy); ties
    prefer the smaller alpha (the aggregated model).
    Missing local model -> alpha nan (the received model, unfused).
    """
    (xv, yv), (xt, yt) = val_xy, test_xy
    if local is None:
        return float("nan"), accuracy(layout, received, xv, yv), accuracy(layout, received, xt, yt)
    alphas = np.linspace(0.0, 1.0, grid_size)
    mixes = stacked_dense(layout, combine(received, local, alphas))
    accs = (stacked_forward(layout, mixes, xv).argmax(axis=2) == yv).mean(axis=1)
    best = int(np.argmax(accs))  # the first maximum: the smallest alpha wins ties
    chosen = PlainModel.from_arrays([a[best] for a in mixes.arrays()], mixes.width)
    return float(alphas[best]), float(accs[best]), plain_accuracy(layout, chosen, xt, yt)


# ---------------------------------------------------------------------------
# round bookkeeping

@dataclass
class ClientRow:
    """One client in one round; its fields are the metrics.csv columns after `round`."""
    client_id: int
    capacity_r: float
    width_p: Fraction
    train_loss: float
    val_acc: float
    test_acc: float
    alpha_selected: float  # nan for methods without fusion


@dataclass
class RoundMetrics:
    round: int
    eta: float
    selected: list
    failed: list
    rows: list
    mean_val: float
    mean_test: float
    params_exchanged: int
    hn_loss: float
    # wall seconds of the phases: generation (building both phases' `sent(i)`),
    # training, aggregate (with the hyper-network step), evaluation
    gen_s: float
    train_s: float
    server_s: float
    eval_s: float


def coverage_mean(arrays, updates):
    """Each entry of `arrays` averaged over the updates whose keys[j] slice
    covers it, summed in client-id order; `updates` holds (keys, arrays)
    pairs. An entry no update covers keeps its value."""
    merged = []
    for j, full in enumerate(arrays):
        acc, count = np.zeros_like(full), np.zeros_like(full)
        for keys, arrs in updates:
            acc[keys[j]] += arrs[j]
            count[keys[j]] += 1.0
        merged.append(np.where(count > 0, acc / np.maximum(count, 1.0), full))
    return merged


class ClientPool:
    """`serve(task)` for lists of tasks, on `workers` processes forked at
    the first `map` with a task and kept until `close`.

    The workers inherit the caller's state as it is when they fork and
    only read it, so a task carries whatever changed since; state that
    `serve` changes in a worker stays there. Tasks go out largest cost
    first, one at a time, to whichever worker is free, and results come
    back in task order. An exception raised by `serve` is re-raised here
    with its type once the map's other tasks are done (the first task's
    error wins); an unpicklable result or error becomes a RuntimeError. Any
    other failure, such as a worker that dies (ChildProcessError), closes
    the pool. With one worker, or where fork is unavailable, `serve` runs
    in this process. Once forked, the pool keeps no reference to `serve`:
    the workers hold their own copies.
    """

    def __init__(self, serve, workers):
        self.serve = serve
        self.workers = workers if hasattr(os, "fork") else 1
        self.pids = {}  # the parent's end of each worker's pipe -> its pid

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def map(self, tasks, costs) -> list:
        """[serve(task) for task in tasks]; costs[k] ranks task k for dispatch."""
        tasks = list(tasks)
        if self.workers <= 1:
            return [self.serve(task) for task in tasks]
        outcomes, running = [None] * len(tasks), {}  # running: pipe -> task index
        try:
            if tasks and not self.pids:
                self._fork()
            idle = list(self.pids)
            for k in sorted(range(len(tasks)), key=lambda k: -costs[k]):
                conn = idle.pop() if idle else self._finished(running, outcomes)
                conn.send_bytes(pickle.dumps(tasks[k], pickle.HIGHEST_PROTOCOL))
                running[conn] = k
            while running:
                self._finished(running, outcomes)
        except BaseException:
            self.close()
            raise
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    def _finished(self, running, outcomes):
        """Wait for a worker to send its task's (ok, value); its pipe."""
        conn = wait(list(running))[0]
        try:
            outcomes[running.pop(conn)] = pickle.loads(conn.recv_bytes())
        except EOFError as exc:
            pid = self.pids[conn]
            raise ChildProcessError(f"worker {pid} (exit code {self.close()[pid]}) "
                                    "sent no readable result") from exc
        return conn

    def _fork(self):
        for _ in range(self.workers):
            ours, theirs = Pipe()
            pid = os.fork()
            if pid == 0:
                for conn in [ours, *self.pids]:  # the parent's ends stay with the parent
                    conn.close()
                _serve_forever(self.serve, theirs)
            theirs.close()
            self.pids[ours] = pid
        self.serve = None

    def close(self) -> dict:
        """Kill and reap every worker; returns {pid: exit code}. A worker
        that already died keeps its own exit code."""
        codes = {}
        for conn, pid in self.pids.items():
            conn.close()
            os.kill(pid, signal.SIGKILL)
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self.pids, self.serve = {}, None
        return codes


def _serve_forever(serve, conn):
    """One forked worker: answer each task from conn with (True, serve(task))
    or (False, the error) until the parent closes the pipe. Never returns."""
    try:
        while True:
            try:
                task = pickle.loads(conn.recv_bytes())
            except EOFError:
                break
            try:
                outcome = (True, serve(task))
            except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
                outcome = (False, exc)
            try:
                payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # noqa: BLE001 - an unpicklable result or error
                failure = exc if outcome[0] else outcome[1]
                payload = pickle.dumps((False, RuntimeError(repr(failure))))
            conn.send_bytes(payload)
    finally:
        os._exit(0)


class FederatedMethod:
    """Round-loop skeleton shared by the decomposed protocol and baselines.
    Every random stream derives from `cfg.seed`."""

    def __init__(self, profiles, layout: Layout, cfg):
        self.profiles = profiles
        self.layout = layout
        self.cfg = cfg
        # the dataset's dtype is the compute dtype of every model kept here
        self.dtype = profiles[0].data.dataset.features.dtype
        self.server_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, TAG_SERVER)))
        # a client's training and evaluation cost grows with width^2 and its data
        self.costs = [float(p.width) ** 2 * len(p.data.train_idx) for p in profiles]
        self.local = {}  # client id -> its own last trained model

    def client_rng(self, t, client_id):
        return np.random.default_rng(
            np.random.SeedSequence((self.cfg.seed, TAG_CLIENT, t, client_id)))

    def eta(self, t):
        return self.cfg.lr * self.cfg.lr_decay ** t

    def sample_clients(self, m):
        n = len(self.profiles)
        return sorted(int(i) for i in self.server_rng.choice(n, size=m, replace=False))

    def run_round(self, t, pool=None) -> RoundMetrics:
        """Sample, train and aggregate, then evaluate every client; the
        per-client phases are `pool`'s tasks (a `ClientPool` serving
        `self.serve`), or run in this process without one. Builds each
        phase's `sent(i)` once and every client's row, and times each phase."""
        pool = pool or ClientPool(self.serve, 1)
        selected = self.sample_clients(self.cfg.per_round)
        started = time.perf_counter()
        payloads = [self.sent(i) for i in selected]
        built_at = time.perf_counter()
        trained = pool.map([("train_client", t, i, m) for i, m in zip(selected, payloads)],
                           [self.costs[i] for i in selected])
        trained_at = time.perf_counter()
        exchanged = self.round_payload(selected, payloads)
        del payloads  # freed before aggregation: held longer, they raise the peak RSS
        models = {i: m for i, (m, _) in zip(selected, trained) if m is not None}
        losses = {i: loss for i, (_, loss) in zip(selected, trained)}
        failed = [i for i in selected if i not in models]
        if not models:
            raise NumericError(f"every client failed in round {t}")
        hn_loss = self.aggregate(models)
        aggregated_at = time.perf_counter()
        received = [self.sent(p.id) for p in self.profiles]
        rebuilt_at = time.perf_counter()
        scores = pool.map([("evaluate_client", p.id, m, self.local.get(p.id))
                           for p, m in zip(self.profiles, received)], self.costs)
        evaluated_at = time.perf_counter()
        rows = [ClientRow(p.id, p.capacity, m.width, losses.get(p.id, float("nan")), *score)
                for p, m, score in zip(self.profiles, received, scores)]
        return RoundMetrics(
            round=t, eta=self.eta(t), selected=selected, failed=failed, rows=rows,
            mean_val=float(np.mean([r.val_acc for r in rows])),
            mean_test=float(np.mean([r.test_acc for r in rows])),
            params_exchanged=exchanged,
            hn_loss=float("nan") if hn_loss is None else hn_loss,
            gen_s=(built_at - started) + (rebuilt_at - aggregated_at),
            train_s=trained_at - built_at, server_s=aggregated_at - trained_at,
            eval_s=evaluated_at - rebuilt_at)

    def round_payload(self, selected, payloads) -> int:
        """Floats sent this round: the sizes of the training payloads' arrays
        that their clients do not already hold, by identity, in `self.local`."""
        held = {i: {id(a) for a in self.local[i].arrays()} for i in selected if i in self.local}
        return sum(a.size for i, m in zip(selected, payloads)
                   for a in m.arrays() if id(a) not in held.get(i, ()))

    def serve(self, task):
        """Run one per-client task, (hook name, *arguments): what a
        `ClientPool` worker does with this method's state as it forked."""
        hook, *args = task
        return getattr(self, hook)(*args)

    # method-specific hooks
    def sent(self, i):
        """The model client i starts from; after aggregation, the one passed
        to `evaluate_client`, which may change it before scoring."""
        raise NotImplementedError

    def train_client(self, t, i, model) -> tuple:
        """(trained model, or None if training failed; mean loss) of
        client i in round t, trained from `model`, its `sent(i)`, at
        learning rate `self.eta(t)`. Reads no state that a round changes."""
        raise NotImplementedError

    def aggregate(self, models):
        """Fold in the trained models, {client id: model} in id order;
        the hyper-network step's loss, or None without one. Here: keep
        each as its client's own model in `self.local`."""
        self.local.update(models)

    def evaluate_client(self, i, model, local) -> tuple:
        """(val_acc, test_acc, alpha_selected) of client i, from `model`,
        its `sent(i)`, and `local`, its entry in `self.local` or None.
        Reads no state that a round changes."""
        raise NotImplementedError


class DecomposedFL(FederatedMethod):
    """The decomposed protocol with hyper-network personal aggregation.

    hn_aggregation=False is the no-aggregation ablation: personal
    parameters stay client-local after the first contact.
    """

    def __init__(self, profiles, layout, cfg, hn_aggregation=True):
        super().__init__(profiles, layout, cfg)
        self.hn_aggregation = hn_aggregation
        init_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, TAG_INIT)))
        self.general = [decomp.init_general(spec, init_rng).astype(self.dtype)
                        for spec in layout.specs]
        head = init_head(layout, 1, init_rng)
        self.global_head = LinearMap(head.w.astype(self.dtype), head.b.astype(self.dtype))
        self.hn = hypernet.init_hypernet(
            layout, len(profiles), cfg.hn_embed, cfg.hn_hidden, cfg.hn_depth, init_rng)
        self.generation = None  # prepare()'s cache for the current self.hn

    def prepare(self):
        """(generation_graph of self.hn for hn_step to differentiate, or None
        for the ablation, which never steps; {client id: its generated
        personal parameters, cut from the graph}), built once per state.
        Raises NumericError if a cut share is not finite in the clients' dtype."""
        if self.generation is None:
            nodes, outputs = hypernet.generation_graph(self.hn)
            # the hyper-network runs in float64; this is the one cast of
            # what it generates into the clients' dtype, share by share
            flat = [f.data for f in outputs]
            personal = {p.id: hypernet.generate_personal(flat, p.id, self.layout, p.width,
                                                         self.dtype) for p in self.profiles}
            if not all(finite(m.arrays()) for m in personal.values()):  # before any is sent
                raise NumericError("non-finite hyper-network output")
            self.generation = ((nodes, outputs) if self.hn_aggregation else None, personal)
        return self.generation

    def sent(self, i) -> ClientModel:
        """The current general factors with client i's generated personal
        parameters, or, without hyper-network aggregation, its own last
        trained ones."""
        personal = self.local.get(i)
        if self.hn_aggregation or personal is None:
            personal = self.prepare()[1][i]
        return replace(personal, general=self.general)

    def train_client(self, t, i, model):
        profile = self.profiles[i]
        sliced = self.global_head.sliced(self.layout.head_in(profile.width))
        return local_update(model, sliced, profile, self.layout, epochs=self.cfg.epochs,
                            batch=self.cfg.batch, lr=self.eta(t), rng=self.client_rng(t, i))

    def aggregate(self, models):
        full = [...] * len(self.general)
        self.general = coverage_mean(self.general, [(full, m.general) for m in models.values()])
        super().aggregate(models)
        if self.hn_aggregation:
            self.hn, loss = hypernet.hn_step(self.prepare()[0], models, self.layout,
                                             self.cfg.hn_lr)
            self.generation = None
            return loss

    def evaluate_client(self, i, model, local):
        data = self.profiles[i].data
        head = self.global_head.sliced(self.layout.head_in(model.width))
        alpha, val_acc, test_acc = select_test_model(
            replace(model, head_w=head.w, head_b=head.b), local, data.val_xy(),
            data.test_xy(), self.layout, grid_size=self.cfg.alpha_grid)
        return val_acc, test_acc, alpha
