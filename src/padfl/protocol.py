"""Federated round protocol.

Server loop per round: sample clients, send each one a model of the
shared general factors and its generated width-matched personal
parameters, train it locally, average the returned general factors over
the round's survivors, then regress the hyper-network onto the returned
personal parameters. One `ClientModel` is sent, trained, returned and
kept (`model.ClientModel`).
Evaluation fuses the freshly received model with each client's last
locally trained model by a validation-accuracy line search over an alpha
grid: every mix is recovered and scored in one stacked forward (memory:
grid size times one model's working set), ties go to the smallest
alpha, the received model's side, and only the selected mix is tested.

Every method fills in `FederatedMethod`'s hooks alike: `sent(i)` is the
model client i starts from, a round's payload is the size of what `sent`
gives the selected clients, and a method keeps its own per-client
models, so `ClientProfile` records are inputs that no method writes.

Models are kept, sent, trained and evaluated in the dtype of the
dataset's features (float32 from the loaders); the hyper-network runs in
float64, and `DecomposedFL.prepare` is the one place its output is cast
to the models' dtype.

Sampling, aggregation and the hyper-network step run in the calling
process. Per-client training and evaluation can run in forked worker
processes (`map_clients`); results are reduced in client-id order, so a
round's outcome does not depend on the number of workers.
"""
from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, replace
from fractions import Fraction

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


@dataclass
class ClientProfile:
    """One client's inputs; methods read it and never write it."""

    id: int
    capacity: float                 # affordable fraction of the full model cost
    width: Fraction                 # largest grid width with width^2 <= capacity
    data: ClientData = None


def width_for_capacity(r, grid) -> Fraction:
    """Largest grid width whose quadratic cost fits the capacity; clients
    below the smallest width are clamped to it."""
    num, den = Fraction(r).as_integer_ratio()  # exact, unlike float(p) ** 2
    best = grid[0]
    for p in grid:
        if p.numerator ** 2 * den <= num * p.denominator ** 2:
            best = p
    return best


def assign_capacities(num_clients, mode, rng, grid) -> list:
    """Hetero: capacity uniform in [0.01, 1]; Ideal: everyone full-size."""
    caps = np.ones(num_clients) if mode == "ideal" else rng.uniform(0.01, 1.0, size=num_clients)
    return [ClientProfile(i, float(caps[i]), width_for_capacity(float(caps[i]), grid))
            for i in range(num_clients)]


def early_stop(history, patience) -> bool:
    """True once the best value has stood unbeaten (a tie does not beat it)
    for max(2, patience) rounds, counting the round that set it: a patience
    of 1 acts as 2, so early_stop([a, b], 1) with b <= a is the first true.
    `history` holds at least one round."""
    best_at = int(np.argmax(history))
    rounds_since = len(history) - 1 - best_at
    return rounds_since >= max(1, patience - 1)


# ---------------------------------------------------------------------------
# local training

def orthogonal_reg_t(u_nodes, specs):
    """Off-diagonal Gram penalty sum ||U^T U - diag||^2 over conv layers."""
    terms = []
    for node, spec in zip(u_nodes, specs):
        if spec.kind != "conv":
            continue
        gram = ad.matmul(ad.transpose(node, (1, 0)), node)
        mask = 1.0 - np.eye(gram.data.shape[0], dtype=gram.data.dtype)
        terms.append(ad.frobenius_sq(ad.mul(gram, ad.const(mask))))
    if not terms:
        return None
    return ad.add_n(terms)


def sgd(model, data: ClientData, loss_fn, *, epochs, batch, lr, rng):
    """E epochs of minibatch SGD on a copy of `model` (a ClientModel or a
    PlainModel), made in the dtype of data's features, over data's training
    split; loss_fn(nodes, x_node, labels) builds each batch's scalar loss
    from the model as one of leaf nodes.

    Returns (trained model, mean batch loss), or (None, nan) if an input
    array or a batch loss is not finite.
    """
    x_all, y_all = data.dataset.features, data.dataset.labels
    arrays = [a.astype(x_all.dtype) for a in model.arrays()]
    if not all(np.isfinite(a).all() for a in arrays):
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
            ad.backward(loss)
            for arr, node in zip(arrays, leaves):
                if node.grad is not None:
                    arr -= lr * node.grad
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return type(model).from_arrays(arrays, model.width), mean_loss


def local_update(model: ClientModel, global_head, client: ClientProfile, layout: Layout,
                 *, epochs, batch, lr, reg_coef, rng):
    """E epochs of minibatch SGD on one client's model.

    Loss = CE on the frozen shared head + CE of the personal head on the
    detached representation + reg_coef * orthogonal penalty. Trains the
    general factors, personal factors/biases and the personal head; the
    shared head never changes. Returns `sgd`'s (model | None, loss).
    """
    gw, gb = ad.const(global_head.w), ad.const(global_head.b)

    def loss_fn(m, x, y):
        rep = representation_t(layout, m, x)
        loss = ad.cross_entropy(head_logits_t(rep, gw, gb), y)
        loss = ad.add(loss, ad.cross_entropy(head_logits_t(ad.detach(rep), m.head_w, m.head_b), y))
        if reg_coef:
            reg = orthogonal_reg_t(m.general, layout.specs)
            if reg is not None:
                loss = ad.add(loss, ad.scale(reg, reg_coef))
        return loss

    return sgd(model, client.data, loss_fn, epochs=epochs, batch=batch, lr=lr, rng=rng)


# ---------------------------------------------------------------------------
# test-time model selection

def select_test_model(received: ClientModel, local, val_xy, test_xy, layout: Layout,
                      grid_size=11):
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
    hn_loss: float = float("nan")
    # wall seconds of the phases: generation (both `prepare` calls),
    # training, aggregate (with the hyper-network step), evaluation
    gen_s: float = float("nan")
    train_s: float = float("nan")
    server_s: float = float("nan")
    eval_s: float = float("nan")


def mean_arrays(array_lists):
    """Elementwise mean with a fixed (client-id sorted) reduction order."""
    acc = [a.copy() for a in array_lists[0]]
    for arrs in array_lists[1:]:
        for a, b in zip(acc, arrs):
            a += b
    return [a / len(array_lists) for a in acc]


def map_clients(fn, ids, workers):
    """[fn(i) for i in ids], computed in up to `workers` forked processes.

    Each call forks fresh workers, so they see the caller's state as it is
    now; only fn's results cross back, pickled, and state that fn changes
    in a worker is lost. Worker w runs ids[w::workers]. An exception raised
    in a worker is re-raised here with its type. Runs in the calling
    process for one worker or where fork is unavailable.
    """
    ids = list(ids)
    workers = min(workers, len(ids))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(i) for i in ids]
    readers, exit_codes = [], {}
    try:
        for w in range(workers):
            r, fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _worker(fn, ids[w::workers], fd)
            os.close(fd)
            readers.append((pid, os.fdopen(r, "rb")))
        payloads = [fh.read() for _, fh in readers]
    finally:
        for pid, fh in readers:
            fh.close()
            exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    results, error = [None] * len(ids), None
    for w, ((pid, _), payload) in enumerate(zip(readers, payloads)):
        try:
            ok, value = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 - empty or cut short if the worker died
            ok, value = False, ChildProcessError(
                f"worker {pid} (exit code {exit_codes[pid]}) sent no readable result: {exc!r}")
        if ok:
            results[w::workers] = value
        else:
            error = error or value
    if error is not None:
        raise error
    return results


def _worker(fn, ids, fd):
    """One forked worker: send [fn(i) for i in ids], or the error, to the
    parent through fd. Never returns."""
    try:
        result = (True, [fn(i) for i in ids])
    except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
        result = (False, exc)
    try:
        try:
            payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - an unpicklable result or error
            failure = exc if result[0] else result[1]
            payload = pickle.dumps((False, RuntimeError(repr(failure))))
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


class FederatedMethod:
    """Round-loop skeleton shared by the decomposed protocol and baselines.
    Every random stream derives from `cfg.seed`."""

    last_hn_loss = float("nan")  # the hyper-network's last loss; nan without one

    def __init__(self, profiles, layout: Layout, cfg):
        self.profiles = profiles
        self.layout = layout
        self.cfg = cfg
        # the dataset's dtype is the compute dtype of every model kept here
        self.dtype = profiles[0].data.dataset.features.dtype
        self.server_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, TAG_SERVER)))

    def client_rng(self, t, client_id):
        return np.random.default_rng(
            np.random.SeedSequence((self.cfg.seed, TAG_CLIENT, t, client_id)))

    def eta(self, t):
        return self.cfg.lr * self.cfg.lr_decay ** t

    def sample_clients(self, m):
        n = len(self.profiles)
        return sorted(int(i) for i in self.server_rng.choice(n, size=m, replace=False))

    def run_round(self, t) -> RoundMetrics:
        """Sample, train and aggregate, then evaluate every client; the
        per-client phases run on `cfg.workers` processes. Records each
        phase's wall seconds."""
        selected = self.sample_clients(self.cfg.per_round)
        eta = self.eta(t)
        started = time.perf_counter()
        self.prepare()
        prepared_at = time.perf_counter()
        trained = map_clients(lambda i: self.train_client(t, i, eta), selected,
                              self.cfg.workers)
        trained_at = time.perf_counter()
        models = {i: m for i, (m, _) in zip(selected, trained) if m is not None}
        losses = {i: loss for i, (_, loss) in zip(selected, trained)}
        failed = [i for i in selected if i not in models]
        if not models:
            raise NumericError(f"every client failed in round {t}")
        self.aggregate(models)
        aggregated_at = time.perf_counter()
        self.prepare()
        reprepared_at = time.perf_counter()
        rows = map_clients(
            lambda i: self.evaluate_client(self.profiles[i], losses.get(i, float("nan"))),
            range(len(self.profiles)), self.cfg.workers)
        evaluated_at = time.perf_counter()
        tests = np.array([r.test_acc for r in rows])
        vals = np.array([r.val_acc for r in rows])
        return RoundMetrics(
            round=t, eta=eta, selected=selected, failed=failed, rows=rows,
            mean_val=float(vals.mean()), mean_test=float(tests.mean()),
            params_exchanged=self.round_payload(selected),
            hn_loss=self.last_hn_loss,
            gen_s=(prepared_at - started) + (reprepared_at - aggregated_at),
            train_s=trained_at - prepared_at, server_s=aggregated_at - trained_at,
            eval_s=evaluated_at - reprepared_at)

    def round_payload(self, selected) -> int:
        """Floats sent this round: the sizes of `sent(i)` of the selected i."""
        return sum(a.size for i in selected for a in self.sent(i).arrays())

    # method-specific hooks
    def prepare(self):
        """Compute what the next client phase reads, before workers fork."""

    def sent(self, i):
        """The model client i starts from this round; evaluation reads it too."""
        raise NotImplementedError

    def train_client(self, t, i, eta) -> tuple:
        """(trained model, or None if training failed; mean loss) of
        client i in round t, trained from `sent(i)`."""
        raise NotImplementedError

    def aggregate(self, models):
        """Fold in the trained models, {client id: model} in id order."""
        raise NotImplementedError

    def evaluate_client(self, profile, train_loss) -> ClientRow:
        """The client's row; train_loss is nan unless it trained this round."""
        raise NotImplementedError


class DecomposedFL(FederatedMethod):
    """The decomposed protocol with hyper-network personal aggregation.
    `local` maps a client id to its last trained model.

    hn_aggregation=False is the no-aggregation ablation: personal
    parameters stay client-local after the first contact. The FLANC
    ablation is a layout built with `recovery="flanc"`.
    """

    def __init__(self, profiles, layout, cfg, hn_aggregation=True):
        super().__init__(profiles, layout, cfg)
        self.hn_aggregation = hn_aggregation
        # a width the recovery cannot prune to fails here, before any training
        for p in sorted({prof.width for prof in profiles}):
            layout.check(p)
        init_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, TAG_INIT)))
        self.general = [decomp.init_general(spec, init_rng).astype(self.dtype)
                        for spec in layout.specs]
        head = init_head(layout, 1, init_rng)
        self.global_head = LinearMap(head.w.astype(self.dtype), head.b.astype(self.dtype))
        self.hn = hypernet.init_hypernet(
            layout, len(profiles), cfg.hn_embed, cfg.hn_hidden, cfg.hn_depth, init_rng)
        self.generated = None  # every client's generated parameters, per hn state
        self.local = {}

    def prepare(self):
        if self.generated is None:
            _, outputs = hypernet.generation_graph(self.hn)
            # the hyper-network runs in float64; this is the one cast of
            # what it generates into the clients' dtype
            flat = [f.data.astype(self.dtype, copy=False) for f in outputs]
            self.generated = {p.id: hypernet.generate_personal(flat, p.id, self.layout, p.width)
                              for p in self.profiles}

    def sent(self, i) -> ClientModel:
        """The current general factors with client i's generated personal
        parameters, or, without hyper-network aggregation, its own last
        trained ones."""
        personal = self.local.get(i)
        if self.hn_aggregation or personal is None:
            self.prepare()
            personal = self.generated[i]
        return replace(personal, general=self.general)

    def train_client(self, t, i, eta):
        profile = self.profiles[i]
        sliced = self.global_head.sliced(self.layout.head_in(profile.width))
        return local_update(
            self.sent(i), sliced, profile, self.layout,
            epochs=self.cfg.epochs, batch=self.cfg.batch, lr=eta,
            reg_coef=self.cfg.reg_lambda, rng=self.client_rng(t, i))

    def aggregate(self, models):
        self.general = mean_arrays([m.general for m in models.values()])
        self.local.update(models)
        if self.hn_aggregation:
            self.hn, self.last_hn_loss = hypernet.hn_step(
                self.hn, models, self.layout, self.cfg.hn_lr)
            self.generated = None

    def evaluate_client(self, profile, train_loss):
        p = profile.width
        head = self.global_head.sliced(self.layout.head_in(p))
        received = replace(self.sent(profile.id), head_w=head.w, head_b=head.b)
        alpha, val_acc, test_acc = select_test_model(
            received, self.local.get(profile.id), profile.data.val_xy(),
            profile.data.test_xy(), self.layout, grid_size=self.cfg.alpha_grid)
        return ClientRow(profile.id, profile.capacity, p, train_loss, val_acc, test_acc, alpha)
