"""Spans around padfl's public functions, installed from outside the package.

A hook replaces a function (or a method on every class that defines it)
with a wrapper that records a span: name, start, end, parent span and the
round it ran in. The wrapper is swapped into every loaded ``padfl.*``
module that holds the function, so ``from .model import accuracy`` call
sites are covered too. A hook whose target no longer exists is reported
as missing; the metrics that need it are left out instead of failing the
run.

Spans stay in memory and are reduced to per-layer metrics after the runs:
``<span>.s`` is inclusive seconds per run, ``.calls`` is calls per run,
``.self_s`` subtracts the child spans' time.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

PKG = "padfl"

# (layer, target). "Class.method" wraps the method on every subclass of
# Class that defines it; the span is named "<layer>.<method>".
ROUND_HOOK = ("protocol", "FederatedMethod.run_round")
LAYER_HOOKS = (
    ("runner", "build_dataset"), ("runner", "build_partition"),
    ("runner", "build_method"), ("runner", "persist"),
    ("protocol", "FederatedMethod.train_client"), ("protocol", "local_update"),
    ("protocol", "FederatedMethod.aggregate"),
    ("protocol", "FederatedMethod.evaluate_client"), ("protocol", "select_test_model"),
    ("hypernet", "generate_personal"), ("hypernet", "generation_graph"),
    ("hypernet", "hn_step"),
    ("model", "representation_t"), ("model", "plain_logits_t"), ("model", "accuracy"),
    ("model", "plain_accuracy"), ("model", "combine"),
    ("decomp", "recover_padfl_t"), ("decomp", "recover_padfl"),
    ("baselines", "plain_sgd"),
    ("autodiff", "conv2d"), ("autodiff", "maxpool2x2"), ("autodiff", "backward"),
    ("autodiff", "conv2d_infer"), ("autodiff", "ordered_matmul"),
)


def span_name(layer, target):
    return f"{layer}.{target.rsplit('.', 1)[-1]}"


class SetupProbeDone(Exception):
    """Raised at the first round of a set-up probe to end the run there."""


class Tracer:
    """Span recorder. With ``layers=False`` only rounds are recorded, which
    is what the untraced end-to-end runs use for round and set-up times."""

    def __init__(self, layers=True):
        self.layer_hooks = LAYER_HOOKS if layers else ()
        self.spans = []        # [name, start, end, parent, round]
        self.stack = []
        self.round = -1
        self.probe = False     # end the run at its first round (set-up probe)
        self.counters = {}
        self.states = {}       # id -> HyperNetState seen by generation_graph
        self.child_count = {}  # (parent span, child name) -> calls so far
        self.missing = []
        self._restore = []

    # -- spans ------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.round])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def rounds(self):
        """(start, end) of each recorded round, in order."""
        return [(s[1], s[2]) for s in self.spans if s[0] == "protocol.run_round"]

    def reset(self):
        self.spans, self.stack, self.counters = [], [], {}
        self.states, self.child_count, self.round = {}, {}, -1

    # -- hook installation -------------------------------------------------

    def __enter__(self):
        for layer, target in (ROUND_HOOK,) + tuple(self.layer_hooks):
            if not self._install(layer, target):
                self.missing.append(span_name(layer, target))
        if span_name(*ROUND_HOOK) in self.missing:
            self.__exit__()
            raise RuntimeError(f"round hook {PKG}.{ROUND_HOOK[0]}.{ROUND_HOOK[1]} "
                               "does not resolve; round times cannot be measured")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _install(self, layer, target):
        try:
            module = importlib.import_module(f"{PKG}.{layer}")
        except ImportError:
            return False
        name = span_name(layer, target)
        if "." in target:
            cls_name, meth = target.split(".")
            base = getattr(module, cls_name, None)
            if not isinstance(base, type):
                return False
            owners = [c for c in _subclasses(base) if meth in vars(c)]
            for cls in owners:
                original = vars(cls)[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
            return bool(owners)
        original = getattr(module, target, None)
        if not callable(original):
            return False
        wrapped = self._wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        return True

    def _wrap(self, fn, name):
        after = _AFTER.get(name)
        tracer = self

        if name == "protocol.run_round":
            @functools.wraps(fn)
            def run_round(method, t, *args, **kwargs):
                if tracer.probe:
                    raise SetupProbeDone
                tracer.round = t
                idx = tracer.open(name)
                try:
                    return fn(method, t, *args, **kwargs)
                finally:
                    tracer.close(idx)
                    tracer.round = -1
            return run_round

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, idx, args, out)
            return out
        return wrapper


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _time_backward(tracer, tensor, name):
    original = tensor.backward_fn
    if original is None:
        return

    def backward_fn(g):
        idx = tracer.open(name)
        try:
            original(g)
        finally:
            tracer.close(idx)

    tensor.backward_fn = backward_fn


def _position(tracer, idx, name):
    """1-based position of this call among same-named calls in its parent
    span, e.g. the first conv of a forward pass is c1."""
    key = (tracer.spans[idx][3], name)
    tracer.child_count[key] = tracer.child_count.get(key, 0) + 1
    return tracer.child_count[key]


def _after_conv2d(tracer, idx, args, out):
    k = _position(tracer, idx, "conv2d")
    tracer.spans[idx][0] = f"autodiff.conv2d.c{k}.fwd"
    bsz, t, ho, wo = out.data.shape
    _, s, kh, kw = args[1].data.shape
    tracer.count("autodiff.conv2d.flop", 2 * bsz * t * ho * wo * s * kh * kw)
    _time_backward(tracer, out, f"autodiff.conv2d.c{k}.bwd")


def _after_maxpool(tracer, idx, args, out):
    tracer.spans[idx][0] = "autodiff.maxpool2x2.fwd"
    _time_backward(tracer, out, "autodiff.maxpool2x2.bwd")


def _after_generation_graph(tracer, idx, args, out):
    tracer.states.setdefault(id(args[0]), args[0])


_AFTER = {
    "autodiff.conv2d": _after_conv2d,
    "autodiff.maxpool2x2": _after_maxpool,
    "hypernet.generation_graph": _after_generation_graph,
}


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

def _span(name, unit="s", better="lower", kind="s", exclude=(), **kw):
    return dict(name=name, unit=unit, better=better, kind=kind, exclude=exclude, **kw)


def _calls(name, exclude=()):
    return _span(name, unit="count", kind="calls", exclude=exclude)


# Every per-layer metric: which span (or counter) it reduces and the hook it
# needs. Names and units here are the ones BENCHMARK.json declares.
PER_LAYER = [
    _span("autodiff.conv2d.c1.fwd_s", span="autodiff.conv2d.c1.fwd", hook="autodiff.conv2d"),
    _span("autodiff.conv2d.c1.bwd_s", span="autodiff.conv2d.c1.bwd", hook="autodiff.conv2d"),
    _span("autodiff.conv2d.c2.fwd_s", span="autodiff.conv2d.c2.fwd", hook="autodiff.conv2d"),
    _span("autodiff.conv2d.c2.bwd_s", span="autodiff.conv2d.c2.bwd", hook="autodiff.conv2d"),
    _span("autodiff.conv2d.gflop", unit="GFLOP", kind="gflop", hook="autodiff.conv2d"),
    _span("autodiff.conv2d.fwd_gflop_per_s", unit="GFLOP/s", better="higher",
          kind="gflop_per_s", hook="autodiff.conv2d"),
    _span("autodiff.maxpool2x2.fwd_s", span="autodiff.maxpool2x2.fwd",
          hook="autodiff.maxpool2x2"),
    _span("autodiff.maxpool2x2.bwd_s", span="autodiff.maxpool2x2.bwd",
          hook="autodiff.maxpool2x2"),
    _span("autodiff.backward.s"),
    _span("autodiff.backward.self_s", kind="self_s", span="autodiff.backward"),
    _calls("autodiff.backward.calls"),
    _span("autodiff.conv2d_infer.s"),
    _calls("autodiff.conv2d_infer.calls"),
    _span("autodiff.ordered_matmul.s"),
    _calls("autodiff.ordered_matmul.calls"),
    # recover_padfl evaluates through recover_padfl_t; the _t numbers count
    # only the graph (training) recoveries
    _span("decomp.recover_padfl_t.s", exclude=("decomp.recover_padfl",)),
    _calls("decomp.recover_padfl_t.calls", exclude=("decomp.recover_padfl",)),
    _span("decomp.recover_padfl.s"),
    _calls("decomp.recover_padfl.calls"),
    _span("model.representation_t.s"),
    _span("model.plain_logits_t.s"),
    _span("model.accuracy.s"),
    _calls("model.accuracy.calls"),
    _span("model.plain_accuracy.s"),
    _span("model.combine.s"),
    _span("hypernet.generate_personal.s"),
    _calls("hypernet.generate_personal.calls"),
    _span("hypernet.generation_graph.s"),
    _calls("hypernet.generation_graph.calls"),
    _span("hypernet.generation_graph.calls_per_state", unit="ratio", kind="per_state",
          hook="hypernet.generation_graph"),
    _span("hypernet.hn_step.s"),
    _span("protocol.run_round.s"),
    _span("protocol.train_client.s"),
    _calls("protocol.train_client.calls"),
    _span("protocol.local_update.s"),
    _span("protocol.local_update.p50_ms", unit="ms", kind="pct", q=50,
          span="protocol.local_update"),
    _span("protocol.local_update.p90_ms", unit="ms", kind="pct", q=90,
          span="protocol.local_update"),
    _span("protocol.aggregate.s"),
    _span("protocol.evaluate_client.s"),
    _calls("protocol.evaluate_client.calls"),
    _span("protocol.select_test_model.s"),
    _calls("protocol.select_test_model.calls"),
    _span("protocol.failed_clients", unit="count", kind="failed", hook="protocol.run_round"),
    _span("baselines.plain_sgd.s"),
    _calls("baselines.plain_sgd.calls"),
    _span("runner.build_dataset.s"),
    _span("runner.build_partition.s"),
    _span("runner.build_method.s"),
    _span("runner.persist.s"),
    _span("harness.trace_overhead_s", kind="overhead", hook=None),
]

for _m in PER_LAYER:
    _m.setdefault("span", _m["name"].rsplit(".", 1)[0])
    _m.setdefault("hook", _m["span"])


class Collected:
    """Per-run sums of span durations, kept across traced runs."""

    def __init__(self):
        self.runs = 0
        self.total = {}       # span name -> [seconds, calls]
        self.excluded = {}    # (span name, excluded parent) -> [seconds, calls]
        self.self_s = {}
        self.durations = {}   # span name -> list of per-call seconds
        self.counters = {}
        self.states = 0
        self.failed = 0

    def add(self, tracer, failed):
        spans = tracer.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            tot = self.total.setdefault(name, [0.0, 0])
            tot[0] += dur
            tot[1] += 1
            if parent >= 0:
                ex = self.excluded.setdefault((name, spans[parent][0]), [0.0, 0])
                ex[0] += dur
                ex[1] += 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            self.durations.setdefault(name, []).append(dur)
        for key, n in tracer.counters.items():
            self.counters[key] = self.counters.get(key, 0) + n
        self.states += len(tracer.states)
        self.failed += failed
        self.runs += 1

    def _sum(self, spec, idx):
        value = self.total.get(spec["span"], [0.0, 0])[idx]
        for parent in spec["exclude"]:
            value -= self.excluded.get((spec["span"], parent), [0.0, 0])[idx]
        return value

    def metrics(self, missing, overhead_s):
        """{name: value} per run; metrics whose hook is missing are left out."""
        runs = max(self.runs, 1)
        conv_fwd = sum(v[0] for k, v in self.total.items()
                       if k.startswith("autodiff.conv2d.c") and k.endswith(".fwd"))
        gflop = self.counters.get("autodiff.conv2d.flop", 0) / 1e9
        out = {}
        for spec in PER_LAYER:
            if spec["hook"] in missing:
                continue
            kind = spec["kind"]
            if kind == "s":
                value = self._sum(spec, 0) / runs
            elif kind == "calls":
                value = self._sum(spec, 1) / runs
            elif kind == "self_s":
                value = self.self_s.get(spec["span"], 0.0) / runs
            elif kind == "pct":
                d = self.durations.get(spec["span"])
                value = float(np.percentile(d, spec["q"])) * 1e3 if d else 0.0
            elif kind == "gflop":
                value = gflop / runs
            elif kind == "gflop_per_s":
                value = gflop / conv_fwd if conv_fwd else 0.0
            elif kind == "per_state":
                calls = self.total.get(spec["span"], [0.0, 0])[1]
                value = calls / self.states if self.states else 0.0
            elif kind == "failed":
                value = self.failed / runs
            elif kind == "overhead":
                value = overhead_s
            out[spec["name"]] = value
        return out

    def tail(self, name):
        """(p50 ms, highest percentile with >= 10 calls beyond it, its ms, calls)."""
        d = self.durations.get(name, [])
        n = len(d)
        if not n:
            return None
        best = None
        for q in (90, 99, 99.9):
            if n * (1 - q / 100) >= 10:
                best = q
        p50 = float(np.percentile(d, 50)) * 1e3
        if best is None:
            return p50, None, None, n
        return p50, best, float(np.percentile(d, best)) * 1e3, n

    def spans_top(self, k=12):
        """Largest self times per run, for the report."""
        runs = max(self.runs, 1)
        rows = sorted(self.self_s.items(), key=lambda kv: -kv[1])[:k]
        return [(name, s / runs) for name, s in rows]
