"""Self-test of the benchmark harness on tiny configs; takes seconds.

    python3 padbench/selftest.py          (or: python3 -m pytest padbench/selftest.py)

Runs every workload's code path through the real command (``run.main``)
with the configs shrunk, and checks that:
- BENCHMARK.json declares exactly the workloads and metrics the harness has;
- every declared metric is emitted with its unit, untraced and traced;
- a corrupted or non-deterministic metrics.csv fails the output check;
- a hook that no longer resolves drops its metrics, not the run.
"""
import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.import_padfl()

import harness  # noqa: E402
import spans  # noqa: E402
from padfl import runner  # noqa: E402

TINY = """
clients = 4
per_round = 2
batch = 8
epochs = 1
synth_classes = 2
synth_per_class = 40
synth_shape = 1,8,8
conv_channels = 4,4
min_width = 1/4
hn_embed = 6
hn_hidden = 6
hn_depth = 2
"""

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


@contextlib.contextmanager
def patched(obj, attr, value):
    original = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, original)


def tiny_workloads():
    out = {}
    for name, w in harness.WORKLOADS.items():
        extra = TINY + ("per_round = 4\n" if "per_round = 100" in w.overrides else "")
        out[name] = harness.Workload(name, w.overrides + extra, rounds=2, seeds_per_run=2,
                                     timed_from=w.timed_from, dominant=w.dominant, why=w.why)
    return out


def run_command(workload, trace):
    """run.main on the tiny workload; returns (exit code, last JSON line)."""
    buf = io.StringIO()
    with patched(harness, "WORKLOADS", tiny_workloads()), \
            patched(run, "OUT_ROOT", os.path.join(run.OUT_ROOT, "selftest")), \
            contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1",
                         "--trace", str(trace)])
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def test_declarations_match_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(harness.WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == harness.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        [(m["name"], m["unit"], m["better"]) for m in spans.PER_LAYER]
    assert max(BENCH["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_every_metric_emitted_with_unit():
    for workload in harness.WORKLOADS:
        for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            code, result = run_command(workload, trace)
            assert code == 0 and result["correct"], (workload, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in declared}, (workload, trace)
            assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_workload_paths():
    _, train = run_command("pa3dfl-train", 1)
    _, dense = run_command("dense-nested", 1)
    train, dense = ({k: v["value"] for k, v in r["metrics"].items()} for r in (train, dense))
    assert train["protocol.local_update.s"] > 0 and train["hypernet.hn_step.s"] > 0
    assert train["baselines.plain_sgd.calls"] == 0
    assert dense["baselines.plain_sgd.calls"] > 0 and dense["model.plain_accuracy.s"] > 0
    assert dense["hypernet.generate_personal.calls"] == 0
    assert dense["autodiff.conv2d.c2.bwd_s"] > 0


def test_corrupted_csv_fails_check():
    original = runner.metrics_csv

    def corrupt(record):
        lines = original(record).splitlines()
        cells = lines[-1].split(",")
        cells[6] = "1.0" if float(cells[6]) < 1.0 else "0.0"   # one client's test_acc
        return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"

    with patched(runner, "metrics_csv", corrupt):
        code, result = run_command("pa3dfl-train", 0)
    assert code != 0 and result["correct"] is False


def test_nondeterministic_csv_fails_check():
    original = runner.metrics_csv
    calls = []

    def drift(record):
        calls.append(1)
        text = original(record)
        return text if len(calls) == 1 else text.replace(",", ", ", 1)

    with patched(runner, "metrics_csv", drift):
        code, result = run_command("dense-nested", 0)
    assert code != 0 and result["correct"] is False


def test_missing_hook_is_reported_not_fatal():
    # as if a later change renamed model.combine: protocol keeps its own
    # reference, so the program runs but the hook cannot resolve
    from padfl import model
    combine = model.combine
    del model.combine
    try:
        code, result = run_command("pa3dfl-train", 1)
    finally:
        model.combine = combine
    assert code == 0 and result["correct"]
    assert "model.combine.s" not in result["metrics"]
    assert "model.accuracy.s" in result["metrics"]


if __name__ == "__main__":
    failures = 0
    for _name, _fn in list(globals().items()):
        if _name.startswith("test_") and callable(_fn):
            try:
                _fn()
                print(f"ok    {_name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {_name}: {exc!r}")
    sys.exit(1 if failures else 0)
