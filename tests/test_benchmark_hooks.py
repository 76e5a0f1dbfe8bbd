"""The benchmark traces padfl by wrapping functions it finds by module and
name (padbench/spans.py). Renaming or deleting one of them, or leaving one
that no run calls, must fail here, not only in the benchmark's own
self-test. spans.py is run from its source, so nothing is written next to
it."""
import types
from pathlib import Path

from padfl import runner

from test_cli import small_cfg

SPANS = Path(__file__).resolve().parents[1] / "padbench" / "spans.py"


def load_spans():
    module = types.ModuleType("padbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_benchmark_hook_resolves(tmp_path):
    spans = load_spans()
    with spans.Tracer() as tracer:
        assert tracer.missing == []
        # one round of each model family in this process reaches every hook;
        # a conv span is renamed per call, e.g. autodiff.conv2d.c1.fwd
        for method in ("Pa3dFL", "PWidthNested"):
            runner.run(small_cfg(tmp_path, out=method, method=method, rounds=1, workers=1))
    names = {span[0] for span in tracer.spans}
    hooks = [spans.span_name(*hook) for hook in (spans.ROUND_HOOK,) + spans.LAYER_HOOKS]
    assert [h for h in hooks if not any(n == h or n.startswith(h + ".") for n in names)] == []
