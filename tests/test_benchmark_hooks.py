"""The benchmark traces padfl by wrapping functions it finds by module and
name (padbench/spans.py). Renaming or deleting one of them must fail here,
not only in the benchmark's own self-test. spans.py is run from its source,
so nothing is written next to it."""
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "padbench" / "spans.py"


def load_spans():
    module = types.ModuleType("padbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_benchmark_hook_resolves():
    with load_spans().Tracer() as tracer:
        assert tracer.missing == []
