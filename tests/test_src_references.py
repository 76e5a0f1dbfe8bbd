"""Every module-level function and class in src/padfl must be referenced
somewhere else in src/padfl: code that only tests call belongs in
tests/util.py. The only exemptions are the functions the benchmark hooks
by name (padbench/spans.py, read without writing anything there)."""
import ast
from pathlib import Path

from test_benchmark_hooks import load_spans

SRC = Path(__file__).resolve().parents[1] / "src" / "padfl"


def unreferenced():
    """(module, name) of each module-level def that no other src node names."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {}  # name -> ids of the Name/Attribute nodes that use it
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                refs.setdefault(name, set()).add(id(node))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {id(n) for n in ast.walk(node)}  # recursion is no caller
                if not refs.get(node.name, set()) - own:
                    out.append((module, node.name))
    return out


def test_no_src_code_only_tests_call():
    spans = load_spans()
    hooked = {(layer, target) for layer, target in spans.LAYER_HOOKS + (spans.ROUND_HOOK,)}
    assert [d for d in unreferenced() if d not in hooked] == []
