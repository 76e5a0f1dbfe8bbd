"""Every module-level function and class in src/padfl must be referenced
somewhere else in src/padfl: code that only tests call belongs in
tests/util.py, and the functions the benchmark hooks by name are no
exception. Likewise every dataclass field in src/padfl must be read
somewhere in src/padfl or padbench/: a field that nothing reads is dead
state."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padfl"
PADBENCH = Path(__file__).resolve().parents[1] / "padbench"


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
    assert unreferenced() == []


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def unread_fields():
    """(class, field) of each src/padfl dataclass field that no attribute
    load in src/padfl or padbench/ names."""
    src = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    bench = [ast.parse(path.read_text()) for path in sorted(PADBENCH.glob("*.py"))]
    read = {node.attr for tree in src + bench for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for tree in src:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
                out += [(cls.name, stmt.target.id) for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in read]
    return out


def test_every_dataclass_field_is_read():
    assert unread_fields() == []
