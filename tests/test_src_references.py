"""Every module-level function and class in src/padfl must be referenced
somewhere else in src/padfl: code that only tests call belongs in
tests/util.py, and the functions the benchmark hooks by name are no
exception. Likewise every dataclass field in src/padfl must be read
somewhere in src/padfl or padbench/: a field that nothing reads is dead
state. The modules of src/padfl import one another without a cycle,
counting imports inside functions. Only `decomp` reads a layer's
recovery kind: the rest of the package asks its `LayerSpec`. And a config
is validated at one boundary: only `runner.run` and `report.account` call
`.finalize()`, and only `RunConfig.finalize` calls `validate`."""
import ast
import graphlib
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


def import_graph():
    """module -> the src/padfl modules its relative imports name, at any
    depth of its body."""
    modules = {path.stem for path in SRC.glob("*.py")}
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names |= {node.module} if node.module else {a.name for a in node.names}
        graph[path.stem] = {n.split(".")[0] for n in names} & modules
    return graph


def recovery_readers():
    """(module, top-level def) of every `.recovery` attribute load in src/padfl."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            out |= {(path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                    if isinstance(node, ast.Attribute) and node.attr == "recovery"
                    and isinstance(node.ctx, ast.Load)}
    return out


def test_only_decomp_reads_the_recovery_kind():
    readers = recovery_readers()
    assert ("decomp", "LayerSpec") in readers  # the scan sees the one owner
    assert {r for r in readers if r[0] != "decomp"} <= {("model", "build_layout")}


def test_import_graph_has_no_cycle():
    graph = import_graph()
    assert {"runner", "report"} <= graph["cli"]  # cli.main imports them inside the function
    # prepare() raises CycleError, whose message lists the cycle
    graphlib.TopologicalSorter(graph).prepare()


def callers(name):
    """(module, dotted name of the enclosing def) of every call in
    src/padfl to a function or method named `name`."""
    out = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    out.add((module, scope))
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return out


def test_config_is_validated_at_one_boundary():
    assert callers("finalize") == {("runner", "run"), ("report", "account")}
    assert callers("validate") == {("config", "RunConfig.finalize")}
