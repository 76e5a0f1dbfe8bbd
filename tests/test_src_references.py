"""Every module-level function and class in src/padfl must be referenced
somewhere else in src/padfl: code that only tests call belongs in
tests/util.py, and the functions the benchmark hooks by name are no
exception. Likewise every dataclass field in src/padfl must be read
somewhere in src/padfl or padbench/: a field that nothing reads is dead
state. The modules of src/padfl import one another without a cycle,
counting imports inside functions. A width is pruned by one rule: only
the two recoveries and `hypernet.share` call `LayerSpec.grid`, and only
the two recoveries read `decomp.PERMUTATION`. A config
is validated at one boundary: only `runner.run` and `report.account` call
`.finalize()`, and only `RunConfig.finalize` calls `validate`. A
`key = value` item is parsed by one rule: only `config._assign` splits on
"=". Shared arrays are averaged by one rule: only the two `aggregate`
methods that average call `coverage_mean`. And a client's metrics.csv row
is built in one place: only `FederatedMethod.run_round` constructs a
`ClientRow`; the hooks return its parts. A client's own model has one
store and one writer: outside `__init__` methods, only
`FederatedMethod.aggregate` writes `self.local`. A client's share of the
hyper-network's output is cut by one rule: only `generate_personal` and
`regression_loss` call `hypernet.share`. A round's payload is counted by
one rule: only `FederatedMethod` defines `round_payload`. Both model
families train through one graph forward: only `model.representation_t`
calls the conv and pool ops, and only `local_update`'s batch loss
recovers a decomposed model's weights in the graph."""
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


def test_import_graph_has_no_cycle():
    graph = import_graph()
    assert {"runner", "report"} <= graph["cli"]  # cli.main imports them inside the function
    # prepare() raises CycleError, whose message lists the cycle
    graphlib.TopologicalSorter(graph).prepare()


def enclosing(match):
    """(module, dotted name of the enclosing def) of every src/padfl node
    for which match(node) is true."""
    out = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if match(child):
                out.add((module, scope))
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return out


def callers(name):
    """(module, dotted name of the enclosing def) of every call in
    src/padfl to a function or method named `name`."""
    return enclosing(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def readers(name):
    """(module, dotted name of the enclosing def) of every load in src/padfl
    of a name or attribute called `name`."""
    return enclosing(lambda node: isinstance(getattr(node, "ctx", None), ast.Load) and name in (
        getattr(node, "id", None), getattr(node, "attr", None)))


def _is_self_local(node):
    return (isinstance(node, ast.Attribute) and node.attr == "local"
            and getattr(node.value, "id", None) == "self")


def _writes_self_local(node):
    """Does node bind, item-assign, delete or call a mutating method on `self.local`?"""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        return any(_is_self_local(getattr(t, "value", None) if isinstance(t, ast.Subscript)
                                  else t) for t in targets)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("update", "pop", "popitem", "clear", "setdefault")
            and _is_self_local(node.func.value))


def test_config_is_validated_at_one_boundary():
    assert callers("finalize") == {("runner", "run"), ("report", "account")}
    assert callers("validate") == {("config", "RunConfig.finalize")}


def test_shared_arrays_are_averaged_by_one_rule():
    assert callers("coverage_mean") == {("protocol", "DecomposedFL.aggregate"),
                                        ("baselines", "PWidthNested.aggregate")}


def test_client_rows_are_built_in_one_place():
    assert callers("ClientRow") == {("protocol", "FederatedMethod.run_round")}


def test_widths_are_pruned_by_one_rule():
    recoveries = {("decomp", "recover_padfl_t"), ("decomp", "recover_padfl")}
    assert callers("grid") == recoveries | {("hypernet", "share")}
    assert readers("PERMUTATION") == recoveries


def test_each_family_trains_through_one_graph_forward():
    assert callers("conv2d") == callers("maxpool2x2") == {("model", "representation_t")}
    assert callers("recover_padfl_t") == {("protocol", "local_update.loss_fn")}


def test_hypernet_output_is_cut_by_one_rule():
    assert callers("share") == {("hypernet", "generate_personal"),
                                ("hypernet", "regression_loss")}


def test_payloads_are_counted_by_one_rule():
    defines = enclosing(lambda node: isinstance(node, ast.FunctionDef)
                        and node.name == "round_payload")
    assert defines == {("protocol", "FederatedMethod")}


def test_clients_own_models_have_one_writer():
    writers = enclosing(_writes_self_local)
    assert ("baselines", "LocalOnly.__init__") in writers  # the scan sees item assignment
    assert {w for w in writers if not w[1].endswith(".__init__")} == \
        {("protocol", "FederatedMethod.aggregate")}


def equals_splitters():
    """(module, top-level def) of every `.split("=", ...)` call in src/padfl."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            out |= {(path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "split"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "="}
    return out


def test_key_value_items_are_parsed_by_one_rule():
    assert equals_splitters() == {("config", "_assign")}
