"""The library keeps what it runs: every public top-level function and
class of the package is reachable from ``cli.main``, except the names in
``KEPT``, each kept for a stated reason.

Reachability is read off the source by name: starting from ``cli.main``,
every identifier a reached definition uses reaches each top-level
definition of that name in any module of the package.  A name counts
where it is read and not bound in its own function (so a local variable
or a parameter reaches nothing); an attribute counts only when it is
qualified by a module of the package, as in ``graphs.path`` (so a
dataclass field or a method of the same name reaches nothing).  Import
statements reach nothing.  Code that only tests call belongs under
``tests/``."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "passdown"
MODULES = {path.stem for path in SRC.glob("*.py")}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

DEPTH_BOUND = "the paper's depth bound, replayed over restriction tables; no command runs it"
KEPT = {
    ("hierarchy", "passdown_hierarchy"): DEPTH_BOUND,
    ("hierarchy", "jsj_depth_bound"): DEPTH_BOUND,
    ("hierarchy", "DepthBoundReport"): DEPTH_BOUND,
    ("hierarchy", "depth"): DEPTH_BOUND,
    ("errors", "LinkCapError"): "perfbench/spans.py imports it; nothing raises it",
}


def top_level_definitions():
    """name -> [(module, node)] for every top-level function, class and
    assigned name of the package."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append((path.stem, node))
    return defs


def _own_nodes(scope):
    """The nodes of a function body, not descending into nested functions."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _bound(scope):
    """The names a function binds locally: its parameters, assigned names
    and the names of functions and classes defined in it."""
    args = scope.args
    out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    out.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def identifiers(node, bound=frozenset()):
    """The names ``node`` reads that no enclosing function binds, and the
    attributes it reads off a module of the package."""
    if isinstance(node, SCOPES):
        bound = bound | _bound(node)
    for n in _own_nodes(node):
        if isinstance(n, SCOPES):
            yield from identifiers(n, bound)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in bound:
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in MODULES:
            yield n.attr


def reachable_from(start_module, start):
    """The (module, name) pairs reachable from the definition ``start`` of
    ``start_module``, itself included."""
    defs = top_level_definitions()
    reached = {(start_module, start)}
    todo = [node for module, node in defs[start] if module == start_module]
    while todo:
        for name in identifiers(todo.pop()):
            for module, node in defs.get(name, ()):
                if (module, name) not in reached:
                    reached.add((module, name))
                    todo.append(node)
    return reached


def unreachable_public():
    """The (module, name) pairs of public top-level functions and classes
    that ``cli.main`` does not reach."""
    defs = top_level_definitions()
    public = {
        (module, node.name)
        for entries in defs.values()
        for module, node in entries
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert ("stability", "stabilization_report") in public
    return public - reachable_from("cli", "main")


def test_every_public_analysis_definition_is_reachable_from_the_cli():
    assert sorted(unreachable_public() - KEPT.keys()) == []


def test_every_kept_name_is_unreachable():
    assert sorted(KEPT.keys() - unreachable_public()) == []


def foreign_imports(paths):
    """(file name, module) for each import in ``paths`` that names neither
    a standard-library module nor the package itself; a relative import
    stays inside the package."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "passdown" and top not in sys.stdlib_module_names:
                    out.append((path.name, name))
    return out


def test_the_package_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) == len(MODULES) > 10
    assert foreign_imports(paths) == []


def callers(name):
    """(module, name) for each top-level function of the package whose
    body reads ``name``."""
    return {
        (module, node.name)
        for entries in top_level_definitions().values()
        for module, node in entries
        if isinstance(node, ast.FunctionDef) and name in set(identifiers(node))
    }


def test_orbit_shapes_are_checked_where_a_complex_or_tree_is_validated():
    """Face shapes are checked by ``validate_complex`` alone, orbit shapes
    by it and ``validate_tree``: each complex and tree is checked once,
    where it is made, and nothing past parsing checks them again."""
    validation = reachable_from("complexes", "validate_complex")
    assert callers("check_face_shapes") == {("complexes", "_validate_orbit_labels")} <= validation
    assert callers("check_orbit_shapes") == {("complexes", "_validate_orbit_labels"), ("trees", "validate_tree")}
