"""The library keeps what it runs: every public top-level function and
class of the run-analysis modules is reachable from ``cli.main``.

Reachability is read off the source by name: starting from ``cli.main``,
every identifier a reached definition uses (a name or an attribute)
reaches each top-level definition of that name in any module of the
package.  Import statements reach nothing.  Code that only tests call
belongs under ``tests/``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "passdown"
CHECKED = ("stability", "tracks", "provenance")


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


def identifiers(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def reachable_from_main():
    """The (module, name) pairs reachable from ``cli.main``."""
    defs = top_level_definitions()
    reached = {("cli", "main")}
    todo = [node for module, node in defs["main"] if module == "cli"]
    while todo:
        for name in identifiers(todo.pop()):
            for module, node in defs.get(name, ()):
                if (module, name) not in reached:
                    reached.add((module, name))
                    todo.append(node)
    return reached


def test_every_public_analysis_definition_is_reachable_from_the_cli():
    defs = top_level_definitions()
    reached = reachable_from_main()
    public = {
        (module, node.name)
        for entries in defs.values()
        for module, node in entries
        if module in CHECKED
        and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert ("stability", "stabilization_report") in public
    assert sorted(public - reached) == []
