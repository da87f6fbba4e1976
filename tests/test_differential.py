"""The differential registry keeps its ledger.  Every shape of
``differential.SHAPES`` is drawn by exactly one test, and every row
compares some kind that a shape draws.  Every top-level function and class
of ``tests/oracles.py`` is the oracle of a row, a helper that a listed
oracle calls, or in ``SPEC_ONLY`` with a reason: a definition that
hand-built, property or acceptance tests read, guarding no fast path of a
registry row.  Calls are read off the source as ``tests/test_reachable.py``
reads them."""

import ast
from pathlib import Path

import pytest

import differential
from test_reachable import identifiers

TESTS = Path(__file__).resolve().parent
pytestmark = pytest.mark.differential

SPEC_ONLY = {
    "crossing_partition_holds": "the crossing condition each drawn track system keeps, checked by TestBuiltResolutions",
    "track_sides": "the sides of a track, read by TestBuiltResolutions and the hand-built track tests",
    "vertex_fate": "where a collapse takes a vertex, read by lemmas.py and a hand-built collapse test",
    "identity_fragment": "the identity triangle map that generated and hand-built runs are made of",
    "leq_oracle": "the declared order by a fresh walk, compared with GroupTable.leq in tests/test_groups.py",
    "declared_equal_oracle": "the declared-equal check of GroupTable.validate, compared in tests/test_groups.py",
    "level": "the nodes of a hierarchy at one depth, read by the hierarchy tests",
    "is_h_elliptic": "H-ellipticity by its definition, read by the hierarchy and command-line tests",
}


def oracle_definitions():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    return {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def row_oracles():
    """The names of the ``oracles`` definitions that some row names."""
    out = set()
    for row in differential.ROWS.values():
        for oracle in row.oracle if isinstance(row.oracle, tuple) else (row.oracle,):
            if getattr(oracle, "__module__", None) == "oracles":
                out.add(oracle.__name__)
    return out


def helpers(listed):
    """The definitions that the bodies of the ``listed`` ones call, and
    what those call in turn."""
    defs = oracle_definitions()
    reached, todo = set(), [defs[name] for name in listed if name in defs]
    while todo:
        for name in identifiers(todo.pop()):
            if name in defs and name not in reached:
                reached.add(name)
                todo.append(defs[name])
    return reached


def test_every_oracle_is_in_a_row_a_helper_or_spec_only():
    listed = row_oracles() | SPEC_ONLY.keys()
    assert sorted(oracle_definitions().keys() - listed - helpers(listed)) == []


def test_every_listed_oracle_is_a_definition_and_spec_only_ones_are_in_no_row():
    defs, rows = oracle_definitions().keys(), row_oracles()
    assert sorted(rows - defs) == []
    assert sorted(SPEC_ONLY.keys() - (defs - rows - helpers(rows | SPEC_ONLY.keys()))) == []


def bound_shapes():
    """(kind, name) for every shape that a ``differential_test`` or
    ``compared`` call in a test module draws."""
    out = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("differential_test", "compared"):
                kind, *names = (ast.literal_eval(arg) for arg in node.args)
                out += [(kind, name) for name in names] or [key for key in differential.SHAPES if key[0] == kind]
    return out


def test_every_shape_is_drawn_once_and_every_row_compares_a_drawn_kind():
    assert sorted(bound_shapes()) == sorted(differential.SHAPES)
    kinds = {kind for kind, _name in differential.SHAPES}
    assert sorted(name for name, row in differential.ROWS.items() if not row.kinds <= kinds) == []
