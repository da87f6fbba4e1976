"""The differential registry: each fast path of the library beside the
definition it replaced, and the generated cases the two are compared on
(McKeeman 1998, *Differential testing for software*).

A row names a fast path, its oracle (in ``tests/oracles.py``, or a fresh
``CellData`` for the cell data a step hands on), the kinds of case it
accepts and a comparison that asserts the two agree on one case.  A shape
draws the cases of one kind from fixed seeds and pins the coverage its
draws reach.  ``differential_test`` is the one test body: it runs every row
that accepts a shape's kind on every case of the shape.  Test classes bind
it under the name their comparison had before, so each case keeps its test
id; ``tests/test_differential.py`` checks that every shape is bound once
and that every oracle is in a row, called by one, or a spec.

The seed-1 benchmark ops of each workload run once (``seed1``): they feed
the collapse and run rows, the checks of what the passdown built, and the
work counts that count pins read."""

import contextlib
import dataclasses
import functools
import itertools
import random
import re
import sys
import warnings
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracles
from bench_ops import workloads
from generators import (
    chain_labelled_run,
    line_tree,
    orbit_images,
    pinch,
    random_cell_complex,
    random_edge_glued_complex,
    random_labelled_complex,
    random_run,
    random_simplicial_complex,
    random_strip_chain,
    random_triangle_partition,
    random_triangle_tree_complex,
    random_wedge,
    renamed_run,
    spider,
    triangle_classes,
    wheel,
)
from lemmas import is_simple
from test_cli import BOWTIE, fuzzed_cases, mutate
from passdown import complexes, fixtures, graphs, hierarchy, pipeline, resolution, stability, tracks
from passdown.complexes import CellData, Complex2, components, cutpoints, h1_z2, is_connected, make_complex, reduce_complex
from passdown.errors import ConsistencyError, FixtureError, PassdownError
from passdown.fixtures import parse_fixtures, parse_text
from passdown.groups import TRIVIAL, GroupRef, GroupTable
from passdown.hierarchy import passdown_full
from passdown.pipeline import run_pipeline
from passdown.resolution import ActionTable, resolution_from_images
from passdown.stability import TriangleClass, stabilization_report, stable_classes
from passdown.tracks import essential_tracks, split_collapse, tracks_from_resolution
from passdown.trees import ActionDescriptor, classify_subgroup_action, make_tree

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
ROWS, SHAPES = {}, {}


@dataclasses.dataclass(frozen=True)
class Row:
    fast: object  # the fast path
    oracle: object  # the definition it must agree with; a tuple when several
    kinds: frozenset  # the kinds of case it compares
    compare: object  # compare(case) -> its coverage counts, or None


def row(fast, oracle, *kinds):
    """Register the decorated comparison as the row of ``fast`` and
    ``oracle`` for cases of ``kinds``, named after the comparison."""

    def register(compare):
        ROWS[compare.__name__] = Row(fast, oracle, frozenset(kinds), compare)
        return compare

    return register


def compared(kind, name):
    """Run every row accepting ``kind`` on every case of the shape ``name``
    of that kind, check the shape's pins, and return the counts."""
    rows = [r for r in ROWS.values() if kind in r.kinds]
    cases, pins = SHAPES[kind, name]
    counts = Counter()
    for case in cases():
        counts["cases"] += 1
        for r in rows:
            counts.update(r.compare(case) or ())
    assert rows and pins(counts), dict(counts)
    return counts


def differential_test(kind, *names):
    """The test, bound as a method of a test class, of ``compared`` on the
    shapes ``names`` of ``kind`` (all of them when none is named): one test,
    or one per shape named after it, marked ``differential``."""
    names = names or tuple(name for k, name in SHAPES if k == kind)
    if len(names) == 1:

        def test(self):
            compared(kind, names[0])

        return pytest.mark.differential(test)

    @pytest.mark.differential
    @pytest.mark.parametrize("shape", names)
    def test(self, shape):
        compared(kind, shape)

    return test


def shape(kind, name, cases, pins=lambda counts: True):
    """Register the shape ``name`` of ``kind``: ``cases()`` yields its cases,
    and ``pins(counts)`` holds of the counts its rows return over them
    (with "cases", their number)."""
    SHAPES[kind, name] = cases, pins


def drawn(kind, name, draw, seed, draws=1, pins=lambda counts: True):
    """A shape of ``draws`` cases ``draw(rng, i)`` from one ``random.Random(seed)``."""

    def cases():
        rng = random.Random(seed)
        return (draw(rng, i) for i in range(draws))

    shape(kind, name, cases, pins)


COMPLEX = {
    **{name: functools.partial(random_labelled_complex, shape=name) for name in ("simplicial", "cell", "tree", "glued", "strip", "doubled")},
    "chain": lambda rng: (random_strip_chain(rng), GroupTable()),
    "doubled chain": lambda rng: (random_strip_chain(rng, parallel=0.4), GroupTable()),
    "wedge": lambda rng: (random_wedge(rng), GroupTable()),
    "pinch": lambda rng: (pinch()[0], GroupTable()),
}


def complex_shapes(kind, prep, names, seeds, draws=1, pins=lambda name, counts: True):
    """A shape of ``kind`` per name and seed: each case is ``prep(rng, x,
    groups)`` on a complex drawn by ``COMPLEX[name]``.  The name ``a=b``
    draws ``b`` under the name ``a``; over several seeds a shape is named
    ``<seed>-<name>``."""
    for seed in seeds:
        for name in names:
            name, _, source = name.partition("=")
            label = f"{seed}-{name}" if len(seeds) > 1 else name
            draw = functools.partial(lambda source, rng, i: prep(rng, *COMPLEX[source](rng)), source or name)
            drawn(kind, label, draw, seed, draws, functools.partial(pins, name))


def as_drawn(rng, x, groups):
    return x, groups


def simplicial(x, groups):
    return x if x.is_simplicial() else reduce_complex(x, groups)


# ---------------------------------------------------------------------------
# snapshots: what two paths must agree on, dicts in stored order


def complex_fields(x):
    return (
        x.vertices, list(x.edges.items()), list(x.faces.items()), list(x.stab.items()),
        list(x.orbit.items()), x.boundary_marked, list(x.stab_plus.items()),
    )


def fragment_maps(frag):
    return [list(getattr(frag, name).items()) for name in ("triangle_map", "edge_map", "track_point", "renamed")]


def table_state(groups, log=()):
    """The version, mint counter and declared order of a group table, and
    the pairs declared into it in order (from a ``declare_log``)."""
    return groups.version, groups._mint_counter, groups.up, [(sub, sup) for table, sub, sup in log if table is groups]


@contextlib.contextmanager
def declare_log():
    """(table, sub, sup) for every ``GroupTable.declare_leq`` call inside."""
    log, declare = [], GroupTable.declare_leq

    def logged(table, sub, sup):
        log.append((table, sub, sup))
        return declare(table, sub, sup)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(GroupTable, "declare_leq", logged)
        yield log


def handed_on(y, as_sets=()):
    """The values y's cell data holds, each equal to that of a fresh
    ``CellData`` of its cells (the ``as_sets`` ones as sets), and
    ``cell_labels_reduced`` when y holds it, equal to that of a fresh copy
    of y; returns their names and the fresh cell data."""
    data = y.cell_data.__dict__
    fresh = CellData(y.vertices, y.edges, y.faces)
    names = data.keys() - {"vertices", "edges", "faces"}
    for name in names:
        held, derived = data[name], getattr(fresh, name)
        if name in as_sets:
            held, derived = set(held), set(derived)
        assert held == derived, name
    if "cell_labels_reduced" in y.__dict__:
        assert y.cell_labels_reduced == dataclasses.replace(y).cell_labels_reduced
        names.add("cell_labels_reduced")
    return names, fresh


def pair_set(records):
    """The stable pairs of one level's ``stability.ComplexClasses`` records,
    as ``oracles.Pair``s."""
    return frozenset(oracles.Pair(cid, *pair) for cid, rec in records.items() for pair in rec.pairs)


# ---------------------------------------------------------------------------
# comparisons of complexes


BUILT = {"is_canonical", "cell_labels_reduced"}
SKELETON = {"cutpoints", "vertex_components"}


@row(complexes.reduce_with_map, (oracles.reduction_by_quotient, CellData, oracles.brute_cutpoints, oracles.brute_components), "reduction")
def reduction_cell_data(case):
    """``reduce_with_map`` equals its definition along the quotient of its
    cell map, over copies of the group table: complex and cell map in dict
    order, and the tables with their declared pairs in order.  It hands on
    the canonical order and the label check always, the cutpoints and
    components only when its input holds them already, and the boundary
    rank when its input, simplicial, holds it."""
    x, groups = case
    counts = Counter(bigons=len(x.bigons()), parallel=len(x.edges) - len(x.edges_by_pair))
    fast_groups, full_groups = groups.copy(), groups.copy()
    with declare_log() as log:
        fast, fast_map = complexes.reduce_with_map(x, fast_groups)
        full, full_map = oracles.reduction_by_quotient(x, full_groups)
    assert complex_fields(fast) == complex_fields(full)
    assert list(fast_map.items()) == list(full_map.items())
    assert table_state(fast_groups, log) == table_state(full_groups, log)
    counts.update(minted=fast_groups._mint_counter > groups._mint_counter, declared=bool(table_state(fast_groups, log)[-1]))
    before = (SKELETON | {"boundary_rank"}) & x.cell_data.__dict__.keys()
    for step in range(2):
        reduced, _ = complexes.reduce_with_map(x, groups.copy())
        names, fresh = handed_on(reduced)
        assert fresh.is_canonical and fresh.is_simplicial()
        if step:
            assert BUILT | SKELETON <= names and ("boundary_rank" in names) == x.is_simplicial()
        else:
            assert BUILT <= names and names & (SKELETON | {"boundary_rank"}) == before
            counts["cuts"] = bool(cutpoints(x))
            components(x)
            x.boundary_rank
    assert cutpoints(reduced) == oracles.brute_cutpoints(reduced)
    assert components(reduced) == oracles.brute_components(reduced.vertices, reduced.edges.values())
    return counts


complex_shapes(
    "reduction", as_drawn, ["doubled", "strip", "cell", "glued"], [20261023], 60,
    # parallel edges and bigons on doubled strips, where merged cells of
    # different labels mint labels, and cutpoints on every strip
    lambda name, c: (name != "doubled" or c["bigons"] > 100 and c["parallel"] > 200 and c["minted"] > 10 and c["declared"] > 10)
    and (name not in ("doubled", "strip") or c["cuts"] > 20),
)


@row(complexes.reduce_with_map, (oracles.reduction_by_quotient, CellData, oracles.h1_rank_oracle), "merge-free reduction")
def merge_free_reduction(case):
    """A reduction that merges nothing (of a simplicial complex with one
    label per orbit) against its definition along the quotient of its cell
    map; a reduction of a simplicial complex that holds its boundary rank
    is handed it, equal to a fresh derivation, and so gives the h1 of the
    cochain ranks; the label check it is handed equals a fresh
    derivation."""
    x, groups = case
    merge_free = x.is_simplicial() and x.cell_labels_reduced
    fast_groups, full_groups = groups.copy(), groups.copy()
    fast, fast_map = complexes.reduce_with_map(x, fast_groups)
    full, full_map = oracles.reduction_by_quotient(x, full_groups)
    assert complex_fields(fast) == complex_fields(full)
    assert list(fast_map.items()) == list(full_map.items()) and all(c == img for c, img in fast_map.items())
    assert table_state(fast_groups) == table_state(full_groups)
    held = "boundary_rank" in x.cell_data.__dict__
    names = handed_on(fast)[0]
    assert ("boundary_rank" in names) == held and "cell_labels_reduced" in names
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", complexes.DisconnectedComplexWarning)
        assert h1_z2(fast) == oracles.h1_rank_oracle(fast)
    return Counter(merge_free=merge_free, rank_handed_on=held)


def merge_free(rng, x, groups):
    x = simplicial(x, groups)
    if rng.random() < 0.5:
        # a stray oriented label makes no difference to the path
        x = x.relabel(stab_plus={eid: "P" for eid in x.edges if rng.random() < 0.5})
    if rng.random() < 0.5:
        x.boundary_rank
    return x, groups


complex_shapes(
    "merge-free reduction", merge_free, ["strip", "doubled", "simplicial", "tree", "glued"], [20261026], 60,
    lambda name, c: c["merge_free"] == 60 and 10 < c["rank_handed_on"] < 50,
)


@row(hierarchy._cutpoint_pieces, (CellData, oracles.cutpoint_piece_check, oracles.subcomplex), "pieces")
def cutpoint_pieces(case):
    """Each cutpoint piece is the subcomplex on the cells of a piece of the
    reduced cutpoint tree, built one at a time (``oracles.subcomplex``):
    the same cells in the same order and the same labels.  It is handed its
    blocks, its one component, its boundary rank and, when its parent holds
    them true, the canonical order and the label check, each equal to a
    fresh derivation, and it is connected with h1 = 0 by the cochain ranks
    (the wedge argument is in ``_cutpoint_pieces``)."""
    x, groups = case
    if not (is_connected(x) and h1_z2(x) == 0):
        return None
    tree_pieces = set(complexes.reduced_cutpoint_tree(x, groups.copy()).comp_cells.values()) if cutpoints(x) else set()
    split = hierarchy._cutpoint_pieces("r", x, groups.copy(), set()) or {}
    counts = Counter(pieces=len(tree_pieces), split=len(split))
    for _gid, sub in split.values():
        cells = frozenset(sub.cells())
        assert cells in tree_pieces
        built = oracles.subcomplex(x, cells)
        assert complex_fields(sub)[:3] == complex_fields(built)[:3] and sub.boundary_marked == built.boundary_marked
        assert (sub.stab, sub.orbit, sub.stab_plus) == (built.stab, built.orbit, built.stab_plus)
        names, _fresh = handed_on(sub, {"skeleton_blocks"})
        assert {"skeleton_blocks", "vertex_components", "boundary_rank"} <= names
        assert ("is_canonical" in names) == bool(x.cell_data.__dict__.get("is_canonical"))
        assert ("cell_labels_reduced" in names) == bool(x.__dict__.get("cell_labels_reduced"))
        assert oracles.cutpoint_piece_check(sub)
        counts.update(canonical="is_canonical" in names, labels_checked="cell_labels_reduced" in names)
    return counts


def piece(rng, x, groups):
    """A reduced complex."""
    if not x.is_simplicial() or rng.random() < 0.5:
        x = reduce_complex(x, groups)
    return x, groups


# trivial labels on a strip chain: every cut vertex is slender, so each block is a piece
complex_shapes(
    "pieces", piece, ["strip=chain", "doubled=doubled chain", "labelled strip=strip", "labelled tree=tree"], [20261027], 60,
    lambda name, c: c["pieces"] > 30 and (
        # a labelled cut vertex is not slender, so its pieces merge into one and nothing splits
        c["split"] == 0 if name.startswith("labelled")
        else c["split"] == c["pieces"] and 0 < c["canonical"] <= c["split"] and 0 < c["labels_checked"] <= c["split"]
    ) and (name != "strip" or c["split"] > 80 and c["canonical"] < c["split"]),
)


def raised(call):
    """The type and message of what ``call()`` raises, or None."""
    try:
        call()
    except PassdownError as exc:
        return type(exc), str(exc)
    return None


@row(complexes.validate_complex, oracles.validation_by_walk, "mislabelled complex")
def label_checks(case):
    """Each distinct label looked up once and each distinct containment pair
    checked once raise what the walk of every cell raises, naming the same
    first failing cell."""
    x, groups, _tree, _actions = case
    fast = raised(lambda: complexes.validate_complex(x, groups))
    assert fast == raised(lambda: oracles.validation_by_walk(x, groups))
    message = fast[1] if fast else ""
    return Counter(unknown="unknown group id" in message, containment="not declared inside" in message)


def parsed(parse, text):
    """What ``parse(text)`` reads: the contents of the fixture set, or the
    class of the error it raises and its message without the line."""
    from test_roundtrip import contents  # which imports the module that binds this row's test

    try:
        return "read", contents(parse(text))
    except PassdownError as exc:
        return "refused", type(exc), re.sub(r"^line \d+: ", "", str(exc))


@row(parse_text, oracles.parse_by_walk, "fixture text")
def parse(text):
    """The reader, which splits each line once and decides a valid complex
    or tree by whole-set tests, reads what reading by the grammar and
    walking every cell reads, and refuses what that refuses, with the same
    error up to the line it names.  What it hands each complex it reads
    (the face vertex sets, ``cell_labels_reduced``) is what a fresh
    derivation gives."""
    fast = parsed(parse_text, text)
    assert fast == parsed(oracles.parse_by_walk, text)
    if fast[0] == "refused":
        return Counter(refused=1, face_shapes="faces of orbit" in fast[2])
    handed = [handed_on(x)[0] for x in fast[1][1].values()]
    return Counter(read=1, trees=len(fast[1][2]), labels_handed=sum("cell_labels_reduced" in names for names in handed))


def mutated_fixtures(count=1400):
    """``count`` seeded line mutations of the fuzzed committed fixtures."""
    rng = random.Random(20261032)
    cases, pool = fuzzed_cases()
    for case in range(count):
        yield "\n".join(mutate(rng, cases[case % len(cases)][0], pool)) + "\n"


shape("fixture text", "committed", lambda: (path.read_text() for path in sorted(FIXTURES.glob("*.txt"))), lambda c: c["read"] == 5)
shape(
    "fixture text", "benchmark ops",
    lambda: (op.text for seed in (1, 2, 3) for name in sorted(workloads.WORKLOADS) for op in workloads.generate(name, seed)),
    lambda c: c["read"] == c["cases"] == c["labels_handed"] == 177 and c["trees"] == 267,
)
shape("fixture text", "line mutations", mutated_fixtures, lambda c: c["read"] > 200 and c["refused"] > 1000)


def face_orbit_fixtures(count=200):
    """The bowtie, whose two triangles share an orbit and a shape, then
    ``count`` committed fixtures with two or three face lines moved into
    one new orbit."""
    yield BOWTIE
    rng = random.Random(20261035)
    texts = [[line.split("#", 1)[0] for line in path.read_text().splitlines()] for path in sorted(FIXTURES.glob("*.txt"))]
    for case in range(count):
        lines = list(texts[case % len(texts)])
        faces = [i for i, line in enumerate(lines) if line.split()[:1] in (["triangle"], ["bigon"])]
        for i in rng.sample(faces, min(len(faces), rng.randint(2, 3))):
            lines[i] = re.sub(r" orbit=\S+", "", lines[i]) + " orbit=oF"
        yield "\n".join(lines) + "\n"


# the bowtie is read; faces of one orbit and label but of two shapes are refused
shape("fixture text", "face orbits", face_orbit_fixtures, lambda c: c["read"] >= 1 and c["face_shapes"] > 100)


@row(resolution.build_resolution, oracles.resolution_by_cell_classification, "mislabelled complex")
def label_classification(case):
    """Each distinct label classified once raises what classifying every
    cell raises, naming the same first cell."""
    x, _groups, tree, actions = case
    fast = raised(lambda: resolution.build_resolution(x, tree, actions))
    assert fast == raised(lambda: oracles.resolution_by_cell_classification(x, tree, actions))
    message = fast[1] if fast else ""
    return Counter(
        built=fast is None,
        hyperbolic="hyperbolically-acting" in message,
        dihedral="dihedral" in message,
        unannotated="no action annotation" in message,
    )


# H acts hyperbolically, Q parabolically, L linearly and D dihedrally on
# the spider; U has no annotation, and NOPE and NIL are no groups
MISLABELS = ("H", "Q", "L", "D", "U", "NOPE", "NIL", "V1", "V2", "E", "F", "1")


def mislabelled(rng, x, groups):
    """``x`` with up to three cell labels redrawn from ``MISLABELS`` (none
    in a quarter of the draws), and now and then an oriented label naming
    no group or on a missing edge; with the spider of four legs and its
    action table."""
    groups = groups.copy()
    for gid in "HQLDU":
        groups.add(GroupRef(gid))
    tree = spider(4)
    actions = ActionTable(tree, groups)
    for gid, fixed in (("V1", {"c", "l0"}), ("V2", {"c", "l1"}), ("E", {"c"}), ("F", {"c"}), ("P", {"l2"})):
        actions.declare_descriptors(gid, [ActionDescriptor(kind="elliptic", fixed=frozenset(fixed))])
    for gid, axes in (("H", [("p0", "p1"), ("p2", "p3")]), ("Q", [("p0", "p1"), ("p0", "p2")]), ("L", [("p0", "p1")])):
        actions.declare_descriptors(gid, [ActionDescriptor(kind="hyperbolic", ends=axis) for axis in axes])
    actions.declare_descriptors("D", [ActionDescriptor(kind="hyperbolic", ends=("p2", "p3"), swaps_ends=True)])
    stab, plus, cells = dict(x.stab), dict(x.stab_plus), x.cells()
    if rng.random() < 0.75:
        drawn = rng.sample(cells, min(len(cells), rng.randint(1, 3)))
        # half the time one label for every redrawn cell, so that the first of them is named
        labels = [rng.choice(MISLABELS)] * len(drawn) if rng.random() < 0.5 else rng.choices(MISLABELS, k=len(drawn))
        stab.update(zip(drawn, labels))
    if x.edges and rng.random() < 0.1:
        plus[rng.choice(sorted(x.edges))] = "NOPE"
    if rng.random() < 0.05:
        plus["zz"] = "P"
    return dataclasses.replace(x, stab=stab, stab_plus=plus), groups, tree, actions


complex_shapes(
    "mislabelled complex", mislabelled, ["simplicial", "cell", "tree", "glued", "strip"], [20261032], 60,
    lambda name, c: all(c[key] > 0 for key in ("unknown", "containment", "built", "hyperbolic", "dihedral", "unannotated")),
)


@row(Complex2.is_reduced, oracles.is_reduced_oracle, "is reduced")
def is_reduced(case):
    x, reduced, perturbed, groups = case
    assert reduced.is_reduced and oracles.is_reduced_oracle(reduced, groups.copy())
    for y in [x] + perturbed:
        assert y.is_reduced == oracles.is_reduced_oracle(y, groups.copy())


def perturbed(x, rng):
    """Copies of a reduced complex that each break one part of being reduced."""
    out = [dataclasses.replace(x, edges=dict(reversed(x.edges.items())))]
    out.append(dataclasses.replace(x, faces=dict(reversed(x.faces.items()))))
    out.append(dataclasses.replace(x, stab={**x.stab, "stray": TRIVIAL}))
    if x.edges:
        eid = rng.choice(sorted(x.edges))
        out.append(dataclasses.replace(x, stab_plus={e: g for e, g in x.stab_plus.items() if e != eid}))
        out.append(dataclasses.replace(x, edges={**x.edges, eid: x.edges[eid][::-1]}))
    if x.faces:
        fid = rng.choice(sorted(x.faces))
        es = x.faces[fid]
        out.append(dataclasses.replace(x, faces={**x.faces, fid: es[1:] + es[:1]}))
        other = next((c for c in x.cells() if x.stab[c] != x.stab[fid]), None)
        if other is not None:
            out.append(dataclasses.replace(x, orbit={**x.orbit, fid: x.orbit[other]}))
    return out


def reduced_and_perturbed(rng, x, groups):
    reduced = reduce_complex(x, groups)
    return x, reduced, perturbed(reduced, rng), groups


complex_shapes("is reduced", reduced_and_perturbed, ["simplicial", "cell", "tree", "glued"], range(15))


RELABEL_SHARED = (
    "cell_data", "edges_by_pair", "triangles_by_vertex", "triangles_by_edge", "triangles_by_triple",
    "vertex_components", "skeleton_blocks", "first_cell_by_label",
)
RELABEL_FIELDS = ("vertices", "edges", "faces", "stab", "orbit", "boundary_marked")


def _derived(x):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", complexes.DisconnectedComplexWarning)
        h1 = h1_z2(x)
    return {
        "face_vertices": {fid: x.face_vertices(fid) for fid in x.faces},
        **{name: getattr(x, name) for name in RELABEL_SHARED[1:]},
        "boundary_rank": x.boundary_rank,
        "triangles": x.triangles(),
        "is_simplicial": x.is_simplicial(),
        "cutpoints": cutpoints(x),
        "is_reduced": x.is_reduced,
        "h1_z2": h1,
    }


def relabelled(x, stab_plus):
    """``x.relabel(stab_plus)`` against a complex built from scratch with the
    same fields: every derived value agrees, and every cell-derived one is
    the original's own object.  Returns the relabelled complex."""
    y = x.relabel(stab_plus=stab_plus)
    fresh = Complex2(**{name: getattr(x, name) for name in RELABEL_FIELDS}, stab_plus=dict(stab_plus))
    assert y == fresh and y.stab_plus == stab_plus
    # y is derived first, so x reads what y derived on the shared data
    assert _derived(y) == _derived(fresh)
    for name in RELABEL_FIELDS + RELABEL_SHARED:
        assert getattr(y, name) is getattr(x, name), name
    assert all(y.face_vertices(fid) is x.face_vertices(fid) for fid in x.faces)
    assert y.cell_data.cutpoints is x.cell_data.cutpoints
    assert y.cell_data.triangles is x.cell_data.triangles
    # a relabelling of a complex whose reducedness is derived shares it
    # exactly when the oriented labels keep their keys
    assert x.is_reduced in (True, False)
    z = x.relabel(stab_plus=stab_plus)
    assert ("is_reduced" in z.__dict__) == (stab_plus.keys() == x.stab_plus.keys())
    assert z.is_reduced == fresh.is_reduced
    return y


@row(Complex2.relabel, Complex2, "relabel")
def relabel(case):
    for y, plus in case:
        relabelled(y, plus)


def relabellings(rng, x, groups):
    return [
        (y, {eid: rng.choice(("P", "E", "1", "V1")) for eid in sorted(y.edges) if rng.random() < 0.6})
        for y in (x, reduce_complex(x, groups))
    ]


complex_shapes("relabel", relabellings, ["simplicial", "cell", "tree", "glued"], range(10))


def point_level(groups, ideal_points=None):
    tree = make_tree(["p"], {}, ideal_points)
    return hierarchy.make_tree_level("P", tree, ActionTable(tree, groups))


def identity_handed_on(result, terminals):
    """Everything a passdown hands on, with cell dicts in stored order and
    the renamings of an identity step written out face by face (tau as
    maps: the general path lists faces piece by piece)."""

    def cells(x):
        plus = {eid: x.edge_stab_plus(eid) for eid in x.edges}
        return sorted(x.vertices), list(x.edges.items()), list(x.faces.items()), x.stab, x.orbit, x.boundary_marked, plus

    received = [(v, [(tid, gid, cells(x)) for tid, (gid, x) in got.items()]) for v, got in result.terminals.items()]
    tau = oracles.expand_renamings(result.tau, {nid: x for nid, (_gid, x) in terminals.items()})
    return received, list(result.ledger.items()), tau.triangle_map, tau.edge_map


def identity_step_matches(terminals, groups, ideal_points=None):
    """``passdown_full`` over a one-vertex tree against its general path
    (``oracles.identity_step_oracle``); returns the fast result."""
    fast_groups, full_groups = groups.copy(), groups.copy()
    fast = passdown_full(terminals, point_level(fast_groups, ideal_points))
    full = oracles.identity_step_oracle(terminals, point_level(full_groups, ideal_points))
    assert not full.tau.renamed
    assert identity_handed_on(fast, terminals) == identity_handed_on(full, terminals)
    # no ref minted and no containment declared that the identity step skips
    assert table_state(fast_groups) == table_state(full_groups)
    # the identity step hands on the very input complexes; the general
    # path hands on none of them
    inputs = {id(x) for _gid, x in terminals.values()}
    outputs = {id(x) for got in fast.terminals.values() for _gid, x in got.values()}
    if all(x.is_reduced and not cutpoints(x) for _gid, x in terminals.values()):
        assert outputs == inputs
        assert fast.tau.renamed.keys() == terminals.keys() and not fast.tau.triangle_map
    else:
        assert not outputs & inputs
    return fast


@row(passdown_full, oracles.identity_step_oracle, "identity step")
def identity_step(case):
    """The generated complex itself, usually not reduced, then its
    reduction, then both at once; a disconnected complex or one with
    h1 != 0 fails the terminal check on both paths alike."""
    x, groups = case
    reduced = reduce_complex(x, groups)
    assert reduced.is_reduced
    valid = []
    for y in (x, reduced) if x.is_simplicial() else (reduced,):
        if is_connected(y) and h1_z2(y) == 0:
            valid.append(y)
            identity_step_matches({"r": ("1", y)}, groups)
            continue
        for passdown in (passdown_full, oracles.identity_step_oracle):
            with pytest.raises(FixtureError, match="is disconnected|has h1 != 0"):
                passdown({"r": ("1", y)}, point_level(groups.copy()))
    if len(valid) == 2:
        identity_step_matches({"r0": ("V1", valid[0]), "r1": ("1", valid[1])}, groups)


def elliptic_labels(rng, x, groups):
    """The same order with every group H-elliptic, so that every cell
    label passes the terminal check."""
    return x, GroupTable(dataclasses.replace(groups[gid], is_h_elliptic=True) for gid in sorted(groups.ids()))


complex_shapes("identity step", elliptic_labels, ["simplicial", "cell", "tree", "glued"], range(15))


@row(complexes.fresh_separator, oracles.separator_by_minting, "taken ids")
def fresh_separators(case):
    taken, sep = case
    assert complexes.fresh_separator(taken, minting([]), sep) == oracles.separator_by_minting(taken, minting([]), sep)


def taken_ids(rng, i):
    taken = {"".join(rng.choices(["a", "b", "0", "1", ".", ":"], k=rng.randint(1, 5))) for _ in range(rng.randint(0, 6))}
    return taken, rng.choice((".", ":", "b"))


drawn("taken ids", "random", taken_ids, 20261028, 400)


def minting(calls):
    """A ``minted`` callback that records each separator it is asked for."""

    def minted(sep):
        calls.append(sep)
        yield from (f"a{sep}0", f"b{sep}1", f"{sep}c")

    return minted


@row(complexes.h1_z2, oracles.h1_rank_oracle, "simplicial complex")
def h1(x):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", complexes.DisconnectedComplexWarning)
        assert h1_z2(x) == oracles.h1_rank_oracle(x)


drawn("simplicial complex", "acceptance", lambda rng, i: random_simplicial_complex(rng, max_vertices=8), 77, 500)


@row(CellData, oracles.is_simplicial_oracle, "incidence")
def incidence(x):
    """The incidence kept on ``Complex2`` against recomputation from the cell
    dicts, in the orders the callers rely on."""
    fv = {f: {w for e in es for w in x.edges[e]} for f, es in x.faces.items()}
    tris = [f for f, es in x.faces.items() if len(es) == 3]
    assert all(x.face_vertices(f) == tuple(sorted(fv[f])) for f in x.faces)
    assert x.edges_by_pair == {
        tuple(sorted(key)): tuple(sorted(e for e in x.edges if frozenset(x.edges[e]) == key))
        for key in map(frozenset, x.edges.values())
    }
    assert x.triangles_by_vertex == {
        v: tuple(f for f in tris if v in fv[f]) for v in x.vertices if any(v in fv[f] for f in tris)
    }
    first_met = dict.fromkeys(e for f in sorted(tris) for e in x.faces[f])
    assert list(x.triangles_by_edge.items()) == [(e, tuple(sorted(f for f in tris if e in x.faces[f]))) for e in first_met]
    assert x.triangles_by_triple == {
        tuple(sorted(key)): tuple(sorted(f for f in tris if fv[f] == key)) for key in (frozenset(fv[f]) for f in tris)
    }
    assert x.is_simplicial() == oracles.is_simplicial_oracle(x)


@row(CellData, (oracles.brute_components, oracles.brute_blocks, oracles.brute_cutpoints, oracles.boundary_rank_oracle), "skeleton")
def skeleton(x):
    """Components, 1-skeleton blocks, cutpoints and boundary rank against
    their brute-force definitions."""
    comps = oracles.brute_components(x.vertices, x.edges.values())
    assert components(x) == comps and is_connected(x) == (len(comps) <= 1)
    assert sorted((set(es) for _vs, es in x.skeleton_blocks if es), key=sorted) == oracles.brute_blocks(x)
    for verts, eids in x.skeleton_blocks:
        if eids:
            assert verts == {w for e in eids for w in x.edges[e]}
    isolated = {v for v in x.vertices if not any(v in ends for ends in x.edges.values())}
    assert {v for verts, eids in x.skeleton_blocks if not eids for v in verts} == isolated
    assert cutpoints(x) == oracles.brute_cutpoints(x)
    assert x.boundary_rank == oracles.boundary_rank_oracle(x)


def unlabelled():
    for seed in range(120):
        yield random_simplicial_complex(random.Random(seed))
        yield random_cell_complex(random.Random(seed))


shape("incidence", "unlabelled", unlabelled)
shape("skeleton", "unlabelled", unlabelled)


@row(CellData, (oracles.incidence_by_grouping, oracles.is_canonical_by_sorting), "cell order")
def cell_order(case):
    """The incidence maps, each built in one loop, against grouping, with
    keys and values in the same order; the one-pass canonical check against
    the comparison with the sorted pairs and triples.  Each case is a list
    of (name, cells): the drawn cells, their reduction, and copies of the
    reduction that put one cell out of place."""
    counts = Counter()
    for name, cells in case:
        fast = CellData(*cells)
        for key, grouped in oracles.incidence_by_grouping(fast).items():
            assert list(getattr(fast, key).items()) == list(grouped.items()), (name, key)
        canonical = fast.is_canonical
        assert canonical == oracles.is_canonical_by_sorting(fast), name
        counts.update({name: 1, f"{name}, canonical": canonical})
    return counts


def out_of_place(rng, x, groups):
    """The cells of ``x`` and of its reduction, and copies of the reduction
    each with one cell out of place (``OUT_OF_PLACE``)."""
    y = reduce_complex(x, groups)
    vertices, edges, faces = y.vertices, y.edges, y.faces
    eids, fids = list(edges), list(faces)
    out = [("drawn", (x.vertices, x.edges, x.faces)), ("reduced", (vertices, edges, faces))]

    def swapped(d, keys):
        i = rng.randrange(len(keys) - 1)
        keys = keys[:i] + [keys[i + 1], keys[i]] + keys[i + 2:]
        return {k: d[k] for k in keys}

    if eids:
        eid = rng.choice(eids)
        u, v = edges[eid]
        twin = f"{eid}~"
        # a parallel edge stored right after its twin, and a bigon on the two
        parallel = {}
        for e in eids:
            parallel[e] = edges[e]
            if e == eid:
                parallel[twin] = edges[e]
        out += [
            ("high end first", (vertices, {**edges, eid: (v, u)}, faces)),
            ("ends as a list", (vertices, {**edges, eid: [u, v]}, faces)),
            ("parallel edge", (vertices, parallel, faces)),
            ("bigon", (vertices, parallel, {**faces, f"{eid}~b": (eid, twin)})),
        ]
    if len(eids) > 1:
        out.append(("edges swapped", (vertices, swapped(edges, eids), faces)))
    if len(fids) > 1:
        out.append(("faces swapped", (vertices, edges, swapped(faces, fids))))
    if fids:
        fid = rng.choice(fids)
        a, b, c = faces[fid]
        order = rng.choice([(a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)])
        out.append(("sides permuted", (vertices, edges, {**faces, fid: order})))
    return out


OUT_OF_PLACE = ("high end first", "ends as a list", "parallel edge", "bigon", "edges swapped", "faces swapped", "sides permuted")

complex_shapes(
    "cell order", out_of_place, ["simplicial", "cell", "tree", "glued", "strip", "doubled"], [20261030], 30,
    # every reduction is canonical and every copy out of place is not; some
    # drawn complexes are not simplicial
    lambda name, c: c["reduced"] == c["reduced, canonical"] == c["cases"]
    and all(c[kind] > 0 and not c[f"{kind}, canonical"] for kind in OUT_OF_PLACE)
    and (name not in ("cell", "doubled") or c["drawn, canonical"] < c["drawn"]),
)


@row(stability._straddling_cone, oracles.straddling_cone_every_vertex, "classed complex")
def straddling_cone(case):
    x, class_of = case
    cone = stability._straddling_cone(x, class_of)
    assert cone == oracles.straddling_cone_every_vertex(x, class_of)
    found = cone is not None
    return Counter(cones=found, in_no_class=found and not class_of.keys() >= set(cone.fan)) + class_counts(x, class_of)


def class_counts(x, class_of):
    """Whether the triangles of ``x`` meet fewer than two class values (a
    triangle in no class counting as one), and whether one is in no class."""
    met = set(map(class_of.get, x.triangles()))
    return Counter(one_class=len(met) < 2, classless=None in met)


def classed(rng, i):
    """Edge-connected classes, every third draw with triangles left out of
    every class."""
    x = random_edge_glued_complex(rng, rng.randint(3, 14)) if i % 2 else random_simplicial_complex(rng)
    class_of = {f: k for k, part in enumerate(random_triangle_partition(rng, x)) for f in part}
    if i % 3 == 0 and class_of:
        for f in rng.sample(sorted(class_of), rng.randint(1, len(class_of))):
            del class_of[f]
    return x, class_of


drawn(
    "classed complex", "random", classed, 20261021, 300,
    lambda c: c["cones"] > 20 and c["in_no_class"] > 5 and c["one_class"] > 20 and c["classless"] > 20,
)


@row(complexes.reduced_cutpoint_tree, oracles.contracted_cutpoint_tree, "cut-labelled complex")
def contracted_cutpoint_tree(case):
    x, groups = case
    bpx = complexes.reduced_cutpoint_tree(x, groups)
    comp_nodes, cells, cut_nodes, edges, orbit, flags = oracles.contracted_cutpoint_tree(x, groups)
    assert (bpx.comp_nodes, bpx.comp_cells, bpx.cut_nodes, bpx.edges, bpx.node_orbit) == (
        comp_nodes, cells, cut_nodes, edges, orbit,
    )
    assert {n: groups.h_elliptic(bpx.node_stab[n]) for n in comp_nodes} == flags
    return Counter(merged=len(comp_nodes) < len(oracles.cutpoint_tree(x, groups).comp_nodes))


def cut_labelled():
    """Cut vertices labelled at random: slender (S), non-slender and
    H-elliptic (U), or neither (V)."""
    groups = GroupTable([GroupRef("S", is_slender=True), GroupRef("U", is_h_elliptic=True), GroupRef("V")])
    for seed in range(60):
        rng = random.Random(seed)
        x = random_triangle_tree_complex(rng, n_triangles=rng.randint(2, 9))
        yield dataclasses.replace(x, stab={**x.stab, **{v: rng.choice("SUV") for v in sorted(cutpoints(x))}}), groups


shape("cut-labelled complex", "triangle tree", cut_labelled, lambda c: c["merged"] > 0)


@row(classify_subgroup_action, oracles.classification_oracle, "descriptor set")
def classification(case):
    descriptors, tree = case
    try:
        expect = oracles.classification_oracle(descriptors)
    except ValueError:
        with pytest.raises(ConsistencyError):
            classify_subgroup_action(descriptors, tree)
        return
    try:
        got = classify_subgroup_action(descriptors, tree)
    except ConsistencyError:
        # engine-only guard: elliptic descriptor off the shared axis
        assert expect in ("linear", "dihedral")
        return
    assert got == expect, (descriptors, got, expect)


def spider_sets():
    t, rng = spider(4), random.Random(3)
    axes = list(itertools.combinations(sorted(t.ideal_points), 2))
    singles = [ActionDescriptor(kind="hyperbolic", ends=axis, swaps_ends=swaps) for swaps in (False, True) for axis in axes]
    singles += [ActionDescriptor(kind="elliptic", fixed=frozenset(f)) for f in ({"c"}, {"l0"}, {"c", "l1"})]
    sets = [list(c) for c in itertools.combinations(singles, 2)] + [rng.sample(singles, 3) for _ in range(60)]
    return ((descriptors, t) for descriptors in sets)


def descriptor_sets():
    """Over trees with up to 8 vertices, each descriptor, each pair and 400
    sampled triples of a pool of hyperbolic ones and ones fixing a vertex
    or an edge."""
    rng = random.Random(5150)
    for tree in (spider(3), spider(4), line_tree(7, ("p", "q"))):
        pool = []
        for axis in itertools.combinations(sorted(tree.ideal_points), 2):
            pool += [ActionDescriptor(kind="hyperbolic", ends=axis, swaps_ends=swaps) for swaps in (False, True)]
        verts = sorted(tree.vertices)
        pool += [ActionDescriptor(kind="elliptic", fixed=frozenset({v})) for v in verts]
        pool += [ActionDescriptor(kind="elliptic", fixed=frozenset({v, w})) for v in verts for w in sorted(tree.adjacency[v]) if v < w]
        sets = [[d] for d in pool] + [list(c) for c in itertools.combinations(pool, 2)]
        yield from ((descriptors, tree) for descriptors in sets + [rng.sample(pool, 3) for _ in range(400)])


shape("descriptor set", "spider", spider_sets)
# singles, all pairs, sampled triples
shape("descriptor set", "acceptance", descriptor_sets, lambda c: c["cases"] > 1500)


@row(stability.cone_criterion_check, oracles.cone_criterion_oracle, "class partition")
def cone_criterion(case):
    """The verdict is that of the enumeration oracle, and a counterexample
    is a simple cone with at least three boundary vertices whose fan meets
    two or more classes.  With ``bw``, the verdict is also whether B_w is
    a tree, and a certified B_w has no cycle."""
    x, classes, groups, bw = case
    result = stability.cone_criterion_check(x, classes, groups)
    violating = oracles.cone_criterion_oracle(x, classes)
    assert result.certified == (not violating)
    cone = result.counterexample
    if cone is not None:
        class_of = {f: cls.id for cls in classes for f in cls.triangles}
        assert is_simple(cone) and len(cone.boundary) >= 3
        assert len({class_of.get(f) for f in cone.fan}) >= 2
        assert stability.make_cone(x, cone.center, cone.boundary) == cone
        assert (cone.center, set(cone.fan)) in [(c.center, set(c.fan)) for c in violating]
    if not bw:
        return Counter(tree_counterexamples=not result.certified)
    graph, _ = stability.build_bw(x, classes, groups)
    assert result.certified == graph.is_tree()
    if result.certified:
        assert not graph.has_cycle()
    else:
        assert cone is not None
    return Counter(certified=result.certified, counterexamples=not result.certified)


@row(stability.build_bw, oracles.bw_by_definition, "class partition")
def bw_graphs(case):
    """B_w and B'_w equal the graphs of the walk over every class
    triangle, on cases of one class or none and with classless triangles
    too."""
    x, classes, groups, _bw = case
    assert stability.build_bw(x, classes, groups) == oracles.bw_by_definition(x, classes, groups)
    return class_counts(x, {f: cls.id for cls in classes for f in cls.triangles}) + Counter(under_two=len(classes) < 2)


def partitions():
    """34 complexes cut into edge-connected classes, every third a closed
    fan (split, it forces a straddling cone), then 200 triangle trees, then
    40 complexes with some classes, every fourth with all, left out, all
    over one group table."""
    rng, groups = random.Random(31337), GroupTable()
    for i in range(234):
        if i >= 34:
            x = random_triangle_tree_complex(rng, n_triangles=rng.randint(3, 14))
            parts = random_triangle_partition(rng, x)
        elif i % 3 == 2:
            x = wheel(rng.randint(3, 6), "hub", ())
            parts = random_triangle_partition(rng, x, n_classes=rng.randint(1, 3))
        else:
            x = random_edge_glued_complex(rng, n_triangles=rng.randint(3, 8))
            parts = random_triangle_partition(rng, x)
        yield x, triangle_classes(parts), groups, i < 34
    for i in range(40):
        x = random_edge_glued_complex(rng, n_triangles=rng.randint(3, 8))
        parts = random_triangle_partition(rng, x)
        yield x, triangle_classes([] if i % 4 == 0 else rng.sample(parts, rng.randrange(len(parts)))), groups, False


# both verdicts exercised, and the early exits of one class or none
shape(
    "class partition", "acceptance", partitions,
    lambda c: c["certified"] and c["counterexamples"] and c["tree_counterexamples"]
    and c["one_class"] > 20 and c["under_two"] > 20 and c["classless"] > 20,
)


@row(stability.classes_of_complex, oracles.class_cutpoints, "pair subsets")
def classes_are_cutpoint_free(case):
    """Every class that a set of pairs of ``x`` generates spans a
    cutpoint-free subcomplex, also where ``x`` has cutpoints and a class
    passes through one (the argument is in ``classes_of_complex``)."""
    x, subsets = case
    cuts = cutpoints(x)
    counts = Counter(with_cuts=bool(cuts))
    for pairs in subsets:
        for tris in stability.classes_of_complex(x, pairs).classes:
            assert oracles.class_cutpoints(x, tris) == set()
            counts["through_cuts"] += len(tris) > 1 and not cuts.isdisjoint(w for f in tris for w in x.face_vertices(f))
    return counts


def pair_subsets(rng, x, groups):
    """``x`` with all its pairs, and with random subsets of them."""
    pairs = stability.pairs_of_complex(x)
    return x, [pairs] + [[p for p in pairs if rng.random() < keep] for keep in (0.3, 0.6, 0.9)]


complex_shapes(
    "pair subsets", pair_subsets, ["pinch", "glued", "wedge", "chain", "doubled chain", "tree"], [20261030], 40,
    # pinches and edge-glued masses have no cutpoint; on the other shapes at
    # least half the drawn complexes have one, and classes pass through them
    lambda name, c: name in ("pinch", "glued") or c["with_cuts"] >= 20 and c["through_cuts"] >= 100,
)


# ---------------------------------------------------------------------------
# comparisons of collapses


@row(split_collapse, oracles.collapse_by_construction, "track system")
def collapse(case):
    """``split_collapse`` against the collapse built cell by cell and
    reduced, over copies of the group table: complex and fragment in dict
    order, and the tables with their declared pairs in order; the fast
    complex holds its canonical order and the label check, each equal to
    a fresh derivation."""
    ts, groups = case
    fast_groups, full_groups = groups.copy(), groups.copy()
    with declare_log() as log:
        fast, fast_frag = split_collapse(ts, fast_groups)
        full, full_frag = oracles.collapse_by_construction(ts, full_groups)
    assert complex_fields(fast) == complex_fields(full)
    assert BUILT <= handed_on(fast)[0]
    assert fragment_maps(fast_frag) == fragment_maps(full_frag)
    fast_state = table_state(fast_groups, log)
    assert fast_state == table_state(full_groups, log)
    return Counter(tracks=len(ts.tracks), declares=len(fast_state[-1]))


@row(tracks_from_resolution, (oracles.tracks_by_walk, oracles.check_resolution), "track system")
def track_extraction(case):
    """``tracks_from_resolution``, which reads each edge path once and
    finds the sides of all tracks from one components pass, against the
    extraction track by track, on the resolution of the case, itself
    checked against its definition: the crossing table, and the tracks in
    order, each with its tree edge, points, arcs in face order and sides
    in least-vertex order."""
    res = case[0].resolution
    oracles.check_resolution(res)
    fast, walk = tracks_from_resolution(res), oracles.tracks_by_walk(res)
    if res.target.edges:
        assert list(fast.crossings.items()) == list(walk.crossings.items())
    else:  # nothing crosses a tree with no edge, and the extraction returns at once
        assert fast.crossings == {} and not any(walk.crossings.values())

    def fields(ts):
        return [(tr.id, tr.tree_edge, tr.points, list(tr.arcs.items()), tr.side_infinite) for tr in ts.tracks]

    assert fields(fast) == fields(walk)
    return Counter(extracted=len(fast.tracks), three_tracks=len(fast.tracks) >= 3)


def path_tracks(rng, x, groups):
    """Tracks over a random path tree, one image per vertex orbit, kept
    essential half the time."""
    x = simplicial(x, groups)
    tree = line_tree(rng.randint(2, 4))
    res = resolution_from_images(x, tree, orbit_images(x, lambda _vertices: rng.choice(sorted(tree.vertices))))
    ts = tracks_from_resolution(res)
    if rng.random() < 0.5 and is_connected(x) and h1_z2(x) == 0:
        ts = essential_tracks(ts)
    return ts, groups


def worked_tracks(renames=()):
    """The worked fixture's essential tracks, with cell ids renamed by whole word."""
    text = (FIXTURES / "worked_terminating.txt").read_text()
    for old, new in renames:
        text = re.sub(rf"(?<![\w.-]){re.escape(old)}(?![\w.-])", new, text)
    fx = parse_text(text)
    res = resolution.build_resolution(fx.complexes["XP"], fx.trees["T0"], fx.action_table("T0"))
    yield essential_tracks(tracks_from_resolution(res)), fx.groups


# the cases whose resolution has three tracks or more, where a side joins pieces across other tracks
THREE_TRACKS = {"chain": 33, "doubled chain": 33, "strip": 32, "doubled": 31, "simplicial": 19, "tree": 32, "glued": 28}
complex_shapes(
    "track system", path_tracks, list(THREE_TRACKS), [20261029], 40,
    # a trivial label lies below every label
    lambda name, c: c["tracks"] > 40 and (c["declares"] > 0) == (not name.endswith("chain"))
    and c["three_tracks"] == THREE_TRACKS[name],
)
shape("track system", "worked", worked_tracks, lambda c: c["tracks"] > 0 and c["declares"] > 0)
# the worked collapse merges the central triangles of t1 and t2 and the
# segments bc.0 and bd.0; renamed, each merged cell made second has the
# least id ("t1-.mid" sorts before "t1.mid", "bc-.0" before "bc.0")
shape("track system", "worked, second made sorts first", lambda: worked_tracks((("t2", "t1-"), ("bd", "bc-"))))
# a surgery op collapses once, with tracks; a size op three times, with none
shape(
    "track system", "surgery", lambda: iter(seed1("surgery").collapses),
    lambda c: c["cases"] == 15 and c["declares"] > 0 and c["three_tracks"] == 11,
)
shape("track system", "size", lambda: iter(seed1("size").collapses), lambda c: c["cases"] == 45 and c["declares"] == 0)


def constant_trees():
    """A point tree, one with an ideal point no vertex reaches, and a path
    that every vertex maps to one end of."""
    yield make_tree(["p"], {}), "p"
    yield make_tree(["p"], {}, {"q": ("p",)}), "p"
    yield line_tree(3), "x0"


@row((split_collapse, tracks_from_resolution), (oracles.collapse_by_construction, oracles.tracks_by_walk), "constant images")
def nothing_to_collapse(case):
    """With no track and no vertex at an ideal point the collapse only
    reduces, and on a tree with no edge the extraction returns at once."""
    x, groups = case
    if not x.is_simplicial():
        # a complex with parallel edges or bigons has no tracks, on either
        # path; its reduction is collapsed in its place
        res = resolution_from_images(x, make_tree(["p"], {}), dict.fromkeys(x.vertices, "p"))
        for extract in (tracks_from_resolution, oracles.tracks_by_walk):
            with pytest.raises(FixtureError, match="needs a simplicial complex"):
                extract(res)
        x = reduce_complex(x, groups)
    for tree, vertex in constant_trees():
        res = resolution_from_images(x, tree, dict.fromkeys(x.vertices, vertex))
        ts, walk = tracks_from_resolution(res), oracles.tracks_by_walk(res)
        assert (ts.resolution, ts.tracks) == (walk.resolution, walk.tracks) and not ts.tracks
        # nothing crosses a tree edge, on a tree with or without one
        assert not any(ts.crossings.values()) and not any(walk.crossings.values())
        assert not res.ideal_vertices()
        collapse((ts, groups))


complex_shapes("constant images", as_drawn, ["strip", "doubled", "simplicial", "glued", "tree"], [20261025], 40)


@row(resolution.contract, (oracles.contract_by_construction, oracles.check_resolution), "contraction")
def contraction(case):
    """``contract`` against the contraction with every label induced along
    its whole cell map and its collapsed complex reduced by definition,
    over copies of the group table: the error raised, or complex and
    fragment in dict order and the descended resolution, which like the
    drawn one meets its definition; and the tables with their declared
    pairs in order."""
    res, groups = case
    if res is None:
        return Counter(edgeless=1)
    oracles.check_resolution(res)
    fast_groups, full_groups, out = groups.copy(), groups.copy(), {}
    with declare_log() as log:
        fast_error = raised(lambda: out.setdefault("fast", resolution.contract(res, fast_groups)))
        full_error = raised(lambda: out.setdefault("full", oracles.contract_by_construction(res, full_groups)))
    assert fast_error == full_error
    assert table_state(fast_groups, log) == table_state(full_groups, log)
    if full_error:
        return Counter(refused=1)
    (fast, fast_res, fast_frag), (full, full_res, full_frag) = out["fast"], out["full"]
    assert complex_fields(fast) == complex_fields(full)
    assert fragment_maps(fast_frag) == fragment_maps(full_frag)
    assert fast_res == full_res
    oracles.check_resolution(fast_res)
    x, boundary, minted = res.source, res.boundary_edges(), fast_groups.ids() - groups.ids()
    # the vertex orbits a merged component joins into one class, and the
    # input labels of each class's component vertices
    classes, class_labels = graphs.UnionFind(), defaultdict(set)
    for eid in boundary:
        classes.union(*(x.orbit[w] for w in x.edges[eid]))
    for w in {w for eid in boundary for w in x.edges[eid]}:
        class_labels[classes.find(x.orbit[w])].add(x.stab[w])
    return Counter(
        merged=bool(fast.vertices - x.vertices),
        bigons=sum(len(es) == 3 and len(boundary.intersection(es)) == 1 for es in x.faces.values()),
        # a merged class whose component vertices carry several input
        # labels (the component's fresh label replaces them all), and a
        # fresh label for merged cells of several labels in the reduction
        **{"classes of several labels": any(len(labels) > 1 for labels in class_labels.values())},
        **{"reduction labels": sum(gid.startswith("red.") for gid in minted)},
    )


def contracting(rng, x, groups):
    """A contracting resolution of x over a path with ideal points p and q,
    one image per vertex orbit: the orbits of the ends of one edge, and
    each other vertex orbit with chance 0.3, go to p, an orbit with chance
    0.1 to q, and the others to tree vertices.  A pair of vertex orbits at
    p is made one orbit of one label with chance 0.3, so that a class the
    contraction merges may reach a vertex outside the component; unless
    the components of the pair have one orbit shape, the contraction
    refuses the orbit its two labels.  A complex with no edge has none
    (None)."""
    if not x.edges:
        return None, groups
    tree = line_tree(rng.randint(2, 4), ("p", "q"))
    ends = x.edges[rng.choice(sorted(x.edges))]

    def draw(vertices):
        r = rng.random()
        return "p" if not set(ends).isdisjoint(vertices) or r < 0.3 else "q" if r < 0.4 else rng.choice(sorted(tree.vertices))

    images = orbit_images(x, draw)
    at_p = sorted({x.orbit[v] for v in x.vertices if images[v] == "p"})
    rng.shuffle(at_p)
    stab, orbit, merged = dict(x.stab), dict(x.orbit), {}
    label = {x.orbit[v]: x.stab[v] for v in x.vertices}
    for a, b in zip(at_p[::2], at_p[1::2]):
        if rng.random() < 0.3:
            merged[a] = merged[b] = a
    for v in x.vertices:
        if x.orbit[v] in merged:
            a = merged[x.orbit[v]]
            orbit[v], stab[v] = f"o.{a}", label[a]
    x = make_complex(x.vertices, x.edges, x.faces, stab, orbit, x.boundary_marked, x.stab_plus, groups)
    return resolution_from_images(x, tree, images), groups


complex_shapes(
    "contraction", contracting, ["cell", "tree", "glued", "strip", "doubled"], [20261031], 40,
    # every contraction merges a component of several vertices; bigons are
    # dropped, merged vertex classes carry several input labels, labels are
    # minted in the reduction, and some orbits are refused
    lambda name, c: c["merged"] == c["cases"] - c["edgeless"] - c["refused"] > 25 and c["bigons"] > 10
    and c["classes of several labels"] > 10 and c["reduction labels"] > 10 and c["refused"] > 0,
)


# ---------------------------------------------------------------------------
# comparisons of runs


@dataclasses.dataclass
class RunCase:
    """A run with what the run rows share, each derived once; ``info``
    holds what its draw knows (a benchmark op's pipeline and report, a
    chain-labelled run's mode and end, triangle sets for the class check)."""

    run: object
    info: dict = dataclasses.field(default_factory=dict)

    @functools.cached_property
    def report(self):
        return stabilization_report(self.run)

    @functools.cached_property
    def expanded(self):
        """The oracles' run: every renaming written out face by face."""
        return oracles.expand_run(self.run)

    @functools.cached_property
    def swept(self):
        """``stable_classes`` from level 0: the records per level, and the
        levels whose step renames the whole level."""
        return stable_classes(self.run, 0)

    @property
    def sweep(self):
        return self.swept[0]

    @functools.cached_property
    def pair_sets(self):
        return oracles.stable_pair_sets(self.expanded, 0)


@row(stabilization_report, oracles.expand_run, "run", "benchmark run")
def renamings(case):
    """A renamed complex takes its stable pairs and classes from its image,
    and a step renaming a whole level passes sigma and the pullback without
    a walk: the report is that of the run with its renamings written out."""
    run = case.run
    assert case.report == stabilization_report(case.expanded)
    if "report" in case.info:
        rep = case.info["report"]
        expanded = pipeline.analyze_run(case.info["pipeline"], case.expanded)
        assert dataclasses.replace(expanded, run=None) == dataclasses.replace(rep, run=None)
    counts = Counter()
    for n, tau in enumerate(run.taus):
        if tau.renamed:
            whole = n in case.swept[1]
            onto = sorted(tau.renamed.values()) == sorted(run.levels[n + 1].complexes)
            assert whole == (tau.renamed.keys() == run.levels[n].complexes.keys() and onto)
            counts.update(renamed=1, whole=whole, partial=not whole)
    return counts


@row(stable_classes, oracles.stable_pair_sets, "run", "benchmark run")
def stable_pair_sweep(case):
    sweep, per_face = case.sweep, case.pair_sets
    assert sorted(sweep) == sorted(per_face) == list(range(case.run.horizon + 1))
    for n, records in sweep.items():
        assert pair_set(records) == per_face[n].pairs
    return Counter(levels=len(sweep), kept=sum(len(ps.pairs) for ps in per_face.values()))


@row(stable_classes, oracles.stable_pairs, "run")
def stable_pairs_by_composition(case):
    for n, records in case.sweep.items():
        assert pair_set(records) == oracles.stable_pairs(case.expanded, n).pairs


@row(stability.level_classes, oracles.equivalence_classes, "run", "benchmark run")
def classes(case):
    oracle = {n: oracles.equivalence_classes(case.expanded, n, ps) for n, ps in case.pair_sets.items()}
    for n, records in case.sweep.items():
        assert stability.level_classes(n, {cid: rec.classes for cid, rec in records.items()}) == oracle[n]
    for n, level in case.report.classes.items():
        assert level == oracle[n]


@row(stabilization_report, oracles.n_prime_oracle, "run", "benchmark run")
def n_prime(case):
    report = case.report
    assert report.n_prime == oracles.n_prime_oracle(case.expanded, report.n_delta, report.classes)
    return Counter(deeper_prime=report.n_prime > report.n_delta)


@row(stabilization_report, oracles.n_dprime_oracle, "run", "benchmark run")
def n_dprime(case):
    report = case.report
    assert report.n_dprime == oracles.n_dprime_oracle(case.expanded, report.n_prime)
    return Counter(deeper_dprime=report.n_dprime > report.n_prime)


@row(stability.acc_monitor, oracles.acc_monitor_full_walk, "run", "benchmark run")
def chain_monitor(case):
    """The monitor walks the chains only when some step into the horizon
    grows; its alerts are those of the walk from every class edge."""
    report, info = case.report, case.info
    alerts = oracles.acc_monitor_full_walk(case.expanded, report.n_delta, report.classes)
    assert list(report.acc_alerts) == alerts
    return Counter(
        alerted=bool(alerts),
        stopped_earlier=info.get("mode") == "stops" and report.n_delta < info["end"],
        below_start=case.run.horizon - 1 < report.n_delta,
    )


@row(stability.classes_of_complex, (oracles.class_cutpoints, oracles.subcomplex_of), "run", "benchmark run")
def class_check(case):
    """Every class of a run spans a cutpoint-free subcomplex, by
    ``class_cutpoints`` and by the cutpoints of the built subcomplex; on
    the drawn triangle sets, where cutpoints do occur, the two agree."""
    counts = Counter()
    for n, level in case.report.classes.items():
        for cls in level:
            x = case.run.levels[n].complexes[cls.cid]
            assert oracles.class_cutpoints(x, cls.triangles) == cutpoints(oracles.subcomplex_of(cls, x)) == set()
            counts["classes"] += 1
    for n, cls in case.info.get("triangle sets", ()):
        x = case.run.levels[n].complexes[cls.cid]
        cuts = oracles.class_cutpoints(x, cls.triangles)
        assert cuts == cutpoints(oracles.subcomplex_of(cls, x))
        counts["with_cuts"] += bool(cuts)
    return counts


@row(oracles.compose_fragments, oracles.compose, "run")
def composition(case):
    """The one-step maps composed with ``oracles.compose_fragments``, by
    which generated runs and ``finish_collapse`` compose, from level n to
    every m > n equal the recomposition."""
    run = case.expanded
    checked = 0
    for n in range(run.horizon):
        composed = run.taus[n]
        for m in range(n + 1, run.horizon + 1):
            if m > n + 1:
                composed = oracles.compose_fragments(composed, run.taus[m - 1])
            assert (composed.triangle_map, composed.edge_map) == oracles.compose(run, n, m)
            checked += 1
    return Counter(compositions=checked)


def chain_labelled(rng, i):
    """Every other run with renamings; the last step grows, the growth stops
    earlier, or it is drawn per edge."""
    run = random_run(rng) if i % 2 else renamed_run(rng, random_run(rng))
    mode = ("grows", "stops", "mixed")[i % 3]
    run, end = chain_labelled_run(rng, run, mode)
    return RunCase(run, {"mode": mode, "end": end})


def with_triangle_sets(rng, i):
    case = RunCase(random_run(rng))
    sets = case.info["triangle sets"] = []
    for n in case.report.classes:
        for cid, x in case.run.levels[n].complexes.items():
            fids = sorted(x.triangles())
            if fids:
                sets.append((n, TriangleClass(id="Z", cid=cid, triangles=frozenset(rng.sample(fids, rng.randint(1, len(fids)))))))
    return case


def composed_runs():
    """Generated runs, and the runs of the committed fixtures."""
    rng = random.Random(20261019)
    yield from (RunCase(random_run(rng)) for _ in range(60))
    for path in sorted(FIXTURES.glob("*.txt")):
        fx = parse_fixtures([str(path)])
        yield from (RunCase(run_pipeline(fx, name).run) for name in sorted(fx.pipelines))


def benchmark_runs():
    for workload in sorted(workloads.WORKLOADS):
        for op, rep in seed1(workload).reports:
            yield RunCase(rep.run, {"pipeline": op.pipeline, "report": rep})


drawn(
    "run", "run", lambda rng, i: RunCase(random_run(rng)), 20261017, 150,
    # kept pairs, N' above N_delta and N'' above N'
    lambda c: c["levels"] > 400 and c["kept"] > 0 and c["deeper_prime"] > 0 and c["deeper_dprime"] > 0,
)
drawn(
    "run", "renamed run", lambda rng, i: RunCase(renamed_run(rng, random_run(rng))), 20261020, 150,
    lambda c: c["whole"] > 20 and c["partial"] > 20,
)
drawn(
    "run", "chain-labelled run", chain_labelled, 20261022, 150,
    lambda c: c["alerted"] > 20 and c["stopped_earlier"] > 10 and c["below_start"] > 10,
)
drawn("run", "triangle sets", with_triangle_sets, 20261018, 150, lambda c: c["classes"] > 400 and c["with_cuts"] > 0)
shape("run", "composed run", composed_runs, lambda c: c["compositions"] > 200)
shape("benchmark run", "seed 1", benchmark_runs, lambda c: c["cases"] > 50 and c["renamed"] > 1000)


# ---------------------------------------------------------------------------
# recorded runs, each made once: the seed-1 benchmark ops of a workload and
# the worked fixture at horizon 64, with the calls their count pins read


def spy(m, counts, owner, name, **when):
    """Wrap ``owner.name`` through the monkeypatch ``m``: each call adds
    ``when[key](caller's frame, *args)`` to ``counts[key]`` for every key,
    or 1 to ``counts[name]`` when no key is given."""
    fn, when = getattr(owner, name), when or {name: lambda frame, *args: 1}

    def wrapper(*args, **kwargs):
        frame = sys._getframe(1)
        for key, counted in when.items():
            counts[key] += counted(frame, *args)
        return fn(*args, **kwargs)

    m.setattr(owner, name, wrapper)


def nest(m, inside, owner, name):
    """Wrap ``owner.name`` so that ``inside[name]`` is non-zero during its calls."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        inside[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            inside[name] -= 1

    m.setattr(owner, name, wrapper)


def record(m, log, owner, name, note=lambda frame, *args: args):
    """Wrap ``owner.name`` through the monkeypatch ``m``: each call appends
    ``note(caller's frame, *args)`` to ``log[name]``, unless it is None."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        noted = note(sys._getframe(1), *args)
        if noted is not None:
            log[name].append(noted)
        return fn(*args, **kwargs)

    m.setattr(owner, name, wrapper)


@functools.cache
def worked64():
    """One run of the worked fixture at horizon 64, and a log of the calls
    its count pins read; the logged arguments are held, so no id is reused."""
    text = (FIXTURES / "worked_terminating.txt").read_text()
    assert "horizon=4 " in text
    log, inside = defaultdict(list), Counter()
    with pytest.MonkeyPatch.context() as m:
        nest(m, inside, stability, "classes_of_complex")
        for owner, name in (
            (hierarchy, "build_resolution"), (hierarchy, "tracks_from_resolution"), (hierarchy, "split_collapse"),
            (tracks, "reduce_with_map"), (tracks, "canonical_complex"), (pipeline, "make_tree_level"),
            (stability, "classes_of_complex"), (stability, "level_classes"), (stability, "_sigma"),
            (stability, "_pulls_back"), (stability.LevelData, "covolume"), (oracles, "compose"), (oracles, "stable_pairs"),
        ):
            record(m, log, owner, name)
        # the version of the group table when an action table resolves a group id
        record(m, log, resolution.ActionTable, "_owner", lambda frame, table, gid: (id(table), gid, getattr(table.groups, "version", None)))
        # a complex built while a class record is
        record(m, log, Complex2, "__init__", lambda frame, *args: args if inside["classes_of_complex"] else None)
        return run_pipeline(parse_text(text.replace("horizon=4 ", "horizon=64 ")), "worked"), log


def record_built(m, built):
    """Record through the monkeypatch ``m``, in the lists of ``built``, what
    ``passdown_full`` builds: each resolution constructed (``made``) and
    restricted to a piece (``restricted``: the resolution, the piece and
    the restriction), each track system drawn or collapsed
    (``track_systems``), and in ``complexes`` (kind, complex, copy of the
    group table as it was) the X_T of each collapse of tracks or ideal
    vertices ("collapsed") and the X_C of each contraction ("contracted"),
    each built in one pass, each complex a collapse reduces as it is
    ("uncollapsed"), the reduction of each of those ("reduced") and each
    cutpoint piece ("piece")."""
    construct, restrict = resolution.resolution_from_images, hierarchy._restrict_resolution
    draw, collapse, split = hierarchy.tracks_from_resolution, hierarchy.split_collapse, hierarchy._cutpoint_pieces
    contract, reduce = hierarchy.contract, tracks.reduce_with_map

    def constructed(*args, **kwargs):
        built.made.append(construct(*args, **kwargs))
        return built.made[-1]

    def restricted_to(res, sub_x):
        built.restricted.append((res, sub_x, restrict(res, sub_x)))
        return built.restricted[-1][2]

    def drawn(res):
        built.track_systems.append(draw(res))
        return built.track_systems[-1]

    def collapsed(ts, groups):
        built.track_systems.append(ts)
        if not ts.tracks and not ts.resolution.ideal_vertices():
            built.complexes.append(("uncollapsed", ts.resolution.source, groups.copy()))
        out = collapse(ts, groups)
        if ts.tracks or ts.resolution.ideal_vertices():
            built.complexes.append(("collapsed", out[0], groups.copy()))
        return out

    def contracted(res, groups):
        out = contract(res, groups)
        built.complexes.append(("contracted", out[0], groups.copy()))
        return out

    def reduced(x, groups):
        out = reduce(x, groups)
        built.complexes.append(("reduced", out[0], groups.copy()))
        return out

    def pieces(nid, x, groups, taken):
        out = split(nid, x, groups, taken)
        built.complexes.extend(("piece", sub, groups.copy()) for _gid, sub in (out or {}).values())
        return out

    m.setattr(resolution, "resolution_from_images", constructed)
    m.setattr(hierarchy, "_restrict_resolution", restricted_to)
    m.setattr(hierarchy, "tracks_from_resolution", drawn)
    m.setattr(hierarchy, "split_collapse", collapsed)
    m.setattr(hierarchy, "contract", contracted)
    m.setattr(tracks, "reduce_with_map", reduced)
    m.setattr(hierarchy, "_cutpoint_pieces", pieces)


def built_lists():
    return SimpleNamespace(made=[], restricted=[], track_systems=[], complexes=[])


@functools.cache
def seed1(workload):
    """One run of the seed-1 ops of ``workload``: each (op, report), each
    collapse's (track system, copy of the group table) as it was called,
    what the passdown built (``record_built``; it holds the cutpoint
    pieces, so that their ids stay their own), and the work counts the
    count pins read."""
    rec = SimpleNamespace(reports=[], collapses=[], counts=Counter(), built=built_lists())
    counts, inside, piece_edges = rec.counts, Counter(), set()
    grows = stability._grows_into_horizon.__code__

    def pieces(*args):
        out = split(*args)
        piece_edges.update(id(sub.edges) for _gid, sub in (out or {}).values())
        return out

    def collapsed(frame, ts, groups):
        rec.collapses.append((ts, groups.copy()))
        return bool(ts.resolution.target.edges)

    def star_classes(x, classes):
        """Vertex -> the classes its star meets (None for a triangle in no
        class), read without deriving ``triangles_by_vertex``."""
        class_of, out = {f: cls.id for cls in classes for f in cls.triangles}, defaultdict(set)
        for f in x.triangles():
            for v in x.face_vertices(f):
                out[v].add(class_of.get(f))
        return out

    def two_class_vertices(frame, x, classes, groups):
        return sum(len(met) > 1 for met in star_classes(x, classes).values())

    def two_class_complexes(frame, x, classes, groups):
        return not class_counts(x, {f: cls.id for cls in classes for f in cls.triangles})["one_class"]

    def inside_of(name):
        return lambda frame, *args: bool(inside[name])

    with pytest.MonkeyPatch.context() as m:
        record_built(m, rec.built)
        split = hierarchy._cutpoint_pieces
        m.setattr(hierarchy, "_cutpoint_pieces", pieces)
        for owner, name in (
            (tracks, "declare_pairs"), (hierarchy, "split_collapse"), (pipeline, "cone_criterion_check"),
            (stability, "stable_classes"),
        ):
            nest(m, inside, owner, name)
        spy(m, counts, tracks, "declare_pairs")
        # the quotient step, wherever it is called from, the reduction of a
        # collapse with nothing to collapse and the validation of a
        # complex, each also counted inside a collapse
        for owner, name in (
            (tracks, "canonical_complex"), (resolution, "canonical_complex"), (complexes, "canonical_complex"),
            (tracks, "reduce_with_map"), (complexes, "_validate_cells"),
        ):
            spy(m, counts, owner, name, **{name: lambda frame, *args: 1, f"{name} in a collapse": inside_of("split_collapse")})
        spy(m, counts, resolution.Resolution, "crossings")
        # the label check, derived once per complex that derives it
        spy(m, counts, Complex2.__dict__["cell_labels_reduced"], "func", cell_labels_reduced=lambda frame, *args: 1)
        spy(m, counts, fixtures, "make_complex", **{"parsed complexes": lambda frame, *args: 1})
        spy(m, counts, Complex2, "__init__", **{"built in a collapse": inside_of("split_collapse")})
        spy(m, counts, graphs, "blocks", blocks=lambda frame, *args: 1, **{
            "blocks on pieces": lambda frame, nodes, edges: id(edges) in piece_edges,
            "blocks in cone checks": inside_of("cone_criterion_check"),
            "blocks in stable_classes": inside_of("stable_classes"),
        })
        spy(m, counts, complexes, "_gf2_rank")
        spy(m, counts, resolution, "reduced_path")
        spy(m, counts, GroupTable, "leq", **{
            "leq": lambda frame, *args: 1,
            "leq in a collapse's declare step": inside_of("declare_pairs"),
            "leq in _grows_into_horizon": lambda frame, *args: frame.f_code is grows,
        })
        spy(m, counts, hierarchy, "split_collapse", collapses=lambda frame, *args: 1, **{
            "collapses over a tree with edges": collapsed,
        })
        spy(m, counts, CellData.__dict__["triangles_by_vertex"], "func", **{
            "triangles_by_vertex in cone checks": inside_of("cone_criterion_check"),
        })
        spy(m, counts, pipeline, "cone_criterion_check", **{
            "vertices whose star meets two classes": two_class_vertices,
            "cone checks meeting two classes": two_class_complexes,
        })
        for op in workloads.generate(workload, 1):
            rec.reports.append((op, run_pipeline(parse_text(op.text), op.pipeline)))
    return rec
