"""Finite 2-dimensional cell complexes with stabilizer-labeled cells.

A Complex2 stores vertices, edges and faces (triangles, plus transient
bigons that only exist between a collapse and the following reduction).
Every cell carries a GroupRef label and an orbit id; the complex is the
quotient-scale picture of a cocompact action, so cells in one orbit share
their label.  "Infinite directions" of the desk-scale complex are modeled
by the ``boundary_marked`` vertex set.

Operations here: reduction to simplicial form, Z2 first cohomology,
covolume (triangle-orbit count), cutpoints, and the reduced cutpoint
tree used to split a complex into cutpoint-free pieces.
"""

import heapq
import operator
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

from . import graphs
from .errors import ConsistencyError, EngineError, FixtureError
from .groups import TRIVIAL, GroupTable


class DisconnectedComplexWarning(UserWarning):
    pass


class CellData:
    """What the cells of a complex determine, whatever their labels: face
    corners, the incidence maps, components, 1-skeleton blocks, the
    cutpoint set, the Z2 boundary rank and whether the cells are stored in
    canonical order.  Each is derived on first use and kept.  Every
    relabelling of a complex shares this object, so a label-only change
    derives none of it again.  Map values are id tuples.  A face's corners
    are the sorted tuple of its vertices, and a vertex pair or triple is
    keyed by its sorted id tuple, the key of the quotient step, so that
    ``reduce_with_map`` hands ``edges_by_pair`` and ``triangles_by_triple``
    to ``canonical_complex`` as they are.  The cells are
    valid: each complex is validated once, where it is parsed
    (``make_complex``), is built valid by construction (by
    ``canonical_complex``, the quotient step of every reduction, of X_T
    and of X_C), or is a piece or relabelling of a valid one.

    A complex built from another starts with what its builder knows.
    ``canonical_complex`` hands on the canonical order, which it builds
    (so ``is_simplicial`` needs no incidence map);
    ``reduce_with_map`` the cutpoints and components its input
    holds, since it joins the same vertex pairs, and the boundary rank of
    a simplicial input, whose cells it keeps; and
    ``hierarchy._cutpoint_pieces`` each piece the canonical order of a
    canonical parent, the parent's blocks that make up the piece, its one
    component and its boundary rank (the wedge argument is in its
    docstring)."""

    def __init__(self, vertices, edges, faces):
        self.vertices, self.edges, self.faces = vertices, edges, faces

    @cached_property
    def face_vertices(self):
        edges = self.edges
        return {fid: tuple(sorted({w for eid in es for w in edges[eid]})) for fid, es in self.faces.items()}

    @cached_property
    def edges_by_pair(self):
        """Sorted pair of vertices -> the edges joining them, in id order."""
        edges, out = self.edges, {}
        get = out.get
        for eid, (u, v) in sorted(edges.items()):
            key = (u, v) if u < v else (v, u)
            out[key] = get(key, ()) + (eid,)
        return out

    @cached_property
    def triangles_by_vertex(self):
        """vertex -> the triangles at it, in face order, corners in sorted order."""
        face_vertices, out = self.face_vertices, {}
        get = out.get
        for fid in self.triangles:
            for v in face_vertices[fid]:
                out[v] = get(v, ()) + (fid,)
        return out

    @cached_property
    def triangles_by_edge(self):
        """edge id -> the triangles on it, in id order (keys first met
        along the triangles in id order)."""
        faces, out = self.faces, {}
        get = out.get
        for fid in sorted(self.triangles):
            for eid in faces[fid]:
                out[eid] = get(eid, ()) + (fid,)
        return out

    @cached_property
    def triangles_by_triple(self):
        """Sorted triple of vertices -> the triangles spanning them, in id order."""
        face_vertices, out = self.face_vertices, {}
        get = out.get
        for fid in sorted(self.triangles):
            key = face_vertices[fid]
            out[key] = get(key, ()) + (fid,)
        return out

    @cached_property
    def vertex_components(self):
        """Vertex sets of the connected components, by least vertex."""
        return tuple(map(frozenset, graphs.components(self.vertices, self.edges.values())))

    @cached_property
    def skeleton_blocks(self):
        """(vertex set, edge id set) of each block of the 1-skeleton."""
        return tuple((frozenset(vs), frozenset(es)) for vs, es in graphs.blocks(self.vertices, self.edges))

    @cached_property
    def cutpoints(self):
        """The vertices lying in two or more blocks of the 1-skeleton."""
        return frozenset(graphs.cut_vertices(self.skeleton_blocks))

    @cached_property
    def boundary_rank(self):
        """Rank over Z2 of the face-to-edge boundary matrix."""
        bit = {eid: 1 << i for i, eid in enumerate(self.edges)}.__getitem__
        return _gf2_rank(sum(map(bit, es)) for es in self.faces.values())

    @cached_property
    def is_canonical(self):
        """Simplicial, with edges and triangles stored in canonical order
        (by sorted vertex pair, resp. triple) with their canonical ends and
        sides: the cell part of ``Complex2.is_reduced``.

        One pass, stopping at the first cell out of place: each edge is a
        tuple stored low end first, the pairs strictly increasing in stored
        order; each face is a tuple of sides ``(ab, bc, ac)`` on corners
        ``a < b < c``, the triples strictly increasing in stored order.
        Strict increase leaves one edge per pair and one triangle per
        triple, and three sides leave no bigon, so this is simplicial."""
        edges, last = self.edges, ()
        for ends in edges.values():
            if not isinstance(ends, tuple) or not ends[0] < ends[1] or ends <= last:
                return False
            last = ends
        last = ()
        for es in self.faces.values():
            if not isinstance(es, tuple) or len(es) != 3:
                return False
            (a, b), (b2, c) = edges[es[0]], edges[es[1]]
            if b2 != b or edges[es[2]] != (a, c) or (a, b, c) <= last:
                return False
            last = (a, b, c)
        return True

    @cached_property
    def triangles(self):
        """The triangle ids, in face order."""
        return tuple(fid for fid, es in self.faces.items() if len(es) == 3)

    def is_simplicial(self):
        """No bigons, one edge per vertex pair and one triangle per vertex
        triple: only then does every face count as a distinct triple.  A
        held canonical order answers it without the incidence maps."""
        return self.__dict__.get("is_canonical") or (
            len(self.edges_by_pair) == len(self.edges) and len(self.triangles_by_triple) == len(self.faces)
        )


@dataclass(frozen=True)
class Complex2:
    """Cell data (``vertices``, ``edges``, ``faces``) and cell labels.

    Cell-derived values (face corners, the incidence maps, components,
    1-skeleton blocks, cutpoints, the Z2 boundary rank and the canonical
    order of the cells) live in ``cell_data``, derived on first use and
    kept.  Label-reading values are kept per complex: ``is_reduced``,
    whose label part checks the ``stab_plus`` keys and one label per
    orbit, ``first_cell_by_label`` and ``covolume``.  No code writes a cell
    dict after construction (``make_complex`` fills in labels before it).
    ``relabel`` changes only ``stab_plus`` and shares the rest: the cell
    data, the covolume, and of ``is_reduced`` the part that reads ``stab``
    and ``orbit``.
    """

    vertices: frozenset
    edges: dict  # edge id -> (u, v), u != v
    faces: dict  # face id -> tuple of edge ids (3 = triangle, 2 = bigon)
    stab: dict  # cell id -> group id
    orbit: dict  # cell id -> orbit id
    boundary_marked: frozenset = frozenset()
    stab_plus: dict = field(default_factory=dict)  # edge id -> oriented stabilizer label

    @cached_property
    def cell_data(self):
        return CellData(self.vertices, self.edges, self.faces)

    def relabel(self, stab_plus):
        """This complex with the oriented labels ``stab_plus``.  Every other
        field is the same object, and the copy shares the cell data,
        ``first_cell_by_label``, ``cell_labels_reduced`` and ``covolume``,
        so nothing the cells, ``stab`` or ``orbit`` determine is derived
        again."""
        out = object.__new__(Complex2)  # every field in one update, not one frozen-dataclass setattr each
        out.__dict__.update({name: getattr(self, name) for name in _SHARED_BY_RELABEL}, stab_plus=stab_plus)
        return out

    def face_vertices(self, fid):
        return self.cell_data.face_vertices[fid]

    @cached_property
    def is_reduced(self):
        """True when ``reduce_with_map`` would give back an equal complex
        under the identity cell map: the cells are canonical (simplicial,
        edges and triangles stored in canonical order with their canonical
        ends and sides; kept in the cell data), and the labels give one
        label per orbit, an oriented label on every edge and labels on the
        cells only."""
        return self.cell_data.is_canonical and self.stab_plus.keys() == self.edges.keys() and self.cell_labels_reduced

    @cached_property
    def cell_labels_reduced(self):
        """The part of ``is_reduced`` that reads ``stab`` and ``orbit``:
        labels and orbits on the cells only, one label per orbit.

        Handed True by validation when each orbit holds one cell, else
        derived once by it.  What is built from a checked complex is handed
        it, True: a cutpoint piece of a complex that holds it (the piece
        copies a subset of its cells and their labels), and a reduction, X_T or X_C
        (``canonical_complex``, their one quotient step, labels each cell
        it keeps by the class of its orbit); a relabelling shares it."""
        cells = self.cells()
        label = {}
        return self.stab.keys() == self.orbit.keys() == set(cells) and all(
            label.setdefault(self.orbit[c], self.stab[c]) == self.stab[c] for c in cells
        )

    @cached_property
    def covolume(self):
        """Number of triangle orbits."""
        return len({self.orbit[fid] for fid in self.triangles()})

    @cached_property
    def first_cell_by_label(self):
        """Each distinct cell label -> the first cell carrying it, in
        ``cells()`` order: a check of every cell label that stops at the
        first failing cell needs to look at these cells only."""
        out = {}
        for cell in self.cells():
            out.setdefault(self.stab[cell], cell)
        return out

    def triangles(self):
        return self.cell_data.triangles

    def bigons(self):
        return [fid for fid, es in self.faces.items() if len(es) == 2]

    def is_simplicial(self):
        return self.cell_data.is_simplicial()

    def edge_stab_plus(self, eid):
        return self.stab_plus.get(eid, self.stab[eid])

    def cells(self):
        """Every cell id: the vertices in sorted order, then the edges and
        the faces in stored order."""
        return [*sorted(self.vertices), *self.edges, *self.faces]


_SHARED_BY_RELABEL = (
    "vertices", "edges", "faces", "stab", "orbit", "boundary_marked", "cell_data", "first_cell_by_label",
    "cell_labels_reduced", "covolume",
)
for _name in (
    "edges_by_pair", "triangles_by_vertex", "triangles_by_edge", "triangles_by_triple", "vertex_components", "skeleton_blocks",
    "boundary_rank",
):  # the cell-derived values, read off the shared cell data
    setattr(Complex2, _name, property(operator.attrgetter("cell_data." + _name)))


def make_complex(vertices, edges, faces, stab=None, orbit=None, boundary_marked=(), stab_plus=None, groups=None):
    """Build and validate a Complex2 on the dicts as given, not copied (but
    ``faces`` where a face is no tuple), its labels ``filled``."""
    vertices = frozenset(vertices)
    if not all(map(isinstance, faces.values(), repeat(tuple))):
        faces = {fid: tuple(es) for fid, es in faces.items()}
    cells = [*sorted(vertices), *edges, *faces]
    x = Complex2(vertices, edges, faces, filled(stab, cells, TRIVIAL), filled(orbit, cells), frozenset(boundary_marked), stab_plus or {})
    validate_complex(x, groups)
    return x


def filled(labels, cells, default=None):
    """``labels`` with a label on each of ``cells``, ``default`` or else
    the cell itself, filled in place, or made in one pass when empty."""
    if not labels:
        return dict.fromkeys(cells, default) if default else dict(zip(cells, cells))
    for cell in cells:
        labels.setdefault(cell, default or cell)
    return labels


def validate_complex(x, groups=None):
    """The one full check of a complex read from a fixture: its cells,
    and over ``groups`` its label references, containments and orbits
    (label, kind and shape).  Each check decides a valid complex by
    whole-set tests, and only when one fails walks the cells in its order,
    so that the error names the first failing cell, as
    ``FixtureError.cell`` too."""
    _validate_cells(x)
    if groups is not None:
        _validate_label_refs(x, groups)
        _validate_containments(x, groups)
        _validate_orbit_labels(x)


def _validate_cells(x):
    vertices, edges, faces = x.vertices, x.edges, x.faces
    if len(vertices.union(edges, faces)) < len(vertices) + len(edges) + len(faces):
        ids = set()
        for cell in x.cells():
            if cell in ids:
                raise FixtureError(f"cell id {cell!r} is not unique across vertices/edges/faces", cell=cell)
            ids.add(cell)
    if not vertices.issuperset(chain.from_iterable(edges.values())) or edges and any(map(operator.eq, *zip(*edges.values()))):
        for eid, (u, v) in edges.items():
            if u == v:
                raise FixtureError(f"edge {eid!r} is a loop", cell=eid)
            for w in (u, v):
                if w not in vertices:
                    raise FixtureError(f"edge {eid!r} references missing vertex {w!r}", cell=eid)
    if not _faces_close(x):
        for fid, es in faces.items():
            if len(es) not in (2, 3):
                raise FixtureError(f"face {fid!r} must be a triangle or a bigon", cell=fid)
            for eid in es:
                if eid not in edges:
                    raise FixtureError(f"face {fid!r} references missing edge {eid!r}", cell=fid)
            if len(es) != len(set(es)):
                raise FixtureError(f"face {fid!r} repeats an edge", cell=fid)
        # every face's references hold before the face corners are first built
        for fid, es in faces.items():
            if len(es) == 2:
                if frozenset(edges[es[0]]) != frozenset(edges[es[1]]):
                    raise FixtureError(f"bigon {fid!r} edges do not share both endpoints", cell=fid)
            elif len(x.face_vertices(fid)) != 3:
                raise FixtureError(f"triangle {fid!r} does not close up on 3 vertices", cell=fid)
            # on three vertices, the sides close up when they join three distinct pairs
            elif len({frozenset(edges[eid]) for eid in es}) != 3:
                raise FixtureError(f"triangle {fid!r} edges do not close up combinatorially", cell=fid)
    for w in x.boundary_marked:
        if w not in vertices:
            raise FixtureError(f"boundary mark on missing vertex {w!r}", cell=w)


def _faces_close(x):
    """Whether each face is a triangle on three vertex pairs or a bigon on
    one, by a pass handing the face corners to the cell data.  No edge
    is a loop, so a triangle's sides join three pairs of its three corners
    when its first two ends are each met twice along them."""
    edges, face_vertices = x.edges, {}
    try:
        for fid, es in x.faces.items():
            ends = (*edges[es[0]], *edges[es[1]], *edges[es[-1]])
            corners = face_vertices[fid] = tuple(sorted(set(ends)))
            if not (
                len(es) == 3 == len(corners) and ends.count(ends[0]) == 2 == ends.count(ends[1])
                or len(es) == 2 == len(corners) and es[0] != es[1]
            ):
                return False
    except (KeyError, IndexError):  # a missing side, or a face of fewer than two
        return False
    x.cell_data.__dict__.setdefault("face_vertices", face_vertices)
    return True


def _validate_label_refs(x, groups: GroupTable):
    # each distinct label is looked up once, at its first cell
    if not all(map(groups.__contains__, set(x.stab.values()))):
        for label, cell in x.first_cell_by_label.items():
            if label not in groups:
                raise FixtureError(f"unknown group id {label!r}", cell=cell)
    for eid, label in x.stab_plus.items():
        if eid not in x.edges:
            raise FixtureError(f"stab+ label on missing edge {eid!r}", cell=eid)
        if label not in groups:
            raise FixtureError(f"unknown group id {label!r}", cell=eid)


def _containments(x):
    """(cell, label, cell above, its label) for each containment, in the
    one order that the containment check and ``declare_containments``
    walk: each face below its sides and its sorted corners, then each edge
    below its ends."""
    stab = x.stab
    for fid, es in x.faces.items():
        for above in (*es, *x.face_vertices(fid)):
            yield fid, stab[fid], above, stab[above]
    for eid, ends in x.edges.items():
        for w in ends:
            yield eid, stab[eid], w, stab[w]


def _validate_containments(x, groups: GroupTable):
    # each distinct (label, label above) pair is checked once, at its first
    # containment, and none when every label is trivial
    if set(x.stab.values()) <= {TRIVIAL}:
        return
    checked = set()
    for cell, label, above, label_above in _containments(x):
        if (label, label_above) in checked:
            continue
        checked.add((label, label_above))
        if not groups.leq(label, label_above):
            kind = "face" if cell in x.faces else "edge"
            kind_above = "edge" if above in x.edges else "vertex"
            raise ConsistencyError(
                f"{kind} {cell!r} stabilizer {label!r} not declared inside {kind_above} {above!r} stabilizer", cell=cell
            )


def declare_containments(x, groups: GroupTable):
    """``declare_pairs`` of every containment of ``x``, in ``_containments``
    order (a repeated pair holds once declared, so each is met once)."""
    declare_pairs(groups, dict.fromkeys((label, above) for _cell, label, _above, above in _containments(x)))


def declare_pairs(groups: GroupTable, pairs):
    """Declare label <= label above wherever it does not hold yet, for
    each (label, label above) of ``pairs`` in order."""
    for label, label_above in pairs:
        if not groups.leq(label, label_above):
            groups.declare_leq(label, label_above)


def _validate_orbit_labels(x):
    # one label per orbit, matching incidence shape, cells of one kind per
    # orbit, one shape per face orbit: all met by orbits of one cell each;
    # else the one-pass check of ``cell_labels_reduced`` decides the labels,
    # and per-orbit label sets are built only to word an error
    cells = x.vertices.union(x.edges, x.faces)
    if x.orbit.keys() == cells and len(set(x.orbit.values())) == len(cells):
        if x.stab.keys() == cells:
            x.__dict__.setdefault("cell_labels_reduced", True)
        return
    if not x.cell_labels_reduced:
        check_orbit_labels(x.cells(), x.stab, x.orbit)
    check_orbit_shapes(x.orbit, vertex=x.vertices, edge=x.edges, face=x.faces)
    check_face_shapes(x)


def check_orbit_shapes(orbit, **cells_by_kind):
    """Raise naming the first edge orbit whose edges join two pairs of
    vertex orbits (at its first edge of the second), then the first orbit
    of two kinds (at its first cell of a later kind): an orbit of a
    cellular action has one kind, and its edges one pair of end orbits."""
    shapes, kind_of = {}, {}
    for eid, (u, v) in cells_by_kind["edge"].items():
        shape = tuple(sorted((orbit[u], orbit[v])))
        if shapes.setdefault(orbit[eid], shape) != shape:
            raise ConsistencyError(f"edges of orbit {orbit[eid]!r} have mismatched endpoint orbits", cell=eid)
    for kind, cells in cells_by_kind.items():
        for cell in cells:
            first = kind_of.setdefault(orbit[cell], kind)
            if first != kind:
                message = f"orbit {orbit[cell]!r} holds cells of two kinds: {kind} {cell!r} in an orbit of {first} cells"
                raise ConsistencyError(message, cell=cell)


def check_face_shapes(x):
    """Raise naming the first face orbit whose faces differ in their
    multisets of side orbits or of corner orbits, at its first face of the
    second shape: a group element carries a face's sides and corners onto
    those of its image (Bridson & Haefliger 1999, III.C).  It is the last
    check of ``validate_complex``, made when an orbit holds two cells and
    after ``check_orbit_shapes`` has given each edge orbit one pair of end
    orbits.  Each corner of a face lies on two of its sides, so its corner
    orbits are half the end orbits of its side orbits, and only the side
    orbits are compared, keyed by their sorted tuple."""
    orbit, shapes = x.orbit, {}
    for fid, es in x.faces.items():
        shape = tuple(sorted(map(orbit.__getitem__, es)))
        if shapes.setdefault(orbit[fid], shape) != shape:
            raise ConsistencyError(f"faces of orbit {orbit[fid]!r} have mismatched side or corner orbits", cell=fid)


def check_orbit_labels(cells, stab, orbit):
    """Raise naming the first orbit, in the order of ``cells``, whose
    cells carry several labels, and its first cell whose label differs
    from the orbit's first."""
    per_orbit, second = defaultdict(set), {}
    for cell in cells:
        labels = per_orbit[orbit[cell]]
        labels.add(stab[cell])
        if len(labels) > 1:
            second.setdefault(orbit[cell], cell)
    for oid, labels in per_orbit.items():
        if len(labels) > 1:
            raise ConsistencyError(f"orbit {oid!r} carries several stabilizer labels: {sorted(labels)}", cell=second[oid])


def components(x: Complex2):
    """Connected components of the complex, as a list of vertex sets."""
    return list(x.vertex_components)


def is_connected(x: Complex2) -> bool:
    return len(x.vertex_components) <= 1


def _gf2_rank(rows):
    """Rank over Z2 of bitmask rows: each row is reduced against a basis
    keyed by leading bit until it is zero or brings a new leading bit."""
    basis = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def h1_z2(x: Complex2) -> int:
    """dim H^1(X, Z2), from the rank of the Z2 boundary matrix.

    Works for simplicial complexes and for the transient triangle/bigon
    cell complexes that appear between a collapse and its reduction.
    Disconnected input is summed per component, with a warning.
    """
    n_comp = len(x.vertex_components)
    if n_comp > 1:
        warnings.warn("h1_z2 on a disconnected complex; summing components", DisconnectedComplexWarning)
    value = len(x.edges) - len(x.vertices) + n_comp - x.boundary_rank
    if value < 0:
        raise EngineError("negative h1 rank: boundary bookkeeping is broken")
    return value


def covolume(x: Complex2) -> int:
    """Number of triangle orbits, kept on ``x``."""
    return x.covolume


# ---------------------------------------------------------------------------
# reduction


def reduce_complex(x: Complex2, groups: GroupTable) -> Complex2:
    """Simplicial reduction: keep the vertex set, one edge per vertex pair,
    one triangle per vertex triple; bigons disappear.

    Labels and orbits are induced: merged cells in corresponding orbits are
    re-labeled together so the quotient picture stays consistent.  Covolume
    cannot increase.
    """
    out, _ = reduce_with_map(x, groups)
    return out


def reduce_with_map(x: Complex2, groups: GroupTable):
    """reduce_complex plus the cell map (collapsed bigons map to None):
    the incidence maps of ``x``, its edges by sorted vertex pair and its
    triangles by sorted vertex triple, handed as they are to the quotient
    step ``canonical_complex``, which reads them only.

    The reduction of a valid complex is valid, so it is not validated: its
    cells are canonical, its labels are labels of ``x`` or minted, one per
    merged orbit class, and merged edge orbits join the same vertex
    orbits.  Its cell data starts with what the quotient step builds.  It
    keeps every vertex and joins the same vertex pairs, so the cutpoints
    and components of ``x`` are its own; they are handed on when ``x``
    holds them already.  A simplicial ``x`` keeps its very cells, so its
    boundary rank is handed on too."""
    cell_map, by_pair, by_triple = {v: v for v in x.vertices}, x.edges_by_pair, x.triangles_by_triple
    for ids in chain(by_pair.values(), by_triple.values()):
        cell_map.update(dict.fromkeys(ids, ids[0]))
    for fid in x.bigons():
        cell_map[fid] = None
    out = canonical_complex(x.vertices, by_pair, by_triple, x.stab, x.orbit, x.stab_plus, x.boundary_marked, groups)
    held = x.cell_data.__dict__
    kept = ("cutpoints", "vertex_components") + (("boundary_rank",) if x.is_simplicial() else ())
    out.cell_data.__dict__.update((name, held[name]) for name in kept if name in held)
    return out, cell_map


def canonical_complex(vertices, edges_at, faces_at, stab, orbit, stab_plus, boundary_marked, groups: GroupTable):
    """The one quotient step, of every reduction and of X_T: the simplicial
    complex on ``vertices`` with one edge on each sorted vertex pair of
    ``edges_at`` and one triangle on each sorted vertex triple of
    ``faces_at``, its sides the edges on its three pairs, stored in
    canonical order.  Each key maps to the source cells on it, in id
    order; ``stab`` and ``orbit`` label the vertices and every source cell,
    and an edge's oriented label is its entry in ``stab_plus``, else its
    label.

    Each pair or triple keeps its least id, and the orbits of the cells it
    merges are unioned into classes, each named by its least orbit.  A
    class whose cells carry several labels gets a fresh ``red`` label,
    minted in class order; then an edge whose cells carry several oriented
    labels gets a fresh ``red.plus`` above them, in id order.  Every other
    cell keeps its label, the one label of its class, so each containment
    of the complex is one between source cells, which holds (the caller
    declares what its sources need); they are declared here only when a
    class label is minted.

    The cell data starts with the canonical order, which this builds; the
    incidence maps are derived where read.  Each cell is labelled by its
    class, so the complex is handed ``cell_labels_reduced`` True."""
    merged = [ids for at in (edges_at, faces_at) for ids in at.values() if len(ids) > 1]
    uf = graphs.UnionFind()
    for ids in merged:
        for cell in ids[1:]:
            uf.union(orbit[ids[0]], orbit[cell])
    class_of = {o: uf.find(o) for o in uf.parent}
    # the first label met in each class, and the classes that meet another:
    # on the cells merged away here, on the kept ones as they are labelled
    first, several = {}, set()
    for ids in merged:
        for cell in ids[1:]:
            cls, label = class_of[orbit[cell]], stab[cell]
            if first.setdefault(cls, label) != label:
                several.add(cls)
    edges, faces, sources = {}, {}, {}
    for key in sorted(edges_at):
        ids = edges_at[key]
        eid = ids[0]
        edges[eid] = key
        if len(ids) > 1:
            sources[eid] = ids
    for a, b, c in sorted(faces_at):
        fid = faces_at[(a, b, c)][0]
        faces[fid] = (edges_at[(a, b)][0], edges_at[(b, c)][0], edges_at[(a, c)][0])
    out_stab, out_orbit = {}, {}
    for cell in sorted([*vertices, *edges, *faces]):
        o, label = orbit[cell], stab[cell]
        cls = out_orbit[cell] = class_of.get(o, o)
        out_stab[cell] = label
        if first.setdefault(cls, label) != label:
            several.add(cls)
    out_plus, plus_several = {}, []
    for eid in sorted(edges):
        out_plus[eid] = stab_plus.get(eid, stab[eid])
        if eid in sources:
            labels = sorted({stab_plus.get(cell, stab[cell]) for cell in sources[eid]})
            if len(labels) > 1:
                plus_several.append((eid, labels))
    class_ref = {cls: groups.mint("red").id for cls in sorted(several)}
    if class_ref:
        out_stab.update((cell, class_ref[cls]) for cell, cls in out_orbit.items() if cls in class_ref)
    for eid, labels in plus_several:
        ref = out_plus[eid] = groups.mint("red.plus").id
        for old in labels:
            groups.declare_leq(old, ref)
    out = Complex2(
        vertices=vertices, edges=edges, faces=faces, stab=out_stab, orbit=out_orbit,
        boundary_marked=boundary_marked, stab_plus=out_plus,
    )
    out.cell_data.__dict__["is_canonical"] = True
    out.__dict__["cell_labels_reduced"] = True
    if class_ref:
        declare_containments(out, groups)
    return out


def fresh_separator(taken, minted, sep):
    """``sep`` with its first character repeated until no id that
    ``minted(sep)`` yields is in the set ``taken`` (for a surgery step on a
    complex, its cell and orbit ids), so that the ids a step names with it
    are new.  Every minted id contains ``sep``, so when no taken id does,
    ``sep`` is returned without minting any."""
    if not any(sep in cid for cid in taken):
        return sep
    while not taken.isdisjoint(minted(sep)):
        sep += sep[0]
    return sep


# ---------------------------------------------------------------------------
# cutpoints and cutpoint trees


def cutpoints(x: Complex2):
    """Vertices whose removal (with open star) disconnects the complex.

    For a 2-complex these are the articulation vertices of the 1-skeleton:
    the vertices lying in two or more of its blocks.
    """
    return set(x.cell_data.cutpoints)


def _block_cells(x: Complex2):
    """Cell sets of the blocks of the 1-skeleton (maximal cutpoint-free
    subcomplexes), closed under subcells: each face joins the block of its
    edges, which a triangle or bigon never straddles."""
    out, block_of = [], {}
    for i, (verts, eids) in enumerate(x.skeleton_blocks):
        out.append(set(verts | eids))
        block_of.update(dict.fromkeys(eids, i))
    for fid, es in x.faces.items():
        i = block_of[es[0]]
        if any(block_of[e] != i for e in es[1:]):
            raise EngineError(f"face {fid!r} straddles blocks")
        out[i].add(fid)
    return out


@dataclass(frozen=True)
class CutpointTree:
    """Bipartite tree of cutpoint-free pieces (part A) and cut vertices
    (part B), edges by inclusion."""

    comp_nodes: tuple
    cut_nodes: tuple
    edges: tuple  # (comp node id, cut vertex id)
    node_stab: dict
    node_orbit: dict
    comp_cells: dict  # comp node id -> frozenset of cell ids

    def is_tree(self):
        return graphs.is_tree(self.comp_nodes + self.cut_nodes, self.edges)


def _block_orbit_signature(x, cells):
    """The multiset of (kind, orbit) over ``cells``."""
    faces, edges, orbit = x.faces, x.edges, x.orbit
    return frozenset(Counter((c in faces, c in edges, orbit[c]) for c in cells).items())


def reduced_cutpoint_tree(x: Complex2, groups: GroupTable) -> CutpointTree:
    """B'_X: the bipartite tree of cutpoint-free pieces and cut vertices,
    with every non-slender cut vertex merged into the blocks it joins.

    Requires a connected complex with h1_z2 = 0.  The blocks of the
    1-skeleton are named ``C<i>`` in the order of their sorted cell names
    (``CC<i>``, and so on, when that is a vertex id).  Two blocks share at
    most one cell, a cut vertex, and each of several holds an edge and its
    ends, so their two least names differ and decide that order.  A piece
    is the union of the blocks joined through non-slender cut vertices,
    named by its least member (block or merged cut vertex).  Every piece
    gets one fresh ref, H-elliptic when it merged cut vertices and all
    their labels are.  Slender cut vertices stay nodes with their own
    label, joined to each piece that contains them.  Pieces with one
    multiset of (cell kind, orbit) share an orbit, and the triangles of one
    orbit must lie in pieces of one orbit: anything else is malformed
    quotient data.
    """
    if not is_connected(x):
        raise FixtureError("cutpoint tree needs a connected complex")
    if h1_z2(x) != 0:
        raise FixtureError("cutpoint tree needs h1_z2 = 0")
    cuts = sorted(x.cell_data.cutpoints)
    slender = {v for v in cuts if groups.slender(x.stab[v])}
    uf = graphs.UnionFind()
    blocks, incidences = {}, []
    ordered = sorted(_block_cells(x), key=lambda c: heapq.nsmallest(2, map(str, c)))
    # blocks and vertices share one node namespace
    prefix = fresh_separator(x.vertices, lambda p: (f"{p}{i}" for i in range(len(ordered))), "C")
    for i, cells in enumerate(ordered):
        bid = f"{prefix}{i}"
        blocks[bid] = cells
        uf.find(bid)
        for v in cells.intersection(cuts):
            if v in slender:
                incidences.append((bid, v))
            else:
                uf.union(bid, v)

    comp_cells, node_stab, node_orbit, sig_orbit = {}, {}, {}, {}
    for rep, members in uf.classes().items():
        merged = [x.stab[m] for m in members if m not in blocks]
        comp_cells[rep] = frozenset().union(*(blocks[m] for m in members if m in blocks))
        node_stab[rep] = groups.mint("blk", h_elliptic=bool(merged) and all(map(groups.h_elliptic, merged))).id
        sig = _block_orbit_signature(x, comp_cells[rep])
        node_orbit[rep] = sig_orbit.setdefault(sig, rep)
    for v in sorted(slender):
        node_stab[v] = x.stab[v]
        node_orbit[v] = x.orbit[v]
    tree = CutpointTree(
        comp_nodes=tuple(comp_cells),
        cut_nodes=tuple(sorted(slender)),
        edges=tuple(sorted({(uf.find(bid), v) for bid, v in incidences})),
        node_stab=node_stab,
        node_orbit=node_orbit,
        comp_cells=comp_cells,
    )
    if not tree.is_tree():
        raise EngineError("reduced cutpoint tree failed the tree check")
    # the split counts a triangle orbit once per orbit of pieces holding it
    piece_orbit = {fid: node_orbit[rep] for rep, cells in comp_cells.items() for fid in cells if fid in x.faces}
    held = {}
    for fid in x.triangles():
        if held.setdefault(x.orbit[fid], piece_orbit[fid]) != piece_orbit[fid]:
            raise ConsistencyError(f"triangle orbit {x.orbit[fid]!r} lies in cutpoint-free pieces of different orbits")
    return tree

