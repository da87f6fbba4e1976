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

import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from . import graphs
from .errors import ConsistencyError, EngineError, FixtureError
from .groups import TRIVIAL, GroupTable


class DisconnectedComplexWarning(UserWarning):
    pass


class CellData:
    """What the cells of a complex determine, whatever their labels: face
    vertex sets, the incidence maps, components, 1-skeleton blocks, the
    cutpoint set, the Z2 boundary rank and whether the cells are stored in
    canonical order.  Each is derived on first use and kept.  Every
    relabelling of a complex shares this object, so a label-only change
    derives none of it again.  Map values are id tuples.  The cells are
    valid: each complex is validated once, where it is built
    (``make_complex``, ``finish_collapse``), or is the reduction, piece or
    relabelling of a valid one."""

    def __init__(self, vertices, edges, faces):
        self.vertices, self.edges, self.faces = vertices, edges, faces

    @cached_property
    def face_vertices(self):
        edges = self.edges
        return {fid: frozenset(w for eid in es for w in edges[eid]) for fid, es in self.faces.items()}

    @cached_property
    def edges_by_pair(self):
        """frozenset of two vertices -> the edges joining them, in id order."""
        return _grouped((frozenset(self.edges[eid]), eid) for eid in sorted(self.edges))

    @cached_property
    def triangles_by_vertex(self):
        """vertex -> the triangles at it, in face order."""
        return _grouped((v, fid) for fid in self.triangles for v in self.face_vertices[fid])

    @cached_property
    def triangles_by_edge(self):
        """edge id -> the triangles on it, in id order (keys first met
        along the triangles in id order)."""
        return _grouped((eid, fid) for fid in sorted(self.triangles) for eid in self.faces[fid])

    @cached_property
    def triangles_by_triple(self):
        """frozenset of three vertices -> the triangles spanning them, in id order."""
        return _grouped((self.face_vertices[fid], fid) for fid in sorted(self.triangles))

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
        bit = {eid: 1 << i for i, eid in enumerate(self.edges)}
        return _gf2_rank(sum(bit[eid] for eid in es) for es in self.faces.values())

    @cached_property
    def is_canonical(self):
        """Simplicial, with edges and triangles stored in canonical order
        (by sorted vertex pair, resp. triple) with their canonical ends and
        sides: the cell part of ``Complex2.is_reduced``."""
        if not self.is_simplicial():
            return False
        by_pair, by_triple = self.edges_by_pair, self.triangles_by_triple

        def edge(u, v):
            return by_pair[frozenset((u, v))][0]

        return (
            list(self.edges.items()) == [(edge(u, v), (u, v)) for u, v in sorted(map(sorted, by_pair))]
            and list(self.faces.items())
            == [
                (by_triple[frozenset((a, b, c))][0], (edge(a, b), edge(b, c), edge(a, c)))
                for a, b, c in sorted(map(sorted, by_triple))
            ]
        )

    @cached_property
    def triangles(self):
        """The triangle ids, in face order."""
        return tuple(fid for fid, es in self.faces.items() if len(es) == 3)

    def is_simplicial(self):
        """No bigons, one edge per vertex pair and one triangle per vertex
        triple: only then does every face count as a distinct triple."""
        return len(self.edges_by_pair) == len(self.edges) and len(self.triangles_by_triple) == len(self.faces)


@dataclass(frozen=True)
class Complex2:
    """Cell data (``vertices``, ``edges``, ``faces``) and cell labels.

    Cell-derived values (face vertex sets, the incidence maps, components,
    1-skeleton blocks, cutpoints, the Z2 boundary rank and the canonical
    order of the cells) live in ``cell_data``, derived on first use and
    kept.  Label-reading values are kept per complex: ``is_reduced``,
    whose label part checks the ``stab_plus`` keys and one label per
    orbit, ``first_cell_by_label`` and ``covolume``.  No code writes a cell
    dict after construction (``make_complex`` fills in only labels).
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
        out = Complex2(
            vertices=self.vertices,
            edges=self.edges,
            faces=self.faces,
            stab=self.stab,
            orbit=self.orbit,
            boundary_marked=self.boundary_marked,
            stab_plus=stab_plus,
        )
        out.__dict__.update(
            cell_data=self.cell_data,
            first_cell_by_label=self.first_cell_by_label,
            cell_labels_reduced=self.cell_labels_reduced,
            covolume=self.covolume,
        )
        return out

    def face_vertices(self, fid):
        return self.cell_data.face_vertices[fid]

    # the cell-derived values, read off the shared cell data
    @property
    def edges_by_pair(self):
        return self.cell_data.edges_by_pair

    @property
    def triangles_by_vertex(self):
        return self.cell_data.triangles_by_vertex

    @property
    def triangles_by_edge(self):
        return self.cell_data.triangles_by_edge

    @property
    def triangles_by_triple(self):
        return self.cell_data.triangles_by_triple

    @property
    def vertex_components(self):
        return self.cell_data.vertex_components

    @property
    def skeleton_blocks(self):
        return self.cell_data.skeleton_blocks

    @property
    def boundary_rank(self):
        return self.cell_data.boundary_rank

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
        labels and orbits on the cells only, one label per orbit."""
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
        out = sorted(self.vertices)
        out.extend(self.edges)
        out.extend(self.faces)
        return out


def _grouped(pairs):
    """{key: tuple of ids} from (key, id) pairs, keeping their order."""
    out = defaultdict(list)
    for key, cid in pairs:
        out[key].append(cid)
    return {key: tuple(ids) for key, ids in out.items()}


def make_complex(vertices, edges, faces, stab=None, orbit=None, boundary_marked=(), stab_plus=None, groups=None):
    """Build and validate a Complex2; missing labels default to the trivial
    group and singleton orbits."""
    stab = dict(stab or {})
    orbit = dict(orbit or {})
    x = Complex2(
        vertices=frozenset(vertices),
        edges=dict(edges),
        faces={fid: tuple(es) for fid, es in dict(faces).items()},
        stab=stab,
        orbit=orbit,
        boundary_marked=frozenset(boundary_marked),
        stab_plus=dict(stab_plus or {}),
    )
    for cell in x.cells():
        stab.setdefault(cell, TRIVIAL)
        orbit.setdefault(cell, cell)
    validate_complex(x, groups)
    return x


def validate_complex(x, groups=None):
    """The one full check of a complex read from a fixture: its cells,
    and over ``groups`` its label references, containments and orbit
    labels.  The containment check and the declare step of
    ``wire_and_validate`` walk one generator, ``_containments``: each face
    below its sides and its sorted corners, then each edge below its
    ends."""
    _validate_cells(x)
    if groups is not None:
        _validate_label_refs(x, groups)
        _validate_containments(x, groups)
        _validate_orbit_labels(x)


def _validate_cells(x):
    ids = set()
    for cell in x.cells():
        if cell in ids:
            raise FixtureError(f"cell id {cell!r} is not unique across vertices/edges/faces")
        ids.add(cell)
    for eid, (u, v) in x.edges.items():
        if u == v:
            raise FixtureError(f"edge {eid!r} is a loop")
        for w in (u, v):
            if w not in x.vertices:
                raise FixtureError(f"edge {eid!r} references missing vertex {w!r}")
    for fid, es in x.faces.items():
        if len(es) not in (2, 3):
            raise FixtureError(f"face {fid!r} must be a triangle or a bigon")
        for eid in es:
            if eid not in x.edges:
                raise FixtureError(f"face {fid!r} references missing edge {eid!r}")
        if len(es) != len(set(es)):
            raise FixtureError(f"face {fid!r} repeats an edge")
    # every face's references hold before the face vertex sets are first built
    for fid, es in x.faces.items():
        if len(es) == 2:
            if frozenset(x.edges[es[0]]) != frozenset(x.edges[es[1]]):
                raise FixtureError(f"bigon {fid!r} edges do not share both endpoints")
        else:
            verts = x.face_vertices(fid)
            if len(verts) != 3:
                raise FixtureError(f"triangle {fid!r} does not close up on 3 vertices")
            # on three vertices, the sides close up when they join three distinct pairs
            if len({frozenset(x.edges[eid]) for eid in es}) != 3:
                raise FixtureError(f"triangle {fid!r} edges do not close up combinatorially")
    for w in x.boundary_marked:
        if w not in x.vertices:
            raise FixtureError(f"boundary mark on missing vertex {w!r}")


def _validate_label_refs(x, groups: GroupTable):
    for cell in x.cells():
        groups[x.stab.get(cell, TRIVIAL)]
    for eid in x.stab_plus:
        if eid not in x.edges:
            raise FixtureError(f"stab+ label on missing edge {eid!r}")
        groups[x.stab_plus[eid]]


def _containments(x):
    """(cell, label, cell above, its label) for each face below its sides
    and its corners, corners in sorted order, then each edge below its ends."""
    stab = x.stab
    for fid, es in x.faces.items():
        for above in (*es, *sorted(x.face_vertices(fid))):
            yield fid, stab[fid], above, stab[above]
    for eid, ends in x.edges.items():
        for w in ends:
            yield eid, stab[eid], w, stab[w]


def _validate_containments(x, groups: GroupTable):
    for cell, label, above, label_above in _containments(x):
        if not groups.leq(label, label_above):
            kind = "face" if cell in x.faces else "edge"
            kind_above = "edge" if above in x.edges else "vertex"
            raise ConsistencyError(
                f"{kind} {cell!r} stabilizer {label!r} not declared inside {kind_above} {above!r} stabilizer"
            )


def _declare_containments(x, groups: GroupTable, pairs=None):
    """Declare label <= label above wherever it does not hold yet, for
    each (label, label above) of ``pairs``, by default of every
    containment of ``x`` in ``_containments`` order."""
    if pairs is None:
        pairs = ((label, label_above) for _cell, label, _above, label_above in _containments(x))
    for label, label_above in pairs:
        if not groups.leq(label, label_above):
            groups.declare_leq(label, label_above)


def _validate_orbit_labels(x):
    # quotient-scale consistency: one label per orbit, matching incidence shape;
    # the one-pass check of ``cell_labels_reduced`` decides a valid complex, and
    # the per-orbit label sets are built only to word an error
    if not x.cell_labels_reduced:
        per_orbit = defaultdict(set)
        for cell in x.cells():
            per_orbit[x.orbit[cell]].add(x.stab[cell])
        for oid, labels in per_orbit.items():
            if len(labels) > 1:
                raise ConsistencyError(f"orbit {oid!r} carries several stabilizer labels: {sorted(labels)}")
    edge_orbit_shape = {}
    for eid, (u, v) in x.edges.items():
        shape = frozenset((x.orbit[u], x.orbit[v]))
        prev = edge_orbit_shape.setdefault(x.orbit[eid], shape)
        if prev != shape:
            raise ConsistencyError(f"edges of orbit {x.orbit[eid]!r} have mismatched endpoint orbits")


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
    """reduce_complex plus the cell map (collapsed bigons map to None).

    The reduction of a valid complex is valid, so it is not validated: its
    cells are canonical, its labels are labels of ``x`` or minted, one per
    merged orbit class, and merged edge orbits join the same vertex orbits.
    Its containments are recorded only when it mints a cell label: every
    other label is the one label of its merged cells in ``x``, and so
    every containment already holds between cells of ``x``.  A simplicial
    ``x`` with ``cell_labels_reduced`` merges and mints nothing: its cell
    map is the identity and its labels are copied.

    The reduction's cell data starts with what the reduction builds: its
    incidence by vertex pair and triple, one id each, and its canonical
    order.  It keeps every vertex and joins the same vertex pairs, so the
    cutpoints and components of ``x`` are its own; they are handed on
    when ``x`` holds them already."""
    edge_groups, tri_groups = x.edges_by_pair, x.triangles_by_triple

    new_edges, edge_image, by_pair = {}, {}, {}
    for key in sorted(edge_groups, key=sorted):
        sources = edge_groups[key]
        rep = sources[0]
        u, v = sorted(key)
        new_edges[rep] = (u, v)
        by_pair[key] = (rep,)
        for src in sources:
            edge_image[src] = rep

    new_faces, face_image, by_triple = {}, {}, {}
    for key in sorted(tri_groups, key=sorted):
        sources = tri_groups[key]
        rep = sources[0]
        vs = sorted(key)
        es = tuple(
            edge_groups[frozenset(p)][0] for p in ((vs[0], vs[1]), (vs[1], vs[2]), (vs[0], vs[2]))
        )
        new_faces[rep] = es
        by_triple[key] = (rep,)
        for src in sources:
            face_image[src] = rep

    cell_map = {v: v for v in x.vertices}
    cell_map.update(edge_image)
    cell_map.update(face_image)
    for fid in x.bigons():
        cell_map[fid] = None

    merge_free = x.is_simplicial() and x.cell_labels_reduced
    if merge_free:
        # the cell map is the identity and every orbit has one label, so
        # ``quotient_labels`` would copy each label, in its order
        order = sorted(cell_map, key=str)
        x_stab, x_orbit, x_plus = x.stab, x.orbit, x.stab_plus
        stab = {c: x_stab[c] for c in order}
        orbit = {c: x_orbit[c] for c in order}
        stab_plus = {c: x_plus.get(c, x_stab[c]) for c in order if c in new_edges}
    else:
        stab, orbit, stab_plus = quotient_labels(x, cell_map, groups, prefix="red")
    out = Complex2(
        vertices=x.vertices,
        edges=new_edges,
        faces=new_faces,
        stab=stab,
        orbit=orbit,
        boundary_marked=x.boundary_marked,
        stab_plus=stab_plus,
    )
    cell_data = CellData(out.vertices, new_edges, new_faces)
    cell_data.__dict__.update(edges_by_pair=by_pair, triangles_by_triple=by_triple, is_canonical=True)
    held = x.cell_data.__dict__
    cell_data.__dict__.update((name, held[name]) for name in ("cutpoints", "vertex_components") if name in held)
    out.__dict__["cell_data"] = cell_data
    if not merge_free and not set(x.stab.values()).issuperset(stab.values()):
        _declare_containments(out, groups)
    return out, cell_map


def wire_and_validate(x: Complex2, groups: GroupTable, pairs=None):
    """Record the face<=edge<=vertex containments of a synthesized complex,
    then validate it.

    Surgery constructions guarantee these containments geometrically (a
    stabilizer of a cell fixes the cells it collapses onto), but freshly
    minted labels do not carry them yet.  Once declared they hold, so the
    validation walks them no more; every other check of
    ``validate_complex`` runs.  ``pairs``, when given, are the (label,
    label above) pairs of the only containments that may not hold yet, in
    ``_containments`` order; by default every containment is walked.
    """
    _declare_containments(x, groups, pairs)
    _validate_cells(x)
    _validate_label_refs(x, groups)
    _validate_orbit_labels(x)


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


def quotient_labels(x: Complex2, cell_map, groups: GroupTable, prefix: str, extra_stab=None):
    """Induce stabilizer/orbit labels along a surjective cell map.

    ``cell_map`` sends source cells to image cells (or None for collapsed
    cells).  Source orbits whose cells land on a common image are merged
    (the quotient of an equivariant collapse); a merged class keeps its
    shared label when it has one and otherwise gets a fresh ref with no
    declared supergroups.
    ``extra_stab`` pre-assigns labels for image cells that have no source
    (collapsed-track points, contracted-component vertices).
    """
    preimages = defaultdict(list)
    for src in sorted(cell_map, key=str):
        img = cell_map[src]
        if img is not None:
            preimages[img].append(src)

    # merge source orbits that share an image anywhere
    uf = graphs.UnionFind()
    find = uf.find
    for srcs in preimages.values():
        first = x.orbit[srcs[0]]
        for src in srcs[1:]:
            uf.union(first, x.orbit[src])

    class_labels = defaultdict(set)
    for src, img in cell_map.items():
        if img is not None:
            class_labels[find(x.orbit[src])].add(x.stab[src])

    class_ref = {}
    for cls in sorted(class_labels):
        labels = sorted(class_labels[cls])
        if len(labels) == 1:
            class_ref[cls] = labels[0]
        else:
            class_ref[cls] = groups.mint(prefix).id

    stab, orbit, stab_plus = dict(extra_stab or {}), {}, {}
    for img, srcs in preimages.items():
        cls = find(x.orbit[srcs[0]])
        orbit[img] = cls
        stab.setdefault(img, class_ref[cls])
        plus = {x.edge_stab_plus(s) for s in srcs if s in x.edges}
        if plus:
            if len(plus) == 1:
                stab_plus[img] = plus.pop()
            else:
                ref = groups.mint(prefix + ".plus")
                for old in plus:
                    groups.declare_leq(old, ref.id)
                stab_plus[img] = ref.id
    for img in stab:
        orbit.setdefault(img, img)
    return stab, orbit, stab_plus


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
    return tuple(sorted((("f" if c in x.faces else "e" if c in x.edges else "v"), x.orbit[c]) for c in cells))


def reduced_cutpoint_tree(x: Complex2, groups: GroupTable) -> CutpointTree:
    """B'_X: the bipartite tree of cutpoint-free pieces and cut vertices,
    with every non-slender cut vertex merged into the blocks it joins.

    Requires a connected complex with h1_z2 = 0.  The blocks of the
    1-skeleton are named ``C<i>`` in order (``CC<i>``, and so on, when
    that is a vertex id); a piece is the union of the
    blocks joined through non-slender cut vertices, named by its least
    member (block or merged cut vertex).  Every piece gets one fresh ref,
    H-elliptic when it merged cut vertices and all their labels are.
    Slender cut vertices stay nodes with their own label, joined to each
    piece that contains them.  The triangles of one orbit must lie in
    pieces of one orbit: anything else is malformed quotient data.
    """
    if not is_connected(x):
        raise FixtureError("cutpoint tree needs a connected complex")
    if h1_z2(x) != 0:
        raise FixtureError("cutpoint tree needs h1_z2 = 0")
    cuts = sorted(x.cell_data.cutpoints)
    slender = {v for v in cuts if groups.slender(x.stab[v])}
    uf = graphs.UnionFind()
    blocks, incidences = {}, []
    ordered = sorted(_block_cells(x), key=lambda c: sorted(map(str, c)))
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


def subcomplex(x: Complex2, cells) -> Complex2:
    """The full subcomplex on a downward-closed cell set, keeping the
    order of ``x``'s cell dicts (so a piece of a reduced complex is reduced).
    Cells and labels are copied from ``x``, which is valid, and nothing is
    checked: the cell sets of ``_block_cells`` are closed under subcells.

    The piece's cell data starts with what ``x`` holds of it: the
    canonical order, which every piece of canonical cells keeps, and the
    blocks of ``x`` lying in the piece when they cover its edges and
    vertices, as the pieces of ``reduced_cutpoint_tree`` are unions of
    blocks; a union of whole blocks has those blocks for its own."""
    cells = set(cells)
    verts = x.vertices & cells
    edges = {eid: ends for eid, ends in x.edges.items() if eid in cells}
    out = Complex2(
        vertices=verts,
        edges=edges,
        faces={fid: es for fid, es in x.faces.items() if fid in cells},
        stab={c: x.stab[c] for c in cells},
        orbit={c: x.orbit[c] for c in cells},
        boundary_marked=x.boundary_marked & verts,
        stab_plus={eid: x.stab_plus[eid] for eid in edges if eid in x.stab_plus},
    )
    held, handed = x.cell_data.__dict__, out.cell_data.__dict__
    if held.get("is_canonical"):
        handed["is_canonical"] = True
    if "skeleton_blocks" in held:
        inside = tuple((vs, es) for vs, es in held["skeleton_blocks"] if vs <= verts and es <= cells)
        covered = frozenset().union(*(vs for vs, _es in inside))
        if covered == verts and sum(len(es) for _vs, es in inside) == len(edges):
            handed["skeleton_blocks"] = inside
    return out
