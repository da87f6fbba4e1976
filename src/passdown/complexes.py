"""Finite 2-dimensional cell complexes with stabilizer-labeled cells.

A Complex2 stores vertices, edges and faces (triangles, plus transient
bigons that only exist between a collapse and the following reduction).
Every cell carries a GroupRef label and an orbit id; the complex is the
quotient-scale picture of a cocompact action, so cells in one orbit share
their label.  "Infinite directions" of the desk-scale complex are modeled
by the ``boundary_marked`` vertex set.

Operations here: reduction to simplicial form, Z2 first cohomology,
covolume (triangle-orbit count), cutpoints, and the (reduced) cutpoint
tree used to split a complex into cutpoint-free pieces.
"""

import warnings
from collections import defaultdict
from dataclasses import dataclass, field

from . import graphs
from .errors import ConsistencyError, EngineError, FixtureError
from .groups import TRIVIAL, GroupTable


class DisconnectedComplexWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Complex2:
    vertices: frozenset
    edges: dict  # edge id -> (u, v), u != v
    faces: dict  # face id -> tuple of edge ids (3 = triangle, 2 = bigon)
    stab: dict  # cell id -> group id
    orbit: dict  # cell id -> orbit id
    boundary_marked: frozenset = frozenset()
    stab_plus: dict = field(default_factory=dict)  # edge id -> oriented stabilizer label

    def edge_ends(self, eid):
        return self.edges[eid]

    def face_vertices(self, fid):
        verts = set()
        for eid in self.faces[fid]:
            verts.update(self.edges[eid])
        return verts

    def triangles(self):
        return [fid for fid, es in self.faces.items() if len(es) == 3]

    def bigons(self):
        return [fid for fid, es in self.faces.items() if len(es) == 2]

    def is_simplicial(self):
        if self.bigons():
            return False
        seen_pairs = set()
        for u, v in self.edges.values():
            key = frozenset((u, v))
            if key in seen_pairs:
                return False
            seen_pairs.add(key)
        seen_faces = set()
        for fid in self.triangles():
            key = frozenset(self.face_vertices(fid))
            if key in seen_faces:
                return False
            seen_faces.add(key)
        return True

    def edge_stab_plus(self, eid):
        return self.stab_plus.get(eid, self.stab[eid])

    def cells(self):
        out = list(self.vertices)
        out.extend(self.edges)
        out.extend(self.faces)
        return out


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


def validate_complex(x, groups=None, require_simplicial=False):
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
        if len(es) == 2:
            if frozenset(x.edges[es[0]]) != frozenset(x.edges[es[1]]):
                raise FixtureError(f"bigon {fid!r} edges do not share both endpoints")
        else:
            verts = x.face_vertices(fid)
            if len(verts) != 3:
                raise FixtureError(f"triangle {fid!r} does not close up on 3 vertices")
            degree = defaultdict(int)
            for eid in es:
                for w in x.edges[eid]:
                    degree[w] += 1
            if any(d != 2 for d in degree.values()):
                raise FixtureError(f"triangle {fid!r} edges do not close up combinatorially")
    for w in x.boundary_marked:
        if w not in x.vertices:
            raise FixtureError(f"boundary mark on missing vertex {w!r}")
    if require_simplicial and not x.is_simplicial():
        raise FixtureError("complex is not simplicial")
    if groups is not None:
        _validate_labels(x, groups)


def _validate_labels(x, groups: GroupTable):
    for cell in x.cells():
        groups[x.stab.get(cell, TRIVIAL)]
    for eid in x.stab_plus:
        if eid not in x.edges:
            raise FixtureError(f"stab+ label on missing edge {eid!r}")
        groups[x.stab_plus[eid]]
    # faces sit below their edges and vertices in the declared order
    for fid, es in x.faces.items():
        fg = x.stab[fid]
        for eid in es:
            if not groups.leq(fg, x.stab[eid]):
                raise ConsistencyError(
                    f"face {fid!r} stabilizer {fg!r} not declared inside edge {eid!r} stabilizer"
                )
        for w in x.face_vertices(fid):
            if not groups.leq(fg, x.stab[w]):
                raise ConsistencyError(
                    f"face {fid!r} stabilizer {fg!r} not declared inside vertex {w!r} stabilizer"
                )
    for eid, (u, v) in x.edges.items():
        eg = x.stab[eid]
        for w in (u, v):
            if not groups.leq(eg, x.stab[w]):
                raise ConsistencyError(
                    f"edge {eid!r} stabilizer {eg!r} not declared inside vertex {w!r} stabilizer"
                )
    # quotient-scale consistency: one label per orbit, matching incidence shape
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
    """Connected components of the complex, as lists of vertex sets."""
    return graphs.components(x.vertices, x.edges.values())


def is_connected(x: Complex2) -> bool:
    return len(components(x)) <= 1


def _gf2_rank(rows):
    """Rank over Z2 of a list of bitmask rows."""
    rank = 0
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
            rank += 1
    return rank


def h1_z2(x: Complex2) -> int:
    """dim H^1(X, Z2), from the rank of the Z2 boundary matrix.

    Works for simplicial complexes and for the transient triangle/bigon
    cell complexes that appear between a collapse and its reduction.
    Disconnected input is summed per component, with a warning.
    """
    n_comp = len(components(x))
    if n_comp > 1:
        warnings.warn("h1_z2 on a disconnected complex; summing components", DisconnectedComplexWarning)
    edge_index = {eid: i for i, eid in enumerate(sorted(x.edges))}
    rows = []
    for fid in sorted(x.faces):
        row = 0
        for eid in x.faces[fid]:
            row |= 1 << edge_index[eid]
        rows.append(row)
    rank_d2 = _gf2_rank(rows)
    value = len(x.edges) - len(x.vertices) + n_comp - rank_d2
    if value < 0:
        raise EngineError("negative h1 rank: boundary bookkeeping is broken")
    return value


def covolume(x: Complex2) -> int:
    """Number of triangle orbits."""
    return len({x.orbit[fid] for fid in x.triangles()})


# ---------------------------------------------------------------------------
# reduction


def reduce_complex(x: Complex2, groups: GroupTable = None) -> Complex2:
    """Simplicial reduction: keep the vertex set, one edge per vertex pair,
    one triangle per vertex triple; bigons disappear.

    Labels and orbits are induced: merged cells in corresponding orbits are
    re-labeled together so the quotient picture stays consistent.  Covolume
    cannot increase.
    """
    out, _ = reduce_with_map(x, groups)
    return out


def reduce_with_map(x: Complex2, groups: GroupTable = None):
    """reduce_complex plus the cell map (collapsed bigons map to None)."""
    groups = groups or GroupTable()
    edge_groups = defaultdict(list)
    for eid in sorted(x.edges):
        edge_groups[frozenset(x.edges[eid])].append(eid)
    tri_groups = defaultdict(list)
    for fid in sorted(x.triangles()):
        tri_groups[frozenset(x.face_vertices(fid))].append(fid)

    new_edges, edge_image = {}, {}
    for key in sorted(edge_groups, key=sorted):
        sources = edge_groups[key]
        rep = sources[0]
        u, v = sorted(key)
        new_edges[rep] = (u, v)
        for src in sources:
            edge_image[src] = rep
    pair_to_edge = {frozenset(ends): eid for eid, ends in new_edges.items()}

    new_faces, face_image = {}, {}
    for key in sorted(tri_groups, key=sorted):
        sources = tri_groups[key]
        rep = sources[0]
        vs = sorted(key)
        es = tuple(
            pair_to_edge[frozenset(p)] for p in ((vs[0], vs[1]), (vs[1], vs[2]), (vs[0], vs[2]))
        )
        new_faces[rep] = es
        for src in sources:
            face_image[src] = rep

    cell_map = {v: v for v in x.vertices}
    cell_map.update(edge_image)
    cell_map.update(face_image)
    for fid in x.bigons():
        cell_map[fid] = None

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
    wire_incidence_declarations(out, groups)
    validate_complex(out, groups)
    return out, cell_map


def wire_incidence_declarations(x: Complex2, groups: GroupTable):
    """Record the face<=edge<=vertex containments of a synthesized complex.

    Surgery constructions guarantee these geometrically (a stabilizer of a
    cell fixes the cells it collapses onto), but freshly minted labels do
    not carry them yet.
    """
    for eid, (u, v) in x.edges.items():
        for w in (u, v):
            if not groups.leq(x.stab[eid], x.stab[w]):
                groups.declare_leq(x.stab[eid], x.stab[w])
    for fid in x.faces:
        fg = x.stab[fid]
        for eid in x.faces[fid]:
            if not groups.leq(fg, x.stab[eid]):
                groups.declare_leq(fg, x.stab[eid])
        for w in x.face_vertices(fid):
            if not groups.leq(fg, x.stab[w]):
                groups.declare_leq(fg, x.stab[w])


def quotient_labels(x: Complex2, cell_map, groups: GroupTable, prefix: str, extra_stab=None, extra_sups=None):
    """Induce stabilizer/orbit labels along a surjective cell map.

    ``cell_map`` sends source cells to image cells (or None for collapsed
    cells).  Source orbits whose cells land on a common image are merged
    (the quotient of an equivariant collapse); a merged class keeps its
    shared label when it has one and otherwise gets a fresh ref declared
    below the labels it merged, with slenderness closed downward.
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
            sups = set(extra_sups.get(cls, ())) if extra_sups else set()
            class_ref[cls] = groups.mint(prefix, supergroups=sups).id

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
    return graphs.cut_vertices(graphs.blocks(x.vertices, x.edges))


def _block_cells(x: Complex2, blocks):
    """Cell sets of the blocks of the 1-skeleton (maximal cutpoint-free
    subcomplexes), closed under subcells: each face joins the block of its
    edges, which a triangle or bigon never straddles."""
    out, block_of = [], {}
    for i, (verts, eids) in enumerate(blocks):
        out.append(verts | eids)
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


def cutpoint_tree(x: Complex2, groups: GroupTable = None) -> CutpointTree:
    """The bipartite tree B_X of cutpoint-free components and cut vertices.

    Requires a connected complex with h1_z2 = 0.  Cut-vertex nodes keep
    the vertex stabilizer; component nodes get fresh refs.  Each B_X edge
    is labeled by its cut vertex (the stabilizer of the matching link
    component sits inside it).
    """
    groups = groups or GroupTable()
    if not is_connected(x):
        raise FixtureError("cutpoint tree needs a connected complex")
    if h1_z2(x) != 0:
        raise FixtureError("cutpoint tree needs h1_z2 = 0")
    blks = graphs.blocks(x.vertices, x.edges)
    cuts = sorted(graphs.cut_vertices(blks))
    blocks = _block_cells(x, blks)
    comp_nodes, comp_cells, node_stab, node_orbit, edges = [], {}, {}, {}, []
    sig_orbit = {}
    for i, cells in enumerate(sorted(blocks, key=lambda c: sorted(map(str, c)))):
        cid = f"C{i}"
        comp_nodes.append(cid)
        comp_cells[cid] = frozenset(cells)
        node_stab[cid] = groups.mint("blk").id
        sig = _block_orbit_signature(x, cells)
        node_orbit[cid] = sig_orbit.setdefault(sig, cid)
        for v in cuts:
            if v in cells:
                edges.append((cid, v))
    for v in cuts:
        node_stab[v] = x.stab[v]
        node_orbit[v] = x.orbit[v]
    tree = CutpointTree(
        comp_nodes=tuple(comp_nodes),
        cut_nodes=tuple(cuts),
        edges=tuple(edges),
        node_stab=node_stab,
        node_orbit=node_orbit,
        comp_cells=comp_cells,
    )
    if not tree.is_tree():
        raise FixtureError("cutpoint tree is cyclic or disconnected (input violated h1 = 0?)")
    return tree


def reduced_cutpoint_tree(x: Complex2, groups: GroupTable = None) -> CutpointTree:
    """B'_X: collapse B_X edges whose stabilizer label is not slender.

    A B_X edge carries its cut vertex's label; collapsing merges the cut
    vertex with every adjacent component node into one node whose cells
    are the union.
    """
    groups = groups or GroupTable()
    bx = cutpoint_tree(x, groups)
    uf = graphs.UnionFind()
    find = uf.find
    collapsed_cuts = set()
    for comp, cut in bx.edges:
        if not groups.slender(x.stab[cut]):
            collapsed_cuts.add(cut)
            uf.union(comp, cut)

    merged_cells = defaultdict(set)
    merged_members = defaultdict(set)
    for cid in bx.comp_nodes:
        merged_cells[find(cid)].update(bx.comp_cells[cid])
        merged_members[find(cid)].add(cid)
    for cut in collapsed_cuts:
        merged_cells[find(cut)].add(cut)
        merged_members[find(cut)].add(cut)

    comp_nodes, comp_cells, node_stab, node_orbit, edges = [], {}, {}, {}, []
    sig_orbit = {}
    for rep in sorted(merged_cells):
        comp_nodes.append(rep)
        comp_cells[rep] = frozenset(merged_cells[rep])
        if merged_members[rep] == {rep} and rep in bx.comp_nodes:
            node_stab[rep] = bx.node_stab[rep]
        else:
            hub = next((c for c in merged_members[rep] if c in collapsed_cuts), None)
            node_stab[rep] = groups.mint(
                "blk", h_elliptic=hub is not None and groups.h_elliptic(x.stab[hub])
            ).id
        sig = _block_orbit_signature(x, comp_cells[rep])
        node_orbit[rep] = sig_orbit.setdefault(sig, rep)
    cut_nodes = [v for v in bx.cut_nodes if v not in collapsed_cuts]
    for v in cut_nodes:
        node_stab[v] = x.stab[v]
        node_orbit[v] = x.orbit[v]
    for comp, cut in bx.edges:
        if cut not in collapsed_cuts:
            edges.append((find(comp), cut))
    tree = CutpointTree(
        comp_nodes=tuple(comp_nodes),
        cut_nodes=tuple(cut_nodes),
        edges=tuple(sorted(set(edges))),
        node_stab=node_stab,
        node_orbit=node_orbit,
        comp_cells=comp_cells,
    )
    if not tree.is_tree():
        raise EngineError("reduced cutpoint tree failed the tree check")
    return tree


def subcomplex(x: Complex2, cells, groups: GroupTable = None) -> Complex2:
    """The full subcomplex on a downward-closed cell set."""
    cells = set(cells)
    verts = {c for c in cells if c in x.vertices}
    edges = {eid: x.edges[eid] for eid in cells if eid in x.edges}
    faces = {fid: x.faces[fid] for fid in cells if fid in x.faces}
    for eid, (u, v) in edges.items():
        if u not in verts or v not in verts:
            raise FixtureError(f"subcomplex cell set not closed under subcells at edge {eid!r}")
    for fid, es in faces.items():
        if any(eid not in edges for eid in es):
            raise FixtureError(f"subcomplex cell set not closed under subcells at face {fid!r}")
    out = Complex2(
        vertices=frozenset(verts),
        edges=edges,
        faces=faces,
        stab={c: x.stab[c] for c in cells},
        orbit={c: x.orbit[c] for c in cells},
        boundary_marked=x.boundary_marked & verts,
        stab_plus={eid: x.stab_plus[eid] for eid in edges if eid in x.stab_plus},
    )
    validate_complex(out, groups)
    return out
