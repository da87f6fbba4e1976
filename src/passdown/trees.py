"""Simplicial trees with truncated ideal boundary, reduced paths, the
five-way classification of subgroup actions, and quotient graphs of
groups.

An ideal point stands for an end of the (conceptually infinite) tree; it
is attached to a designated ray whose last vertex is a leaf marked as the
truncated end.  Axes of hyperbolic isometries are encoded as a pair of
ideal points plus the finite geodesic core between their leaves, so the
"compact intersection" tests of the classification become finite checks.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from . import graphs
from .complexes import check_orbit_labels, check_orbit_shapes, filled
from .errors import ConsistencyError, FixtureError
from .groups import TRIVIAL, GroupTable


@dataclass(frozen=True)
class TreeHat:
    """A tree with its truncated ideal points.  The adjacency is derived
    from the cell data on first use and kept; no code writes a cell dict
    after construction."""

    vertices: frozenset
    edges: dict  # edge id -> (u, v)
    ideal_points: dict  # ideal id -> ray (vertex tuple, last = truncated leaf)
    stab: dict  # vertex/edge id -> group id
    orbit: dict

    def leaf_of(self, ideal_id):
        return self.ideal_points[ideal_id][-1]

    @cached_property
    def adjacency(self):
        """vertex -> {neighbour: edge id}, for every vertex."""
        adj = {v: {} for v in self.vertices}
        for eid, (u, v) in self.edges.items():
            adj[u][v] = eid
            adj[v][u] = eid
        return adj

    def is_ideal(self, point):
        return point in self.ideal_points

    def degree(self, v):
        return len(self.adjacency.get(v, ()))


def make_tree(vertices, edges, ideal_points=None, stab=None, orbit=None, groups=None) -> TreeHat:
    """Build and validate a TreeHat on the dicts as given, not copied
    (``ideal_points`` only when a ray is not a tuple); a cell missing from
    ``stab`` or ``orbit`` is labelled by ``complexes.filled``."""
    vertices, ideal_points = frozenset(vertices), ideal_points or {}
    if not all(map(isinstance, ideal_points.values(), repeat(tuple))):
        ideal_points = {pid: tuple(ray) for pid, ray in ideal_points.items()}
    cells = [*sorted(vertices), *edges]
    t = TreeHat(vertices, edges, ideal_points, filled(stab, cells, TRIVIAL), filled(orbit, cells))
    validate_tree(t, groups)
    return t


def validate_tree(t: TreeHat, groups: GroupTable = None):
    """The full check of a tree: its cells and ideal points, its orbits
    (one label per orbit, one pair of endpoint orbits per edge orbit, one
    kind per orbit; orbits of one cell each meet them all), and over
    ``groups`` its labels and containments.  Cells are met in sorted
    vertex, then edge order, and an error names the first failing cell,
    as ``FixtureError.cell`` too."""
    if not t.vertices:
        raise FixtureError("tree must have at least one vertex")
    for eid, (u, v) in t.edges.items():
        if u == v or u not in t.vertices or v not in t.vertices:
            raise FixtureError(f"tree edge {eid!r} is malformed", cell=eid)
    if len(t.edges) != len(t.vertices) - 1:
        raise FixtureError("tree must satisfy |E| = |V| - 1")
    if len(graphs.components(t.vertices, t.edges.values())) != 1:
        raise FixtureError("tree is disconnected")
    adj = t.adjacency
    used_leaves = {}
    for pid, ray in t.ideal_points.items():
        if pid in t.vertices or pid in t.edges:
            raise FixtureError(f"ideal point id {pid!r} collides with a tree cell", cell=pid)
        if not ray or len(set(ray)) != len(ray):
            raise FixtureError(f"ideal point {pid!r} needs a simple ray", cell=pid)
        if not t.vertices.issuperset(ray):
            missing = next(w for w in ray if w not in t.vertices)
            raise FixtureError(f"ray of ideal point {pid!r} references missing vertex {missing!r}", cell=pid)
        for a, b in zip(ray, ray[1:]):
            if b not in adj[a]:
                raise FixtureError(f"ray of ideal point {pid!r} is not a path", cell=pid)
        leaf = ray[-1]
        if t.degree(leaf) > 1:
            raise FixtureError(f"ideal point {pid!r} must end at a leaf (truncated end)", cell=pid)
        if leaf in used_leaves:
            raise FixtureError(f"ideal points {used_leaves[leaf]!r} and {pid!r} share a truncated end", cell=pid)
        used_leaves[leaf] = pid
    cells = [*sorted(t.vertices), *t.edges]
    if len(set(map(t.orbit.__getitem__, cells))) < len(cells):
        check_orbit_labels(cells, t.stab, t.orbit)
        check_orbit_shapes(t.orbit, vertex=t.vertices, edge=t.edges)
    if groups is not None:
        for cell in cells:
            if t.stab[cell] not in groups:
                raise FixtureError(f"unknown group id {t.stab[cell]!r}", cell=cell)
        for eid, (u, v) in t.edges.items():
            for w in (u, v):
                if not groups.leq(t.stab[eid], t.stab[w]):
                    raise ConsistencyError(
                        f"tree edge {eid!r} stabilizer not declared inside endpoint {w!r} stabilizer", cell=eid
                    )


@dataclass(frozen=True)
class TreePath:
    """Reduced path in T-hat: a finite vertex run plus optional ideal ends.

    A degenerate path between one ideal point and itself is flagged
    ``constant_ideal`` and has no finite part.
    """

    vertices: tuple = ()
    start_ideal: str = None
    end_ideal: str = None
    constant_ideal: str = None

    def edge_ids(self, t: TreeHat):
        adj = t.adjacency
        return tuple(adj[a][b] for a, b in zip(self.vertices, self.vertices[1:]))


def _vertex_path(t: TreeHat, a, b):
    verts = graphs.path(t.adjacency, a, b)
    if verts is None:
        raise FixtureError(f"no path between {a!r} and {b!r}")
    return verts


def reduced_path(t: TreeHat, a, b) -> TreePath:
    """The unique reduced path in T-hat between vertices or ideal points."""
    a_ideal = t.is_ideal(a)
    b_ideal = t.is_ideal(b)
    if not a_ideal and a not in t.vertices:
        raise FixtureError(f"{a!r} is neither a vertex nor an ideal point")
    if not b_ideal and b not in t.vertices:
        raise FixtureError(f"{b!r} is neither a vertex nor an ideal point")
    if a == b:
        if a_ideal:
            return TreePath(constant_ideal=a)
        return TreePath(vertices=(a,))
    start = t.leaf_of(a) if a_ideal else a
    end = t.leaf_of(b) if b_ideal else b
    verts = _vertex_path(t, start, end)
    return TreePath(
        vertices=verts,
        start_ideal=a if a_ideal else None,
        end_ideal=b if b_ideal else None,
    )


# ---------------------------------------------------------------------------
# subgroup actions

ELLIPTIC = "elliptic"
LINEAR = "linear"
DIHEDRAL = "dihedral"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class ActionDescriptor:
    """Per-generator action record.

    kind "elliptic": ``fixed`` is the nonempty connected fixed subtree.
    kind "hyperbolic": ``ends`` is a pair of distinct ideal points, with
    whether the generator swaps the two ends of the shared invariant line
    (the dihedral marker).
    """

    kind: str
    fixed: frozenset = frozenset()
    ends: tuple = ()
    swaps_ends: bool = False
    group: str = None

    def axis(self):
        return frozenset(self.ends)


def check_descriptor(d: ActionDescriptor, t: TreeHat):
    """Raise unless ``d`` describes an isometry of ``t``: an elliptic one
    fixing a nonempty connected set of tree vertices, or a hyperbolic one
    along the line between two distinct ideal points."""
    if d.kind == ELLIPTIC:
        if not d.fixed:
            raise FixtureError("elliptic descriptor needs a nonempty fixed subtree")
        missing = set(d.fixed) - t.vertices
        if missing:
            raise FixtureError(f"elliptic fixed set mentions missing vertices {sorted(missing)}")
        if len(graphs.components(d.fixed, t.edges.values())) != 1:
            raise FixtureError("elliptic fixed set is not a connected subtree")
    elif d.kind == HYPERBOLIC:
        if len(set(d.ends)) != 2:
            raise FixtureError("hyperbolic axis needs two distinct ideal points")
        for p in d.ends:
            if not t.is_ideal(p):
                raise FixtureError(f"axis end {p!r} is not an ideal point")
    else:
        raise FixtureError(f"unknown descriptor kind {d.kind!r}")


def axis_core(t: TreeHat, ends) -> tuple:
    """Vertices of the finite core of an axis (leaf-to-leaf geodesic)."""
    p, q = sorted(ends)
    return _vertex_path(t, t.leaf_of(p), t.leaf_of(q))


def classify_subgroup_action(descriptors, t: TreeHat, groups: GroupTable = None) -> str:
    """Five-way classification of the subgroup action generated by the
    descriptors: elliptic, linear, dihedral, parabolic or hyperbolic.

    Follows the defining conditions directly.  Parabolic requires one
    ideal point shared by every axis; families of axes with pairwise
    ray-infinite overlaps but no global end generate crossing hyperbolics
    and land in the hyperbolic case.  Each descriptor is one that
    ``check_descriptor`` passed on ``t``, as ``ActionTable`` checks each
    where it is declared.
    """
    descriptors = list(descriptors)
    if not descriptors:
        raise FixtureError("descriptor list must be nonempty")
    ells = [d for d in descriptors if d.kind == ELLIPTIC]
    hyps = [d for d in descriptors if d.kind == HYPERBOLIC]

    if not hyps:
        common = set(ells[0].fixed)
        for d in ells[1:]:
            common &= set(d.fixed)
        if not common:
            raise ConsistencyError(
                "all descriptors elliptic but no common fixed vertex; "
                "a consistent finite action would have one"
            )
        result = ELLIPTIC
    else:
        axes = {d.axis() for d in hyps}
        if len(axes) == 1:
            core = set(axis_core(t, next(iter(axes))))
            for d in ells:
                if not (set(d.fixed) & core):
                    raise ConsistencyError(
                        "elliptic descriptor does not touch the shared axis of the "
                        "hyperbolic descriptors"
                    )
            result = DIHEDRAL if any(d.swaps_ends for d in hyps) else LINEAR
        else:
            shared = set.intersection(*[set(d.ends) for d in hyps])
            result = PARABOLIC if len(shared) == 1 else HYPERBOLIC

    if groups is not None and result in (PARABOLIC, HYPERBOLIC):
        gids = {d.group for d in descriptors if d.group}
        if gids and all(groups.slender(g) for g in gids):
            raise ConsistencyError(
                f"slender descriptors classified {result}; slender groups act only "
                "elliptically, linearly or dihedrally"
            )
    return result


# ---------------------------------------------------------------------------
# quotient graphs of groups

RIGID = "rigid"
FLEXIBLE = "flexible"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class GraphOfGroups:
    """Finite quotient graph with group labels; loops allowed."""

    name: str
    vertices: dict  # vertex id -> group id
    edges: dict  # edge id -> (u, v, group id)
    flags: dict  # vertex id -> rigid | flexible | unknown
    reduced: bool = False
    jsj: bool = False

    def valence(self, v):
        count = 0
        for u, w, _ in self.edges.values():
            count += (u == v) + (w == v)
        return count

    def is_point(self):
        return len(self.vertices) == 1 and not self.edges

    def is_circle(self):
        if len(self.vertices) != 1 or len(self.edges) != 1:
            return False
        (u, w, _g) = next(iter(self.edges.values()))
        return u == w


def make_gog(name, vertices, edges, flags=None, reduced=False, jsj=False, groups=None) -> GraphOfGroups:
    flags = dict(flags or {})
    for v in vertices:
        flags.setdefault(v, UNKNOWN)
    g = GraphOfGroups(name=name, vertices=dict(vertices), edges=dict(edges), flags=flags, reduced=reduced, jsj=jsj)
    validate_gog(g, groups)
    return g


def validate_gog(g: GraphOfGroups, groups: GroupTable = None):
    for eid, (u, w, _gid) in g.edges.items():
        if u not in g.vertices or w not in g.vertices:
            raise FixtureError(f"graph-of-groups edge {eid!r} references a missing vertex")
    for v, flag in g.flags.items():
        if flag not in (RIGID, FLEXIBLE, UNKNOWN):
            raise FixtureError(f"vertex {v!r} has unknown rigidity flag {flag!r}")
    if groups is not None:
        for v, gid in g.vertices.items():
            groups[gid]
        for eid, (u, w, gid) in g.edges.items():
            for end in (u, w):
                if not groups.leq(gid, g.vertices[end]):
                    raise ConsistencyError(
                        f"edge {eid!r} label {gid!r} not declared inside vertex {end!r} label"
                    )
        if g.reduced and not check_reduced(g, groups):
            raise ConsistencyError(f"graph of groups {g.name!r} flagged reduced but is not")


def check_reduced(g: GraphOfGroups, groups: GroupTable) -> bool:
    """True iff g is a single-vertex single-loop circle, or the label of
    every valence-2 vertex properly contains its incident edge labels."""
    if g.is_circle():
        return True
    for v, gid in g.vertices.items():
        if g.valence(v) != 2:
            continue
        for _eid, (u, w, egid) in g.edges.items():
            if v in (u, w):
                if not (groups.leq(egid, gid) and not groups.leq(gid, egid)):
                    return False
    return True
