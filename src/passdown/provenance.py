"""Triangle provenance across surgery steps.

Each collapse/reduction step yields a TauFragment: a partial map on
triangles, the per-triangle side correspondence for surviving triangles,
and the vertex fate.  Fragments compose associatively; the cross-level
triangle maps of the stability analysis are compositions of these.
"""

from dataclasses import dataclass, field

from .complexes import reduce_with_map, wire_and_validate
from .errors import EngineError


@dataclass
class TauFragment:
    triangle_map: dict  # source face -> image face or None
    edge_map: dict  # (source face, source edge) -> image edge
    vertex_map: dict  # source vertex -> image vertex or None
    track_point: dict = field(default_factory=dict)  # track id -> new vertex

    @staticmethod
    def identity(x):
        return TauFragment(
            triangle_map={f: f for f in x.triangles()},
            edge_map={(f, e): e for f in x.triangles() for e in x.faces[f]},
            vertex_map={v: v for v in x.vertices},
        )

    def compose(self, nxt: "TauFragment") -> "TauFragment":
        """self followed by nxt."""
        tri = {}
        edges = {}
        for t, img in self.triangle_map.items():
            tri[t] = None if img is None else nxt.triangle_map.get(img)
        for (t, e), fe in self.edge_map.items():
            ft = self.triangle_map.get(t)
            if ft is None or tri.get(t) is None:
                continue
            if (ft, fe) in nxt.edge_map:
                edges[(t, e)] = nxt.edge_map[(ft, fe)]
        verts = {}
        for v, img in self.vertex_map.items():
            verts[v] = None if img is None else nxt.vertex_map.get(img)
        return TauFragment(triangle_map=tri, edge_map=edges, vertex_map=verts)

    def check_consistency(self, source, target):
        for t, img in self.triangle_map.items():
            if t not in source.faces:
                raise EngineError(f"provenance names unknown source face {t!r}")
            if img is not None and img not in target.faces:
                raise EngineError(f"provenance names unknown image face {img!r}")
        for (t, e), fe in self.edge_map.items():
            if e not in source.faces[t]:
                raise EngineError(f"provenance side {e!r} is not a side of {t!r}")
            img = self.triangle_map.get(t)
            if img is not None and fe not in target.faces[img]:
                raise EngineError(f"provenance image side {fe!r} is not a side of {img!r}")


def reduce_collapsed(collapsed, groups):
    """Finish a collapse: record the incidence containments of the freshly
    built complex, validate it and reduce it.  Returns (reduced complex,
    fragment of the reduction step)."""
    wire_and_validate(collapsed, groups)
    reduced, red_map = reduce_with_map(collapsed, groups)
    frag = TauFragment(
        triangle_map={f: red_map[f] for f in collapsed.triangles()},
        edge_map={
            (f, e): red_map[e]
            for f in collapsed.triangles()
            if red_map[f] is not None
            for e in collapsed.faces[f]
        },
        vertex_map={v: red_map[v] for v in collapsed.vertices},
    )
    return reduced, frag
