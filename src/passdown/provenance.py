"""Triangle provenance across surgery steps.

A TauFragment is the one triangle map of the package: a partial map on
triangles and the per-triangle side correspondence for surviving
triangles.  Each collapse and reduction step yields one.  Above
a complex, faces are keyed (complex id, face id): ``passdown_full`` hands
on one fragment from (input terminal id, face id) to ((vertex orbit,
terminal id), face id), and ``located`` renames both sides into the run's
complex ids.

A step that keeps a complex as it is needs no per-face maps: it renames
the complex, face f of complex c going to face f of ``renamed[c]`` with
every side fixed.  Readers look images up through ``image`` and
``side_image``, which see both kinds.
"""

from dataclasses import dataclass, field


@dataclass
class TauFragment:
    triangle_map: dict = field(default_factory=dict)  # source face -> image face or None
    edge_map: dict = field(default_factory=dict)  # (source face, source edge) -> image edge
    track_point: dict = field(default_factory=dict)  # track id -> new vertex
    renamed: dict = field(default_factory=dict)  # source complex id -> image complex id, faces and sides fixed

    def image(self, key):
        """The image face of source face ``key``, or None."""
        if self.renamed:
            to = self.renamed.get(key[0])
            if to is not None:
                return to, key[1]
        return self.triangle_map.get(key)

    def side_image(self, key, eid):
        """The image of side ``eid`` of source face ``key``, or None."""
        if self.renamed and key[0] in self.renamed:
            return eid
        return self.edge_map.get((key, eid))

    def located(self, sources, images) -> "TauFragment":
        """This fragment's per-face maps on faces keyed (complex id, face id),
        source complex ids renamed through ``sources`` and image complex
        ids through ``images``; a renaming step's ``renamed`` is not located."""
        return TauFragment(
            triangle_map={
                (sources[c], f): None if img is None else (images[img[0]], img[1])
                for (c, f), img in self.triangle_map.items()
            },
            edge_map={((sources[c], f), e): fe for ((c, f), e), fe in self.edge_map.items()},
        )

    def update(self, other: "TauFragment"):
        """Take in the maps and renamings of a fragment on other sources."""
        self.triangle_map.update(other.triangle_map)
        self.edge_map.update(other.edge_map)
        self.renamed.update(other.renamed)
