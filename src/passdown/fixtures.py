"""Line-oriented fixture format.

Blocks start with a header line and close with ``end``; ``#`` starts a
comment.  Supported blocks: ``groups``, ``complex``, ``tree``,
``actions`` (per tree), ``gog``, ``hierarchy``, ``structure``,
``resolution``, ``config`` and ``pipeline``; plus top-level ``restrict``
lines for restriction tables.  See the README for the full grammar.
"""

from dataclasses import dataclass, field

from .complexes import Complex2, make_complex
from .errors import FixtureError
from .groups import GroupRef, GroupTable
from .hierarchy import HNode, Hierarchy, HStructure, Restriction, RestrictionTable, validate_hierarchy, validate_hstructure
from .resolution import ActionTable, resolution_from_images
from .trees import ActionDescriptor, make_gog, make_tree


@dataclass
class PipelineConfig:
    horizon: int = 6
    relative_class: frozenset = frozenset()

    def validate(self):
        if self.horizon < 1:
            raise FixtureError("config: horizon must be at least 1")


@dataclass
class ScriptNode:
    id: str
    tree: str = None  # tree name; None = terminal branch
    parent: str = None
    orbit: str = None  # vertex orbit of the parent tree this node sits at
    repeat: str = None  # clone this node's spec for all deeper levels
    overrides: dict = field(default_factory=dict)  # edge orbit -> stab+ group id


@dataclass
class PipelineScript:
    name: str
    root_structure: str
    root_node: str
    nodes: dict


@dataclass
class FixtureSet:
    groups: GroupTable = field(default_factory=GroupTable)
    complexes: dict = field(default_factory=dict)
    trees: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)  # tree name -> ActionTable
    gogs: dict = field(default_factory=dict)
    hierarchies: dict = field(default_factory=dict)
    structures: dict = field(default_factory=dict)
    resolutions: dict = field(default_factory=dict)
    restrictions: RestrictionTable = field(default_factory=RestrictionTable)
    config: PipelineConfig = field(default_factory=PipelineConfig)
    pipelines: dict = field(default_factory=dict)

    def action_table(self, tree_name) -> ActionTable:
        table = self.actions.get(tree_name)
        return table if table is not None else ActionTable(self.trees[tree_name], self.groups)


def _tokens(line):
    words = []
    kwargs = {}
    for tok in line.split():
        if "=" in tok:
            key, val = tok.split("=", 1)
            kwargs[key] = val
        else:
            words.append(tok)
    return words, kwargs


def _bool_flags(words, allowed):
    flags = {}
    rest = []
    for w in words:
        if w in allowed:
            flags[w] = True
        else:
            rest.append(w)
    return rest, flags


def parse_text(text, fixture: FixtureSet = None) -> FixtureSet:
    fx = fixture or FixtureSet()
    lines = text.splitlines()
    i = 0

    def block(start):
        body = []
        j = start + 1
        while j < len(lines):
            stripped = lines[j].split("#", 1)[0].strip()
            if stripped == "end":
                return body, j
            if stripped:
                body.append((j + 1, stripped))
            j += 1
        raise FixtureError("unterminated block", line=start + 1)

    while i < len(lines):
        raw = lines[i].split("#", 1)[0].strip()
        if not raw:
            i += 1
            continue
        words, kwargs = _tokens(raw)
        if not words:
            raise FixtureError(f"expected a block header, got {raw!r}", line=i + 1)
        head = words[0]
        try:
            if head == "groups":
                body, i = _parse_groups(fx, *block(i))
            elif head == "complex":
                i = _parse_complex(fx, words, block(i))
            elif head == "tree":
                i = _parse_tree(fx, words, block(i))
            elif head == "actions":
                i = _parse_actions(fx, words, block(i))
            elif head == "gog":
                i = _parse_gog(fx, words, block(i))
            elif head == "hierarchy":
                i = _parse_hierarchy(fx, words, block(i))
            elif head == "structure":
                i = _parse_structure(fx, words, kwargs, block(i))
            elif head == "resolution":
                i = _parse_resolution(fx, words, kwargs, block(i))
            elif head == "config":
                i = _parse_config(fx, block(i))
            elif head == "pipeline":
                i = _parse_pipeline(fx, words, kwargs, block(i))
            elif head == "restrict":
                _parse_restrict(fx, words, i + 1)
            else:
                raise FixtureError(f"unknown block {head!r}", line=i + 1)
        except FixtureError as exc:
            if exc.line is None:  # tie block-level failures to the header line
                raise FixtureError(str(exc), line=i + 1) from exc
            raise
        except Exception as exc:
            raise FixtureError(str(exc), line=i + 1) from exc
        i += 1
    return fx


def parse_fixture(path, fixture: FixtureSet = None) -> FixtureSet:
    with open(path) as fh:
        text = fh.read()
    return parse_text(text, fixture)


def parse_fixtures(paths) -> FixtureSet:
    fx = FixtureSet()
    for path in paths:
        parse_fixture(path, fx)
    return fx


def _parse_groups(fx, body, end):
    for ln, line in body:
        words, kwargs = _tokens(line)
        words, flags = _bool_flags(words, {"slender", "helliptic", "finite"})
        if len(words) != 2 or words[0] != "group":
            raise FixtureError("expected: group <id> [slender] [helliptic] [finite] [sub-of=a,b]", line=ln)
        sups = frozenset(kwargs.get("sub-of", "").split(",")) - {""}
        fx.groups.add(
            GroupRef(
                words[1],
                is_slender=flags.get("slender", False) or flags.get("finite", False),
                is_h_elliptic=flags.get("helliptic", False),
                is_finite=flags.get("finite", False),
                declared_supergroups=sups,
            )
        )
    fx.groups.validate()
    return body, end


def _parse_complex(fx, header, parsed):
    body, end = parsed
    if len(header) != 2:
        raise FixtureError("expected: complex <name>")
    name = header[1]
    vertices, edges, faces = [], {}, {}
    stab, orbit, stab_plus, marked = {}, {}, {}, []
    for ln, line in body:
        words, kwargs = _tokens(line)
        words, flags = _bool_flags(words, {"marked"})
        kind = words[0]
        if kind == "vertex" and len(words) == 2:
            vertices.append(words[1])
            if flags.get("marked"):
                marked.append(words[1])
            cell = words[1]
        elif kind == "edge" and len(words) == 4:
            edges[words[1]] = (words[2], words[3])
            cell = words[1]
            if "stabplus" in kwargs:
                stab_plus[cell] = kwargs["stabplus"]
        elif kind == "triangle" and len(words) == 5:
            faces[words[1]] = tuple(words[2:5])
            cell = words[1]
        elif kind == "bigon" and len(words) == 4:
            faces[words[1]] = tuple(words[2:4])
            cell = words[1]
        else:
            raise FixtureError(f"bad complex line: {line!r}", line=ln)
        if "stab" in kwargs:
            stab[cell] = kwargs["stab"]
        if "orbit" in kwargs:
            orbit[cell] = kwargs["orbit"]
    fx.complexes[name] = make_complex(
        vertices, edges, faces, stab=stab, orbit=orbit, boundary_marked=marked,
        stab_plus=stab_plus, groups=fx.groups,
    )
    return end


def _parse_tree(fx, header, parsed):
    body, end = parsed
    if len(header) != 2:
        raise FixtureError("expected: tree <name>")
    name = header[1]
    vertices, edges, ideal = [], {}, {}
    stab, orbit = {}, {}
    for ln, line in body:
        words, kwargs = _tokens(line)
        kind = words[0]
        if kind == "vertex" and len(words) == 2:
            vertices.append(words[1])
            cell = words[1]
        elif kind == "edge" and len(words) == 4:
            edges[words[1]] = (words[2], words[3])
            cell = words[1]
        elif kind == "ideal" and len(words) == 2:
            ideal[words[1]] = tuple(kwargs.get("ray", "").split(","))
            continue
        else:
            raise FixtureError(f"bad tree line: {line!r}", line=ln)
        if "stab" in kwargs:
            stab[cell] = kwargs["stab"]
        if "orbit" in kwargs:
            orbit[cell] = kwargs["orbit"]
    fx.trees[name] = make_tree(vertices, edges, ideal, stab=stab, orbit=orbit, groups=fx.groups)
    return end


def _parse_actions(fx, header, parsed):
    body, end = parsed
    if len(header) != 2:
        raise FixtureError("expected: actions <tree-name>")
    tree_name = header[1]
    if tree_name not in fx.trees:
        raise FixtureError(f"actions block references unknown tree {tree_name!r}")
    table = fx.actions.setdefault(tree_name, ActionTable(fx.trees[tree_name], fx.groups))
    for ln, line in body:
        words, kwargs = _tokens(line)
        words, flags = _bool_flags(words, {"swaps"})
        if len(words) != 2:
            raise FixtureError(f"bad actions line: {line!r}", line=ln)
        kind, gid = words
        if kind == "elliptic":
            fixed = frozenset(kwargs.get("fix", "").split(",")) - {""}
            table.declare_descriptors(gid, [ActionDescriptor(kind="elliptic", fixed=fixed, group=gid)])
        elif kind == "hyperbolic":
            ends = tuple(kwargs.get("ends", "").split(","))
            table.declare_descriptors(
                gid,
                [
                    ActionDescriptor(
                        kind="hyperbolic",
                        ends=ends,
                        translation_length=int(kwargs.get("len", 1)),
                        swaps_ends=flags.get("swaps", False),
                        group=gid,
                    )
                ],
            )
        elif kind == "parabolic":
            table.declare_parabolic(gid, kwargs.get("end"))
        else:
            raise FixtureError(f"bad actions line: {line!r}", line=ln)
    return end


def _parse_gog(fx, header, parsed):
    body, end = parsed
    words, flags = _bool_flags(header, {"reduced", "jsj"})
    if len(words) != 2:
        raise FixtureError("expected: gog <name> [reduced] [jsj]")
    name = words[1]
    vertices, edges, vflags = {}, {}, {}
    for ln, line in body:
        words2, _kwargs = _tokens(line)
        words2, f2 = _bool_flags(words2, {"rigid", "flexible"})
        if words2[0] == "vertex" and len(words2) == 3:
            vertices[words2[1]] = words2[2]
            if f2.get("rigid"):
                vflags[words2[1]] = "rigid"
            if f2.get("flexible"):
                vflags[words2[1]] = "flexible"
        elif words2[0] == "edge" and len(words2) == 5:
            edges[words2[1]] = (words2[2], words2[3], words2[4])
        else:
            raise FixtureError(f"bad gog line: {line!r}", line=ln)
    fx.gogs[name] = make_gog(
        name, vertices, edges, flags=vflags,
        reduced=flags.get("reduced", False), jsj=flags.get("jsj", False), groups=fx.groups,
    )
    return end


def _parse_hierarchy(fx, header, parsed):
    body, end = parsed
    words, flags = _bool_flags(header, {"jsj"})
    if len(words) != 2:
        raise FixtureError("expected: hierarchy <name> [jsj]")
    name = words[1]
    nodes = {}
    root = None
    order = []
    for ln, line in body:
        words2, kwargs = _tokens(line)
        if words2[0] != "node" or len(words2) != 3:
            raise FixtureError(f"bad hierarchy line: {line!r}", line=ln)
        nid, gid = words2[1], words2[2]
        action = None
        if "action" in kwargs:
            if kwargs["action"] not in fx.gogs:
                raise FixtureError(f"unknown gog {kwargs['action']!r}", line=ln)
            action = fx.gogs[kwargs["action"]]
        node = HNode(id=nid, group=gid, action=action, parent=kwargs.get("parent"))
        nodes[nid] = node
        order.append((nid, kwargs))
        if root is None:
            root = nid
    for nid, kwargs in order:
        parent = kwargs.get("parent")
        if parent:
            at = kwargs.get("at")
            if at is None:
                raise FixtureError(f"hierarchy node {nid!r} needs at=<action vertex>")
            nodes[parent].children[at] = nid
    h = Hierarchy(name=name, root=root, nodes=nodes, jsj=flags.get("jsj", False))
    validate_hierarchy(h, fx.groups)
    fx.hierarchies[name] = h
    return end


def _parse_structure(fx, header, kwargs, parsed):
    body, end = parsed
    if len(header) != 2 or "hierarchy" not in kwargs:
        raise FixtureError("expected: structure <name> hierarchy=<H>")
    name = header[1]
    h = fx.hierarchies.get(kwargs["hierarchy"])
    if h is None:
        raise FixtureError(f"unknown hierarchy {kwargs['hierarchy']!r}")
    complexes = {}
    for ln, line in body:
        words2, kw2 = _tokens(line)
        if words2[0] != "attach" or len(words2) != 2 or "complex" not in kw2:
            raise FixtureError(f"bad structure line: {line!r}", line=ln)
        if kw2["complex"] not in fx.complexes:
            raise FixtureError(f"unknown complex {kw2['complex']!r}", line=ln)
        complexes[words2[1]] = fx.complexes[kw2["complex"]]
    ks = HStructure(hierarchy=h, terminal_complexes=complexes)
    validate_hstructure(ks, fx.groups)
    fx.structures[name] = ks
    return end


def _parse_resolution(fx, header, kwargs, parsed):
    body, end = parsed
    if len(header) != 2 or "complex" not in kwargs or "tree" not in kwargs:
        raise FixtureError("expected: resolution <name> complex=<X> tree=<T>")
    name = header[1]
    x = fx.complexes.get(kwargs["complex"])
    t = fx.trees.get(kwargs["tree"])
    if x is None or t is None:
        raise FixtureError("resolution references an unknown complex or tree")
    images = {}
    for ln, line in body:
        words2, _ = _tokens(line)
        if words2[0] != "map" or len(words2) != 3:
            raise FixtureError(f"bad resolution line: {line!r}", line=ln)
        images[words2[1]] = words2[2]
    fx.resolutions[name] = resolution_from_images(
        x, t, images, actions=fx.actions.get(kwargs["tree"])
    )
    return end


def _parse_config(fx, parsed):
    body, end = parsed
    for ln, line in body:
        words, kwargs = _tokens(line)
        # no D-infinity action is always assumed; the flag that says so stays accepted
        words = [w for w in words if w != "no-dinfty"]
        unknown = sorted(set(kwargs) - {"horizon", "link-cap", "seed", "relative"})
        if unknown:
            raise FixtureError(f"unknown config key {unknown[0]!r}", line=ln)
        if "horizon" in kwargs:
            fx.config.horizon = int(kwargs["horizon"])
        # link-cap and seed are still accepted and checked, but nothing reads them
        if "link-cap" in kwargs and int(kwargs["link-cap"]) < 3:
            raise FixtureError("config: link-cap must be at least 3", line=ln)
        if "seed" in kwargs:
            int(kwargs["seed"])
        if "relative" in kwargs:
            fx.config.relative_class = frozenset(kwargs["relative"].split(",")) - {""}
        if words:
            raise FixtureError(f"bad config line: {line!r}", line=ln)
    fx.config.validate()
    return end


def _parse_pipeline(fx, header, kwargs, parsed):
    body, end = parsed
    if len(header) != 2 or "root" not in kwargs:
        raise FixtureError("expected: pipeline <name> root=<structure>")
    name = header[1]
    nodes = {}
    root_node = None
    for ln, line in body:
        words2, kw2 = _tokens(line)
        if words2[0] == "node" and len(words2) == 2:
            nid = words2[1]
            nodes[nid] = ScriptNode(
                id=nid,
                tree=kw2.get("tree"),
                parent=kw2.get("parent"),
                orbit=kw2.get("orbit"),
                repeat=kw2.get("repeat"),
            )
            if root_node is None:
                root_node = nid
        elif words2[0] == "override" and len(words2) == 2:
            nid = words2[1]
            if nid not in nodes:
                raise FixtureError(f"override for unknown script node {nid!r}", line=ln)
            if "edge-orbit" not in kw2 or "stabplus" not in kw2:
                raise FixtureError("expected: override <node> edge-orbit=<o> stabplus=<G>", line=ln)
            nodes[nid].overrides[kw2["edge-orbit"]] = kw2["stabplus"]
        else:
            raise FixtureError(f"bad pipeline line: {line!r}", line=ln)
    if root_node is None:
        raise FixtureError(f"pipeline {name!r} needs at least one node")
    if kwargs["root"] not in fx.structures:
        raise FixtureError(f"pipeline root structure {kwargs['root']!r} not found")
    for nid, node in nodes.items():
        if node.tree is not None and node.tree not in fx.trees:
            raise FixtureError(f"script node {nid!r} references unknown tree {node.tree!r}")
        if node.repeat is not None and node.repeat not in nodes:
            raise FixtureError(f"script node {nid!r} repeats unknown node {node.repeat!r}")
    fx.pipelines[name] = PipelineScript(
        name=name, root_structure=kwargs["root"], root_node=root_node, nodes=nodes
    )
    return end


def _parse_restrict(fx, words, ln):
    # restrict <gid> <gog-name> elliptic <child>
    # restrict <gid> <gog-name> split <sub-gog> <sv>:<origin>,...
    if len(words) < 5:
        raise FixtureError("bad restrict line", line=ln)
    _, gid, gog_name, kind = words[:4]
    if gid not in fx.groups:
        raise FixtureError(f"unknown group id {gid!r}", line=ln)
    if gog_name not in fx.gogs:
        raise FixtureError(f"unknown gog {gog_name!r}", line=ln)
    gog = fx.gogs[gog_name]

    def vertex_of(g, vid):
        if vid not in g.vertices:
            raise FixtureError(f"{vid!r} is no vertex of gog {g.name!r}", line=ln)
        return vid

    if kind == "elliptic":
        fx.restrictions.declare(gid, gog_name, Restriction(kind="elliptic", child=vertex_of(gog, words[4])))
    elif kind == "split":
        sub = fx.gogs.get(words[4])
        if sub is None:
            raise FixtureError(f"unknown gog {words[4]!r}", line=ln)
        origins = {}
        if len(words) > 5:
            for part in words[5].split(","):
                sv, origin = part.split(":")
                sv = vertex_of(sub, sv)
                origins[sv] = vertex_of(gog, origin)
        fx.restrictions.declare(
            gid, gog_name, Restriction(kind="split", sub=sub, origins=origins)
        )
    else:
        raise FixtureError("restrict kind must be elliptic or split", line=ln)


# ---------------------------------------------------------------------------
# serialization


def serialize_complex(name, x: Complex2) -> str:
    out = [f"complex {name}"]
    for v in sorted(x.vertices):
        parts = [f"  vertex {v}"]
        if v in x.boundary_marked:
            parts.append("marked")
        parts.append(f"stab={x.stab[v]}")
        parts.append(f"orbit={x.orbit[v]}")
        out.append(" ".join(parts))
    for eid in sorted(x.edges):
        u, v = x.edges[eid]
        parts = [f"  edge {eid} {u} {v}", f"stab={x.stab[eid]}", f"orbit={x.orbit[eid]}"]
        if eid in x.stab_plus:
            parts.append(f"stabplus={x.stab_plus[eid]}")
        out.append(" ".join(parts))
    for fid in sorted(x.faces):
        es = x.faces[fid]
        kind = "triangle" if len(es) == 3 else "bigon"
        out.append(
            f"  {kind} {fid} " + " ".join(es) + f" stab={x.stab[fid]} orbit={x.orbit[fid]}"
        )
    out.append("end")
    return "\n".join(out) + "\n"


def serialize_tree(name, t) -> str:
    out = [f"tree {name}"]
    for v in sorted(t.vertices):
        out.append(f"  vertex {v} stab={t.stab[v]} orbit={t.orbit[v]}")
    for eid in sorted(t.edges):
        u, v = t.edges[eid]
        out.append(f"  edge {eid} {u} {v} stab={t.stab[eid]} orbit={t.orbit[eid]}")
    for pid in sorted(t.ideal_points):
        out.append(f"  ideal {pid} ray=" + ",".join(t.ideal_points[pid]))
    out.append("end")
    return "\n".join(out) + "\n"


def serialize_groups(groups: GroupTable) -> str:
    out = ["groups"]
    for gid in sorted(groups.ids()):
        if gid == "1":
            continue
        ref = groups[gid]
        parts = [f"  group {gid}"]
        if ref.is_finite:
            parts.append("finite")
        elif ref.is_slender:
            parts.append("slender")
        if ref.is_h_elliptic:
            parts.append("helliptic")
        if ref.declared_supergroups:
            parts.append("sub-of=" + ",".join(sorted(ref.declared_supergroups)))
        out.append(" ".join(parts))
    out.append("end")
    return "\n".join(out) + "\n"


def serialize_gog(g) -> str:
    head = f"gog {g.name}"
    if g.reduced:
        head += " reduced"
    if g.jsj:
        head += " jsj"
    out = [head]
    for v in sorted(g.vertices):
        line = f"  vertex {v} {g.vertices[v]}"
        if g.flags.get(v) in ("rigid", "flexible"):
            line += f" {g.flags[v]}"
        out.append(line)
    for eid in sorted(g.edges):
        u, w, gid = g.edges[eid]
        out.append(f"  edge {eid} {u} {w} {gid}")
    out.append("end")
    return "\n".join(out) + "\n"


def serialize_resolution(name, res, complex_name="?", tree_name="?") -> str:
    out = [f"resolution {name} complex={complex_name} tree={tree_name}"]
    for v in sorted(res.source.vertices):
        out.append(f"  map {v} {res.vertex_image[v]}")
    out.append("end")
    return "\n".join(out) + "\n"
