"""Seeded fixture generators for the three benchmark workloads.

Every generated operation is one ``passdown pipeline <fixture> --name <p>``
call.  Each family derives its expected outcome (exit code, covolume
ledger, certificate level, ACC alert) from the construction alone; the
engine is never consulted:

* ``worked``: the pinched tetrahedron of three triangle orbits, split once
  over a one-edge tree.  The essential track of the split removes one
  triangle orbit, every later level is a point tree, so the ledger reads
  3 then 2 to the horizon and level 1 certifies.
* ``chain``: two triangles sharing edge ``bc`` whose oriented stabilizer
  is overridden by a strictly larger slender group at every level.  The
  chain is still growing at the horizon, so the run raises an ACC alert,
  withholds its certificate and exits 1; nothing is ever split, so the
  ledger stays at 2.
* ``beads``: 2-4 triangulated strips glued in a chain at single vertices,
  trivial labels, over point trees.  The strips share only cutpoints, so
  level 0 is obstructed; the cutpoint split at the first passdown leaves
  disks, whose links are paths, so level 1 certifies.  Nothing collapses:
  the ledger is the triangle count at every level.
* ``grid``: ``rows`` x ``cols`` vertices, row j labelled Vj and the band
  between rows j and j+1 labelled Ej, split over a path tree with one
  vertex per row.  Every band carries one essential track (both ends of
  each row are marked), and collapsing it turns the band into cones from a
  track point over the two rows.  Every triangle keeps its one row edge,
  so the ledger is constant, and the link of every track point is the path
  of a row (``cols`` vertices, no simple cycle), so level 1 certifies.
  The fixture keeps the default ``link-cap=16``; grids with more than 16
  columns are certifiable by construction but exceed the cap.

Ids are seeded opaque tokens, so two seeds give the same shapes under
different names and sort orders; diagonals and glue points are seeded
too.  The shapes and sizes do not depend on the seed, so the cost of a
pass barely does.  The same seed always gives byte-identical fixture text.
"""

import random
from dataclasses import dataclass

LINK_CAP = 16


@dataclass(frozen=True)
class Expected:
    exit: int
    ledger: tuple
    cert_level: object  # int, or None when the run must not certify
    acc: bool
    level0_obstructed: bool = False


@dataclass(frozen=True)
class Op:
    label: str  # human-readable shape, e.g. "grid 4x18 H=4"
    pipeline: str
    text: str
    triangles: int
    horizon: int
    expected: Expected
    track_link: int = 0  # vertices in the link of a track point after the split

    @property
    def tri_levels(self):
        return self.triangles * (self.horizon + 1)


class Ids:
    """Seeded opaque ids: one logical key always maps to the same token."""

    def __init__(self, rng):
        self.rng = rng
        self.ids = {}
        self.used = set()

    def __call__(self, kind, *key):
        k = (kind,) + key
        tok = self.ids.get(k)
        if tok is None:
            while True:
                tok = f"{kind}{self.rng.randrange(1 << 24):06x}"
                if tok not in self.used:
                    break
            self.used.add(tok)
            self.ids[k] = tok
        return tok


def _tail(ids, structure, hierarchy, root_group, complex_name, horizon, seed, pipeline, nodes):
    lines = [
        f"hierarchy {hierarchy}",
        f"  node {ids('r')} {root_group}",
        "end",
        f"structure {structure} hierarchy={hierarchy}",
        f"  attach {ids('r')} complex={complex_name}",
        "end",
        "config",
        f"  horizon={horizon} seed={seed} link-cap={LINK_CAP} no-dinfty",
        "end",
        f"pipeline {pipeline} root={structure}",
    ]
    lines += ["  " + n for n in nodes]
    lines.append("end")
    return lines


def _point_tree(ids):
    return [f"tree {ids('PT')}", f"  vertex {ids('p')} orbit={ids('op')}", "end"]


def worked(rng, horizon):
    ids = Ids(rng)
    g = {k: ids("G", k) for k in ("G", "V1", "V2", "E", "a", "b", "c", "d", "ab", "cr", "cd", "f")}
    v = {k: ids("v", k) for k in "abcd"}
    e = {k: ids("e", k) for k in ("ab", "ac", "bc", "ad", "bd", "cd")}
    t = {k: ids("t", k) for k in ("1", "2", "3")}
    x0, x1 = ids("x", 0), ids("x", 1)
    o0, o1 = ids("o", 0), ids("o", 1)
    tree, pt, op = ids("T"), ids("PT"), ids("op")
    lines = [
        "groups",
        f"  group {g['G']}",
        f"  group {g['V1']}",
        f"  group {g['V2']}",
        f"  group {g['E']} slender helliptic sub-of={g['V1']},{g['V2']}",
        f"  group {g['a']} slender helliptic",
        f"  group {g['b']} slender helliptic",
        f"  group {g['c']} slender helliptic",
        f"  group {g['d']} slender helliptic",
        f"  group {g['ab']} slender helliptic sub-of={g['a']},{g['b']}",
        f"  group {g['cr']} slender helliptic sub-of={g['a']},{g['b']},{g['c']},{g['d']}",
        f"  group {g['cd']} slender helliptic sub-of={g['c']},{g['d']}",
        f"  group {g['f']} slender helliptic sub-of={g['ab']},{g['cd']},{g['cr']}",
        "end",
        f"complex {ids('X')}",
        f"  vertex {v['a']} marked stab={g['a']}",
        f"  vertex {v['b']} stab={g['b']}",
        f"  vertex {v['c']} marked stab={g['c']}",
        f"  vertex {v['d']} stab={g['d']}",
        f"  edge {e['ab']} {v['a']} {v['b']} stab={g['ab']}",
        f"  edge {e['ac']} {v['a']} {v['c']} stab={g['cr']}",
        f"  edge {e['bc']} {v['b']} {v['c']} stab={g['cr']}",
        f"  edge {e['ad']} {v['a']} {v['d']} stab={g['cr']}",
        f"  edge {e['bd']} {v['b']} {v['d']} stab={g['cr']}",
        f"  edge {e['cd']} {v['c']} {v['d']} stab={g['cd']}",
        f"  triangle {t['1']} {e['ab']} {e['bc']} {e['ac']} stab={g['f']}",
        f"  triangle {t['2']} {e['ab']} {e['bd']} {e['ad']} stab={g['f']}",
        f"  triangle {t['3']} {e['ac']} {e['cd']} {e['ad']} stab={g['f']}",
        "end",
        f"tree {tree}",
        f"  vertex {x0} stab={g['V1']} orbit={o0}",
        f"  vertex {x1} stab={g['V2']} orbit={o1}",
        f"  edge {ids('f')} {x0} {x1} stab={g['E']} orbit={ids('oe')}",
        "end",
        f"actions {tree}",
        f"  elliptic {g['a']} fix={x0}",
        f"  elliptic {g['b']} fix={x0}",
        f"  elliptic {g['c']} fix={x1}",
        f"  elliptic {g['d']} fix={x1}",
        f"  elliptic {g['ab']} fix={x0}",
        f"  elliptic {g['cd']} fix={x1}",
        f"  elliptic {g['cr']} fix={x0},{x1}",
        f"  elliptic {g['f']} fix={x0},{x1}",
        f"  elliptic {g['G']} fix={x0},{x1}",
        "end",
    ] + _point_tree(ids)
    w0, a0, a1 = ids("w", 0), ids("a", 0), ids("a", 1)
    name = ids("P")
    lines += _tail(ids, ids("S"), ids("K"), g["G"], ids("X"), horizon, rng.randrange(1000), name, [
        f"node {w0} tree={tree}",
        f"node {a0} parent={w0} orbit={o0} tree={pt}",
        f"node {a1} parent={w0} orbit={o1} tree={pt}",
        f"node {ids('b', 0)} parent={a0} orbit={op} repeat={a0}",
        f"node {ids('b', 1)} parent={a1} orbit={op} repeat={a1}",
    ])
    expected = Expected(exit=0, ledger=(3,) + (2,) * horizon, cert_level=1, acc=False)
    return Op(f"worked H={horizon}", name, "\n".join(lines) + "\n", 3, horizon, expected)


def chain(rng, horizon):
    ids = Ids(rng)
    s = [ids("S", k) for k in range(horizon + 2)]  # s[1] < s[2] < ... < s[horizon + 1]
    gf = ids("G", "F")
    v = {k: ids("v", k) for k in "abcd"}
    e = {k: ids("e", k) for k in ("ab", "ac", "bc", "bd", "cd")}
    bc_orbit = ids("ob")
    lines = ["groups", f"  group {gf}"]
    for k in range(horizon + 1, 0, -1):
        lines.append(f"  group {s[k]} slender" + (f" sub-of={s[k + 1]}" if k <= horizon else ""))
    lines += [
        "end",
        f"complex {ids('X')}",
        f"  vertex {v['a']} marked",
        f"  vertex {v['b']}",
        f"  vertex {v['c']}",
        f"  vertex {v['d']} marked",
        f"  edge {e['ab']} {v['a']} {v['b']}",
        f"  edge {e['ac']} {v['a']} {v['c']}",
        f"  edge {e['bc']} {v['b']} {v['c']} stabplus={s[1]} orbit={bc_orbit}",
        f"  edge {e['bd']} {v['b']} {v['d']}",
        f"  edge {e['cd']} {v['c']} {v['d']}",
        f"  triangle {ids('t', 1)} {e['ab']} {e['bc']} {e['ac']}",
        f"  triangle {ids('t', 2)} {e['bc']} {e['cd']} {e['bd']}",
        "end",
    ] + _point_tree(ids)
    pt, op = ids("PT"), ids("op")
    w = [ids("w", k) for k in range(horizon + 1)]
    nodes = [f"node {w[0]} tree={pt}"]
    nodes += [f"node {w[k]} parent={w[k - 1]} orbit={op} tree={pt}" for k in range(1, horizon)]
    nodes.append(f"node {w[horizon]} parent={w[horizon - 1]} orbit={op}")
    nodes += [f"override {w[k]} edge-orbit={bc_orbit} stabplus={s[k + 1]}" for k in range(1, horizon + 1)]
    name = ids("P")
    lines += _tail(ids, ids("S"), ids("K"), gf, ids("X"), horizon, rng.randrange(1000), name, nodes)
    expected = Expected(exit=1, ledger=(2,) * (horizon + 1), cert_level=None, acc=True)
    return Op(f"chain H={horizon}", name, "\n".join(lines) + "\n", 2, horizon, expected)


def _row(ids, lines, row, key, stab=None):
    """Emit the edges along one vertex row; returns their ids in order."""
    stab = f" stab={stab}" if stab else ""
    out = []
    for i in range(len(row) - 1):
        eid = ids("h", key, i)
        lines.append(f"  edge {eid} {row[i]} {row[i + 1]}{stab}")
        out.append(eid)
    return out


def _band(ids, lines, top, bottom, top_h, bottom_h, band, stab, rng):
    """Triangulate the band between two equally long vertex rows, whose row
    edges are already emitted; returns the triangle count."""
    stab = f" stab={stab}" if stab else ""
    n = len(top)
    u = [ids("u", band, i) for i in range(n)]
    for i in range(n):
        lines.append(f"  edge {u[i]} {top[i]} {bottom[i]}{stab}")
    for i in range(n - 1):
        d = ids("d", band, i)
        if rng.random() < 0.5:
            lines.append(f"  edge {d} {top[i]} {bottom[i + 1]}{stab}")
            lines.append(f"  triangle {ids('t', band, i, 0)} {top_h[i]} {u[i + 1]} {d}{stab}")
            lines.append(f"  triangle {ids('t', band, i, 1)} {u[i]} {bottom_h[i]} {d}{stab}")
        else:
            lines.append(f"  edge {d} {top[i + 1]} {bottom[i]}{stab}")
            lines.append(f"  triangle {ids('t', band, i, 0)} {top_h[i]} {u[i]} {d}{stab}")
            lines.append(f"  triangle {ids('t', band, i, 1)} {u[i + 1]} {bottom_h[i]} {d}{stab}")
    return 2 * (n - 1)


def beads(rng, triangles, strips, horizon):
    """A chain of ``strips`` triangulated strips with ``triangles`` in all,
    consecutive strips glued at one vertex."""
    ids = Ids(rng)
    squares = triangles // 2
    sizes = [squares // strips + (1 if k < squares % strips else 0) for k in range(strips)]
    lines = ["groups", f"  group {ids('G')}", "end", f"complex {ids('X')}"]
    vertex_lines, body = [], []
    glue = None
    total = 0
    for k, n in enumerate(sizes):
        top = [ids("v", k, 0, i) for i in range(n + 1)]
        bottom = [ids("v", k, 1, i) for i in range(n + 1)]
        if glue is not None:
            top[0] = glue
        vertex_lines += [f"  vertex {x}" for x in top + bottom if x != glue]
        top_h = _row(ids, body, top, (k, 0))
        bottom_h = _row(ids, body, bottom, (k, 1))
        total += _band(ids, body, top, bottom, top_h, bottom_h, k, None, rng)
        glue = rng.choice(top[1:] + bottom)
    lines += vertex_lines + body + ["end"] + _point_tree(ids)
    pt, op, w0 = ids("PT"), ids("op"), ids("w", 0)
    name = ids("P")
    lines += _tail(ids, ids("S"), ids("K"), ids("G"), ids("X"), horizon, rng.randrange(1000), name, [
        f"node {w0} tree={pt}",
        f"node {ids('w', 1)} parent={w0} orbit={op} repeat={w0}",
    ])
    expected = Expected(
        exit=0, ledger=(total,) * (horizon + 1), cert_level=1, acc=False, level0_obstructed=True
    )
    label = f"beads {strips}x{total // strips} H={horizon}"
    return Op(label, name, "\n".join(lines) + "\n", total, horizon, expected)


def grid(rng, rows, cols, horizon):
    ids = Ids(rng)
    vg = [ids("V", j) for j in range(rows)]
    eg = [ids("E", j) for j in range(rows - 1)]
    root = ids("G")
    lines = ["groups", f"  group {root}"]
    lines += [f"  group {g} helliptic" for g in vg]
    lines += [f"  group {eg[j]} slender helliptic sub-of={vg[j]},{vg[j + 1]}" for j in range(rows - 1)]
    lines += ["end", f"complex {ids('X')}"]
    row = [[ids("v", j, i) for i in range(cols)] for j in range(rows)]
    for j in range(rows):
        for i in range(cols):
            marked = " marked" if i in (0, cols - 1) else ""
            lines.append(f"  vertex {row[j][i]}{marked} stab={vg[j]}")
    row_h = [_row(ids, lines, row[j], j, vg[j]) for j in range(rows)]
    total = 0
    for j in range(rows - 1):
        total += _band(ids, lines, row[j], row[j + 1], row_h[j], row_h[j + 1], j, eg[j], rng)
    lines.append("end")
    tree, x, o = ids("T"), [ids("x", j) for j in range(rows)], [ids("o", j) for j in range(rows)]
    lines.append(f"tree {tree}")
    lines += [f"  vertex {x[j]} stab={vg[j]} orbit={o[j]}" for j in range(rows)]
    lines += [
        f"  edge {ids('f', j)} {x[j]} {x[j + 1]} stab={eg[j]} orbit={ids('oe', j)}" for j in range(rows - 1)
    ]
    lines += ["end", f"actions {tree}"]
    lines += [f"  elliptic {vg[j]} fix={x[j]}" for j in range(rows)]
    lines += [f"  elliptic {eg[j]} fix={x[j]},{x[j + 1]}" for j in range(rows - 1)]
    lines += [f"  elliptic {root} fix={','.join(x)}", "end"] + _point_tree(ids)
    pt, op, w0 = ids("PT"), ids("op"), ids("w", 0)
    nodes = [f"node {w0} tree={tree}"]
    nodes += [f"node {ids('a', j)} parent={w0} orbit={o[j]} tree={pt}" for j in range(rows)]
    nodes += [f"node {ids('b', j)} parent={ids('a', j)} orbit={op} repeat={ids('a', j)}" for j in range(rows)]
    name = ids("P")
    lines += _tail(ids, ids("S"), ids("K"), root, ids("X"), horizon, rng.randrange(1000), name, nodes)
    expected = Expected(exit=0, ledger=(total,) * (horizon + 1), cert_level=1, acc=False)
    label = f"grid {rows}x{cols} H={horizon}"
    return Op(label, name, "\n".join(lines) + "\n", total, horizon, expected, track_link=cols)


# Each workload is a fixed ladder of shapes; the seed picks names,
# diagonals, glue points and the order.  The ladders are fine enough that
# neighbouring shapes differ in cost by a few percent, so a percentile
# never sits in a wide gap between two shapes.
WORKED_HORIZONS = tuple(range(8, 65, 4))
CHAIN_HORIZONS = tuple(range(10, 63, 4))  # between the worked ones: 29 operations, none of equal cost
SIZE_SHAPES = (  # (triangles, strips, horizon): 32 to 196 triangles, about 14% apart
    (32, 2, 2), (36, 3, 3), (42, 4, 4), (48, 2, 3), (54, 3, 4), (62, 4, 2), (70, 2, 4),
    (80, 3, 2), (90, 4, 3), (104, 2, 2), (118, 3, 3), (134, 4, 4), (152, 2, 3),
    (172, 3, 4), (196, 4, 2),
)
SURGERY_SHAPES = (  # (rows, cols), 20 to 138 triangles; over LINK_CAP columns hits the cap
    (3, 6), (4, 7), (3, 11), (5, 7), (4, 10), (3, 17), (6, 8), (5, 11), (3, 22), (4, 17),
    (7, 9), (8, 9), (4, 20), (5, 18), (4, 24),
)
SURGERY_HORIZON = 4


def _horizon_ops(rng):
    ops = [worked(random.Random(rng.random()), h) for h in WORKED_HORIZONS]
    return ops + [chain(random.Random(rng.random()), h) for h in CHAIN_HORIZONS]


def _size_ops(rng):
    return [beads(random.Random(rng.random()), t, k, h) for t, k, h in SIZE_SHAPES]


def _surgery_ops(rng):
    return [grid(random.Random(rng.random()), r, c, SURGERY_HORIZON) for r, c in SURGERY_SHAPES]


WORKLOADS = {"horizon": _horizon_ops, "size": _size_ops, "surgery": _surgery_ops}


def generate(workload, seed):
    """The seeded operation pool of one workload, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops
