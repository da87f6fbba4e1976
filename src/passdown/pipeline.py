"""Pipeline runner: execute the full passdown level by level along a
script, gather the covolume ledger, stabilization report, tree
certificates and ascending-chain alerts."""

from collections import defaultdict
from dataclasses import dataclass

from .complexes import Complex2
from .errors import FixtureError, HypothesisError, LinkCapError
from .fixtures import FixtureSet, PipelineScript
from .hierarchy import HStructure, make_tree_level, passdown_full
from .stability import (
    LevelData,
    RunView,
    TauMap,
    build_bw,
    cone_criterion_check,
    equivalence_classes,
    stabilization_report,
)


@dataclass
class CertificateLine:
    level: int
    cid: str
    certified: bool
    bw_tree: bool
    bpw_tree: bool
    detail: str = ""


@dataclass
class RunReport:
    pipeline: str
    seed: int
    horizon: int
    ledger: tuple
    n_delta: int
    n_prime: int
    n_dprime: int
    certificate_level: int  # None when the run could not certify
    certificates: tuple
    acc_alerts: tuple
    diagnostics: tuple
    run: RunView = None

    @property
    def exit_code(self):
        return 0 if self.certificate_level is not None and not self.acc_alerts else 1

    def render(self) -> str:
        out = [
            f"pipeline {self.pipeline} (seed {self.seed}, horizon {self.horizon})",
            "covolume ledger: " + " ".join(str(c) for c in self.ledger),
            f"N_delta={self.n_delta} N'={self._fmt(self.n_prime)} N''={self._fmt(self.n_dprime)}"
            f" (horizon-relative)",
        ]
        for line in self.certificates:
            status = "trees ok" if line.certified else "obstructed"
            out.append(
                f"level {line.level} complex {line.cid}: {status}; "
                f"B_w tree={line.bw_tree} B'_w tree={line.bpw_tree}"
                + (f"; {line.detail}" if line.detail else "")
            )
        if self.certificate_level is not None:
            out.append(f"certified: every B'_w is a tree at level {self.certificate_level}")
        else:
            out.append("not certified within the horizon")
        for alert in self.acc_alerts:
            out.append(
                f"ACC alert: chain {alert.chain} still growing at the horizon "
                f"({' < '.join(alert.labels)})"
            )
        for d in self.diagnostics:
            out.append(f"note: {d}")
        out.append(f"exit {self.exit_code}")
        return "\n".join(out) + "\n"

    @staticmethod
    def _fmt(v):
        return "-" if v is None else str(v)


def _effective(script: PipelineScript, nid):
    seen = set()
    while script.nodes[nid].repeat is not None:
        if nid in seen:
            raise FixtureError(f"repeat cycle at script node {nid!r}")
        seen.add(nid)
        nid = script.nodes[nid].repeat
    return script.nodes[nid]


def _children_by_orbit(script: PipelineScript, effective_id):
    out = {}
    for nid, node in script.nodes.items():
        if node.parent == effective_id:
            if node.orbit is None:
                raise FixtureError(f"script node {nid!r} needs orbit=<vertex orbit>")
            out[node.orbit] = nid
    return out


def _apply_overrides(structure: HStructure, overrides, groups):
    if not overrides:
        return structure
    new_complexes = {}
    for nid, x in structure.terminal_complexes.items():
        if x is None:
            new_complexes[nid] = None
            continue
        plus = dict(x.stab_plus)
        touched = False
        for eid in x.edges:
            target = overrides.get(x.orbit[eid])
            if target is not None:
                groups[target]
                plus[eid] = target
                touched = True
        if touched:
            x = Complex2(
                vertices=x.vertices,
                edges=x.edges,
                faces=x.faces,
                stab=x.stab,
                orbit=x.orbit,
                boundary_marked=x.boundary_marked,
                stab_plus=plus,
            )
        new_complexes[nid] = x
    return HStructure(hierarchy=structure.hierarchy, terminal_complexes=new_complexes)


def run_pipeline(fx: FixtureSet, name: str) -> RunReport:
    """Execute the scripted passdown to the horizon and analyze the run."""
    if name not in fx.pipelines:
        raise FixtureError(f"unknown pipeline {name!r}")
    script = fx.pipelines[name]
    config = fx.config
    config.validate()
    groups = fx.groups.copy()  # the run mints into its own table; fx stays as parsed
    tables = {}  # tree name -> action table over the run's groups
    diagnostics = []

    root_struct = fx.structures[script.root_structure]
    active = [(script.root_node, script.root_node, root_struct)]
    levels = []
    taus = []
    for n in range(config.horizon + 1):
        level_complexes = {}
        for inst, _nid, ks in active:
            for tid, x in ks.complexes().items():
                level_complexes[f"{inst}/{tid}"] = x
        levels.append(LevelData(complexes=level_complexes))
        if n == config.horizon:
            break
        tau_tri = {}
        tau_edge = {}
        next_active = []
        for inst, nid, ks in active:
            node = _effective(script, nid)
            if node.tree is None:
                raise FixtureError(
                    f"script node {nid!r} has no tree but the horizon is not reached; "
                    "stall the branch with a point tree instead"
                )
            if node.tree not in tables:
                tables[node.tree] = fx.action_table(node.tree).over(groups)
            tl = make_tree_level(
                node.tree,
                fx.trees[node.tree],
                tables[node.tree],
                groups,
                jsj=node.tree in fx.jsj_trees,
            )
            for gid in sorted(config.relative_class):
                if tl.actions.has_entry(gid) and tl.actions.classification(gid) != "elliptic":
                    raise HypothesisError(
                        f"group {gid!r} of the relative class is not elliptic on "
                        f"tree {node.tree!r}",
                        lemma="relative-class",
                    )
            result = passdown_full(ks, tl, groups=groups, no_dinfty=config.no_dinfty)
            children = _children_by_orbit(script, node.id)
            for orbit in sorted(tl.gog.vertices):
                if orbit not in children:
                    raise FixtureError(
                        f"script node {nid!r}: no child declared for vertex orbit {orbit!r} "
                        f"of tree {node.tree!r}"
                    )
            child_inst = {}
            for orbit, cnid in sorted(children.items()):
                structure = _apply_overrides(
                    result.structures.get(orbit), script.nodes[cnid].overrides, groups
                )
                inst_id = f"{inst}.{cnid}"
                child_inst[orbit] = inst_id
                next_active.append((inst_id, cnid, structure))
            for tid, places in result.placements.items():
                src_cid = f"{inst}/{tid}"
                for fid, (orbit, out_node, img_fid) in places.items():
                    dst_cid = f"{child_inst[orbit]}/{out_node}"
                    tau_tri[(src_cid, fid)] = (dst_cid, img_fid)
            for tid, frag in result.fragments.items():
                src_cid = f"{inst}/{tid}"
                for (fid, eid), img_eid in frag.edge_map.items():
                    if (src_cid, fid) in tau_tri:
                        tau_edge[((src_cid, fid), eid)] = img_eid
        taus.append(TauMap(triangle=tau_tri, edge=tau_edge))
        active = next_active

    run = RunView(levels=levels, taus=taus, groups=groups)
    report = stabilization_report(run, link_cap=config.link_cap)
    ledger = tuple(lvl.covolume() for lvl in levels)

    certificates = []
    certificate_level = None
    floor = max(
        report.n_delta,
        report.n_prime if report.n_prime is not None else config.horizon + 1,
        report.n_dprime if report.n_dprime is not None else config.horizon + 1,
    )
    for n in range(floor, config.horizon + 1):
        classes = equivalence_classes(run, n, None, groups)
        per_complex = defaultdict(list)
        for cls in classes:
            per_complex[cls.cid].append(cls)
        all_ok = True
        lines = []
        for cid in sorted(run.levels[n].complexes):
            x = run.levels[n].complexes[cid]
            if not x.triangles():
                continue
            try:
                result = cone_criterion_check(x, per_complex[cid], groups, config.link_cap)
            except LinkCapError as exc:
                lines.append(CertificateLine(n, cid, False, False, False, detail=str(exc)))
                all_ok = False
                continue
            _bw, bpw = build_bw(x, per_complex[cid], groups)
            line = CertificateLine(
                level=n,
                cid=cid,
                certified=result.certified and bpw.is_tree(),
                bw_tree=result.bw_tree,
                bpw_tree=bpw.is_tree(),
                detail="cap reached at " + ",".join(result.cap_hit) if result.cap_hit else "",
            )
            lines.append(line)
            all_ok = all_ok and line.certified
        certificates.extend(lines)
        if all_ok:
            if not report.acc_alerts:
                certificate_level = n
            break
    if report.n_prime is None:
        diagnostics.append("class structure did not stabilize within the horizon")
    if report.n_dprime is None and report.n_prime is not None:
        diagnostics.append("stable pairs did not pull back within the horizon")
    if report.acc_alerts:
        diagnostics.append(
            "ascending stabilizer chain still growing at the horizon; "
            "certificates withheld (the chain condition looks violated)"
        )

    return RunReport(
        pipeline=name,
        seed=config.seed,
        horizon=config.horizon,
        ledger=ledger,
        n_delta=report.n_delta,
        n_prime=report.n_prime,
        n_dprime=report.n_dprime,
        certificate_level=certificate_level,
        certificates=tuple(certificates),
        acc_alerts=report.acc_alerts,
        diagnostics=tuple(diagnostics),
        run=run,
    )
