"""Pipeline runner: execute the full passdown level by level along a
script, gather the covolume ledger, stabilization report, tree
certificates and ascending-chain alerts."""

from collections import defaultdict
from dataclasses import dataclass

from .errors import FixtureError, HypothesisError
from .fixtures import FixtureSet, PipelineScript
from .hierarchy import make_tree_level, passdown_full
from .provenance import TauFragment
from .stability import LevelData, RunView, cone_criterion_check, stabilization_report


@dataclass
class CertificateLine:
    level: int
    cid: str
    certified: bool
    bw_tree: bool
    bpw_tree: bool


@dataclass
class RunReport:
    pipeline: str
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
    classes: dict = None  # level -> equivalence classes, shared with the stabilization report

    @property
    def exit_code(self):
        return 0 if self.certificate_level is not None and not self.acc_alerts else 1

    def render(self) -> str:
        out = [
            f"pipeline {self.pipeline} (horizon {self.horizon})",
            "covolume ledger: " + " ".join(str(c) for c in self.ledger),
            f"N_delta={self.n_delta} N'={self.n_prime} N''={self.n_dprime}"
            f" (horizon-relative)",
        ]
        for line in self.certificates:
            status = "trees ok" if line.certified else "obstructed"
            out.append(
                f"level {line.level} complex {line.cid}: {status}; "
                f"B_w tree={line.bw_tree} B'_w tree={line.bpw_tree}"
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


def _effective(script: PipelineScript, nid):
    seen = set()
    while script.nodes[nid].repeat is not None:
        if nid in seen:
            raise FixtureError(f"repeat cycle at script node {nid!r}")
        seen.add(nid)
        nid = script.nodes[nid].repeat
    return script.nodes[nid]


def _children_index(script: PipelineScript):
    """Script node id -> the ids of its children, in script order."""
    out = {}
    for nid, node in script.nodes.items():
        out.setdefault(node.parent, []).append(nid)
    return out


def _children_by_orbit(script: PipelineScript, child_ids):
    """Vertex orbit -> child node id; a child without an orbit is an error
    only once its parent is expanded."""
    out = {}
    for nid in child_ids:
        node = script.nodes[nid]
        if node.orbit is None:
            raise FixtureError(f"script node {nid!r} needs orbit=<vertex orbit>")
        out[node.orbit] = nid
    return out


def _apply_overrides(terminals, overrides, groups):
    if not overrides:
        return terminals
    out = {}
    for tid, (gid, x) in terminals.items():
        plus = dict(x.stab_plus)
        touched = False
        for eid in x.edges:
            target = overrides.get(x.orbit[eid])
            if target is not None:
                groups[target]
                plus[eid] = target
                touched = True
        if touched:
            x = x.relabel(stab_plus=plus)
        out[tid] = (gid, x)
    return out


def run_pipeline(fx: FixtureSet, name: str) -> RunReport:
    """Execute the scripted passdown to the horizon and analyze the run."""
    if name not in fx.pipelines:
        raise FixtureError(f"unknown pipeline {name!r}")
    script = fx.pipelines[name]
    config = fx.config
    config.validate()
    groups = fx.groups.copy()  # the run mints into its own table; fx stays as parsed
    tree_levels = {}  # tree name -> its TreeLevel over the run's groups, one per run
    children_of = _children_index(script)

    # (instance id, script node id, {terminal id: (group, complex)})
    active = [(script.root_node, script.root_node, fx.structures[script.root_structure].terminals())]
    levels = []
    taus = []
    for n in range(config.horizon + 1):
        level_complexes = {}
        for inst, _nid, terminals in active:
            for tid, (_gid, x) in terminals.items():
                level_complexes[f"{inst}/{tid}"] = x
        levels.append(LevelData(complexes=level_complexes))
        if n == config.horizon:
            break
        tau = TauFragment()  # keyed (complex id, face id)
        next_active = []
        for inst, nid, terminals in active:
            node = _effective(script, nid)
            if node.tree is None:
                raise FixtureError(
                    f"script node {nid!r} has no tree but the horizon is not reached; "
                    "stall the branch with a point tree instead"
                )
            tl = tree_levels.get(node.tree)
            if tl is None:
                tl = tree_levels[node.tree] = make_tree_level(
                    node.tree, fx.trees[node.tree], fx.action_table(node.tree).over(groups)
                )
            for gid in sorted(config.relative_class):
                if tl.actions.has_entry(gid) and tl.actions.classification(gid) != "elliptic":
                    raise HypothesisError(
                        f"group {gid!r} of the relative class is not elliptic on "
                        f"tree {node.tree!r}",
                        lemma="relative-class",
                    )
            result = passdown_full(terminals, tl)
            children = _children_by_orbit(script, children_of.get(node.id, ()))
            for orbit in sorted(tl.gog.vertices):
                if orbit not in children:
                    raise FixtureError(
                        f"script node {nid!r}: no child declared for vertex orbit {orbit!r} "
                        f"of tree {node.tree!r}"
                    )
            images = {}  # (vertex orbit, terminal id) -> complex id at level n+1
            for orbit, cnid in sorted(children.items()):
                if orbit not in result.terminals:
                    raise FixtureError(
                        f"script node {cnid!r}: orbit {orbit!r} names no vertex orbit "
                        f"of tree {node.tree!r}"
                    )
                received = _apply_overrides(result.terminals[orbit], script.nodes[cnid].overrides, groups)
                inst_id = f"{inst}.{cnid}"
                images.update(((orbit, tid), f"{inst_id}/{tid}") for tid in received)
                next_active.append((inst_id, cnid, received))
            tau.update(result.tau.located({tid: f"{inst}/{tid}" for tid in terminals}, images))
        taus.append(tau)
        active = next_active

    return analyze_run(name, RunView(levels=levels, taus=taus, groups=groups))


def analyze_run(name: str, run: RunView) -> RunReport:
    """The report of pipeline ``name`` on a finished run: the stability
    analysis, then the certificate loop from N'' up."""
    groups = run.groups
    diagnostics = []
    report = stabilization_report(run)

    certificates = []
    certificate_level = None
    for n in range(report.n_dprime, run.horizon + 1):  # N_delta <= N' <= N''
        per_complex = defaultdict(list)
        for cls in report.classes[n]:
            per_complex[cls.cid].append(cls)
        all_ok = True
        for cid in sorted(run.levels[n].complexes):
            x = run.levels[n].complexes[cid]
            if not x.triangles():
                continue
            result = cone_criterion_check(x, per_complex[cid], groups)
            line = CertificateLine(
                level=n,
                cid=cid,
                certified=result.certified and result.bpw_tree,
                bw_tree=result.bw_tree,
                bpw_tree=result.bpw_tree,
            )
            certificates.append(line)
            all_ok = all_ok and line.certified
        if all_ok:
            if not report.acc_alerts:
                certificate_level = n
            break
    if report.acc_alerts:
        diagnostics.append(
            "ascending stabilizer chain still growing at the horizon; "
            "certificates withheld (the chain condition looks violated)"
        )

    return RunReport(
        pipeline=name,
        horizon=run.horizon,
        ledger=report.ledger,
        n_delta=report.n_delta,
        n_prime=report.n_prime,
        n_dprime=report.n_dprime,
        certificate_level=certificate_level,
        certificates=tuple(certificates),
        acc_alerts=report.acc_alerts,
        diagnostics=tuple(diagnostics),
        run=run,
        classes=report.classes,
    )
