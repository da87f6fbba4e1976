"""Pipeline runner: execute the full passdown level by level along a
script, gather the covolume ledger, stabilization report, tree
certificates and ascending-chain alerts."""

from collections import defaultdict
from dataclasses import dataclass

from .errors import FixtureError, HypothesisError
from .fixtures import FixtureSet, PipelineScript
from .hierarchy import make_tree_level, passdown_full
from .provenance import TauFragment
from .stability import LevelClasses, LevelData, RunView, cone_criterion_check, stabilization_report


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
    classes: LevelClasses = None  # level -> equivalence classes, shared with the stabilization report

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


def _children_by_orbit(script: PipelineScript, nid, node, tl, child_ids):
    """[(vertex orbit, child node id)] in orbit order, for script node
    ``nid`` expanded as ``node`` over ``tl``: one child per vertex orbit
    of the tree.  A child without an orbit is an error only once its
    parent is expanded."""
    out = {}
    for cnid in child_ids:
        if script.nodes[cnid].orbit is None:
            raise FixtureError(f"script node {cnid!r} needs orbit=<vertex orbit>")
        out[script.nodes[cnid].orbit] = cnid
    for orbit in sorted(tl.gog.vertices):
        if orbit not in out:
            raise FixtureError(f"script node {nid!r}: no child declared for vertex orbit {orbit!r} of tree {node.tree!r}")
    children = sorted(out.items())
    for orbit, cnid in children:
        if orbit not in tl.gog.vertices:
            raise FixtureError(f"script node {cnid!r}: orbit {orbit!r} names no vertex orbit of tree {node.tree!r}")
    return children


def _apply_overrides(terminals, overrides):
    """The terminals with every edge of an overridden edge orbit given the
    override as its oriented label; a complex with no such edge is kept."""
    out = {}
    for tid, (gid, x) in terminals.items():
        orbit = x.orbit
        touched = {eid: overrides[orbit[eid]] for eid in x.edges if orbit[eid] in overrides}
        if touched:
            x = x.relabel(stab_plus={**x.stab_plus, **touched})
        out[tid] = (gid, x)
    return out


def run_pipeline(fx: FixtureSet, name: str) -> RunReport:
    """Execute the scripted passdown to the horizon and analyze the run.

    Group ids named by the relative class or an override are looked up
    before level 0.  Each script node is derived once, at its first
    expansion, with the checks in level order: its effective node, tree
    level and relative-class check before the passdown, its children by
    vertex orbit (with their overrides) after it.  Each complex id is
    formatted once per instance, where the instance is made; a level's
    complexes are gathered as its instances are made.  An identity step's
    τ is recorded as a renaming: it has one vertex orbit, so one child."""
    if name not in fx.pipelines:
        raise FixtureError(f"unknown pipeline {name!r}")
    script = fx.pipelines[name]
    config = fx.config
    config.validate()
    groups = fx.groups.copy()  # the run mints into its own table; fx stays as parsed
    for gid in sorted(config.relative_class) + [g for node in script.nodes.values() for g in node.overrides.values()]:
        groups[gid]  # raises on an id that no group line declares
    tree_levels = {}  # tree name -> its TreeLevel over the run's groups, one per run
    children_of = _children_index(script)
    expansions = {}  # script node id -> [effective node, its TreeLevel, its children once derived]

    root, terminals = script.root_node, fx.structures[script.root_structure].terminals()
    cids = {tid: f"{root}/{tid}" for tid in terminals}
    # (instance id, script node id, {terminal id: (group, complex)}, {terminal id: complex id})
    active = [(root, root, terminals, cids)]
    levels = [LevelData(complexes={cids[tid]: x for tid, (_gid, x) in terminals.items()})]
    taus = []
    for _n in range(config.horizon):
        tau = TauFragment()  # keyed (complex id, face id)
        complexes, next_active = {}, []
        for inst, nid, terminals, cids in active:
            expansion = expansions.get(nid)
            if expansion is None:
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
                            f"group {gid!r} of the relative class is not elliptic on tree {node.tree!r}", lemma="relative-class"
                        )
                expansion = expansions[nid] = [node, tl, None]
            node, tl, by_orbit = expansion
            result = passdown_full(terminals, tl)
            renamed = result.tau.renamed
            if by_orbit is None:
                by_orbit = expansion[2] = [
                    (orbit, cnid, script.nodes[cnid].overrides)
                    for orbit, cnid in _children_by_orbit(script, nid, node, tl, children_of.get(node.id, ()))
                ]
            images = {}  # (vertex orbit, terminal id) -> complex id at level n+1
            for orbit, cnid, overrides in by_orbit:
                received = result.terminals[orbit]
                if overrides:
                    received = _apply_overrides(received, overrides)
                inst_id = f"{inst}.{cnid}"
                child_ids = {}
                for tid, (_gid, x) in received.items():
                    cid = child_ids[tid] = f"{inst_id}/{tid}"
                    complexes[cid] = x
                next_active.append((inst_id, cnid, received, child_ids))
                if not renamed:
                    images.update(((orbit, tid), cid) for tid, cid in child_ids.items())
            if renamed:  # an identity step: its one child receives the images of ``renamed``, in order
                tau.renamed.update(zip(map(cids.__getitem__, renamed), child_ids.values()))
            else:
                tau.update(result.tau.located(cids, images))
        taus.append(tau)
        levels.append(LevelData(complexes=complexes))
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
