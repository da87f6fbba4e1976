"""Symbolic group references and their declared partial subgroup order.

Groups are never materialized: a GroupRef carries an opaque id plus the
validated predicate flags (slender, elliptic-in-every-level, finite) that
the constructions actually consume.  The subgroup order is *declared*, not
decided: ``declared_supergroups`` lists ids the group is asserted to sit
inside, and a GroupTable closes that relation transitively.
"""

from dataclasses import dataclass

from .errors import ConsistencyError, FixtureError

TRIVIAL = "1"


@dataclass(frozen=True)
class GroupRef:
    id: str
    is_slender: bool = False
    is_h_elliptic: bool = False
    is_finite: bool = False
    declared_supergroups: frozenset = frozenset()

    def __post_init__(self):
        if self.is_finite and not self.is_slender:
            raise ConsistencyError(f"group {self.id!r}: finite groups are slender")


class GroupTable:
    """Registry of GroupRefs with the declared subgroup order.

    The trivial group ``"1"`` is always present and sits below everything.
    Surgery operations mint fresh refs here; extra containments discovered
    mid-run (merged oriented-edge stabilizers) are recorded with
    :meth:`declare_leq` without touching the frozen refs.
    """

    def __init__(self, refs=()):
        self._refs = {TRIVIAL: GroupRef(TRIVIAL, is_slender=True, is_h_elliptic=True, is_finite=True)}
        self._extra_leq = set()
        self._mint_counter = 0
        for ref in refs:
            self.add(ref)

    def add(self, ref: GroupRef) -> GroupRef:
        if ref.id in self._refs and self._refs[ref.id] != ref:
            raise FixtureError(f"group {ref.id!r} declared twice with different data")
        self._refs[ref.id] = ref
        return ref

    def __contains__(self, gid):
        return gid in self._refs

    def __getitem__(self, gid) -> GroupRef:
        try:
            return self._refs[gid]
        except KeyError:
            raise FixtureError(f"unknown group id {gid!r}") from None

    def ids(self):
        return set(self._refs)

    def declare_leq(self, sub: str, sup: str):
        """Record a containment discovered after the refs were frozen."""
        self[sub], self[sup]
        self._extra_leq.add((sub, sup))

    def copy(self) -> "GroupTable":
        """An independent table with the same refs, containments and mint
        counter: minting into the copy leaves this table unchanged."""
        out = GroupTable()
        out._refs = dict(self._refs)
        out._extra_leq = set(self._extra_leq)
        out._mint_counter = self._mint_counter
        return out

    def _parents(self, gid):
        out = set(self[gid].declared_supergroups)
        out.update(sup for sub, sup in self._extra_leq if sub == gid)
        return out

    def leq(self, a: str, b: str) -> bool:
        """Reflexive-transitive declared order: is a a subgroup of b?"""
        if a == b or a == TRIVIAL:
            return True
        seen, todo = {a}, [a]
        while todo:
            for parent in self._parents(todo.pop()):
                if parent == b:
                    return True
                if parent not in seen:
                    seen.add(parent)
                    todo.append(parent)
        return False

    def equal(self, a: str, b: str) -> bool:
        return self.leq(a, b) and self.leq(b, a)

    def validate(self):
        """Check flag closure along the declared order.

        Slenderness and H-ellipticity pass to subgroups; declared-equal
        groups (mutual containment) must agree on every flag.
        """
        for gid in self._refs:
            ref = self._refs[gid]
            for sup in self._parents(gid):
                if sup not in self._refs:
                    raise FixtureError(f"group {gid!r}: unknown supergroup {sup!r}")
                sup_ref = self._refs[sup]
                if sup_ref.is_slender and not ref.is_slender:
                    raise ConsistencyError(
                        f"group {gid!r} is declared inside slender {sup!r} but not flagged slender"
                    )
                if sup_ref.is_h_elliptic and not ref.is_h_elliptic:
                    raise ConsistencyError(
                        f"group {gid!r} is declared inside {sup!r} (elliptic on every level) "
                        "but not flagged so itself"
                    )
        for a in self._refs:
            for b in self._parents(a):
                if self.leq(b, a):
                    ra, rb = self._refs[a], self._refs[b]
                    if (ra.is_slender, ra.is_h_elliptic, ra.is_finite) != (
                        rb.is_slender,
                        rb.is_h_elliptic,
                        rb.is_finite,
                    ):
                        raise ConsistencyError(f"declared-equal groups {a!r}, {b!r} disagree on flags")

    def mint(self, prefix: str, supergroups=(), slender=False, h_elliptic=False) -> GroupRef:
        """Create a fresh ref below ``supergroups``, flags closed downward."""
        sups = frozenset(supergroups)
        for sup in sups:
            ref = self[sup]
            slender = slender or ref.is_slender
            h_elliptic = h_elliptic or ref.is_h_elliptic
        while True:
            gid = f"{prefix}.{self._mint_counter}"
            self._mint_counter += 1
            if gid not in self._refs:
                break
        return self.add(GroupRef(gid, is_slender=slender, is_h_elliptic=h_elliptic, declared_supergroups=sups))

    def slender(self, gid: str) -> bool:
        return self[gid].is_slender

    def h_elliptic(self, gid: str) -> bool:
        return self[gid].is_h_elliptic
